#!/usr/bin/env python3
"""Run a command and compare its stdout byte-for-byte with a golden file.

    python3 tools/golden_diff.py GOLDEN -- COMMAND [ARGS...]

Exits 0 when the output equals GOLDEN.  Otherwise prints a unified diff
(golden first, at most 40 lines) and exits 1; a command that fails exits
with its own status after echoing the tail of its stdout (paper_check
prints its failing cells last).  The five fixed-seed counter dumps
(`hc3i_sim configs/small/*.conf --dump-counters` and four `hc3i_sim
configs/scale/... --dump-counters [--campaign=...]` runs) and the
`paper_check` table (bench/paper_check.txt) are registered as ctest tests
through this script, so drift fails the local tier-1 run and not only CI.
"""

import difflib
import subprocess
import sys

MAX_DIFF_LINES = 40


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_path, command = argv[1], argv[3:]
    run = subprocess.run(command, stdout=subprocess.PIPE)
    if run.returncode != 0:
        tail = run.stdout.decode(errors="replace").splitlines(keepends=True)
        sys.stdout.writelines(tail[-MAX_DIFF_LINES:])
        print("golden_diff: %s exited %d" % (command[0], run.returncode),
              file=sys.stderr)
        return run.returncode
    with open(golden_path, "rb") as f:
        golden = f.read()
    if run.stdout == golden:
        return 0
    print("golden_diff: stdout of %s differs from %s"
          % (" ".join(command), golden_path))
    diff = list(difflib.unified_diff(
        golden.decode(errors="replace").splitlines(keepends=True),
        run.stdout.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden_path, tofile="stdout"))
    sys.stdout.writelines(diff[:MAX_DIFF_LINES])
    if len(diff) > MAX_DIFF_LINES:
        print("... %d more diff lines" % (len(diff) - MAX_DIFF_LINES))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
