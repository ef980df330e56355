#!/usr/bin/env python3
"""hc3i-lint: determinism & ownership invariants, machine-checked.

The repo's repro contract is byte-identical fixed-seed ``--dump-counters``
goldens, and the sharded runner's thread-safety rests on "shards share only
immutable specs/plans".  Both used to be policed by runtime tests and
reviewer vigilance only; this tool makes them static, per-commit checks.
Rules (IDs are stable; docs/invariants.md maps each to the invariant it
enforces):

  det-wallclock  no wall-clock or entropy source in simulation code
                 (std::chrono clocks, time(), clock(), rand()/srand(),
                 std::random_device, mt19937, getenv) — the single
                 sanctioned use lives in src/util/walltime.hpp and is
                 baselined, not special-cased here.
  det-unordered  no std::unordered_map/set declarations: their iteration
                 order is implementation-defined, and one iteration feeding
                 a counter, report, dump, or wire encoding breaks the
                 golden contract.  Membership-only uses are tagged
                 ``// lint: unordered-ok(<reason>)`` at the declaration.
  det-ptrkey     no pointer-valued keys in associative containers and no
                 address-derived integers (reinterpret_cast to
                 uintptr_t/size_t, std::hash<T*>): addresses vary run to
                 run, so anything they feed — seeds, ordering, dumps — is
                 nondeterministic.
  check-pure     HC3I_CHECK / assert arguments must be side-effect free
                 (no ++/--, no assignment, no calls from the curated
                 mutating-name list): HC3I_DISABLE_CHECKS compiles checks
                 out without evaluating arguments, so a side-effecting
                 check changes behaviour between build modes.
  own-static     no mutable static / thread_local / namespace-scope global
                 state in src/ outside the arena/registry allowlist — the
                 sharded runner's no-sharing claim, statically.  Allowlisted
                 sites are tagged ``// lint: static-ok(<reason>)``.
  trace-guarded  every trace emission site in src/ must go through the
                 self-guarding HC3I_OBS macro, which null-tests the
                 recorder pointer.  A raw ``obs->emit(...)`` crashes when
                 tracing is off, defeating the zero-cost-when-off
                 contract.  The implementation home (src/obs/) is
                 excluded; sanctioned raw calls elsewhere are tagged
                 ``// lint: trace-ok(<reason>)``.

Suppression, two mechanisms, both reason-carrying:

  * inline tag ``// lint: <rule-suffix>-ok(<reason>)`` on the offending
    line, or in the comment block immediately above it;
  * a file-scoped entry in tools/lint_baseline.txt:
    ``<rule-id><TAB><path><TAB><reason>``.

Empty reasons are rejected.  Under ``--strict``, baseline entries that no
longer match any finding are rejected too (a stale suppression is a hole).

Engine: a token/regex scan over comment- and string-stripped source.  It
needs nothing beyond the Python standard library, so CI can never skip it.

Usage:
    python3 tools/hc3i_lint.py [--strict]
                               [--baseline=tools/lint_baseline.txt]
                               [paths...]
Default scan set: src/, examples/, bench/ under the repo root (own-static
and check-pure scoping per rule, see RULE_SCOPES).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --- rule table -------------------------------------------------------------

RULES = {
    "det-wallclock": "wall-clock/entropy source in simulation code",
    "det-unordered": "unordered container (iteration order is not stable)",
    "det-ptrkey": "pointer key / address-derived value",
    "check-pure": "side effect inside HC3I_CHECK/assert argument",
    "own-static": "mutable static/thread_local/global state",
    "trace-guarded": "unguarded trace emission (use HC3I_OBS)",
}

# Tag suffix "unordered-ok(...)" -> rule id.
TAG_FOR_RULE = {
    "det-wallclock": "wallclock-ok",
    "det-unordered": "unordered-ok",
    "det-ptrkey": "ptrkey-ok",
    "check-pure": "check-ok",
    "own-static": "static-ok",
    "trace-guarded": "trace-ok",
}
RULE_FOR_TAG = {v: k for k, v in TAG_FOR_RULE.items()}

# Which top-level dirs each rule scans.  own-static is src-only by design:
# examples and benches are drivers, their globals (arg parsing, alloc
# counters) are not simulation state.  trace-guarded is src-only too:
# examples/benches own the recorder they emit into, so a raw emit there is
# a driver choice, not a hot-path hazard.
RULE_SCOPES = {
    "det-wallclock": ("src", "examples", "bench"),
    "det-unordered": ("src", "examples", "bench"),
    "det-ptrkey": ("src", "examples", "bench"),
    "check-pure": ("src", "examples", "bench"),
    "own-static": ("src",),
    "trace-guarded": ("src",),
}

CXX_EXTS = (".cpp", ".hpp", ".cc", ".h", ".cxx", ".hxx")


@dataclass
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    snippet: str
    suppressed_by: str = ""  # "", "tag", or "baseline"

    def render(self) -> str:
        return (f"{self.path}:{self.line}: [{self.rule}] "
                f"{RULES[self.rule]}: {self.snippet.strip()}")


@dataclass
class BaselineEntry:
    rule: str
    path: str
    reason: str
    lineno: int
    hits: int = 0


@dataclass
class FileScan:
    findings: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # malformed tags etc.


# --- source preprocessing ---------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving offsets.

    Newlines inside block comments survive so line numbers stay exact.
    Handles // and /* */, "..." with escapes, '...' with escapes, and the
    raw-string form R"delim(...)delim".
    """
    out = list(text)
    i, n = 0, len(text)

    def blank(a: int, b: int) -> None:
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            blank(i, j + 2)
            i = j + 2
        elif c == "R" and text[i:i + 2] == 'R"':
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n - len(close) if j < 0 else j
                blank(i, j + len(close))
                i = j + len(close)
            else:
                i += 1
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, min(j, n))
            i = min(j, n) + 1
        else:
            i += 1
    return "".join(out)


TAG_RE = re.compile(r"lint:\s*([a-z0-9-]+)-ok\s*\(")


def collect_tags(raw_lines, path):
    """Return ({line -> set(rule)}, errors).

    A tag suppresses findings from its own line through the next
    non-comment, non-blank line (inclusive) — so a tag inside the comment
    block above a declaration covers the declaration.  The reason between
    the parentheses may span lines; it must contain a non-space character.
    """
    suppress = {}
    errors = []
    joined = "".join(raw_lines)
    line_starts = [0]
    for ln in raw_lines:
        line_starts.append(line_starts[-1] + len(ln))

    def offset_to_line(off: int) -> int:
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if line_starts[mid + 1] <= off:
                lo = mid + 1
            else:
                hi = mid
        return lo  # 0-based

    for m in TAG_RE.finditer(joined):
        suffix = m.group(1) + "-ok"
        tag_line = offset_to_line(m.start())
        if suffix not in RULE_FOR_TAG:
            errors.append(f"{path}:{tag_line + 1}: unknown lint tag "
                          f"'{suffix}' (known: "
                          f"{', '.join(sorted(RULE_FOR_TAG))})")
            continue
        rule = RULE_FOR_TAG[suffix]
        # Reason: scan to the matching close paren (may span lines).
        depth, j = 1, m.end()
        while j < len(joined) and depth > 0:
            if joined[j] == "(":
                depth += 1
            elif joined[j] == ")":
                depth -= 1
            j += 1
        reason = joined[m.end():j - 1]
        if depth != 0 or not reason.strip():
            errors.append(f"{path}:{tag_line + 1}: lint tag '{suffix}' "
                          "needs a non-empty (reason)")
            continue
        # Window: tag line through the next non-comment, non-blank line —
        # so a tag in the comment block above a declaration covers it, and
        # a trailing tag covers its own line.
        k = offset_to_line(j - 1) + 1
        while k < len(raw_lines):
            probe = raw_lines[k].strip()
            if probe and not probe.startswith(("//", "/*", "*")):
                break
            k += 1
        for ln in range(tag_line, min(k, len(raw_lines) - 1) + 1):
            suppress.setdefault(ln + 1, set()).add(rule)
    return suppress, errors


# --- rule scanners ---------------------------------------------------------

WALLCLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\brandom_device\b"
    r"|\bmt19937(?:_64)?\b"
    r"|(?:(?<=std::)|(?<![\w.:]))(?:rand|srand|time|clock|getenv)\s*\(")

UNORDERED_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")

PTRKEY_RES = (
    re.compile(r"\b(?:unordered_)?(?:map|set|multimap|multiset)\s*<"
               r"[^<>,]*\*\s*[,>]"),
    re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?"
               r"(?:u?intptr_t|size_t|u?int64_t|u?int32_t)\s*>"),
    re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"),
)

STATIC_HEAD_RE = re.compile(
    r"^\s*(?:inline\s+)?(?:static|thread_local)\b"
    r"|^\s*static\s+thread_local\b")
INLINE_VAR_RE = re.compile(r"^\s*inline\s+(?!namespace\b)")
# A declaration of a g_-named global: type token(s), then the name.  The
# repo names namespace-scope mutable globals g_*, so the naming convention
# itself becomes the detector for globals the static/thread_local patterns
# cannot see (anonymous-namespace definitions carry no storage keyword).
# Assignments like `g_sink = ...` do not match: there is no preceding type
# token.
GLOBAL_NAME_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w:]*(?:<[^<>]*>)?[\s*&]+)g_\w+\s*[;={]")
CONSTNESS_RE = re.compile(r"\b(?:const|constexpr|consteval)\b")

# Curated for THIS repo: names that always mutate here.  `store` is
# deliberately absent — `Runtime::store(ClusterId)` is the repo's ClcStore
# accessor idiom, not std::atomic::store; atomic writes are still caught
# via fetch_*/exchange and plain assignment.
MUTATING_CALLS = (
    "push_back", "pop_back", "emplace_back", "emplace_front", "emplace",
    "push", "pop", "insert", "erase", "clear", "reset", "release",
    "resize", "assign", "exchange", "swap", "advance", "consume",
    "commit", "install", "schedule", "cancel", "send", "deliver",
)
# Member calls of the curated names and prefixes; qualified free calls
# (`ns::name(`) of the curated names; and any write* call, free or member
# (`obs::write_text_file(...)` inside a check would skip the write under
# HC3I_DISABLE_CHECKS).  The prefixes stay member-only: `std::next(it)` is
# pure.
MUTATING_CALL_RE = re.compile(
    r"(?:(?:\.|->)\s*(?:" + "|".join(MUTATING_CALLS) + r"|set_\w+|add_\w+"
    r"|fetch_\w+|mark_\w+|bump\w*|next\w*)"
    r"|::\s*(?:" + "|".join(MUTATING_CALLS) + r")"
    r"|\bwrite\w*)\s*\(")
CHECK_HEAD_RE = re.compile(r"\b(?:HC3I_CHECK|assert)\s*\(")

# Trace emission: a member emit(...) call (the only emit-named member in
# src/ is the trace sink, obs::Recorder).  The macro body lives in the
# excluded home, so every properly guarded site is invisible to this scan.
TRACE_EMIT_RE = re.compile(r"(?:\.|->)\s*emit\s*\(")
# Implementation home: the guard macro and the emit definition live here;
# a raw call inside it IS the mechanism, not a bypass.
TRACE_EMIT_HOME_DIR = "src/obs/"


def scan_trace_guarded(stripped_lines, out, path):
    if path.startswith(TRACE_EMIT_HOME_DIR):
        return
    for i, line in enumerate(stripped_lines, start=1):
        if TRACE_EMIT_RE.search(line):
            out.append(Finding("trace-guarded", path, i, line))


def scan_wallclock(stripped_lines, out, path):
    for i, line in enumerate(stripped_lines, start=1):
        if line.lstrip().startswith("#include"):
            continue
        m = WALLCLOCK_RE.search(line)
        if m:
            out.append(Finding("det-wallclock", path, i, line))


def scan_unordered(stripped_lines, out, path):
    for i, line in enumerate(stripped_lines, start=1):
        if line.lstrip().startswith("#include"):
            continue
        if UNORDERED_RE.search(line):
            out.append(Finding("det-unordered", path, i, line))


def scan_ptrkey(stripped_lines, out, path):
    for i, line in enumerate(stripped_lines, start=1):
        for rex in PTRKEY_RES:
            if rex.search(line):
                out.append(Finding("det-ptrkey", path, i, line))
                break


def _has_side_effect(arg_text: str) -> bool:
    if "++" in arg_text or "--" in arg_text:
        return True
    if MUTATING_CALL_RE.search(arg_text):
        return True
    # Assignment: '=' that is neither part of a comparison nor preceded by
    # one, but IS counted when preceded by an arithmetic/bit op (compound
    # assignment).  '<=' '>=' '==' '!=' excluded by the prev-char test.
    for k, ch in enumerate(arg_text):
        if ch != "=":
            continue
        prev = arg_text[k - 1] if k > 0 else ""
        nxt = arg_text[k + 1] if k + 1 < len(arg_text) else ""
        if nxt == "=" or prev in "=!<>":
            continue
        return True
    return False


def scan_check_pure(stripped_text, line_of_offset, out, path):
    for m in CHECK_HEAD_RE.finditer(stripped_text):
        depth, j = 1, m.end()
        while j < len(stripped_text) and depth > 0:
            c = stripped_text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            j += 1
        args = stripped_text[m.end():j - 1]
        if _has_side_effect(args):
            line = line_of_offset(m.start())
            snippet = stripped_text[m.start():m.end()] + args[:48]
            out.append(Finding("check-pure", path, line,
                               " ".join(snippet.split())))


def _decl_kind(rest: str) -> str:
    """'function' if the first structural token after the specifiers is a
    parameter list, else 'variable'."""
    for ch in rest:
        if ch == "(":
            return "function"
        if ch in "={;":
            return "variable"
    return "variable"


def scan_own_static(stripped_lines, out, path):
    n = len(stripped_lines)
    i = 0
    while i < n:
        line = stripped_lines[i]
        head = (STATIC_HEAD_RE.search(line) or INLINE_VAR_RE.search(line)
                or GLOBAL_NAME_RE.search(line))
        if not head:
            i += 1
            continue
        # Join the logical declaration: up to the first ';' or '{' (max 4
        # lines — real declarations here are short).
        decl = line
        j = i
        while not re.search(r"[;{]", decl) and j + 1 < n and j - i < 3:
            j += 1
            decl += " " + stripped_lines[j]
        flat = " ".join(decl.split())
        is_static = bool(STATIC_HEAD_RE.search(line))
        is_tls = "thread_local" in flat
        is_global_name = bool(GLOBAL_NAME_RE.search(line))
        if not (is_static or is_tls or is_global_name
                or INLINE_VAR_RE.search(line)):
            i = j + 1
            continue
        # Specifier-const declarations are immutable state: fine.
        specs = flat.split("=", 1)[0].split("{", 1)[0]
        if CONSTNESS_RE.search(specs):
            i = j + 1
            continue
        # `inline` alone only matters for variables at namespace scope in
        # headers; functions are skipped by the decl-kind test either way.
        body = re.sub(r"^\s*(?:inline|static|thread_local)\s+", "",
                      flat)
        body = re.sub(r"^\s*(?:inline|static|thread_local)\s+", "", body)
        if _decl_kind(re.sub(r"<[^<>]*>", "<>", body)) == "variable":
            # Plain `inline` hits require a variable with an initializer or
            # g_ name to avoid flagging forward declarations.
            if (is_static or is_tls or is_global_name
                    or re.search(r"[=]", flat)):
                out.append(Finding("own-static", path, i + 1, line))
        i = j + 1


# --- baseline ---------------------------------------------------------------

def load_baseline(path):
    entries, errors = [], []
    if not os.path.exists(path):
        return entries, errors
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = re.split(r"\t+|\s{2,}", line.strip(), maxsplit=2)
            if len(parts) < 3 or not parts[2].strip():
                errors.append(f"{path}:{lineno}: baseline entry needs "
                              "'<rule>\t<path>\t<reason>' with a non-empty "
                              f"reason: '{line.strip()}'")
                continue
            rule, fpath, reason = parts[0], parts[1], parts[2].strip()
            if rule not in RULES:
                errors.append(f"{path}:{lineno}: unknown rule '{rule}'")
                continue
            entries.append(BaselineEntry(rule, fpath, reason, lineno))
    return entries, errors


# --- driver -----------------------------------------------------------------

def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def iter_sources(root, paths):
    if paths:
        for p in paths:
            ap = os.path.abspath(p)
            if os.path.isdir(ap):
                for dirpath, dirnames, filenames in os.walk(ap):
                    dirnames[:] = [d for d in dirnames
                                   if not d.startswith(".")]
                    for name in sorted(filenames):
                        if name.endswith(CXX_EXTS):
                            yield os.path.join(dirpath, name)
            elif ap.endswith(CXX_EXTS):
                yield ap
        return
    for top in ("src", "examples", "bench"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTS):
                    yield os.path.join(dirpath, name)


def scan_text(relpath, text):
    """Scan one file's contents; returns FileScan (pre-suppression applied
    for tags, baseline applied by the caller)."""
    fs = FileScan()
    raw_lines = text.splitlines(keepends=True)
    suppress, tag_errors = collect_tags(raw_lines, relpath)
    fs.errors.extend(tag_errors)

    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    line_starts = [0]
    for ln in stripped.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(ln))

    def line_of_offset(off):
        lo, hi = 0, len(line_starts) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if line_starts[mid + 1] <= off:
                lo = mid + 1
            else:
                hi = mid
        return lo + 1

    top = relpath.split("/", 1)[0]
    findings = []
    if top in RULE_SCOPES["det-wallclock"]:
        scan_wallclock(stripped_lines, findings, relpath)
    if top in RULE_SCOPES["det-unordered"]:
        scan_unordered(stripped_lines, findings, relpath)
    if top in RULE_SCOPES["det-ptrkey"]:
        scan_ptrkey(stripped_lines, findings, relpath)
    if top in RULE_SCOPES["check-pure"]:
        scan_check_pure(stripped, line_of_offset, findings, relpath)
    if top in RULE_SCOPES["own-static"]:
        scan_own_static(stripped_lines, findings, relpath)
    if top in RULE_SCOPES["trace-guarded"]:
        scan_trace_guarded(stripped_lines, findings, relpath)

    # Dedup (multiple patterns on one line) and apply tag suppression.
    uniq = {}
    for f in findings:
        uniq.setdefault((f.rule, f.line), f)
    for (rule, line), f in sorted(uniq.items(), key=lambda kv: kv[0][1]):
        if rule in suppress.get(line, set()):
            f.suppressed_by = "tag"
        fs.findings.append(f)
    return fs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="hc3i_lint.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--strict", action="store_true",
                    help="also fail on stale baseline entries")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default tools/lint_baseline.txt)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs to scan (default src examples bench)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:15s} {desc}  [tag: {TAG_FOR_RULE[rule]}(...)]")
        return 0

    root = repo_root()
    baseline_path = args.baseline or os.path.join(root, "tools",
                                                  "lint_baseline.txt")
    baseline, errors = load_baseline(baseline_path)

    all_findings = []
    nfiles = 0
    for abspath in iter_sources(root, args.paths):
        relpath = os.path.relpath(abspath, root).replace(os.sep, "/")
        nfiles += 1
        try:
            with open(abspath, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            errors.append(f"{relpath}: unreadable: {e}")
            continue
        fs = scan_text(relpath, text)
        errors.extend(fs.errors)
        for f in fs.findings:
            if not f.suppressed_by:
                for entry in baseline:
                    if entry.rule == f.rule and entry.path == f.path:
                        entry.hits += 1
                        f.suppressed_by = "baseline"
                        break
            all_findings.append(f)

    active = [f for f in all_findings if not f.suppressed_by]
    for f in active:
        print(f"error: {f.render()}", file=sys.stderr)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)

    stale = [e for e in baseline if e.hits == 0]
    if args.strict:
        for e in stale:
            print(f"error: {baseline_path}:{e.lineno}: stale baseline "
                  f"entry ({e.rule} {e.path}) matches no finding — "
                  "delete it", file=sys.stderr)

    suppressed = len(all_findings) - len(active)
    failed = bool(active or errors or (args.strict and stale))
    print(f"hc3i-lint: {nfiles} files, "
          f"{len(active)} finding(s), {suppressed} suppressed "
          f"({len(baseline)} baseline entr{'y' if len(baseline) == 1 else 'ies'}), "
          f"{len(errors)} error(s){', FAILED' if failed else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
