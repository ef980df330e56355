#!/usr/bin/env python3
"""Documentation checks: relative-link resolution plus light markdown lint.

Run from anywhere inside the repo:

    python3 tools/check_docs.py

Checks every tracked-looking *.md file (build trees and hidden dirs are
skipped) for:

  * relative links and images that do not resolve to an existing file or
    directory (anchors are stripped; absolute URLs are ignored),
  * unbalanced fenced code blocks,
  * duplicate top-level titles (more than one leading `# ` heading),
  * subsystem coverage: every `src/<subsystem>/` directory must be
    mentioned in docs/architecture.md or docs/paper_map.md — a new
    subsystem cannot land undocumented,
  * binary names: every `./build/<name>` in a git-tracked *.md file must
    name a target the top-level CMakeLists builds: one it names in an
    `add_executable(<name> ...)` (paper_check) or one of its glob loops
    makes (one per examples/*.cpp and tests/*_test.cpp) — a deleted
    binary cannot stay in the docs,
  * config paths: every `configs/...` path in a git-tracked *.md file
    other than the CHANGES.md history (`{a,b}` alternatives expanded) must
    exist — a renamed config or sweep file cannot stay in the docs,
  * qualified names: every backticked qualified C++ name (`ns::Type::member`,
    also inside a longer code span) in a git-tracked *.md file must still
    exist, in that each of its `::` components occurs as a word in a
    tracked file under src/, tests/, bench/, examples/, tools/ or a
    benchmark/ C++ source — a deleted function, member or type cannot stay
    named in the docs.  Top-level notes other than README.md (the change
    history, the roadmap, the paper notes and reference snippets) name code
    as it was, as it will be or as other projects have it, and are not
    checked,
  * doc paths in code: every `*.md` path a tracked source under those code
    directories names (relative to the repo root or to the source's own
    directory) must exist — a comment cannot send its reader to a document
    the repository does not have.

Exit status is non-zero when any check fails, so CI can gate on it.
"""

import glob
import os
import re
import subprocess
import sys

SKIP_DIRS = {"build", ".git", ".github", "node_modules"}
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
BUILD_REF_RE = re.compile(r"\./build/([A-Za-z0-9_]+)")
NAMED_TARGET_RE = re.compile(r"^\s*add_executable\((\w+)", re.MULTILINE)
CONFIG_REF_RE = re.compile(r"\bconfigs/[\w./{},-]*[\w/}]")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_NAME_RE = re.compile(r"(?<![\w:])(?:[A-Za-z_]\w*::)+~?[A-Za-z_]\w*")
CODE_DIRS = ("src", "tests", "bench", "examples", "tools",
             "benchmark/*.cpp", "benchmark/*.hpp")
MD_PATH_RE = re.compile(r"(?<![\w./*-])((?:[\w.-]+/)*[\w-]+\.md)\b")


def repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def md_files(root: str):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
        ]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def strip_code_spans(line: str) -> str:
    # Links inside inline code (`[i]` of an array, say) are not links.
    return re.sub(r"`[^`]*`", "", line)


def check_file(path: str, root: str):
    errors = []
    fence_count = 0
    h1_count = 0
    in_fence = False
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            fence_count += 1
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        if line.startswith("# "):
            h1_count += 1
        for match in LINK_RE.finditer(strip_code_spans(line)):
            target = match.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
                continue
            if target.startswith("#"):  # same-file anchor
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target)
            )
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(path, root)}:{lineno}: broken link "
                    f"'{match.group(1)}' (no such file: "
                    f"{os.path.relpath(resolved, root)})"
                )
    if fence_count % 2 != 0:
        errors.append(
            f"{os.path.relpath(path, root)}: unbalanced ``` code fences"
        )
    if h1_count > 1:
        errors.append(
            f"{os.path.relpath(path, root)}: {h1_count} top-level '# ' "
            "headings (expected at most one)"
        )
    return errors


def check_subsystem_coverage(root: str):
    """Every src/<subsystem>/ needs a row in the architecture docs.

    'Row' is deliberately loose — any `src/<name>` mention in
    docs/architecture.md or docs/paper_map.md counts, table or prose —
    because the two files organise by concern (paper section, perf story),
    not by directory.  What this enforces is that no subsystem exists only
    in the tree.
    """
    errors = []
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        return errors
    corpus = ""
    doc_names = ("docs/architecture.md", "docs/paper_map.md")
    for name in doc_names:
        path = os.path.join(root, name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                corpus += f.read()
    for entry in sorted(os.listdir(src)):
        if not os.path.isdir(os.path.join(src, entry)):
            continue
        if re.search(r"\bsrc/" + re.escape(entry) + r"\b", corpus):
            continue
        errors.append(
            f"src/{entry}/ is not mentioned in docs/architecture.md or "
            "docs/paper_map.md — add a row for the subsystem"
        )
    return errors


def expand_braces(path: str):
    """configs/x/{a,b}.conf -> configs/x/a.conf, configs/x/b.conf."""
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [e for alt in m.group(1).split(",")
            for e in expand_braces(path[:m.start()] + alt + path[m.end():])]


def git_files(root: str, *pathspecs: str):
    """Paths (relative to root) git tracks under `pathspecs` that exist in
    the working tree (a file deleted but still indexed is skipped)."""
    out = subprocess.run(["git", "ls-files", "-z", "--", *pathspecs],
                         cwd=root, capture_output=True, check=True)
    return [rel for rel in filter(None, out.stdout.decode().split("\0"))
            if os.path.exists(os.path.join(root, rel))]


def code_words(root: str):
    """Every identifier-like word in the tracked code."""
    words = set()
    for rel in git_files(root, *CODE_DIRS):
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            words.update(re.findall(r"\w+", f.read()))
    return words


def stale_names(line: str, words):
    """Backticked qualified names on `line` with a component no code has."""
    return [name for span in CODE_SPAN_RE.findall(line)
            for name in QUALIFIED_NAME_RE.findall(span)
            if any(part not in words
                   for part in name.replace("~", "").split("::"))]


def names_checked(rel: str) -> bool:
    """Whether qualified names in the tracked *.md `rel` must name code:
    README.md and everything below the top level.  Other top-level notes
    are history, plans or reference material."""
    return rel == "README.md" or "/" in rel


def check_tracked_refs(root: str):
    """Every ./build/<name> in a git-tracked *.md names a built binary,
    every configs/... path in one exists, and every backticked qualified
    C++ name in the documentation proper still names code."""
    with open(os.path.join(root, "CMakeLists.txt"), encoding="utf-8") as f:
        targets = set(NAMED_TARGET_RE.findall(f.read()))
    targets |= {os.path.basename(p)[: -len(".cpp")]
                for pattern in ("examples/*.cpp", "tests/*_test.cpp")
                for p in glob.glob(os.path.join(root, pattern))}
    words = code_words(root)
    errors = []
    for rel in git_files(root, "*.md"):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                errors += [f"{rel}:{lineno}: ./build/{name} is not a target "
                           "of the top-level CMakeLists.txt"
                           for name in BUILD_REF_RE.findall(line)
                           if name not in targets]
                # CHANGES.md is history: it names files as they were.
                errors += [f"{rel}:{lineno}: {ref} does not exist"
                           for refs in CONFIG_REF_RE.findall(line)
                           if rel != "CHANGES.md"
                           for ref in expand_braces(refs)
                           if not os.path.exists(os.path.join(root, ref))]
                if names_checked(rel):
                    errors += [f"{rel}:{lineno}: `{name}` names nothing in "
                               "the code (deleted or renamed?)"
                               for name in stale_names(line, words)]
    return errors


def check_code_doc_refs(root: str):
    """Every *.md path named in the tracked code exists, read from the repo
    root or from the naming file's directory."""
    errors = []
    for rel in git_files(root, *CODE_DIRS):
        here = os.path.dirname(rel)
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            for lineno, line in enumerate(f, start=1):
                errors += [f"{rel}:{lineno}: names {ref}, which does not exist"
                           for ref in MD_PATH_RE.findall(line)
                           if not any(os.path.exists(os.path.join(root, d, ref))
                                      for d in ("", here))]
    return errors


def main() -> int:
    root = repo_root()
    all_errors = []
    checked = 0
    for path in md_files(root):
        checked += 1
        all_errors.extend(check_file(path, root))
    all_errors.extend(check_subsystem_coverage(root))
    all_errors.extend(check_tracked_refs(root))
    all_errors.extend(check_code_doc_refs(root))
    for err in all_errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"check_docs: {checked} markdown files, {len(all_errors)} errors")
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main())
