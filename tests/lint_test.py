#!/usr/bin/env python3
"""Self-tests for tools/hc3i_lint.py: every rule must fire on its trigger
fixture and stay silent on its clean fixture, so the linter itself cannot
rot.  Runs as a ctest (`lint_selftest`) and in the CI lint job:

    python3 tests/lint_test.py

Fixtures are scanned in memory through the same scan_text() the tree
scan uses.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))
import hc3i_lint  # noqa: E402


def scan(snippet, path="src/fake/fixture.cpp"):
    """Lint one in-memory fixture; returns (active, suppressed, errors)."""
    fs = hc3i_lint.scan_text(path, snippet)
    active = [f for f in fs.findings if not f.suppressed_by]
    suppressed = [f for f in fs.findings if f.suppressed_by]
    return active, suppressed, fs.errors


def rules_of(findings):
    return sorted({f.rule for f in findings})


class DetWallclock(unittest.TestCase):
    def test_triggers(self):
        for snippet in (
            "auto t = std::chrono::system_clock::now();",
            "auto t = std::chrono::steady_clock::now();",
            "auto t = std::chrono::high_resolution_clock::now();",
            "std::random_device rd;",
            "std::mt19937_64 gen(seed);",
            "long t = time(nullptr);",
            "int r = rand();",
            "srand(42);",
            "double t = clock();",
            "const char* home = getenv(\"HOME\");",
            "auto r = std::rand();",
        ):
            active, _, _ = scan(snippet)
            self.assertIn("det-wallclock", rules_of(active), snippet)

    def test_clean(self):
        for snippet in (
            "SimTime t = sim.now();",
            "// time() in a comment is prose, not entropy\nint x = 0;",
            "auto s = to_string(commit_time);",
            "double work_time(int n);  // declaration, fine\n",
            "auto v = rng.next_below(1000);",
            "std::string s = \"rand() inside a string\";",
            "sim_time(3);",
        ):
            active, _, _ = scan(snippet)
            self.assertNotIn("det-wallclock", rules_of(active), snippet)

    def test_examples_and_bench_in_scope(self):
        active, _, _ = scan("std::random_device rd;",
                            path="bench/bench_fake.cpp")
        self.assertIn("det-wallclock", rules_of(active))

    def test_tests_dir_out_of_scope(self):
        active, _, _ = scan("std::random_device rd;",
                            path="tests/fake_test.cpp")
        self.assertEqual(active, [])


class DetUnordered(unittest.TestCase):
    def test_triggers(self):
        for snippet in (
            "std::unordered_map<int, int> m;",
            "std::unordered_set<std::uint64_t> seen_;",
            "std::unordered_multimap<Key, V> mm;",
        ):
            active, _, _ = scan(snippet)
            self.assertIn("det-unordered", rules_of(active), snippet)

    def test_clean(self):
        for snippet in (
            "std::map<int, int> m;",
            "std::set<std::uint64_t> seen_;",
            "#include <unordered_set>",  # include alone is not a decl
        ):
            active, _, _ = scan(snippet)
            self.assertNotIn("det-unordered", rules_of(active), snippet)

    def test_tag_suppresses_same_line(self):
        active, suppressed, _ = scan(
            "std::unordered_set<int> s_;  "
            "// lint: unordered-ok(membership only)")
        self.assertEqual(active, [])
        self.assertEqual(rules_of(suppressed), ["det-unordered"])

    def test_tag_suppresses_from_comment_block_above(self):
        active, suppressed, _ = scan(
            "// lint: unordered-ok(membership queries only; the sorted\n"
            "// image is what dumps read)\n"
            "std::unordered_set<int> s_;\n")
        self.assertEqual(active, [])
        self.assertEqual(rules_of(suppressed), ["det-unordered"])

    def test_tag_needs_reason(self):
        active, _, errors = scan(
            "std::unordered_set<int> s_;  // lint: unordered-ok()")
        self.assertTrue(errors)
        self.assertEqual(rules_of(active), ["det-unordered"])

    def test_tag_does_not_leak_past_declaration(self):
        active, _, _ = scan(
            "// lint: unordered-ok(first only)\n"
            "std::unordered_set<int> a_;\n"
            "std::unordered_set<int> b_;\n")
        self.assertEqual(len(active), 1)
        self.assertEqual(active[0].line, 3)


class DetPtrkey(unittest.TestCase):
    def test_triggers(self):
        for snippet in (
            "std::map<Node*, int> owners;",
            "std::unordered_map<const Agent*, State> st;",
            "std::set<Foo*> live;",
            "auto h = reinterpret_cast<std::uintptr_t>(p);",
            "auto h = reinterpret_cast<size_t>(ptr);",
            "std::hash<void*> hasher;",
        ):
            active, _, _ = scan(snippet)
            self.assertIn("det-ptrkey", rules_of(active), snippet)

    def test_clean(self):
        for snippet in (
            "std::map<NodeId, int> owners;",
            "auto* hdr = reinterpret_cast<BlockHeader*>(base);",
            "std::hash<std::uint64_t> hasher;",
            "std::vector<Node*> nodes;",
        ):
            active, _, _ = scan(snippet)
            self.assertNotIn("det-ptrkey", rules_of(active), snippet)


class CheckPure(unittest.TestCase):
    def test_triggers(self):
        for snippet in (
            "HC3I_CHECK(++calls < 10, \"msg\");",
            "HC3I_CHECK(n-- > 0, \"msg\");",
            "HC3I_CHECK(x = compute(), \"assignment, not comparison\");",
            "HC3I_CHECK(total += n, \"compound\");",
            "HC3I_CHECK(!q.pop(), \"mutating call\");",
            "HC3I_CHECK(log_.erase(k) == 1, \"mutating call\");",
            "assert(v.push_back(1), true);",
            "HC3I_CHECK(rng.advance(2) != 0, \"rng state\");",
            "HC3I_CHECK(obs::write_text_file(p, t));",
            "HC3I_CHECK(out.write(buf, n), \"member write\");",
            "HC3I_CHECK(std::exchange(flag, false), \"qualified mutator\");",
        ):
            active, _, _ = scan(snippet)
            self.assertIn("check-pure", rules_of(active), snippet)

    def test_clean(self):
        for snippet in (
            "HC3I_CHECK(calls < 10, \"msg\");",
            "HC3I_CHECK(a == b && c <= d, \"comparisons are fine\");",
            "HC3I_CHECK(!rt.store(ClusterId{0}).empty(), \"accessor\");",
            "HC3I_CHECK(v.has_value(), \"flag --x is not a number: \" + s);",
            "HC3I_CHECK(!arg.empty(), \"bare '--' is not a valid flag\");",
            "HC3I_CHECK(t >= now_, \"past (t=\" + to_string(t) + \")\");",
            "HC3I_CHECK(set.count(k) == 1, \"pure query\");",
            "HC3I_CHECK(std::next(it) != end, \"pure iterator step\");",
            "HC3I_CHECK(bytes_written(f) > 0, \"not a write* call\");",
        ):
            active, _, _ = scan(snippet)
            self.assertNotIn("check-pure", rules_of(active), snippet)

    def test_multiline_argument(self):
        active, _, _ = scan(
            "HC3I_CHECK(counter++ <\n"
            "           limit,\n"
            "           \"spans lines\");\n")
        self.assertIn("check-pure", rules_of(active))


class OwnStatic(unittest.TestCase):
    def test_triggers(self):
        for snippet in (
            "static int counter = 0;",
            "static std::atomic<std::uint32_t> counter{0};",
            "thread_local Arena* t_arena = nullptr;",
            "inline thread_local Arena* t_arena = nullptr;",
            "inline Verbosity g_level = Verbosity::kStats;",
            "LineSink g_sink;",
            "static std::vector<int> cache;",
        ):
            active, _, _ = scan(snippet)
            self.assertIn("own-static", rules_of(active), snippet)

    def test_clean(self):
        for snippet in (
            "static constexpr std::size_t kMax = 4096;",
            "static const std::string kEmpty;",
            "static const std::uint32_t idx = next_pool_type_index();",
            "static Flags parse(int argc, const char* const* argv);",
            "static PayloadArena* current() { return arena; }",
            "static bool earlier(const Entry& a, const Entry& b) {",
            "static std::uint64_t pack(ClusterId src, ClusterId dst) {",
            "inline double now_sec() {",
            "inline constexpr bool kEnabled = true;",
            "g_sink = std::move(sink);",  # assignment, not a declaration
            "int local = 0;",
        ):
            active, _, _ = scan(snippet)
            self.assertNotIn("own-static", rules_of(active), snippet)

    def test_out_of_scope_dirs(self):
        # own-static is a src/-only rule: bench alloc counters and example
        # arg-parsing globals are driver state, not simulation state.
        active, _, _ = scan("std::uint64_t g_allocs = 0;",
                            path="bench/bench_fake.cpp")
        self.assertEqual(active, [])

    def test_tag_suppresses(self):
        active, suppressed, _ = scan(
            "// lint: static-ok(type-index registry, atomic)\n"
            "static std::atomic<std::uint32_t> counter{0};\n")
        self.assertEqual(active, [])
        self.assertEqual(rules_of(suppressed), ["own-static"])


class TraceGuarded(unittest.TestCase):
    def test_triggers(self):
        for snippet in (
            "ctx_.obs->emit(obs::RecordKind::kClcCommit, now, c, n, id);",
            "recorder_.emit(obs::RecordKind::kFailure, now, c, v, 0);",
            "if (x) { rec->emit(k, t, c, n, id); }",  # hand-rolled guard
        ):
            active, _, _ = scan(snippet)
            self.assertIn("trace-guarded", rules_of(active), snippet)

    def test_clean(self):
        for snippet in (
            "HC3I_OBS(ctx_.obs, obs::RecordKind::kClcAck, now, c, n, id);",
            "registry_.inc(\"clc.total\");",
            "q.emplace(k, v);",  # emplace is not emit
            "// rec->emit(...) in prose\nint x = 0;",
        ):
            active, _, _ = scan(snippet)
            self.assertNotIn("trace-guarded", rules_of(active), snippet)

    def test_implementation_home_excluded(self):
        for path in ("src/obs/trace.hpp", "src/obs/export.cpp"):
            active, _, _ = scan("buf->emit(k, t, c, n, id);", path=path)
            self.assertEqual(active, [], path)

    def test_out_of_scope_dirs(self):
        # Drivers own their recorder; a raw emit there is a choice.
        active, _, _ = scan("rec.emit(k, t, c, n, id);",
                            path="bench/bench_fake.cpp")
        self.assertEqual(active, [])

    def test_tag_suppresses(self):
        active, suppressed, _ = scan(
            "// lint: trace-ok(recorder pre-checked by the enclosing branch)\n"
            "rec->emit(k, now, c, n, id);\n")
        self.assertEqual(active, [])
        self.assertEqual(rules_of(suppressed), ["trace-guarded"])


class Baseline(unittest.TestCase):
    def _write(self, tmp, content):
        path = os.path.join(tmp, "baseline.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
        return path

    def test_reason_required(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, "det-wallclock\tsrc/a.cpp\n")
            entries, errors = hc3i_lint.load_baseline(path)
            self.assertEqual(entries, [])
            self.assertTrue(errors)

    def test_unknown_rule_rejected(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(tmp, "not-a-rule\tsrc/a.cpp\treason\n")
            entries, errors = hc3i_lint.load_baseline(path)
            self.assertEqual(entries, [])
            self.assertTrue(errors)

    def test_wellformed_entry_parses(self):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = self._write(
                tmp, "# comment\n\ndet-wallclock\tsrc/a.cpp\tthe reason\n")
            entries, errors = hc3i_lint.load_baseline(path)
            self.assertEqual(errors, [])
            self.assertEqual(len(entries), 1)
            self.assertEqual(entries[0].rule, "det-wallclock")
            self.assertEqual(entries[0].path, "src/a.cpp")
            self.assertEqual(entries[0].reason, "the reason")


class RepoIsClean(unittest.TestCase):
    def test_strict_run_over_tree_passes(self):
        # The real tree, the real baseline, strict mode: exactly what CI
        # runs.  Any regression in either the code or the linter shows here.
        rc = hc3i_lint.main(["--strict"])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
