#!/usr/bin/env python3
"""Fixture tests for tools/phch_lint.py.

Runs the lint over tools/lint_fixtures/ — a known-good header that must
come back clean, and known-bad headers that must each trip their intended
check — plus unit tests of the lexer pieces the checks stand on. Written
against unittest so it runs with either of:

    python3 tools/test_phch_lint.py        # plain unittest (always there)
    pytest tools/test_phch_lint.py         # the CI runner, when installed

ctest registers the unittest form (see tools/CMakeLists.txt), so the
fixtures are part of the tier-1 `ctest` sweep, not a separate ritual.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout, redirect_stderr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import phch_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "lint_fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_lint(paths, root=FIXTURES, contract="contract.tsv", extra=None):
    """Invoke phch_lint.main() capturing output; returns (exit, stdout)."""
    argv = list(paths) + ["--root", root, "--contract", contract]
    if extra:
        argv += extra
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = phch_lint.main(argv)
    return code, out.getvalue() + err.getvalue()


def checks_in(output):
    return {line.split("[", 1)[1].split("]", 1)[0]
            for line in output.splitlines() if "[" in line and "]" in line}


class GoodFixture(unittest.TestCase):
    def test_good_table_is_clean(self):
        code, out = run_lint(["good_table.h"], contract="contract_good.tsv")
        self.assertEqual(code, 0, out)
        self.assertIn("clean", out)


class BadFixtures(unittest.TestCase):
    def test_missing_phase_scope_and_annotation(self):
        code, out = run_lint(["bad_missing_phase_scope.h"])
        self.assertEqual(code, 1, out)
        self.assertIn("phase-scope-missing", checks_in(out))
        self.assertIn("phase-annotation-missing", checks_in(out))

    def test_unannotated_atomic(self):
        code, out = run_lint(["bad_unannotated_atomic.h"])
        self.assertEqual(code, 1, out)
        self.assertIn("atomic-implicit-order", checks_in(out))
        # load(), store() and the += operator form: three sites.
        n = sum("atomic-implicit-order" in ln for ln in out.splitlines())
        self.assertEqual(n, 3, out)

    def test_contract_mismatch(self):
        code, out = run_lint(["bad_contract_mismatch.h"])
        self.assertEqual(code, 1, out)
        self.assertIn("atomic-contract-order", checks_in(out))
        self.assertIn("atomic-contract-missing", checks_in(out))

    def test_uncontracted_sync_builtin_and_unordered_asm(self):
        code, out = run_lint(["bad_uncontracted_sync.h"])
        self.assertEqual(code, 1, out)
        missing = [ln for ln in out.splitlines()
                   if "atomic-contract-missing" in ln]
        self.assertTrue(any("__sync_fetch_and_add" in ln for ln in missing),
                        out)
        self.assertTrue(any("asm:xchg" in ln for ln in missing), out)
        implicit = [ln for ln in out.splitlines()
                    if "atomic-implicit-order" in ln]
        self.assertEqual(len(implicit), 1, out)
        self.assertIn("asm:xchg", implicit[0])

    def test_simd_include_outside_homes(self):
        code, out = run_lint(["bad_simd_include.h"])
        self.assertEqual(code, 1, out)
        self.assertIn("simd-include", checks_in(out))

    def test_missing_pragma_once(self):
        code, out = run_lint(["bad_no_pragma_once.h"])
        self.assertEqual(code, 1, out)
        self.assertIn("pragma-once-missing", checks_in(out))

    def test_stale_contract_row(self):
        # Linting only the good fixture leaves the bad fixtures' contract
        # rows unmatched — they must surface as contract-stale.
        code, out = run_lint(["good_table.h", "bad_contract_mismatch.h",
                              "bad_unannotated_atomic.h"])
        self.assertNotIn("contract-stale", checks_in(out))
        code, out = run_lint(["good_table.h"])
        self.assertEqual(code, 1, out)
        self.assertIn("contract-stale", checks_in(out))


class Suppressions(unittest.TestCase):
    def test_allow_directive_suppresses_and_counts(self):
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "suppressed.h")
            with open(path, "w") as fh:
                fh.write("#pragma once\n#include <atomic>\n"
                         "struct s {\n"
                         "  std::atomic<int> a_{0};\n"
                         "  // phch_lint: allow(atomic-implicit-order)\n"
                         "  int g() { return a_.load(); }\n"
                         "};\n")
            with open(os.path.join(td, "contract.tsv"), "w") as fh:
                fh.write("suppressed.h\ta_\tseq_cst\tfixture\n")
            code, out = run_lint(["suppressed.h"], root=td)
            self.assertEqual(code, 0, out)
            self.assertIn("1 suppression(s)", out)
            # ... but a suppression budget of zero fails the run.
            code, out = run_lint(["suppressed.h"], root=td,
                                 extra=["--max-suppressions", "0"])
            self.assertEqual(code, 1, out)


class JsonArtifact(unittest.TestCase):
    def test_json_report_shape(self):
        with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
            json_path = tf.name
        try:
            code, _ = run_lint(["bad_contract_mismatch.h"],
                               extra=["--json", json_path])
            self.assertEqual(code, 1)
            with open(json_path) as fh:
                payload = json.load(fh)
            self.assertEqual(payload["tool"], "phch_lint")
            self.assertGreaterEqual(payload["files_scanned"], 1)
            self.assertTrue(payload["findings"])
            f = payload["findings"][0]
            for key in ("check", "file", "line", "message"):
                self.assertIn(key, f)
        finally:
            os.unlink(json_path)


class EmitContract(unittest.TestCase):
    def test_census_preserves_why(self):
        code, out = run_lint(["good_table.h"], extra=["--emit-contract"])
        self.assertEqual(code, 0, out)
        self.assertIn("good_table.h\tlast_\tacquire,release\t"
                      "fixture: release-publish / acquire-read pair", out)


class SyncAndAsmCensus(unittest.TestCase):
    SRC = ("#pragma once\n"
           "inline bool cas16(unsigned __int128* p, unsigned __int128 e,\n"
           "                  unsigned __int128 d) {\n"
           "  return __sync_bool_compare_and_swap(p, e, d);\n"
           "}\n"
           "inline void fence() {\n"
           "  // phch_lint: order(seq_cst)\n"
           "  asm volatile(\"lock; orl $0, (%%rsp)\\n\\tmfence\" ::: \"memory\");\n"
           "}\n"
           "inline void relax() { asm volatile(\"pause\" ::: \"memory\"); }\n")

    def lint(self, contract_rows, extra=None):
        with tempfile.TemporaryDirectory() as td:
            with open(os.path.join(td, "s.h"), "w") as fh:
                fh.write(self.SRC)
            with open(os.path.join(td, "contract.tsv"), "w") as fh:
                fh.write("".join(f"s.h\t{r}\n" for r in contract_rows))
            return run_lint(["s.h"], root=td, extra=extra)

    def test_contracted_sites_are_clean(self):
        code, out = self.lint([
            "__sync_bool_compare_and_swap\tseq_cst\tfixture",
            "asm:lock+mfence\tseq_cst\tfixture"])
        self.assertEqual(code, 0, out)
        self.assertIn("2 atomic accesses", out)  # `pause` is not an atomic

    def test_sync_order_is_fixed_by_the_builtin(self):
        code, out = self.lint([
            "__sync_bool_compare_and_swap\tacquire\tfixture",
            "asm:lock+mfence\tseq_cst\tfixture"])
        self.assertEqual(code, 1, out)
        self.assertIn("atomic-contract-order", checks_in(out))

    def test_census_names_the_new_sites(self):
        code, out = self.lint([], extra=["--emit-contract"])
        self.assertEqual(code, 0, out)
        self.assertIn("s.h\t__sync_bool_compare_and_swap\tseq_cst\t", out)
        self.assertIn("s.h\tasm:lock+mfence\tseq_cst\t", out)


class LexerUnits(unittest.TestCase):
    def test_blanking_preserves_layout(self):
        src = 'int a; // comment\nchar c = \'"\'; /* x\ny */ int b;\n'
        blanked = phch_lint.blank_comments_and_strings(src)
        self.assertEqual(len(blanked), len(src))
        self.assertEqual(blanked.count("\n"), src.count("\n"))
        self.assertNotIn("comment", blanked)
        self.assertIn("int b;", blanked)

    def test_receiver_walks_member_chains(self):
        code = "R.slots[i].pending.load(x)"
        idx = code.index(".load")
        self.assertEqual(phch_lint.receiver_of(code, idx), "pending")
        code = "waiters_[static_cast<std::size_t>(room)].fetch_add(1, o)"
        idx = code.index(".fetch_add")
        self.assertEqual(phch_lint.receiver_of(code, idx), "waiters_")

    def test_repo_contract_is_well_formed(self):
        rows = phch_lint.load_contract(
            os.path.join(REPO_ROOT, "tools", "atomics_contract.tsv"))
        self.assertGreater(len(rows), 40)
        for r in rows:
            self.assertTrue(r.orders, f"{r.file}:{r.symbol} has no orders")
            self.assertNotIn("TODO", r.why,
                             f"{r.file}:{r.symbol} why is a placeholder")


class RepoTree(unittest.TestCase):
    def test_src_phch_is_clean_with_zero_suppressions(self):
        code, out = run_lint(["src/phch"], root=REPO_ROOT,
                             contract="tools/atomics_contract.tsv",
                             extra=["--max-suppressions", "0"])
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
