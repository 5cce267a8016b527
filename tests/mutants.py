"""Mutation gate: ``python tests/mutants.py``.  Each mutant replaces a text
that occurs once in a source file, in a copy of ``src/`` and ``tests/``, and
names the seeded tests that must then fail; the unmutated copy must pass
them all.  Exit status 1 when a mutant survives or the copy fails."""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
R, S, T, M, C, G = (f"src/schwarztri/{m}.py" for m in ("rational", "series", "triangle", "monodromy", "cli", "groups"))
RAT, SER, MIN, GRP, CLI = ("tests/test_rational.py::", "tests/test_series.py::", "tests/test_minimality.py::",
                           "tests/test_groups.py::", "tests/test_cli.py::")
EVAL = RAT + "TestEvaluationMatchesReference::test_every_scalar_type"
CLOSED = RAT + "TestClosedFormsMatchReference::test_seeded_sums_derivatives_and_schwarzians"
KERNELS = RAT + "TestCoefficientKernelsMatchReference::test_primitive_and_canonical"
SERIES_CALL = SER + "TestSeriesKernelsMatchReference::test_call_and_derivative_on_seeded_series"
STEP = "tests/test_monodromy.py::TestContinuation::"
CONTINUATION = STEP + "test_continuation_matches_reference_bit_for_bit"
REUSE = SER + "TestKernelsMatchReference::test_recurrence_reuses_workspaces_across_shapes"
LOOPS = [STEP + "test_batched_continuation_matches_per_step_reference",
         "tests/test_monodromy.py::TestCompiledPlanMatchesReference::test_step_matrices_bit_for_bit"]
MUTANTS = [
    (R, "acc = c + acc * x", "acc = acc * x + c", [EVAL, SERIES_CALL]),
    (R, "    m = _signed_content(d)", "    m = _int_content(d)", [KERNELS]),
    (R, "    k = _signed_content(a)\n    return list(a)", "    k = _int_content(a)\n    return list(a)", [KERNELS]),
    (S, "or [self.coefficients[0] * 0]", "or [0]", [SERIES_CALL]),
    (T, "n = _int_quo(n, (-1, 1))", "n = n[1:]", ["tests/test_triangle.py::TestBuildR::test_matches_gcd_reduction"]),
    (R, "if len(g) > 1 and len(t) > 1:", "if False:", [CLOSED]),
    (R, "if len(e) > 1:\n            num", "if False:\n            num", [CLOSED]),
    (R, "Fraction(1, 2 * cw * cw)", "Fraction(1, 2 * cw)", [CLOSED]),
    (R, "1 / self._c)", "self._c)", [RAT + "TestQuotientsMatchReference::test_seeded_quotients_and_negative_powers"]),
    (R, "max(sn1 * sd + sn * sd1, sn,", "max(sn,",
     [RAT + "TestClosedFormsMatchReference::test_wronskian_on_integer_lists"]),
    (R, 'f"pole at {x}"', 'f"pole at {den}"', [EVAL]),
    (R, "return self.num(x) / den", "return self.num(x) * (1 / den)", [EVAL]),
    (R, "while len(r) >= len(b):", "for _ in range(len(a) - len(b) + 1):",
     [RAT + "TestHeuristicGcd::test_matches_prs_on_planted_factors"]),
    (S, "= -(n / twice_d0)", "= n / twice_d0",
     [SER + "TestKernelsMatchReference::test_recurrence_on_a_step_plan_grid",
      "tests/test_monodromy.py::TestMonodromy::test_trace_law_hurwitz", STEP + "test_taylor_step_matches_series_evaluation"]),
    (S, "= -(d / ds[0])", "= d / ds[0]",
     [SER + "TestLinearSolver::test_matches_convolution_solver[0]", STEP + "test_segment_transport_matches_series"]),
    (M, "_STEP_FACTOR = 0.35", "_STEP_FACTOR = 0.36", [CONTINUATION, *LOOPS]),
    (M, "_STEP_FACTOR, 0.5)", "_STEP_FACTOR, 0.4)", [CONTINUATION]),
    (M, "< _MIN_STEP:", "< 1e-9:", [CONTINUATION]),
    (M, "steps[:, 1::2] @ steps[:, ::2]", "steps[:, ::2] @ steps[:, 1::2]", [CONTINUATION, *LOOPS]),
    (S, "return num / den", "return num * (1 / den)", [SER + "TestResidualChecksMatchReference::test_seeded_records"]),
    (T, "return (at_inf, at0, at1)", "return (at_inf, at1, at0)",
     ["tests/test_triangle.py::TestExponentDifferences::test_from_exponent_differences_is_the_inverse",
      *(MIN + f"test_condition_searches_match_reference_{grid}" for grid in (
          "on_residue_grid", "on_seeded_triples", "on_shared_factor_denominators", "on_large_values",
          "with_integers_in_every_slot")),
      MIN + "test_classify_matches_reference_on_the_den8_sweep"]),
    (M, '("finite", "dihedral", "triangularizable")', '("finite", "dihedral")',
     [CLI + "TestSweepComparison::test_agreement_rule[triangularizable]",
      "tests/test_monodromy.py::TestClassifyProjective::test_integrable_kinds[triangularizable]"]),
    (M, '{"kind": "inconclusive"', '{"kind": "unknown"',
     [CLI + "TestSweepComparison::test_inconclusive_records",
      "tests/test_monodromy.py::TestClassifyProjective::test_inconclusive_record"]),
    (C, "itertools.combinations_with_replacement(", "itertools.combinations(",
     [CLI + "TestSweep::test_min_denominator", CLI + "TestSweep::test_corpus_in_sweep_order"]),
    (S, "    if isinstance(base, bool):\n", "    if False:\n",
     [SER + f"TestBoolBasePoint::test_rejected[{call}-regular-True]" for call in ("series_solve_linear", "residual_principal")]),
    (S, "divisor = j * (j - 1)", "divisor = (j + 1) * j",
     [REUSE, SER + "TestKernelsMatchReference::test_recurrence_at_complex_bases",
      SER + "TestKernelsMatchReference::test_recurrence_at_exact_bases[0]",
      "tests/test_monodromy.py::TestMonodromy::test_trace_law_hurwitz"]),
    (S, "    coefficients.flags.writeable = False\n", "", [REUSE]),
    (R, "    g = _primitive(_prs_gcd(a, b))", "    g = _prs_gcd(a, b)",
     [RAT + "TestHeuristicGcd::test_prs_fallback_on_planted_factors"]),
    (C, "for x in num + den) - 1", "for x in num + den)",
     ["tests/test_cli.py::TestPhiParser::test_product_size_limit[(10^3000)*(10^3000)]",
      "tests/test_cli.py::TestPhiParserMatchesReference::test_seeded_texts"]),
    (C, '!= (args.kind == "pullback")', '!= (args.kind != "riccati")',
     ["tests/test_cli.py::TestVerify::test_phi_only_with_pullback[y^2-principal]"]),
    (G, "if geo is not Geometry.HYPERBOLIC:", "if geo is Geometry.SPHERICAL:",
     [GRP + "TestGroupReport::test_non_hyperbolic_report[entries0-Geometry.EUCLIDEAN]",
      "tests/test_cli.py::TestClassifyGroup::test_non_hyperbolic_flagged"]),
    (G, "if total < product:", "if total <= product:",
     [GRP + "TestGeometry::test_examples", GRP + "TestGeometry::test_integer_sign_matches_fraction_sum"]),
    (G, "_times(3, b)", "_times(2, b)",
     [GRP + "TestMaximality::test_examples", "tests/test_acceptance.py::test_criterion_4_maximality_patterns"]),
]


def failures(tree: pathlib.Path, ids: list[str]) -> set[str]:
    """The named tests that fail in ``tree``; an exit status past 1 is a
    collection or usage error and counts as a failure of its own."""
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids], cwd=tree,
                         env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True, text=True)
    error = {f"pytest exit status {run.returncode}"} if run.returncode > 1 else set()
    return set(re.findall(r"^FAILED (\S+)", run.stdout, re.M)) | error


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        broken = failures(tree, sorted({i for *_, ids in MUTANTS for i in ids}))
        print(f"unmutated copy: {len(broken)} of the named tests fail {sorted(broken)}")
        survivors = 0
        for path, old, new, ids in MUTANTS:
            text = (ROOT / path).read_text()
            if text.count(old) != 1:
                sys.exit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
            (tree / path).write_text(text.replace(old, new))
            missed = sorted(set(ids) - failures(tree, ids))
            (tree / path).write_text(text)
            survivors += bool(missed)
            print(f"{'SURVIVES' if missed else 'killed  '} {path}: {old!r} -> {new!r} {missed or ''}")
        return 1 if broken or survivors else 0


if __name__ == "__main__":
    sys.exit(main())
