"""End-to-end tests of the command-line interface."""

import json
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F

import pytest

from schwarztri.cli import _MAX_DEN, _check_max_den, main, parse_phi
from schwarztri.rational import Poly, RatFunc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_without_warnings(capsys, *argv):
    """``run``, asserting that no warning was issued: outside pytest's
    capture, a warning would print to stderr before the ``error:`` line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return result


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class TestPhiParser:
    def test_monomial(self):
        assert parse_phi("y^2") == RatFunc(Poly([0, 0, 1]))
        assert parse_phi("(y-1/2)^2") == RatFunc(Poly([F(1, 4), -1, 1]))

    def test_mixed_expression(self):
        y = RatFunc.variable()
        assert parse_phi("(y - 1) / (y + 1) * 2") == 2 * (y - 1) / (y + 1)

    def test_negative_exponent(self):
        assert parse_phi("y^-2") == RatFunc(Poly([1]), Poly([0, 0, 1]))

    @pytest.mark.parametrize("phi", ["y^100000", "((y^64)^64)^64", "(((10^64)^64)^64)^64"])
    def test_power_size_limit(self, capsys, phi):
        # rejected before the power is taken: the first runs for minutes
        # and the nested ones need gigabytes when it is not
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", phi)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1 and "power exceeds" in err

    @pytest.mark.parametrize("phi", ["(y+2)^1000*(y+3)^1000", "(10^3000)*(10^3000)"])
    def test_product_size_limit(self, capsys, phi):
        # each factor is within the bounds and the product is not: degree
        # 2000, or 19,932 bits; the pullback of the first ran for minutes
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", phi)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1 and "product exceeds" in err

    @pytest.mark.parametrize(
        "phi, what", [("y^1000 + 1/(y+1)^1000", "sum"), ("y^600 / (y+1)^600", "quotient")]
    )
    def test_sum_and_quotient_size_limits(self, phi, what):
        from schwarztri.cli import UsageError

        with pytest.raises(UsageError, match=f"{what} exceeds degree 1000"):
            parse_phi(phi)

    def test_sum_is_bounded_by_its_result(self):
        # a sum is checked once taken: two polynomials of degree 1000 add up
        # to one, and a difference may cancel
        assert parse_phi("y^1000 + y^999") == RatFunc(Poly([0] * 999 + [1, 1]))
        assert parse_phi("y^1000 - (y^1000 - 1)") == RatFunc.constant(1)

    def test_unary_minus(self):
        y = RatFunc.variable()
        assert parse_phi("-y + 3") == 3 - y

    def test_nesting_limit(self):
        from schwarztri.cli import UsageError

        assert parse_phi("(" * 100 + "y" + ")" * 100) == RatFunc.variable()
        with pytest.raises(UsageError, match="nest"):
            parse_phi("(" * 101 + "y" + ")" * 101)

    def test_error_position(self):
        from schwarztri.cli import UsageError

        with pytest.raises(UsageError, match="position"):
            parse_phi("y +* 2")


class TestClassifyEquation:
    def test_strongly_minimal(self, capsys):
        code, out, _ = run(capsys, "classify-equation", "--inv-angles", "1/2,1/3,1/7")
        doc = last_json(out)
        assert code == 0
        assert doc["command"] == "classify-equation"
        assert doc["result"]["verdict"] == "strongly_minimal"
        assert doc["result"]["witness"] is None

    def test_condition1_witness(self, capsys):
        code, out, _ = run(capsys, "classify-equation", "--inv-angles", "1/3,1/3,1/3")
        doc = last_json(out)
        assert code == 0
        assert doc["result"]["verdict"] == "not_strongly_minimal"
        w = doc["result"]["witness"]
        assert w["kind"] == "condition1" and w["value"] == 1

    def test_generic(self, capsys):
        code, out, _ = run(capsys, "classify-equation", "--inv-angles", "generic")
        assert code == 0
        assert last_json(out)["result"]["verdict"] == "generic_strongly_minimal"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "classify-equation", "--inv-angles", "1/2,x,1/3")
        assert code == 2
        assert "field 2" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "classify-equation", "--inv-angles", "1/2,1/3,1/7")
        _, out2, _ = run(capsys, "classify-equation", "--inv-angles", "1/2,1/3,1/7")
        d1, d2 = last_json(out1), last_json(out2)
        d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
        assert d1 == d2


    @pytest.mark.parametrize("value", ["1e3100", "1e-3100", "1e10000000"])
    def test_exponent_notation_bound(self, capsys, value):
        # judged from the text: Fraction would multiply 10^10000000 out
        start = time.perf_counter()
        code, out, err = run(capsys, "classify-equation", f"--inv-angles={value},1/2,1/3")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err.startswith("error: field 1: ") and err.count("\n") == 1 and "10000 bits" in err

    def test_exponent_notation_within_bound(self, capsys):
        code, out, _ = run(capsys, "classify-equation", "--inv-angles=1e3000,1/2,1/3")
        assert code == 0 and last_json(out)["result"]["verdict"] == "strongly_minimal"


class TestClassifyGroup:
    def test_modular_group(self, capsys):
        code, out, _ = run(capsys, "classify-group", "--sig", "2,3,inf")
        doc = last_json(out)
        assert code == 0
        r = doc["result"]
        assert r["arithmetic"] is True and r["maximal"] is True
        assert r["special_polynomials"] == "infinitely_many"

    def test_non_maximal(self, capsys):
        code, out, _ = run(capsys, "classify-group", "--sig", "2,6,12")
        r = last_json(out)["result"]
        assert code == 0
        assert r["maximal"] is False and r["in_m"] is True

    def test_invalid_entry(self, capsys):
        code, _, err = run(capsys, "classify-group", "--sig", "1,3,7")
        assert code == 2

    def test_non_hyperbolic_flagged(self, capsys):
        code, out, _ = run(capsys, "classify-group", "--sig", "2,3,6")
        r = last_json(out)["result"]
        assert code == 0
        assert r["geometry"] == "euclidean"
        assert r["arithmetic"] is None and "note" in r

    def test_non_hyperbolic_keys_are_the_reports_and_a_note(self, capsys):
        _, out, _ = run(capsys, "classify-group", "--sig", "2,3,inf")
        hyperbolic = set(last_json(out)["result"])
        for sig in ("2,3,5", "2,4,4", "3,3,3", "2,2,7"):
            _, out, _ = run(capsys, "classify-group", "--sig", sig)
            assert set(last_json(out)["result"]) == hyperbolic | {"note"}


class TestVerify:
    def test_principal_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "principal", "--inv-angles", "1/2,1/3,1/7",
            "--order", "40", "--tol", "1e-8",
        )
        doc = last_json(out)
        assert code == 0
        assert doc["result"]["passed"] is True
        assert doc["result"]["report"]["max_abs_residual"] < 1e-8

    def test_riccati_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "riccati", "--inv-angles", "0,0,0",
            "--order", "40", "--tol", "1e-8",
        )
        assert code == 0
        assert last_json(out)["result"]["passed"] is True

    def test_pullback_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "pullback", "--inv-angles", "0,0,0",
            "--phi", "y^2", "--tol", "1e-8",
        )
        assert code == 0
        assert last_json(out)["result"]["passed"] is True

    @pytest.mark.parametrize("phi", ["2^-40*y", "2^-60*y+1/3"])
    def test_pullback_along_small_affine_map(self, capsys, phi):
        # an affine phi is ramified nowhere, however small its slope
        code, out, _ = run(
            capsys, "verify", "pullback", "--inv-angles", "1/2,1/3,1/7",
            "--phi", phi, "--tol", "1e-8",
        )
        assert code == 0
        assert last_json(out)["result"]["passed"] is True

    def test_pullback_ramified_at_base(self, capsys):
        code, _, err = run(
            capsys, "verify", "pullback", "--inv-angles", "1/2,1/3,1/7",
            "--phi", "(y-1/2)^2",
        )
        assert code == 2 and "ramified" in err

    def test_pullback_value_underflows_onto_a_pole(self, capsys):
        # phi(1/2) = 2^-1000 is no pole of r, but r's denominator underflows
        # to 0 there: the error names the value and the pole, not a bare
        # division by zero
        code, out, err = run_without_warnings(
            capsys, "verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", "y^1000",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "phi's value at the base" in err and "9.33264e-302" in err
        assert "pole 0" in err and "floating point" in err

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "principal", "--inv-angles", "1/2,1/3,1/7",
            "--order", "10", "--tol", "1e-30",
        )
        assert code == 1
        assert last_json(out)["result"]["passed"] is False

    def test_deeply_nested_phi_is_usage_error(self, capsys):
        nested = "(" * 400 + "y" + ")" * 400
        code, _, err = run(
            capsys, "verify", "pullback", "--inv-angles", "0,0,0", "--phi", nested,
        )
        assert code == 2 and "nest" in err and "Traceback" not in err

    def test_pullback_requires_phi(self, capsys):
        code, _, err = run(capsys, "verify", "pullback", "--inv-angles", "0,0,0")
        assert code == 2 and "--phi" in err

    def test_generic_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "principal", "--inv-angles", "generic")
        assert code == 2

    @pytest.mark.parametrize("kind", ["principal", "riccati", "pullback"])
    def test_order_limit(self, capsys, kind):
        # rejected before any series work, which would run for hours and
        # need 160 GB for the reversion's matrix of powers
        start = time.perf_counter()
        code, out, err = run(
            capsys, "verify", kind, "--inv-angles", "1/2,1/3,1/7", "--phi", "y^2",
            "--order", "100000",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "--order" in err

    @pytest.mark.parametrize("order", ["2", "3"])
    def test_pullback_below_order_4(self, capsys, order):
        # the third derivative of J1 is constant there, so the residual
        # would measure the truncation, not the identity
        code, out, err = run(
            capsys, "verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", "y",
            "--order", order,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "order" in err

    @pytest.mark.parametrize("order", ["-5", "0", "3"])
    def test_principal_below_order_4(self, capsys, order):
        code, out, err = run(
            capsys, "verify", "principal", "--inv-angles", "1/2,1/3,1/7", "--order", order,
        )
        assert code == 2 and out == ""
        assert err == "error: order must be at least 4 to form the principal residual\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_finite_positive(self, capsys, tol):
        code, out, err = run(
            capsys, "verify", "principal", "--inv-angles", "1/2,1/3,1/7",
            "--order", "4", "--tol", tol,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "--tol" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "principal", "--inv-angles", "1/2,1/3,1/7", "--base", "1e400"),
            ("verify", "principal", "--inv-angles", "1e200,1/3,1/7"),
            # series coefficients past the float range make the residuals
            # NaN, which must not read as a measurement or a pass
            ("verify", "principal", "--inv-angles", "1/2,1/3,1/7", "--base", "1/1000", "--order", "120"),
            (
                "verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", "y^2",
                "--base", "1/1000", "--order", "120",
            ),
        ],
    )
    def test_float_overflow_is_usage_error(self, capsys, argv):
        code, out, err = run_without_warnings(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1


    def test_base_bound(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "principal", "--inv-angles", "1/2,1/3,1/7", "--base=1e10000000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err.startswith("error: --base: ") and err.count("\n") == 1


class TestSweep:
    def test_min_denominator(self, capsys, tmp_path):
        out_path = tmp_path / "records.ndjson"
        code, out, _ = run(capsys, "sweep", "--max-den", "3", "--out", str(out_path))
        assert code == 0
        summary = last_json(out)["result"]
        assert summary["cases"] == 10  # multisets of {1/3, 1/2, 2/3}
        assert summary["disagreements"] == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == summary["cases"]
        first = json.loads(lines[0])
        assert set(first) == {"triple", "verdict", "witness", "oracle", "agree"}

    def test_records_to_stdout_without_out(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-den", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 2  # one record plus the summary document
        rec = json.loads(lines[0])
        assert rec["triple"] == ["1/2", "1/2", "1/2"]
        assert rec["agree"] is True

    def test_stdout_and_out_records_agree(self, capsys, tmp_path):
        out_path = tmp_path / "records.ndjson"
        run(capsys, "sweep", "--max-den", "4", "--out", str(out_path))
        code, out, _ = run(capsys, "sweep", "--max-den", "4")
        assert code == 0
        records = out.splitlines(keepends=True)[:-1]
        assert len(records) == 35
        assert "".join(records).encode() == out_path.read_bytes()

    def test_bound_too_small(self, capsys):
        code, _, err = run(capsys, "sweep", "--max-den", "1")
        assert code == 2

    @pytest.mark.parametrize("max_den", ["21", "1000000"])
    def test_bound_too_large(self, capsys, tmp_path, max_den):
        # rejected before any enumeration: at 1000000 the exponent values
        # alone would exhaust memory, and no --out file is created
        out_path = tmp_path / "f.ndjson"
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--max-den", max_den, "--out", str(out_path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "--max-den" in err
        assert not out_path.exists()

    def test_largest_bound_accepted(self):
        # the bound itself passes the check (a sweep there runs 349,504 triples)
        _check_max_den(_MAX_DEN)

    def test_usage_error_leaves_no_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "f.ndjson"
        code, _, err = run(capsys, "sweep", "--max-den", "1", "--out", str(out_path))
        assert code == 2 and "--max-den" in err
        assert not out_path.exists()

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--max-den", "2", "--out", str(tmp_path / "no" / "way.ndjson")
        )
        assert code == 2 and "--out" in err

    def test_usage_error_without_args(self, capsys):
        assert main([]) == 2


class TestNegativeFractionValues:
    """A value with a leading minus is accepted as a separate argument and
    gives the same output as the ``--option=value`` form."""

    @pytest.mark.parametrize(
        "separate, attached",
        [
            (
                ("classify-equation", "--inv-angles", "-3/2,-2,5/2"),
                ("classify-equation", "--inv-angles=-3/2,-2,5/2"),
            ),
            (
                ("verify", "principal", "--inv-angles", "-3/2,-2,5/2"),
                ("verify", "principal", "--inv-angles=-3/2,-2,5/2"),
            ),
            (
                ("verify", "pullback", "--inv-angles", "-3/2,-2,5/2", "--phi", "y^2", "--base", "-1/2"),
                ("verify", "pullback", "--inv-angles=-3/2,-2,5/2", "--phi", "y^2", "--base=-1/2"),
            ),
        ],
    )
    def test_separate_and_attached_forms_agree(self, capsys, separate, attached):
        code1, out1, err1 = run(capsys, *separate)
        code2, out2, _ = run(capsys, *attached)
        assert code1 == code2 == 0, err1

        def strip_elapsed(text):
            return re.sub(r'"elapsed_ms": [0-9]+', '"elapsed_ms": 0', text)

        assert strip_elapsed(out1) == strip_elapsed(out2)


class TestOneCommandPath:
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify-equation", "--inv-angles", "1/2,1/3,1/7"),
            ("classify-group", "--sig", "2,3,inf"),
            ("verify", "riccati", "--inv-angles", "0,0,0"),
            ("sweep", "--max-den", "2"),
        ],
    )
    def test_document_keys(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        doc = last_json(out)
        assert code == 0
        assert set(doc) == {"command", "inputs", "result", "elapsed_ms"}
        assert doc["command"] == argv[0]

    def test_reused_parser_leaks_nothing(self, capsys, tmp_path):
        run(capsys, "verify", "pullback", "--inv-angles", "0,0,0", "--phi", "y^2")
        code, out, _ = run(capsys, "verify", "principal", "--inv-angles", "0,0,0")
        assert code == 0 and last_json(out)["inputs"]["phi"] is None

        out_path = tmp_path / "f.ndjson"
        code, _, _ = run(capsys, "sweep", "--max-den", "2", "--out", str(out_path))
        assert code == 0 and len(out_path.read_text().splitlines()) == 1
        code, out, _ = run(capsys, "sweep", "--max-den", "2")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert json.loads(lines[0])["triple"] == ["1/2", "1/2", "1/2"]
        assert last_json(out)["result"]["out_path"] is None


def _run_with_closed_stdout(argv: list[str], lines_before_close: int) -> tuple[int, str]:
    """Run the CLI in a subprocess, read ``lines_before_close`` lines of its
    stdout and close the pipe; returns the exit code and stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "schwarztri", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    for _ in range(lines_before_close):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(timeout=120), err


class TestClosedStdout:
    def test_sweep_into_a_closed_pipe(self):
        # 1771 records, far more than a pipe holds, so the writes after the
        # first line meet the closed pipe; the sweep agrees everywhere, so
        # its own code is 0
        code, err = _run_with_closed_stdout(["sweep", "--max-den", "8"], 1)
        assert err == ""
        assert code == 0

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["classify-equation", "--inv-angles", "1/2,1/3,1/7"], 0),
            (["verify", "principal", "--inv-angles", "1/2,1/3,1/7"], 0),
            (["verify", "principal", "--inv-angles", "1/2,1/3,1/7", "--tol", "1e-300"], 1),
        ],
    )
    def test_document_into_a_closed_pipe(self, argv, expected):
        # the pipe is closed before the document is written
        code, err = _run_with_closed_stdout(argv, 0)
        assert err == ""
        assert code == expected
