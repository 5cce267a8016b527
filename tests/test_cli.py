"""End-to-end tests of the command-line interface."""

import json
import os
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F

import pytest
from definitions import den8_params

from schwarztri import cli, groups
from schwarztri.cli import _MAX_DEN, _MAX_NESTING, _MAX_PHI_DEGREE, UsageError, _check_max_den, main, parse_phi
from schwarztri.groups import Signature, geometry
from schwarztri.monodromy import InconclusiveError, ProjectiveClass
from schwarztri.rational import MAX_TEXT_BITS, Poly, RatFunc
from schwarztri.triangle import AngleParams, exponent_differences


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


# -- reference: the character-scanning parser that the token stream replaced,
# kept word for word


class ReferenceExprParser:
    """Recursive-descent parser for one-variable rational expressions:
    integers, y, + - * / ^ and parentheses; ^ takes integer exponents."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, message: str):
        raise UsageError(f"phi expression, position {self.pos}: {message}")

    def bound(self, what: str, *values: RatFunc, times: int = 1) -> None:
        """Fail unless ``times`` times the summed degrees and coefficient
        bits of ``values`` stay within the bounds of --phi.  A value's
        degree is that of its numerator or denominator, whichever is larger,
        and its bits the floor of log2 of its largest coefficient numerator
        or denominator (so 1^n is free)."""
        degree = bits = 0
        for value in values:
            num, den = value.num, value.den
            degree += max(num.degree, den.degree)
            coeffs = num.coeffs + den.coeffs
            bits += max(max(abs(c.numerator), c.denominator).bit_length() - 1 for c in coeffs)
        if times * degree > _MAX_PHI_DEGREE or times * bits > MAX_TEXT_BITS:
            self.fail(f"{what} exceeds degree {_MAX_PHI_DEGREE} or {MAX_TEXT_BITS}-bit coefficients")

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> RatFunc:
        value = self.expr()
        if self.peek():
            self.fail(f"unexpected character {self.peek()!r}")
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while (op := self.peek()) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
            self.bound("sum", value)
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while (op := self.peek()) in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            # checked before the operation runs: before cancellation, a
            # product or quotient has the sum of the degrees and about the
            # sum of the coefficient bits
            self.bound("product" if op == "*" else "quotient", value, rhs)
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    self.fail("division by zero")
                value = value / rhs
        return value

    def factor(self) -> RatFunc:
        sign = 1
        while (c := self.peek()) in ("+", "-"):
            if c == "-":
                sign = -sign
            self.pos += 1
        value = self.atom()
        if self.peek() == "^":
            self.pos += 1
            n = self.integer()
            # checked before ** runs: the power has |n| times the degree and
            # about |n| times the coefficient bits
            self.bound("power", value, times=abs(n))
            value = value**n
        return value * sign

    def atom(self) -> RatFunc:
        c = self.peek()
        if c == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nest deeper than {_MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            value = self.expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if c == "y":
            self.pos += 1
            return RatFunc.variable()
        if c.isdigit():
            return RatFunc.constant(self.unsigned_integer())
        self.fail(f"expected a number, 'y' or '(', got {c!r}" if c else "unexpected end of input")

    def integer(self) -> int:
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self.unsigned_integer()

    def unsigned_integer(self) -> int:
        c = self.peek()
        if not c.isdigit():
            self.fail("expected an integer")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])


def _parse_outcome(parse, text: str):
    """The parsed value's text, or the type and message of the error."""
    try:
        return parse(text).to_text()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_POSITION = re.compile(r"position (\d+): ")


def _random_phi(rng: random.Random) -> str:
    """A random --phi text: up to six tokens of the alphabet in any order,
    or (three texts in ten) an expression of the grammar with random
    whitespace, signs, powers (negative ones, and ones past the bounds) and
    numerals up to past 4300 digits; one in 200 nested near
    ``_MAX_NESTING`` deep, and one in four with a character inserted,
    deleted or replaced."""

    def space():
        return rng.choice(("", "", "", " ", "  ", "\t", " \n"))

    def atom(d):
        u = rng.random()
        if u < 0.4 or d > 0:
            return "y"
        if u < 0.8:
            k = rng.choice((1, 1, 1, 2, 3, 12)) if rng.random() < 0.999 else rng.choice((3100, 4400))
            return "".join(rng.choice("0123456789") for _ in range(k))
        return "(" + space() + expr(d + 1) + space() + ")"

    def factor(d):
        text = rng.choice(("", "", "", "-", "+", "--", "- -")) + space() + atom(d)
        if rng.random() < 0.3:
            n = rng.choice((0, 1, 2, 3, -1, -2, rng.randint(4, 20), rng.randint(1001, 5000), 10**9))
            text += space() + "^" + space() + ("-" + space() if n < 0 else "") + str(abs(n))
        return text

    def term(d):
        text = factor(d)
        for _ in range(rng.choice((0, 1, 1, 2))):
            text += space() + rng.choice("*/") + space() + factor(d)
        return text

    def expr(d):
        text = term(d)
        for _ in range(rng.choice((0, 1))):
            text += space() + rng.choice("+-") + space() + term(d)
        return text

    if rng.random() < 0.7:
        # a few tokens of the alphabet, in any order
        tokens = ("y", "2", "10", "0", "1001", "+", "-", "*", "/", "^", "^-", "(", ")", " ", "\t", "x", "1/2")
        text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 6)))
    else:
        text = expr(0)
    if rng.random() < 0.005:
        k = rng.randint(_MAX_NESTING - 2, _MAX_NESTING + 2)
        text = "(" * k + text + ")" * k
    if text and rng.random() < 0.25:
        i = rng.randrange(len(text) + 1)
        c = rng.choice("y0123456789+-*/^() \tx.,")
        text = rng.choice((text[:i] + c + text[i:], text[:i] + text[i + 1 :], text[:i] + c + text[i + 1 :]))
    return text


class TestPhiParserMatchesReference:
    def test_seeded_texts(self):
        # the same value, or the same error type and message, on 30,000
        # seeded texts.  One position differs by design: a failure straight
        # after an exponent is reported at the next token, where the
        # reference reported the position just past the exponent's digits
        rng = random.Random(2112)
        moved = failed = 0
        for _ in range(30_000):
            text = _random_phi(rng)
            got = _parse_outcome(parse_phi, text)
            want = _parse_outcome(lambda t: ReferenceExprParser(t).parse(), text)
            failed += isinstance(want, tuple)
            if got == want:
                continue
            assert got[0] is want[0] is UsageError, text
            assert _POSITION.sub("", got[1]) == _POSITION.sub("", want[1]), text
            at, was = (int(_POSITION.search(m)[1]) for m in (got[1], want[1]))
            rest = text[was:]
            assert "^" in text[:was] and text[was - 1].isdigit(), text
            assert at == was + len(rest) - len(rest.lstrip()) > was, text
            moved += 1
        assert 5_000 < failed < 25_000 and 0 < moved < failed

    @pytest.mark.parametrize(
        "text, was, at",
        [("y^2000 + 1", 6, 7), ("y^600 * y^600 ", 13, 14), ("y^600\t/ y^600\n", 13, 14),
         ("(y^2000 )", 7, 8), ("y^2000", 6, 6)],
    )
    def test_failure_after_an_exponent_is_at_the_next_token(self, text, was, at):
        reference = _parse_outcome(lambda t: ReferenceExprParser(t).parse(), text)
        assert reference[0] is UsageError and f"position {was}: " in reference[1]
        with pytest.raises(UsageError, match=f"^phi expression, position {at}: "):
            parse_phi(text)


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

    def test_zero_denominator_field_is_echoed_short(self, capsys):
        # a zero denominator and text that is no fraction: the error line
        # quotes 40 characters of the field, not its 4,002 or 300
        for field in ("1/" + "0" * 4000, "x" * 300):
            code, out, err = run(capsys, "classify-equation", "--inv-angles", field + ",1/2,1/3")
            assert code == 2 and not out
            assert err == f"error: field 1: not an exact fraction: {field[:40]!r}\n"
            assert len(err.encode()) < 100

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

    def test_bad_field_is_echoed_short(self, capsys):
        # int() refuses 5,000 digits; the error line quotes 40 characters
        code, out, err = run(capsys, "classify-group", "--sig", "2,3," + "9" * 5000)
        assert code == 2 and not out
        assert err.startswith("error: field 3 ('99999") and err.count("\n") == 1
        assert len(err.encode()) < 200
        code, _, err = run(capsys, "classify-group", "--sig", "2, x7 ,7")
        assert code == 2 and err == "error: field 2 ('x7'): not an integer or 'inf'\n"

    def test_non_hyperbolic_flagged(self, capsys):
        code, out, _ = run(capsys, "classify-group", "--sig", "2,3,6")
        r = last_json(out)["result"]
        assert code == 0
        assert r["geometry"] == "euclidean"
        assert r["arithmetic"] is None and "note" in r

    def test_non_hyperbolic_keys_are_the_reports_and_a_note(self, capsys):
        _, out, _ = run(capsys, "classify-group", "--sig", "2,3,inf")
        hyperbolic = set(last_json(out)["result"])
        for sig, geo in [("2,3,5", "spherical"), ("2,4,4", "euclidean"), ("3,3,3", "euclidean"),
                         ("2,2,7", "spherical")]:
            code, out, _ = run(capsys, "classify-group", "--sig", sig)
            result = last_json(out)["result"]
            assert code == 0 and set(result) == hyperbolic | {"note"}
            assert result == {
                **dict.fromkeys(hyperbolic),
                "geometry": geo,
                "signature": sig,
                "note": "non-hyperbolic signature: group-theoretic fields not applicable",
            }

    @pytest.mark.parametrize("sig", ["2,3,7", "2,3,inf", "2,3,6", "2,3,5", "2,2,inf"])
    def test_geometry_decided_once(self, capsys, monkeypatch, sig):
        # counted under both names, so that a copy imported into cli counts too
        calls = []
        monkeypatch.setattr(groups, "geometry", lambda s: calls.append(s) or geometry(s))
        monkeypatch.setattr(cli, "geometry", groups.geometry, raising=False)
        code, out, _ = run(capsys, "classify-group", "--sig", sig)
        assert code == 0 and last_json(out)["result"]["geometry"] == geometry(Signature.parse(sig)).value
        assert calls == [Signature.parse(sig)]


class TestVerify:
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

    @pytest.mark.parametrize("kind", ["principal", "riccati"])
    @pytest.mark.parametrize("phi", ["y^2", "((("])
    def test_phi_only_with_pullback(self, capsys, kind, phi):
        # a --phi that would not act is rejected, parsed or not
        code, out, err = run(capsys, "verify", kind, "--inv-angles", "1/2,1/3,1/7", "--phi", phi)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "--phi" in err

    def test_generic_rejected(self, capsys):
        # by triangle's rule for exact parameters, stated once
        for check in (["principal"], ["riccati"], ["pullback", "--phi", "y"]):
            code, out, err = run(capsys, "verify", *check, "--inv-angles", "generic")
            assert code == 2 and out == ""
            assert err == "error: operation requires exact parameter values, not the generic tag\n"

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

    @pytest.mark.parametrize("base", ["1/0", "1/" + "0" * 4000, "x" * 300], ids=["1/0", "4000 zeros", "300 x"])
    def test_base_zero_denominator(self, capsys, base):
        # a zero denominator or text that is no fraction: the option is named
        # and at most 40 characters of the text are echoed
        code, out, err = run_without_warnings(
            capsys, "verify", "principal", "--inv-angles", "1/2,1/3,1/7", "--base", base
        )
        assert code == 2 and not out
        assert err == f"error: --base: not an exact fraction: {base[:40]!r}\n"

    @pytest.mark.parametrize("check", [["principal"], ["riccati"], ["pullback", "--phi", "y"]], ids=lambda c: c[0])
    def test_base_where_the_denominator_underflows(self, capsys, check):
        # r's poles are 0 and 1, but its denominator y^2 (y - 1)^2 underflows
        # to 0 at 1e-300: the error says that it vanishes in floating point
        code, out, err = run_without_warnings(
            capsys, "verify", *check, "--inv-angles", "1/2,1/3,1/7", "--base", "1e-300"
        )
        assert code == 2 and not out
        assert err == "error: base point (1e-300+0j) is a pole in floating point: the denominator evaluates to 0 there\n"

    @pytest.mark.parametrize(
        "check, message",
        [
            (["principal", "--base", "1"], "base point 1 is a pole"),
            (["riccati", "--base", "0"], "base point 0 is a pole"),
            (["pullback", "--phi", "2*y", "--base", "1/2"], "phi maps the base point 1/2 to 1, a pole of r"),
            (["pullback", "--phi", "1/(y-1/3)", "--base", "1/3"], "base point 1/3 is a pole of phi"),
        ],
        ids=["principal", "riccati", "pullback-value", "pullback-phi"],
    )
    def test_exact_pole_at_the_base(self, capsys, check, message):
        # an exact base is tested against the poles exactly, before it is
        # rounded to complex, and the points are named exactly
        code, out, err = run_without_warnings(capsys, "verify", *check, "--inv-angles", "1/2,1/3,1/7")
        assert code == 2 and not out
        assert err == f"error: {message}\n"


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

    def test_corpus_in_sweep_order(self):
        # the multisets of test_min_denominator, in combinations_with_replacement
        # order, each as its exponent differences at 0, 1 and infinity
        a, b, c = F(1, 3), F(1, 2), F(2, 3)
        expected = [(a, a, a), (a, a, b), (a, a, c), (a, b, b), (a, b, c), (a, c, c),
                    (b, b, b), (b, b, c), (b, c, c), (c, c, c)]
        assert [exponent_differences(p).as_tuple() for p in cli._sweep_params(3)] == expected
        assert len(den8_params()) == 1771

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


class TestSweepComparison:
    """The agreement rule of ``sweep_records`` and its negative paths, with
    the oracle's verdict forced."""

    # verdicts (1/2, 1/2, 1/2): not strongly minimal; (1/2, 1/3, 1/7): strongly minimal
    PARAMS = [AngleParams.from_exponent_differences(*t) for t in ((F(1, 2),) * 3, (F(1, 2), F(1, 3), F(1, 7)))]

    @pytest.mark.parametrize("kind", ["finite", "dihedral", "triangularizable", "dense"])
    def test_agreement_rule(self, monkeypatch, kind):
        # each integrable kind agrees with a verdict of not strongly
        # minimal, and dense with strongly minimal; the triples may come
        # from any iterable, which is read once
        monkeypatch.setattr(cli, "classify_projective", lambda rep: ProjectiveClass(kind, None, 1e-9, None))
        records, summary = cli.sweep_records(iter(self.PARAMS))
        integrable = kind != "dense"
        assert [r["agree"] for r in records] == [integrable, not integrable]
        assert [r["oracle"]["kind"] for r in records] == [kind, kind]
        assert summary == {"cases": 2, "agreements": 1, "disagreements": 1, "inconclusive": 0}

    def test_inconclusive_records(self, capsys, monkeypatch):
        def inconclusive(rep):
            raise InconclusiveError("loci not separated")

        monkeypatch.setattr(cli, "classify_projective", inconclusive)
        code, out, _ = run(capsys, "sweep", "--max-den", "3")
        *records, doc = map(json.loads, out.splitlines())
        assert code == 0 and len(records) == 10
        assert all(r["oracle"] == {"kind": "inconclusive", "detail": "loci not separated"} for r in records)
        assert all(r["agree"] is None for r in records)
        summary = doc["result"]
        assert (summary["agreements"], summary["disagreements"], summary["inconclusive"]) == (0, 0, 10)

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        # the one triple of --max-den 2 is not strongly minimal
        monkeypatch.setattr(cli, "classify_projective", lambda rep: ProjectiveClass("dense", None, 1e-9, None))
        code, out, _ = run(capsys, "sweep", "--max-den", "2")
        record, doc = map(json.loads, out.splitlines())
        assert code == 1 and record["agree"] is False
        assert (doc["result"]["cases"], doc["result"]["disagreements"]) == (1, 1)


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
            *(
                (
                    ("verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", phi),
                    ("verify", "pullback", "--inv-angles", "1/2,1/3,1/7", f"--phi={phi}"),
                )
                for phi in ("-y^2+2", "-3*y+2", "-(y-1)/2+1")
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


def _cli_process(argv: list[str], stdout) -> subprocess.Popen:
    """The CLI in a subprocess that imports the package from this
    checkout's ``src/``, its stdout to ``stdout`` and its stderr to a pipe."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen(
        [sys.executable, "-m", "schwarztri", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


def _run_with_closed_stdout(argv: list[str], lines_before_close: int) -> tuple[int, str]:
    """Run the CLI in a subprocess, read ``lines_before_close`` lines of its
    stdout and close the pipe; returns the exit code and stderr."""
    proc = _cli_process(argv, subprocess.PIPE)
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, sink",
    [
        (["classify-group", "--sig", "2,3,7"], "output"),
        (["sweep", "--max-den", "3"], "output"),
        (["sweep", "--max-den", "3", "--out", "/dev/full"], "--out path"),
    ],
    ids=["classify-group", "sweep", "sweep-out"],
)
def test_write_to_a_full_device(argv, sink):
    # one error line and exit 2: no traceback with exit 1, and no failed
    # last flush, which would print "Exception ignored" and exit 120
    with open("/dev/full", "w") as full:
        proc = _cli_process(argv, full if sink == "output" else subprocess.PIPE)
        out, err = proc.communicate(timeout=120)
    assert not out
    assert err.decode() == f"error: cannot write {sink}: [Errno 28] No space left on device\n"
    assert proc.returncode == 2
