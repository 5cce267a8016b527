"""Command-line front end.

Four commands, each emitting one JSON document on stdout (sweeps first write
newline-delimited records):

    classify-equation --inv-angles 1/2,1/3,1/7 | generic
    classify-group    --sig 2,3,inf
    verify {principal,riccati,pullback} --inv-angles ... [--phi EXPR] ...
    sweep  --max-den 6 [--out results.ndjson]

Exit codes: 0 pass/success, 1 verification failure or sweep disagreement,
2 usage or parse error, or an input too large for floating point.  Output is
deterministic for fixed flags apart from the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .groups import Geometry, Signature, geometry, group_report
from .minimality import classify
from .monodromy import InconclusiveError, classify_projective, monodromy
from .rational import RatFunc
from .series import residual_principal, residual_riccati, verify_pullback
from .triangle import AngleParams, build_r


class UsageError(ValueError):
    pass


# -- rational expression parser for --phi -------------------------------------


# deepest parenthesis nesting accepted in --phi: each level costs the
# recursive-descent parser four stack frames
_MAX_NESTING = 100

# largest degree and coefficient size (bits) that one ^ in --phi may produce:
# nested powers otherwise grow without limit, as in ((y^64)^64)^64
_MAX_POWER_DEGREE = 1000
_MAX_POWER_BITS = 10_000


class _ExprParser:
    """Recursive-descent parser for one-variable rational expressions:
    integers, y, + - * / ^ and parentheses; ^ takes integer exponents."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, message: str):
        raise UsageError(f"phi expression, position {self.pos}: {message}")

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
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while (op := self.peek()) in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
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
            # about |n| times the coefficient bits (floor of log2, so 1^n is free)
            coeffs = value.num.coeffs + value.den.coeffs
            bits = max(max(abs(c.numerator), c.denominator).bit_length() - 1 for c in coeffs)
            degree = max(value.num.degree, value.den.degree)
            if abs(n) * degree > _MAX_POWER_DEGREE or abs(n) * bits > _MAX_POWER_BITS:
                self.fail(
                    f"power exceeds degree {_MAX_POWER_DEGREE} or {_MAX_POWER_BITS}-bit coefficients"
                )
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


def parse_phi(text: str) -> RatFunc:
    return _ExprParser(text).parse()


# -- sweep core ---------------------------------------------------------------


def exponent_values(max_den: int) -> list[Fraction]:
    """Reduced fractions in (0, 1) with denominator at most ``max_den``, ascending."""
    values = {
        Fraction(p, q) for q in range(2, max_den + 1) for p in range(1, q)
    }
    return sorted(values)


def _check_max_den(max_den: int) -> None:
    if max_den < 2:
        raise UsageError("--max-den must be at least 2")


def sweep_records(max_den: int) -> tuple[list[dict], dict]:
    """Compare the exact classifier with the monodromy oracle on every
    unordered reduced exponent triple with denominators <= max_den.

    Both sides are permutation invariant, so unordered triples cover the full
    ordered sweep; the records come out in canonical ascending order.
    """
    _check_max_den(max_den)
    values = exponent_values(max_den)
    records = []
    agreements = disagreements = inconclusive = 0
    triples = list(itertools.combinations_with_replacement(values, 3))
    all_params = [AngleParams(e_alpha=t2, e_beta=t0, e_gamma=t1) for t0, t1, t2 in triples]
    for (t0, t1, t2), params, rep in zip(triples, all_params, monodromy(all_params)):
        verdict = classify(params)
        witness = verdict.witness.to_record() if verdict.witness else None
        try:
            oracle = classify_projective(rep)
            oracle_record = oracle.to_record()
            oracle_integrable = oracle.kind in ("finite", "dihedral", "triangularizable")
            agree: Optional[bool] = oracle_integrable == (not verdict.strongly_minimal)
        except InconclusiveError as exc:
            oracle_record = {"kind": "inconclusive", "detail": str(exc)}
            agree = None
        if agree is None:
            inconclusive += 1
        elif agree:
            agreements += 1
        else:
            disagreements += 1
        records.append(
            {
                "triple": [str(t0), str(t1), str(t2)],
                "verdict": verdict.verdict.value,
                "witness": witness,
                "oracle": oracle_record,
                "agree": agree,
            }
        )
    summary = {
        "cases": len(records),
        "agreements": agreements,
        "disagreements": disagreements,
        "inconclusive": inconclusive,
    }
    return records, summary


# -- commands -------------------------------------------------------------------
#
# Each command returns (inputs, result, exit code); main times it and prints
# the document.


def _cmd_classify_equation(args) -> tuple[dict, dict, int]:
    params = AngleParams.parse(args.inv_angles)
    return {"inv_angles": args.inv_angles}, classify(params).to_record(), 0


def _cmd_classify_group(args) -> tuple[dict, dict, int]:
    sig = Signature.parse(args.sig)
    geo = geometry(sig)
    if geo is Geometry.HYPERBOLIC:
        payload = group_report(sig).to_record()
    else:
        # arithmetic/maximality theory is stated for hyperbolic signatures only
        payload = {
            "geometry": geo.value,
            "arithmetic": None,
            "maximal": None,
            "in_m": None,
            "in_w": None,
            "special_polynomials": None,
            "note": "non-hyperbolic signature: group-theoretic fields not applicable",
        }
    payload["signature"] = sig.as_text()
    return {"sig": args.sig}, payload, 0


def _cmd_verify(args) -> tuple[dict, dict, int]:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be a finite positive number, not {args.tol}")
    params = AngleParams.parse(args.inv_angles)
    if params.is_generic:
        raise UsageError("verification needs exact parameter values, not 'generic'")
    r = build_r(params)
    base = Fraction(args.base)
    phi = None
    if args.kind == "principal":
        report = residual_principal(r, base, args.order)
    elif args.kind == "riccati":
        report = residual_riccati(r, base, args.order)
    else:
        if args.phi is None:
            raise UsageError("verify pullback requires --phi")
        phi = parse_phi(args.phi)
        report = verify_pullback(r, phi, base, args.order)
    passed = report.max_abs_residual < args.tol
    inputs = {
        "kind": args.kind,
        "inv_angles": args.inv_angles,
        "phi": args.phi,
        "order": args.order,
        "base": args.base,
        "tol": args.tol,
    }
    result = {
        "equation": r.to_text(),
        "phi": phi.to_text() if phi is not None else None,
        "report": report.to_record(),
        "tolerance": args.tol,
        "passed": passed,
    }
    return inputs, result, 0 if passed else 1


def _cmd_sweep(args) -> tuple[dict, dict, int]:
    # validate before opening --out, so that a usage error leaves no file
    _check_max_den(args.max_den)
    sink = None
    if args.out:
        try:
            sink = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write --out path: {exc}") from exc
    try:
        records, summary = sweep_records(args.max_den)
        # sys.stdout is read here, not at import, so that a redirect applies
        out = sink if sink is not None else sys.stdout
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")
    finally:
        if sink is not None:
            sink.close()
    summary["out_path"] = args.out or None
    return {"max_den": args.max_den}, summary, 0 if summary["disagreements"] == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="schwarztri",
        description="Exact integrability classification and numerical verification "
        "for Schwarz triangle equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify-equation",
        help="decide strong minimality from exact inverse angle parameters",
    )
    p.add_argument(
        "--inv-angles",
        required=True,
        help="three exact fractions '1/2,1/3,1/7' (inverse angles; 0 encodes infinity) "
        "or the literal 'generic'",
    )
    p.set_defaults(func=_cmd_classify_equation)

    p = sub.add_parser("classify-group", help="classify a triangle-group signature")
    p.add_argument("--sig", required=True, help="signature 'k,l,m' with entries >= 2 or 'inf'")
    p.set_defaults(func=_cmd_classify_group)

    p = sub.add_parser("verify", help="numerical residual checks of the differential identities")
    p.add_argument("kind", choices=("principal", "riccati", "pullback"))
    p.add_argument("--inv-angles", required=True, help="exact fractions 'a,b,c'")
    p.add_argument(
        "--phi",
        default=None,
        help="rational expression in y for the pullback map, e.g. 'y^2' or '(y-1)/(y+1)' "
        "(integers, + - * / ^ with integer exponents)",
    )
    p.add_argument("--order", type=int, default=40, help="series truncation order (default 40)")
    p.add_argument("--base", default="1/2", help="series base point as an exact fraction (default 1/2)")
    p.add_argument("--tol", type=float, default=1e-8, help="pass/fail residual tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "sweep",
        help="compare the exact classifier with the monodromy oracle over all "
        "reduced exponent triples with bounded denominators",
    )
    p.add_argument("--max-den", type=int, required=True, help="denominator bound (>= 2)")
    p.add_argument("--out", default=None, help="path for newline-delimited per-triple records")
    p.set_defaults(func=_cmd_sweep)

    return parser


# options whose value is exact fractions and may start with '-'
_FRACTION_OPTIONS = ("--inv-angles", "--base")
_NEGATIVE_VALUE = re.compile(r"-[0-9]")


def _attach_fraction_values(argv: list[str]) -> list[str]:
    """Rewrite ``--inv-angles -3/2,...`` as ``--inv-angles=-3/2,...``.

    argparse reads a separate value with a leading minus as an option unless
    it is a plain number, and ``-3/2,-2,5/2`` is not.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FRACTION_OPTIONS and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_fraction_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    start = time.perf_counter()
    try:
        inputs, result, code = args.func(args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # UsageError is a ValueError; OverflowError is an input too large
        # for floating point
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    document = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "elapsed_ms": elapsed_ms,
    }
    print(json.dumps(document, sort_keys=True, allow_nan=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
