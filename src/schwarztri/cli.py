"""Command-line front end.

Four commands, each emitting one JSON document on stdout (sweeps first write
newline-delimited records):

    classify-equation --inv-angles 1/2,1/3,1/7 | generic
    classify-group    --sig 2,3,inf
    verify {principal,riccati} --inv-angles ...
    verify pullback --inv-angles ... --phi EXPR ...
    sweep  --max-den 6 [--out results.ndjson]

Exit codes: 0 pass/success, 1 verification failure or sweep disagreement,
2 usage or parse error, an input too large for floating point, or output
that cannot be written.  Output is deterministic for fixed flags apart from
the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .groups import Signature, group_report
from .minimality import classify
from .monodromy import InconclusiveError, classify_projective, monodromy
from .rational import MAX_TEXT_BITS, RatFunc, parse_fraction
from .series import residual_principal, residual_riccati, verify_pullback
from .triangle import AngleParams, build_r, exponent_differences


class UsageError(ValueError):
    pass


# -- rational expression parser for --phi -------------------------------------


# deepest parenthesis nesting accepted in --phi: each level costs the
# recursive-descent parser four stack frames
_MAX_NESTING = 100

# largest degree of any value that --phi builds, whose coefficients have at
# most MAX_TEXT_BITS bits, the bound on the fractions of --inv-angles and
# --base: powers and products otherwise grow without limit, as in
# ((y^64)^64)^64, and so does the work of building them and of the series
# on phi
_MAX_PHI_DEGREE = 1000

# largest series truncation order accepted by verify: the reversion's matrix
# of powers takes 16 (order + 1)^2 bytes, 16 MB at this bound
_MAX_ORDER = 1000

# largest denominator bound accepted by sweep: the exponent values grow as
# max_den^2 and the triples as max_den^6, 349,504 triples at this bound
_MAX_DEN = 20


_TOKEN = re.compile(r"\s*(\d+|\S|$)")


class _ExprParser:
    """Recursive-descent parser for one-variable rational expressions:
    integers, y, + - * / ^ and parentheses; ^ takes integer exponents.
    ``_TOKEN`` splits the text into runs of decimal digits and single other
    characters; ``tok`` is the next token, "" at the end, and ``pos`` its
    position."""

    def __init__(self, text: str):
        self.tokens = ((m.start(1), m[1]) for m in _TOKEN.finditer(text))
        self.pos, self.tok = next(self.tokens)
        self.depth = 0

    def advance(self) -> str:
        """Consume the next token, which is not the end, and return it."""
        tok = self.tok
        self.pos, self.tok = next(self.tokens)
        return tok

    def fail(self, message: str):
        raise UsageError(f"phi expression, position {self.pos}: {message}")

    def bound(self, what: str, *values: RatFunc, times: int = 1) -> None:
        """Fail unless ``times`` times the summed degrees and coefficient
        bits of ``values`` stay within the bounds of --phi.  A value's
        degree is that of its numerator or denominator, whichever is larger,
        and its bits the floor of log2 of its largest coefficient numerator
        or denominator (so 1^n is free), read from the lowest-terms
        coefficients of its ``num`` and ``den``."""
        degree = bits = 0
        for value in values:
            num, den = value.num.coeffs, value.den.coeffs
            degree += max(len(num), len(den)) - 1
            bits += max(max(abs(x.numerator), x.denominator).bit_length() for x in num + den) - 1
        if times * degree > _MAX_PHI_DEGREE or times * bits > MAX_TEXT_BITS:
            self.fail(f"{what} exceeds degree {_MAX_PHI_DEGREE} or {MAX_TEXT_BITS}-bit coefficients")

    def parse(self) -> RatFunc:
        value = self.expr()
        if self.tok:
            self.fail(f"unexpected character {self.tok[:1]!r}")
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while self.tok in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
            self.bound("sum", value)
        return value

    def term(self) -> RatFunc:
        value = self.factor()
        while self.tok in ("*", "/"):
            op = self.advance()
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
        while self.tok in ("+", "-"):
            if self.advance() == "-":
                sign = -sign
        value = self.atom()
        if self.tok == "^":
            self.advance()
            n = self.integer()
            # checked before ** runs: the power has |n| times the degree and
            # about |n| times the coefficient bits
            self.bound("power", value, times=abs(n))
            value = value**n
        return -value if sign < 0 else value

    def atom(self) -> RatFunc:
        tok = self.tok
        if tok == "(":
            if self.depth == _MAX_NESTING:
                self.fail(f"parentheses nest deeper than {_MAX_NESTING}")
            self.advance()
            self.depth += 1
            value = self.expr()
            if self.tok != ")":
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return value
        if tok == "y":
            self.advance()
            return RatFunc.variable()
        if tok.isdecimal():
            return RatFunc.constant(int(self.advance()))
        self.fail(f"expected a number, 'y' or '(', got {tok!r}" if tok else "unexpected end of input")

    def integer(self) -> int:
        sign = 1
        if self.tok == "-":
            sign = -1
            self.advance()
        if not self.tok.isdecimal():
            self.fail("expected an integer")
        return sign * int(self.advance())


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
    if not 2 <= max_den <= _MAX_DEN:
        raise UsageError(f"--max-den must lie in 2..{_MAX_DEN}, not {max_den}")


def _sweep_params(max_den: int) -> Iterator[AngleParams]:
    """The sweep's corpus: the unordered triples of ``exponent_values(max_den)``,
    in ``combinations_with_replacement`` order, as differences at 0, 1, infinity."""
    # both sides are permutation invariant: unordered triples cover all
    for t in itertools.combinations_with_replacement(exponent_values(max_den), 3):
        yield AngleParams.from_exponent_differences(*t)


def sweep_records(params: Iterable[AngleParams]) -> tuple[list[dict], dict]:
    """Join the exact classifier's verdict and the monodromy oracle's on each
    of ``params``, in one batched ``monodromy`` call: a record each, in input
    order, whose triple is the exponent differences at 0, 1 and infinity,
    and a summary of the counts.  They agree when the oracle's class is
    integrable exactly where the verdict is not strongly minimal; an
    inconclusive oracle record has ``agree`` None.
    """
    params = list(params)
    records = []
    for p, rep in zip(params, monodromy(params)):
        verdict = classify(p)
        try:
            oracle = classify_projective(rep)
            oracle_record, agree = oracle.to_record(), oracle.integrable != verdict.strongly_minimal
        except InconclusiveError as exc:
            oracle_record, agree = exc.to_record(), None
        records.append(
            {
                "triple": [str(t) for t in exponent_differences(p).as_tuple()],
                **verdict.to_record(),
                "oracle": oracle_record,
                "agree": agree,
            }
        )
    tally = collections.Counter(rec["agree"] for rec in records)
    summary = {
        "cases": len(records),
        "agreements": tally[True],
        "disagreements": tally[False],
        "inconclusive": tally[None],
    }
    return records, summary


# -- commands -------------------------------------------------------------------
#
# Each command returns (inputs, result, exit code); main times it and writes
# the document.  A sweep writes its records itself, to --out or to stdout,
# before main writes the document, so elapsed_ms covers the writing.


def _write(sink, values, what: str = "output") -> None:
    """Write each value to ``sink`` as one JSON line, and flush.

    When a write fails, the rest of the output is dropped, and the sink goes
    to the null device, so that later writes, its close and the
    interpreter's last flush do not fail again.  A reader that has closed
    the pipe, as ``| head`` does, ends the output quietly; any other failure,
    such as a full device, is a UsageError that names ``what``.
    """
    try:
        for value in values:
            sink.write(json.dumps(value, sort_keys=True, allow_nan=False) + "\n")
        sink.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sink.fileno())
        os.close(null)
        if not isinstance(exc, BrokenPipeError):
            raise UsageError(f"cannot write {what}: {exc}") from exc


def _cmd_classify_equation(args) -> tuple[dict, dict, int]:
    params = AngleParams.parse(args.inv_angles)
    return {"inv_angles": args.inv_angles}, classify(params).to_record(), 0


def _cmd_classify_group(args) -> tuple[dict, dict, int]:
    sig = Signature.parse(args.sig)
    payload = group_report(sig).to_record()
    payload["signature"] = sig.as_text()
    return {"sig": args.sig}, payload, 0


def _cmd_verify(args) -> tuple[dict, dict, int]:
    if args.order > _MAX_ORDER:
        raise UsageError(f"--order must be at most {_MAX_ORDER}, not {args.order}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError(f"--tol must be a finite positive number, not {args.tol}")
    if (args.phi is not None) != (args.kind == "pullback"):
        raise UsageError(f"verify {args.kind}: --phi is required by pullback and accepted by no other kind")
    r = build_r(AngleParams.parse(args.inv_angles))
    try:
        base = parse_fraction(args.base)
    except ValueError as exc:
        raise UsageError(f"--base: {exc}") from exc
    phi = None
    if args.kind == "principal":
        report = residual_principal(r, base, args.order)
    elif args.kind == "riccati":
        report = residual_riccati(r, base, args.order)
    else:
        phi = parse_phi(args.phi)
        report = verify_pullback(r, phi, base, args.order)
    passed = report.max_abs_residual < args.tol
    inputs = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
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
    try:
        sink = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write --out path: {exc}") from exc
    with sink as out:
        records, summary = sweep_records(_sweep_params(args.max_den))
        _write(out, records, "--out path" if args.out else "output")
    summary["out_path"] = args.out or None
    code = 0 if summary["disagreements"] == 0 else 1
    return {"max_den": args.max_den}, summary, code


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
        help="the map of verify pullback, and of no other kind: a rational expression in y, "
        "e.g. 'y^2' or '(y-1)/(y+1)' (integers, + - * / ^ with integer exponents)",
    )
    p.add_argument(
        "--order", type=int, default=40, help=f"series truncation order (default 40, at most {_MAX_ORDER})"
    )
    p.add_argument("--base", default="1/2", help="series base point as an exact fraction (default 1/2)")
    p.add_argument("--tol", type=float, default=1e-8, help="pass/fail residual tolerance (default 1e-8)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "sweep",
        help="compare the exact classifier with the monodromy oracle over all "
        "reduced exponent triples with bounded denominators",
    )
    p.add_argument("--max-den", type=int, required=True, help=f"denominator bound (2 to {_MAX_DEN})")
    p.add_argument("--out", default=None, help="path for newline-delimited per-triple records")
    p.set_defaults(func=_cmd_sweep)

    return parser


# options whose value may start with '-', as -3/2,-2,5/2 and -y^2+2 do
_SIGNED_OPTIONS = ("--inv-angles", "--base", "--phi")
_NEGATIVE_VALUE = re.compile(r"-[0-9y(]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--inv-angles -3/2,...`` as ``--inv-angles=-3/2,...``.

    argparse reads a separate value with a leading minus as an option unless
    it is a plain number, and ``-3/2,-2,5/2`` and ``-y^2+2`` are not.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _NEGATIVE_VALUE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    start = time.perf_counter()
    try:
        inputs, result, code = args.func(args)
        elapsed_ms = int(1000 * (time.perf_counter() - start))
        document = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "elapsed_ms": elapsed_ms,
        }
        _write(sys.stdout, [document])
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        # UsageError is a ValueError; OverflowError is an input too large
        # for floating point
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
