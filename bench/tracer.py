"""Per-layer tracing from outside the package.

The tracer wraps named public functions of ``schwarztri`` modules.  Every
binding of a wrapped function object is patched: the defining module, every
module that imported it by name, the package re-export, and class aliases
such as ``__rmul__ = __mul__``.  Each wrapped call records a span
(id, parent id, case id, name, start, end); spans stay in memory until
:meth:`Tracer.write_spans`.  A layer's self time is its span time minus the
time covered by its child spans.

``schwarztri.monodromy`` cannot be reached as an attribute of the package,
because the package re-exports the function of the same name; modules are
therefore always taken from ``sys.modules``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, field

# (module, qualified attribute, metric label, mode).  mode "span" records a
# timed span; "count" only counts calls, so the time stays with the caller.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("rational", "Poly.__mul__", "Poly.mul", "span"),
    ("rational", "Poly.divmod", "Poly.divmod", "span"),
    ("rational", "Poly.gcd", "Poly.gcd", "span"),
    ("rational", "RatFunc.__init__", "RatFunc.init", "span"),
    ("rational", "RatFunc.__add__", "RatFunc.add", "span"),
    ("rational", "RatFunc.derivative", "RatFunc.derivative", "span"),
    ("rational", "RatFunc.compose", "RatFunc.compose", "span"),
    ("rational", "schwarzian", "schwarzian", "span"),
    ("rational", "schwarz_pullback", "schwarz_pullback", "span"),
    ("triangle", "build_r", "build_r", "span"),
    ("minimality", "classify", "classify", "span"),
    ("minimality", "check_condition2", "check_condition2", "span"),
    ("groups", "group_report", "group_report", "span"),
    ("series", "taylor_coefficients", "taylor_coefficients", "span"),
    ("series", "series_solve_linear", "series_solve_linear", "span"),
    ("series", "series_schwarzian", "series_schwarzian", "span"),
    ("series", "series_invert", "series_invert", "span"),
    ("series", "series_compose", "series_compose", "span"),
    ("series", "residual_principal", "residual_principal", "span"),
    ("series", "residual_riccati", "residual_riccati", "span"),
    ("series", "residual_inverse", "residual_inverse", "span"),
    ("series", "verify_pullback", "verify_pullback", "span"),
    ("monodromy", "monodromy", "monodromy", "span"),
    ("monodromy", "continue_solution", "continue_solution", "span"),
    ("monodromy", "classify_projective", "classify_projective", "span"),
    ("monodromy", "_taylor_step", "taylor_step", "count"),
    ("cli", "main", "main", "span"),
    ("cli", "sweep_records", "sweep_records", "span"),
    ("cli", "parse_phi", "parse_phi", "span"),
)

MODULES = ("rational", "triangle", "minimality", "groups", "series", "monodromy", "cli")

# labels that also report an error count: an exception, or for cli.main a
# nonzero exit code
ERROR_LABELS = ("monodromy.classify_projective", "cli.main")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for module, _, label, mode in TARGETS:
        key = f"{module}.{label}"
        names.append(f"{key}.calls")
        if mode == "span":
            names.append(f"{key}.self_us")
        if key in ERROR_LABELS:
            names.append(f"{key}.errors")
    names += [f"{module}.self_us" for module in MODULES]
    names += ["bench.self_us", "trace_overhead_share"]
    return names


@dataclass
class _Stat:
    calls: int = 0
    self_ns: int = 0
    errors: int = 0


@dataclass
class _Frame:
    span_id: int
    start: int
    child_ns: int = 0


@dataclass
class Tracer:
    """Span recorder; install wrappers with :meth:`install`, always pair with
    :meth:`remove`."""

    case_id: int = -1
    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    top_level_ns: int = 0
    _ids: itertools.count = field(default_factory=itertools.count)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def _span_wrapper(self, fn, key: str):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        exit_code_is_error = key == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            frame = _Frame(span_id, clock())
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = exit_code_is_error and result != 0
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                stat.calls += 1
                stat.self_ns += duration - frame.child_ns
                stat.errors += failed
                if stack:
                    stack[-1].child_ns += duration
                    parent = stack[-1].span_id
                else:
                    self.top_level_ns += duration
                    parent = None
                spans.append((span_id, parent, self.case_id, key, frame.start, end))

        return wrapper

    def _count_wrapper(self, fn, key: str):
        stat = self.stats.setdefault(key, _Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = _binding_owners()
        for module, attr, label, mode in TARGETS:
            original = _resolve(module, attr)
            key = f"{module}.{label}"
            make = self._span_wrapper if mode == "span" else self._count_wrapper
            wrapped = make(original, key)
            for owner in owners:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        self._patches.append((owner, name, original))
                        setattr(owner, name, wrapped)

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    @property
    def patched(self) -> list:
        """(owner, attribute name, original) for every patched binding."""
        return list(self._patches)

    # -- results ---------------------------------------------------------------

    def metrics(self, traced_wall_ns: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics; ``traced_wall_ns`` is the time of the traced
        calls, ``overhead`` the traced over the untraced time, minus one."""
        out: dict[str, float] = {}
        module_ns = dict.fromkeys(MODULES, 0)
        for module, _, label, mode in TARGETS:
            key = f"{module}.{label}"
            stat = self.stats.get(key, _Stat())
            out[f"{key}.calls"] = stat.calls
            if mode == "span":
                out[f"{key}.self_us"] = stat.self_ns / 1e3
                module_ns[module] += stat.self_ns
            if key in ERROR_LABELS:
                out[f"{key}.errors"] = stat.errors
        for module, ns in module_ns.items():
            out[f"{module}.self_us"] = ns / 1e3
        out["bench.self_us"] = (traced_wall_ns - self.top_level_ns) / 1e3
        out["trace_overhead_share"] = overhead
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, case_id, key, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "case": case_id, "name": key,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


def _resolve(module: str, attr: str):
    owner = sys.modules[f"schwarztri.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def _binding_owners() -> list:
    """The package, its modules, and every class those modules define."""
    for module in MODULES:
        importlib.import_module(f"schwarztri.{module}")
    owners = []
    for name, module in sorted(sys.modules.items()):
        if name != "schwarztri" and not name.startswith("schwarztri."):
            continue
        owners.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                owners.append(value)
    return owners
