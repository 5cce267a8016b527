"""numpy loads on first numeric use, not at import.

Each test runs a fresh interpreter with ``PYTHONPATH=src``: pytest's own
process has imported numpy long before, which would hide the lazy path.
"""

import json
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(code: str, *argv: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports the package
    from this checkout's ``src/``, every warning an error."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# the exact commands and library calls, then one numeric command
_EXACT_THEN_NUMERIC = """
import contextlib, io, json, sys
from fractions import Fraction as F

import schwarztri
from schwarztri import cli

def numpy_core():
    return sorted(m for m in ("numpy._core", "numpy.core") if m in sys.modules)

for argv in (
    ["classify-equation", "--inv-angles", "generic"],
    ["classify-equation", "--inv-angles", "1/2,1/3,1/7"],
    ["classify-group", "--sig", "2,3,7"],
    ["classify-group", "--sig", "2,3,4"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
params = schwarztri.AngleParams(F(1, 2), F(1, 3), F(1, 7))
schwarztri.classify(params)
schwarztri.group_report(schwarztri.Signature.parse("2,3,7"))
r = schwarztri.build_r(params)
phi = (2 * schwarztri.RatFunc.variable() + 1) / (schwarztri.RatFunc.variable() + 3)
schwarztri.schwarzian(schwarztri.compose(r, phi))
schwarztri.schwarz_pullback(r, phi)
exact = numpy_core()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "principal", "--inv-angles", "1/2,1/3,1/7"]) == 0
numpy = sys.modules["numpy"]
print(json.dumps({
    "exact": exact,
    "numeric": numpy_core(),
    "numpy_is_a_plain_module": type(numpy) is type(sys),
    "series_binds_numpy": schwarztri.series.np is numpy,
}))
"""


def test_exact_commands_leave_numpy_unloaded():
    result = json.loads(_python(_EXACT_THEN_NUMERIC))
    assert result["exact"] == []
    # the first numeric call executes numpy, and the lazy module becomes
    # numpy itself
    assert result["numeric"]
    assert result["numpy_is_a_plain_module"]
    assert result["series_binds_numpy"]


# the numeric commands and the oracle, their outputs with elapsed_ms dropped
_NUMERIC_OUTPUTS = """
import contextlib, io, json, random, sys
from fractions import Fraction as F

if sys.argv[1] == "numpy-first":
    import numpy
import schwarztri
from schwarztri import cli

out_path = sys.argv[2]
documents = []
for argv in (
    ["verify", "principal", "--inv-angles", "1/2,1/3,1/7"],
    ["verify", "pullback", "--inv-angles", "1/2,1/3,1/7", "--phi", "(2*y+1)/(y+3)"],
    ["sweep", "--max-den", "3", "--out", out_path],
):
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert cli.main(argv) == 0, argv
    document = json.loads(stdout.getvalue().splitlines()[-1])
    del document["elapsed_ms"]
    document.get("result", {}).pop("out_path", None)
    documents.append(document)
with open(out_path) as f:
    records = f.read()
rng = random.Random(24)
triples = [
    schwarztri.AngleParams(*(F(rng.randrange(1, q), q) for q in (rng.randrange(2, 8) for _ in range(3))))
    for _ in range(12)
]
reps = schwarztri.monodromy(triples)
matrices = [[rep.m0.tobytes().hex(), rep.m1.tobytes().hex(), repr(rep.estimated_error)] for rep in reps]
print(json.dumps({"documents": documents, "records": records, "matrices": matrices}))
"""


def test_numeric_outputs_do_not_depend_on_who_imports_numpy_first(tmp_path):
    lazy = json.loads(_python(_NUMERIC_OUTPUTS, "package-first", str(tmp_path / "lazy.ndjson")))
    eager = json.loads(_python(_NUMERIC_OUTPUTS, "numpy-first", str(tmp_path / "eager.ndjson")))
    assert len(lazy["documents"]) == 3 and len(lazy["records"].splitlines()) == 10
    assert len(lazy["matrices"]) == 12
    assert lazy == eager

