"""arithring loads only its declared runtime dependency, numpy, and the
standard library: the test extras (pytest, hypothesis, sympy) must not leak
into the package.  numpy itself loads only with the function layer, so
``import arithring``, the divisor lattice, the integer helpers and the CLI's
integer commands run on the standard library alone.  Each public name
resolves, on first access, to the object its home module defines."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

import arithring

# Modules the interpreter loaded at startup (site hooks, .pth files) are
# set aside; every module loaded after is arithring's doing.
PROBE = """
import contextlib, importlib, io, pkgutil, sys
startup = set(sys.modules)
import arithring
for info in pkgutil.iter_modules(arithring.__path__, "arithring."):
    importlib.import_module(info.name)
with contextlib.redirect_stdout(io.StringIO()):
    code = arithring.cli.main(["identity-suite", "--bound", "50", "--domain", "Z"])
assert code == 0, code
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - startup}))
"""

CLI_RUN = """
import contextlib, io
import arithring
with contextlib.redirect_stdout(io.StringIO()):
    code = arithring.cli.main({argv!r})
assert code == 0, code
"""

NUMPY_FREE = {
    "import": "import arithring",
    "library": "import arithring\n"
               "assert arithring.lattice.lattice_report(60)['width'] == 4\n"
               "assert arithring.numutil.factorize(10**12 + 39) == [(10**12 + 39, 1)]",
    **{" ".join(argv): CLI_RUN.format(argv=argv) for argv in (
        ["euclid", "360"],
        ["prime-check", "97"],
        ["lattice-report", "735134400"],
        ["lattice-chains", "360"],
        ["lattice-dot", "360"],
    )},
}


def run_fresh(code: str) -> str:
    # the child imports arithring from where this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_only_declared_dependencies_load():
    loaded = set(run_fresh(PROBE).split())
    assert loaded - set(sys.stdlib_module_names) == {"arithring", "numpy"}


@pytest.mark.parametrize("case", NUMPY_FREE)
def test_integer_routes_never_load_numpy(case):
    out = run_fresh(NUMPY_FREE[case] + "\nimport sys\nprint('numpy' in sys.modules)")
    assert out == "False\n"


# int64 products and solves, then one product and one division past the gate
CRT_ON_DEMAND = """
import sys
from arithring import Domain, build, convolve, divide, inverse, make
one, mu = build("one", 3000), build("mobius", 3000)
assert inverse(one) == mu and divide(convolve(one, mu), one).quotient == mu
before = "arithring.crt" in sys.modules
f = make([(m * 7919 % 1009 - 504) << 40 for m in range(1, 3001)], Domain.Z)
h = convolve(f, f)
assert divide(h, f).quotient == f
print(before, "arithring.crt" in sys.modules)
"""


def test_crt_loads_on_the_first_product_past_the_gate():
    assert run_fresh(CRT_ON_DEMAND) == "False True\n"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from arithring import *", namespace)
    assert set(arithring.__all__) <= set(namespace)


def test_public_names_are_their_home_objects():
    for name, home in arithring._HOME.items():
        assert getattr(arithring, name) is getattr(sys.modules[f"arithring.{home}"], name)


def test_re_exports_are_one_object():
    from arithring import core, ring, serialize

    assert arithring.convolve is ring.convolve
    assert arithring.Domain is ring.Domain is serialize.Domain is core.Domain
    assert arithring.ParseError is serialize.ParseError is core.ParseError
    assert arithring.RingError is ring.RingError and issubclass(ring.NotAUnit, core.RingError)


def test_submodules_resolve_as_attributes():
    names = {info.name for info in pkgutil.iter_modules(arithring.__path__)}
    assert names == set(arithring._SUBMODULES)
    for name in names:
        assert getattr(arithring, name) is sys.modules[f"arithring.{name}"]


def test_dir_covers_the_public_surface():
    assert set(arithring.__all__) | set(arithring._SUBMODULES) <= set(dir(arithring))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arithring.no_such_name
    assert not hasattr(arithring, "no_such_name")
