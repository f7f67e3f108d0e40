"""arithring loads only its declared runtime dependency, numpy, and the
standard library: the test extras (pytest, hypothesis, sympy) must not leak
into the package."""

from __future__ import annotations

import os
import subprocess
import sys

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


def test_only_declared_dependencies_load():
    # the child imports arithring from where this process found it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True)
    loaded = set(out.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"arithring", "numpy"}
