"""The package imports numpy and nothing else outside the standard library:
scipy, mpmath and sympy may be installed, but they are not dependencies."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

IMPORT_ALL = """
import importlib, pkgutil, sys
import cauchy_observer
names = [info.name for info in pkgutil.iter_modules(cauchy_observer.__path__)]
for name in names:
    importlib.import_module("cauchy_observer." + name)
print(len(names), *sorted({"scipy", "mpmath", "sympy"} & set(sys.modules)))
"""


def test_every_module_imports_without_undeclared_packages():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, *undeclared = proc.stdout.split()
    assert int(count) >= 8
    assert undeclared == []
