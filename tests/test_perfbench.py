"""The benchmark in perfbench/ calls the package by name: every function its
tracer wraps must exist, and every workload's op must pass its own gate.

The test only reads perfbench/; a renamed or deleted name fails here
instead of in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("grid", "reference", "discrete_ops", "gain", "observer",
           "spectral", "cli")


def load(name):
    """A perfbench module, loaded from its file under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")


@pytest.mark.parametrize("module,function", spans.BOUNDARIES,
                         ids=[".".join(b) for b in spans.BOUNDARIES])
def test_traced_boundary_exists(module, function):
    mod = importlib.import_module(f"cauchy_observer.{module}")
    assert callable(getattr(mod, function, None))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_ops_pass_their_gate(name, tmp_path):
    co = SimpleNamespace(**{m: importlib.import_module(f"cauchy_observer.{m}")
                            for m in MODULES})
    work = workloads.WORKLOADS[name]
    state = work.setup(co)
    pool = work.inputs(co, state, np.random.default_rng(1), tmp_path)
    acc = {}
    # the first two entries: batch_recover's are a clean and a noisy twin,
    # so its noise-amplification gate runs too
    for entry in pool[:2]:
        work.check(co, state, entry, work.op(co, state, entry), acc)
    assert acc.get("error_max", 0.0) > 0.0
