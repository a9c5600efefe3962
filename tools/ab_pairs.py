"""Alternating A/B pairs of the benchmark: a parent checkout against a change.

    python3 tools/ab_pairs.py --parent DIR --change DIR [--pairs 10]
        [--seconds 30] [--workloads cli_solve,batch_recover] [--first-seed 1]
        [--in-process] [--out FILE]

For each workload, pair i runs ``python3 perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, on the fresh seed
S = first-seed + i, with the parent first on even i and the change first on
odd i.  Each run starts in its own process from its own checkout, with
``PYTHONDONTWRITEBYTECODE=1``, so every set-up import compiles the sources
as a fresh checkout does.

Writes JSON (to --out, else stdout).  Per workload and end-to-end metric of
the change's ``BENCHMARK.json``: each side's values by pair, medians and
quartiles (numpy's linear 25th and 75th percentiles), the ratio of the
change's median to the parent's, the pairs the change won (better by the
metric's direction; ties count for neither side) and whether the medians
lie further apart than the parent's interquartile range.

With ``--in-process``, both checkouts' ``src/cauchy_observer`` are loaded
side by side in this process, each under a package name of its own, and
the ops of ``perfbench/workloads.py`` (the change's copy) alternate op by
op instead.  Pair i draws each side's pool from seed S with the same
generator calls, so both sides run the same inputs in the same order; each
op runs once on each side, the parent first on even ops, and both outputs
go through the workload's gate.  Each pair runs whole cycles of the pool
until ``--seconds`` have passed.  Per workload it writes the op count, each
side's failed ops (and the failures by message) and its op times in
microseconds: the median, the quartiles and the 90th percentile (numpy's
linear percentiles).  Then the ratio of the change's median to the
parent's, and the ops the change ran faster (ties count for neither side).
"""

import argparse
import os

# Pin the BLAS and OpenMP pools before numpy is imported, as
# perfbench/run.py does, for the in-process mode
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
# the solver modules a workload's ``co`` holds, as perfbench/run.py imports
MODULES = ("grid", "reference", "discrete_ops", "gain", "observer",
           "spectral", "cli")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one untraced benchmark run, as a dict."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(values: dict, better: str) -> dict:
    """Medians, quartiles, ratio and wins of one metric's paired values."""
    parent, change = (np.array(values[side], dtype=float) for side in SIDES)
    sign = 1.0 if better == "higher" else -1.0
    p_q = np.percentile(parent, [25, 50, 75])
    c_q = np.percentile(change, [25, 50, 75])
    return {
        **values,
        "parent_median": float(p_q[1]), "change_median": float(c_q[1]),
        "parent_quartiles": [float(p_q[0]), float(p_q[2])],
        "change_quartiles": [float(c_q[0]), float(c_q[2])],
        "ratio": float(c_q[1] / p_q[1]) if p_q[1] else None,
        "change_wins": int((sign * (change - parent) > 0).sum()),
        "ties": int((change == parent).sum()),
        "beyond_parent_iqr": bool(abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0]),
    }


def ab_pairs(parent: Path, change: Path, workloads, pairs: int,
             seconds: float, first_seed: int) -> dict:
    bench = json.loads((change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    checkouts = {"parent": parent, "change": change}
    result = {"command": f"python3 perfbench/run.py --workload <w> --seed "
                         f"<s> --seconds {seconds:g} --trace 0",
              "environment": {"PYTHONDONTWRITEBYTECODE": "1"},
              "parent": str(parent), "change": str(change),
              "pairs": pairs, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        seeds = [first_seed + i for i in range(pairs)]
        first = [SIDES[i % 2] for i in range(pairs)]
        runs = {side: [] for side in SIDES}
        for seed, lead in zip(seeds, first):
            order = SIDES if lead == "parent" else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(checkouts[side], workload, seed,
                                           seconds))
        entry = {"seeds": seeds, "first": first,
                 "attempted": {s: [r["attempted"] for r in runs[s]]
                               for s in SIDES},
                 "failed": {s: [r["failed"] for r in runs[s]] for s in SIDES},
                 "correct": {s: [r["correct"] for r in runs[s]]
                             for s in SIDES},
                 "metrics": {}}
        for name, spec in metrics.items():
            values = {s: [r["metrics"][name]["value"] for r in runs[s]]
                      for s in SIDES}
            entry["metrics"][name] = {"unit": spec["unit"],
                                      "better": spec["better"],
                                      **summarize(values, spec["better"])}
        result["workloads"][workload] = entry
    return result


def load_module(path: Path, name: str, package_dir: Path = None):
    """The module or package at ``path`` under the name ``name``; a package
    (``package_dir`` given) imports its submodules from that directory."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=(
            None if package_dir is None else [str(package_dir)]))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_solver(checkout: Path, side: str) -> SimpleNamespace:
    """The checkout's solver modules, imported as package ``ab_<side>``."""
    src = checkout / "src" / "cauchy_observer"
    name = f"ab_{side}"
    load_module(src / "__init__.py", name, src)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in MODULES})


def timed_op(bench, workload, co, state, entry, acc):
    """(seconds, error message or None) of one op and its gate."""
    clock = time.perf_counter
    t0 = clock()
    try:
        out = workload.op(co, state, entry)
    except Exception as exc:  # a failed op is data, as in perfbench/run.py
        return clock() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = clock() - t0
    try:
        workload.check(co, state, entry, out, acc)
    except bench.GateFailed as exc:
        return elapsed, str(exc)
    return elapsed, None


def in_process(parent: Path, change: Path, workloads, pairs: int,
               seconds: float, first_seed: int) -> dict:
    bench = load_module(change / "perfbench" / "workloads.py", "ab_workloads")
    solvers = {"parent": load_solver(parent, "parent"),
               "change": load_solver(change, "change")}
    result = {"mode": "in-process", "parent": str(parent),
              "change": str(change), "pairs": pairs, "seconds": seconds,
              "workloads": {}}
    for name in workloads:
        workload = bench.WORKLOADS[name]
        seeds = [first_seed + i for i in range(pairs)]
        times = {side: [] for side in SIDES}
        failures = {side: {} for side in SIDES}
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                sides, orders = {}, {}
                for side in SIDES:
                    co = solvers[side]
                    state = workload.setup(co)
                    rng = np.random.default_rng(seed)
                    folder = Path(tmp) / side
                    folder.mkdir()
                    pool = workload.inputs(co, state, rng, folder)
                    orders[side] = rng.permutation(len(pool)).tolist()
                    sides[side] = (co, state, pool, {})
                if orders["parent"] != orders["change"]:
                    raise RuntimeError(f"{name}: the sides drew different "
                                       f"pools from seed {seed}")
                order, count = orders["parent"], 0
                start = time.perf_counter()
                with open(os.devnull, "w") as sink, \
                        contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    while True:
                        for i in order:
                            lead = count % 2
                            for side in SIDES[lead:] + SIDES[:lead]:
                                co, state, pool, acc = sides[side]
                                elapsed, error = timed_op(
                                    bench, workload, co, state, pool[i], acc)
                                times[side].append(elapsed)
                                if error is not None:
                                    failures[side][error] = failures[
                                        side].get(error, 0) + 1
                            count += 1
                        if time.perf_counter() - start >= seconds:
                            break
        parent_t, change_t = (np.array(times[side]) for side in SIDES)
        q = {side: [1e6 * float(v) for v in np.percentile(
            times[side], [25, 50, 75, 90])] for side in SIDES}
        medians = {side: q[side][1] for side in SIDES}
        result["workloads"][name] = {
            "seeds": seeds, "ops": len(parent_t),
            "failed": {side: sum(failures[side].values()) for side in SIDES},
            "failures": failures,
            "median_op_us": medians,
            "quartiles_op_us": {side: [q[side][0], q[side][2]]
                                for side in SIDES},
            "p90_op_us": {side: q[side][3] for side in SIDES},
            "ratio": medians["change"] / medians["parent"],
            "change_wins": int((change_t < parent_t).sum()),
            "ties": int((change_t == parent_t).sum())}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads",
                        default="cli_solve,batch_recover,long_strip,"
                                "spectral_diagnose")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--in-process", action="store_true",
                        help="alternate op by op in this process")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    result = (in_process if args.in_process else ab_pairs)(
        args.parent.resolve(), args.change.resolve(),
        args.workloads.split(","), args.pairs, args.seconds, args.first_seed)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
