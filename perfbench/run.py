"""Solver benchmark: one closed-loop caller, one process, seeded inputs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the solver is imported from
``src/`` of that checkout.  Prints one line per metric (name, value, unit),
one ``env`` line, and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See README.md in this directory.
"""

import os

# Pin the BLAS and OpenMP pools before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, GateFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "cauchy_observer"
MODULES = ("grid", "reference", "discrete_ops", "gain", "observer",
           "spectral", "cli")
SETUP_REPEATS = 25

END_TO_END_UNITS = {"throughput_per_kyardstick": "1/kyardstick",
                    "latency_p50_yardsticks": "yardstick",
                    "latency_p90_yardsticks": "yardstick",
                    "setup_s": "s",
                    "peak_rss_mb": "MB", "error_max": "ratio"}

# The yardstick: fixed work, timed right before every op of an untraced run.
# It is a pure-Python loop plus a loop of 6x6 matvecs, the march's kind of
# step.  An orthogonal matrix keeps the vector's size, so no value over- or
# underflows.  It is the benchmark's own code, so no change to the solver
# can move it.
YARD_LOOP = 12000
YARD_STEPS = 600
# setup_s is reported at this yardstick time: the yardstick's median on the
# VM the benchmark was tuned on, in its fast state (see README.md).
YARD_REF_S = 1.6e-3
_ANGLE = 0.3
YARD_MATRIX = np.kron(np.eye(3), np.array([[np.cos(_ANGLE), -np.sin(_ANGLE)],
                                           [np.sin(_ANGLE), np.cos(_ANGLE)]]))


def per_layer_units(name):
    if name.endswith("_ms") or name == "grid.ms_per_op":
        return "ms"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("mflops"):
        return "MFLOP/s"
    if name.endswith("bytes_written_per_op"):
        return "bytes"
    if name.endswith(("_per_op", "flops_per_step", "samples")):
        return "count"
    return "ratio"


class _Sink:
    """Swallows the CLI's console output during timed ops."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def import_solver():
    """Fresh import of the solver package from this checkout's src/."""
    for key in [k for k in sys.modules
                if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    importlib.invalidate_caches()   # list the files again, as a new process does
    mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    return SimpleNamespace(**mods)


def yardstick():
    """Wall time of the yardstick's fixed work, in seconds."""
    clock = time.perf_counter
    t0 = clock()
    total = 0
    for i in range(YARD_LOOP):
        total += i * i
    x, zero = np.ones(6), np.zeros(6)
    for _ in range(YARD_STEPS):
        x = YARD_MATRIX @ x + zero
    return clock() - t0


def set_up(workload):
    """One fresh import plus the program's one-time set-up, timed: returns
    the solver, the set-up's state, its wall time and the time of the
    yardstick run right before it."""
    yard = yardstick()
    t0 = time.perf_counter()
    co = import_solver()
    state = workload.setup(co)
    return co, state, time.perf_counter() - t0, yard


def measure(co, workload, state, pool, order, seconds, acc, tracer=None,
            between=None, yards=None):
    """Run whole cycles of the pool until ``seconds`` have passed.

    Returns the op latencies in seconds, one list per cycle in ``order``,
    as (untraced cycles, traced cycles), and the failures by message.  A
    failed op is counted, never raised.  With a tracer, cycles alternate
    untraced and traced and the run ends on a traced one, so both kinds see
    the same machine.  ``between(fraction_of_seconds_elapsed)`` runs after
    each cycle, outside the op timings.  With a list ``yards``, the
    yardstick runs right before every op and its times are appended there,
    one list per cycle, matching the latencies.
    """
    cycles, failures = ([], []), {}
    clock = time.perf_counter
    start = clock()
    saved = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = _Sink()
    try:
        for cycle in itertools.count():
            traced = tracer is not None and cycle % 2 == 1
            lat, yard = [], []
            if traced:
                tracer.install(PACKAGE)
            try:
                for i in order:
                    if traced:
                        tracer.op = (cycle, i)
                    if yards is not None:
                        yard.append(yardstick())
                    t0 = clock()
                    try:
                        out = workload.op(co, state, pool[i])
                        error = None
                    except Exception as exc:  # a failed op is data
                        error = f"{type(exc).__name__}: {exc}"
                    lat.append(clock() - t0)
                    if error is None:
                        try:
                            workload.check(co, state, pool[i], out, acc)
                        except GateFailed as exc:
                            error = str(exc)
                    if error is not None:
                        failures[error] = failures.get(error, 0) + 1
            finally:
                if traced:
                    tracer.uninstall()
            cycles[traced].append(lat)
            if yards is not None:
                yards.append(yard)
            elapsed = clock() - start
            if between is not None:
                between(elapsed / seconds if seconds > 0 else 1.0)
            if elapsed >= seconds and (tracer is None or traced):
                break
    finally:
        sys.stdout, sys.stderr = saved
    return cycles, failures


def machine_probe(n=20000):
    """Microseconds per 10x10 matvec: a gauge of how fast the machine ran,
    taken before and after the measurement."""
    a, x = np.eye(10), np.ones(10)
    t0 = time.perf_counter()
    for _ in range(n):
        x = a @ x
    return (time.perf_counter() - t0) / n * 1e6


def environment(samples):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "samples": samples}


def inputs_digest(pool):
    h = hashlib.sha256()
    for entry in pool:
        h.update(entry["describe"].encode())
    return h.hexdigest()[:16]


def run(args):
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    co, state, *first_setup = set_up(workload)
    if not Path(co.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("error: solver imported from outside this checkout",
              file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench_out"
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        rng = np.random.default_rng(args.seed)
        pool = workload.inputs(co, state, rng, tmp)
        order = [int(i) for i in rng.permutation(len(pool))]
        acc = {}
        probe = [machine_probe()]
        if not args.trace:
            setup_times = [first_setup]

            def spaced_setups(fraction):
                # set-up repeats spread over the run, outside op timings
                while len(setup_times) < 1 + (SETUP_REPEATS - 1) * min(
                        fraction, 1.0):
                    setup_times.append(set_up(workload)[2:])

            yards = []
            (cycles, _), failures = measure(co, workload, state, pool, order,
                                            args.seconds, acc,
                                            between=spaced_setups, yards=yards)
            # Each op's time in yardsticks, the median of that per input over
            # the run, and percentiles over the inputs: a shared machine's
            # slow spells slow the op and the yardstick before it alike (see
            # README.md).
            lat = np.array(cycles)
            per_input = np.median(lat / np.array(yards), axis=0)
            best = lat.min(axis=0) * 1e3
            every = lat.ravel() * 1e3
            metrics = {
                "throughput_per_kyardstick": 1e3 * len(per_input)
                / per_input.sum(),
                "latency_p50_yardsticks": float(np.percentile(per_input, 50)),
                "latency_p90_yardsticks": float(np.percentile(per_input, 90)),
                "setup_s": YARD_REF_S * statistics.median(
                    wall / yard for wall, yard in setup_times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "error_max": acc.get("error_max", 1.0),
            }
            units = END_TO_END_UNITS
            samples = {"ops": len(every), "cycles": len(cycles),
                       "inputs": len(best), "setup": len(setup_times)}
            info = {"yardstick_ms_p50": 1e3 * float(np.median(yards)),
                    "setup_wall_s_p50": statistics.median(
                        wall for wall, _ in setup_times),
                    "best_latency_ms_p50": float(np.percentile(best, 50)),
                    "best_latency_ms_p90": float(np.percentile(best, 90)),
                    "all_ops_latency_ms_p50": float(np.percentile(every, 50)),
                    "all_ops_latency_ms_p90": float(np.percentile(every, 90)),
                    "all_ops_throughput_ops_per_s":
                        1e3 * len(every) / every.sum()}
        else:
            tracer = spans.Tracer()
            tracer.install(PACKAGE)
            try:
                tracer.op = "setup"
                workload.setup(co)
            finally:
                tracer.uninstall()
            (untraced, traced), failures = measure(
                co, workload, state, pool, order, args.seconds, acc, tracer)
            tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            untraced = np.array(untraced).ravel()
            traced = np.array(traced).ravel()
            every = np.concatenate([untraced, traced])
            metrics = spans.layer_metrics(tracer, traced.sum(), len(traced))
            metrics["trace.overhead_frac"] = traced.mean() / untraced.mean() - 1
            metrics["ops.traced_samples"] = len(traced)
            for key in ("bottom_error_max", "field_error_max",
                        "noise_amplification", "spectral_defect_max"):
                metrics[f"accuracy.{key}"] = acc.get(key, 0.0)
            metrics["ops.failed_frac"] = sum(failures.values()) / len(every)
            metrics["cli.bytes_written_per_op"] = (
                acc.get("bytes_written", 0) / len(every))
            units = {k: per_layer_units(k) for k in metrics}
            samples = {"untraced": len(untraced), "traced": len(traced)}
            info = {}
        probe.append(machine_probe())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = len(every), sum(failures.values())
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]:<24.10g} {units[name]}")
    for name, value in info.items():
        print(f"({name:32s} {value:<24.10g} informational, not a metric)")
    for message, count in sorted(failures.items()):
        print(f"FAILED x{count}: {message}")
    meta = environment(samples)
    meta.update(workload=args.workload, seed=args.seed, machine_probe_us=probe,
                inputs=inputs_digest(pool), pool=len(pool))
    print("env " + json.dumps(meta, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
