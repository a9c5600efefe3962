"""Determinism check for the benchmark's inputs, counts and accuracy figures.

    python3 perfbench/determinism.py [--seed N]

For every workload, runs one traced cycle (``--seconds 0 --trace 1``) twice
with the same seed and once with the next seed, each in its own process.
The same seed must give the same input digest, the same work counts and
bit-identical accuracy figures; the next seed must give other inputs.
Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXACT = ("discrete_ops.steps_per_op", "gain.designs_per_op",
         "cli.bytes_written_per_op", "observer.sweeps_per_op",
         "accuracy.bottom_error_max", "accuracy.field_error_max",
         "accuracy.noise_amplification", "accuracy.spectral_defect_max")


def one_cycle(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           + proc.stderr)
    lines = proc.stdout.splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return env["inputs"], values, result["correct"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args(argv).seed
    problems = []
    for name in sorted(WORKLOADS):
        first, again, other = (one_cycle(name, s)
                               for s in (seed, seed, seed + 1))
        if not (first[2] and again[2] and other[2]):
            problems.append(f"{name}: an op failed its gate")
        if first[0] != again[0]:
            problems.append(f"{name}: same seed, different inputs")
        if first[0] == other[0]:
            problems.append(f"{name}: seeds {seed} and {seed + 1} give the "
                            "same inputs")
        for key in EXACT:
            if first[1][key] != again[1][key]:
                problems.append(f"{name}: {key} {first[1][key]!r} != "
                                f"{again[1][key]!r} on the same seed")
        print(f"{name:18s} inputs {first[0]} / {other[0]}  "
              + "  ".join(f"{k}={first[1][k]:.17g}" for k in EXACT
                          if first[1][k]))
    for problem in problems:
        print("FAIL " + problem)
    print("determinism: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
