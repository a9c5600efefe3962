"""Alternating A/B pairs of the benchmark: a parent checkout against a change.

    python3 tools/ab_pairs.py --parent DIR --change DIR [--pairs 10]
        [--seconds 30] [--workloads cli_solve,batch_recover] [--first-seed 1]
        [--out FILE]

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
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


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
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    result = ab_pairs(args.parent.resolve(), args.change.resolve(),
                      args.workloads.split(","), args.pairs, args.seconds,
                      args.first_seed)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
