"""tools/ab_pairs.py on one pair of one-pass benchmark runs, with this
checkout on both sides: the JSON holds every end-to-end metric, per side and
summarized.  Its in-process mode, on the same checkout twice, runs whole
cycles of the pool on both sides and gates every op."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUMMARY = {"parent_median", "change_median", "parent_quartiles",
           "change_quartiles", "ratio", "change_wins", "ties",
           "beyond_parent_iqr"}


def test_one_pair_on_spectral_diagnose(tmp_path):
    out = tmp_path / "ab.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab_pairs.py"),
                    "--parent", str(ROOT), "--change", str(ROOT),
                    "--pairs", "1", "--seconds", "0",
                    "--workloads", "spectral_diagnose", "--out", str(out)],
                   check=True, timeout=600)
    result = json.loads(out.read_text())
    assert result["pairs"] == 1 and result["seconds"] == 0
    assert list(result["workloads"]) == ["spectral_diagnose"]
    entry = result["workloads"]["spectral_diagnose"]
    assert entry["seeds"] == [1] and entry["first"] == ["parent"]
    assert entry["failed"] == {"parent": [0], "change": [0]}
    assert entry["correct"] == {"parent": [True], "change": [True]}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(entry["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for name, metric in entry["metrics"].items():
        assert SUMMARY <= set(metric), name
        assert len(metric["parent"]) == len(metric["change"]) == 1
        assert metric["parent_median"] == metric["parent"][0]
        assert metric["change_wins"] + metric["ties"] <= 1
    # one seed, one program: the accuracy figure is bit-identical
    error = entry["metrics"]["error_max"]
    assert error["parent"] == error["change"] and error["ties"] == 1
    assert error["ratio"] == 1.0 and error["change_wins"] == 0


def test_in_process_on_spectral_diagnose(tmp_path):
    out = tmp_path / "ab.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "ab_pairs.py"),
                    "--parent", str(ROOT), "--change", str(ROOT),
                    "--in-process", "--pairs", "1", "--seconds", "0.2",
                    "--workloads", "spectral_diagnose", "--first-seed", "3",
                    "--out", str(out)],
                   check=True, timeout=600)
    result = json.loads(out.read_text())
    assert result["mode"] == "in-process" and result["seconds"] == 0.2
    assert list(result["workloads"]) == ["spectral_diagnose"]
    entry = result["workloads"]["spectral_diagnose"]
    assert entry["seeds"] == [3]
    # whole cycles of the pool: three quadratures times four mode ranges
    assert entry["ops"] >= 12 and entry["ops"] % 12 == 0
    assert entry["failed"] == {"parent": 0, "change": 0}
    medians = entry["median_op_us"]
    assert medians["parent"] > 0 and medians["change"] > 0
    for side in ("parent", "change"):
        low, high = entry["quartiles_op_us"][side]
        assert 0 < low <= medians[side] <= high <= entry["p90_op_us"][side]
    assert entry["ratio"] == medians["change"] / medians["parent"]
    assert entry["change_wins"] + entry["ties"] <= entry["ops"]
