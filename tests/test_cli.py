import numpy as np
import pytest

from cauchy_observer.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main,
                                 parse_config, write_csv)

BASE_CONFIG = """\
# boundary recovery, single cosine data
example = neumann
nx = 257
ny = 5
pole_layout = ring
output_dir = {out}
"""


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_defaults_without_file(self):
        cfg = parse_config(None, [])
        assert cfg.example == "neumann"
        assert cfg.nx == 257 and cfg.ny == 5

    def test_overrides(self):
        cfg = parse_config(None, ["--nx", "33", "--guard", "1e4"])
        assert cfg.nx == 33
        assert cfg.guard == pytest.approx(1e4)

    def test_equals_form_override(self):
        cfg = parse_config(None, ["--nx=41"])
        assert cfg.nx == 41

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "wibble = 3\n")
        with pytest.raises(Exception):
            parse_config(path, [])

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, "# hi\n\nnx = 33  # trailing\n")
        assert parse_config(path, []).nx == 33


def per_value_format(value) -> str:
    """Reference CSV field formatting, one value at a time."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


class TestWriteCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 7)
        rows = [[1, np.float64(0.1), -0.0, "", 1e-300],
                [2, float("inf"), np.float64(-1.5e-7), "text", np.int64(7)],
                [3, 1.0 / 3.0, -float("inf"), float("nan"), True],
                [4, "", "", 5e-324, 2 ** 70]]
        rows += np.random.default_rng(0).standard_normal((20, 5)).tolist()
        rows += list(zip(range(5, 12), x, x ** 3, np.exp(x), -x))
        header = ["a", "b", "c", "d", "e"]
        write_csv(tmp_path / "t.csv", header, rows)
        want = "\n".join([",".join(header)] + [
            ",".join(per_value_format(v) for v in row) for row in rows]) + "\n"
        assert (tmp_path / "t.csv").read_bytes() == want.encode("ascii")


class TestSolve:
    def test_converged_run_and_artifacts(self, tmp_path):
        out = tmp_path / "run1"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg]) == EXIT_OK
        boundary = (out / "boundary.csv").read_text().splitlines()
        assert boundary[0] == "x,exact_bottom,estimated_bottom"
        rows = np.array([line.split(",") for line in boundary[1:]], dtype=float)
        exact, est = rows[:, 1], rows[:, 2]
        rel = np.linalg.norm(est - exact) / np.linalg.norm(exact)
        assert rel <= 0.05
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "sweep,top_residual,bottom_error"
        assert len(history) == 2 and history[1].startswith("1,")
        gain = (out / "gain.csv").read_text().splitlines()
        assert gain[0] == "method,pole_min,pole_max,spectral_radius,obs_matrix_condition"
        assert gain[1].startswith("ackermann,")
        plot = (out / "plot.gp").read_text()
        assert "boundary.csv" in plot and "history.csv" in plot

    def test_stdout_notes_the_warmup(self, tmp_path, capsys):
        out = tmp_path / "run8"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "one sweep after a 99-step warm-up; periodicity defect " in stdout
        # 65x5: the ring gain settles only after 87 steps, more than a sweep
        assert main(["solve", "--config", cfg, "--nx", "65"]) == EXIT_OK
        assert "one sweep after a 87-step warm-up; " in capsys.readouterr().out

    def test_forced_non_convergence(self, tmp_path, capsys):
        # poles up to 0.9999 settle in no certified W: refused, not marched
        out = tmp_path / "run2"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        code = main(["solve", "--config", cfg, "--pole_layout", "uniform",
                     "--pole_max", "0.9999"])
        assert code == EXIT_RUNTIME
        assert "not certified stable" in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("nx,ny,layout,terms", [
        (65, 3, "ring", "1.0*cos1"), (65, 5, "ring", "1.0*cos1"),
        (129, 3, "ring", "1.0*cos1"), (129, 5, "ring", "1.0*cos2"),
        (129, 5, "uniform", "1.0*cos1"), (257, 5, "uniform", "1.0*cos1"),
    ])
    def test_stalled_cases_solve_in_one_sweep(self, tmp_path, nx, ny, layout,
                                              terms):
        out = tmp_path / "run11"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                           + f"example = combo\nterms = {terms}\n")
        assert main(["solve", "--config", cfg, "--nx", str(nx),
                     "--ny", str(ny), "--pole_layout", layout]) == EXIT_OK
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 2 and history[1].startswith("1,")

    def test_insufficient_nodes_is_usage_error(self, tmp_path):
        out = tmp_path / "run3"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg, "--nx", "1"]) == EXIT_USAGE

    def test_bad_value_is_usage_error(self, tmp_path):
        out = tmp_path / "run4"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg, "--nx", "many"]) == EXIT_USAGE
        assert not out.exists()

    def test_bad_pole_range(self, tmp_path):
        out = tmp_path / "run7"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg,
                     "--pole_min", "0.9", "--pole_max", "0.2"]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("override", [
        ["--pole_min", "-5", "--pole_max", "0.9"],    # ring radius -2.05
        ["--pole_layout", "uniform", "--pole_min", "-5", "--pole_max", "0.9"],
        ["--pole_layout", "spiral"],
        ["--guard", "-1"],
        ["--guard", "nan"],
    ], ids=["ring_radius", "uniform_poles", "layout", "guard", "guard_nan"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys,
                                               override):
        out = tmp_path / "run9"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg] + override) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("bottom_closure", "ghost"),
                                           ("gain_method", "tuned"),
                                           ("max_sweeps", "0"),
                                           ("tol", "nan")])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key, value):
        out = tmp_path / "run10"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                           + f"{key} = {value}\n")
        assert main(["solve", "--config", cfg]) == EXIT_USAGE
        plain = write_config(tmp_path, BASE_CONFIG.format(out=out),
                             name="plain.cfg")
        assert main(["solve", "--config", plain, f"--{key}", value]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("configuration error: unknown "
                                   "configuration key") for line in err)
        assert not out.exists()

    def test_missing_config_file(self):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_combo_terms(self, tmp_path):
        out = tmp_path / "run5"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                           + "example = combo\nterms = 1.0*cos1+0.5*sin1\n")
        assert main(["solve", "--config", cfg]) == EXIT_OK
        rows = np.array([line.split(",") for line in
                         (out / "boundary.csv").read_text().splitlines()[1:]],
                        dtype=float)
        rel = (np.linalg.norm(rows[:, 2] - rows[:, 1])
               / np.linalg.norm(rows[:, 1]))
        assert rel <= 0.07

    def test_bad_terms_rejected(self, tmp_path):
        out = tmp_path / "run6"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                           + "example = combo\nterms = banana\n")
        assert main(["solve", "--config", cfg]) == EXIT_USAGE
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            cfg = write_config(tmp_path, BASE_CONFIG.format(out=out),
                               name=f"{name}.cfg")
            assert main(["solve", "--config", cfg]) == EXIT_OK
            outs.append(out)
        for fname in ("boundary.csv", "history.csv", "gain.csv", "plot.gp"):
            b1 = (outs[0] / fname).read_bytes()
            b2 = (outs[1] / fname).read_bytes()
            assert b1 == b2, fname


class TestShippedConfigs:
    @pytest.mark.parametrize("name,column_tol", [
        ("cosine.cfg", 0.05), ("sine.cfg", 0.05), ("combination.cfg", 0.07),
    ])
    def test_demo_config_converges(self, tmp_path, name, column_tol):
        import pathlib
        cfg = pathlib.Path(__file__).resolve().parents[1] / "demos" / "configs" / name
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg),
                     "--output_dir", str(out)]) == EXIT_OK
        rows = np.array([line.split(",") for line in
                         (out / "boundary.csv").read_text().splitlines()[1:]],
                        dtype=float)
        rel = (np.linalg.norm(rows[:, 2] - rows[:, 1])
               / np.linalg.norm(rows[:, 1]))
        assert rel <= column_tol


class TestDiagnose:
    def test_default_diagnostics(self, tmp_path):
        out = tmp_path / "diag"
        code = main(["diagnose", "--output_dir", str(out)])
        assert code == EXIT_OK
        spectral = (out / "spectral.csv").read_text().splitlines()
        assert spectral[0] == "n,lambda,rho,gram_err,eigen_residual"
        rows = np.array([line.split(",") for line in spectral[1:]], dtype=float)
        assert len(rows) == 13           # default modes -4..8
        assert (rows[:, 3] <= 1e-6).all()
        obs = (out / "observability.csv").read_text().splitlines()
        assert obs[0] == "x,lower_bound"
        orow = np.array([line.split(",") for line in obs[1:]], dtype=float)
        assert np.allclose(orow[:, 0], [0.0, 0.1, 0.5])
        assert (orow[:, 1] > 0.0).all()

    def test_bad_mode_range(self, tmp_path):
        out = tmp_path / "diag2"
        code = main(["diagnose", "--output_dir", str(out),
                     "--modes_min", "5", "--modes_max", "1"])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert main(["diagnose", "--output_dir", str(out)]) == EXIT_OK
            outs.append(out)
        for fname in ("spectral.csv", "observability.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
