import os
import pathlib
import re
import threading
import warnings

import numpy as np
import pytest

from cauchy_observer import (ObserverProblem, TrigTerm, ackermann_gain,
                             assemble, bottom_trace, build_grid, combo_example,
                             dirichlet_example, make_cauchy_data,
                             neumann_example, ring_poles, run, spectral,
                             top_residual)
from cauchy_observer.cli import (_PERCENT_FIELDS, EXIT_OK, EXIT_RUNTIME,
                                 EXIT_USAGE, USAGE, ConfigError, RunConfig,
                                 format_floats, main, parse_config, write_csv)
from cauchy_observer.observer import error_bottom

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
        cfg = parse_config([])
        assert cfg.example == "neumann"
        assert cfg.nx == 257 and cfg.ny == 5

    def test_overrides(self):
        cfg = parse_config(["--nx", "33", "--pole_max", "0.7"])
        assert cfg.nx == 33
        assert cfg.pole_max == pytest.approx(0.7)

    def test_equals_form_override(self):
        cfg = parse_config(["--nx=41"])
        assert cfg.nx == 41

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "wibble = 3\n")
        with pytest.raises(Exception):
            parse_config(["--config", path])

    def test_config_flag_among_the_overrides(self, tmp_path):
        # the file is read first, then --nx applies over its nx = 65
        path = write_config(tmp_path, "nx = 65\nny = 3\n")
        cfg = parse_config(["--config", path, "--nx", "33"])
        assert (cfg.nx, cfg.ny) == (33, 3)

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, "# hi\n\nnx = 33  # trailing\n")
        assert parse_config(["--config", path]).nx == 33

    def test_readme_key_list_matches_run_config(self):
        # the README's "Keys and defaults" block names every annotated
        # RunConfig key once, with its class default (a's 2*pi is shown
        # truncated); each default has its annotated type
        readme = (pathlib.Path(__file__).resolve().parents[1]
                  / "README.md").read_text()
        block = re.search(r"Keys and defaults:\n\n```\n(.*?)```", readme,
                          re.S).group(1)
        shown = re.findall(r"(\w+)\s*=\s*(\S+)",
                           re.sub(r"#.*", "", block))
        types = RunConfig.__annotations__
        assert sorted(k for k, _ in shown) == sorted(types)
        defaults = {key: getattr(RunConfig, key) for key in types}
        assert all(type(defaults[key]) is types[key] for key in types)
        for key, value in shown:
            if key != "a":
                assert type(defaults[key])(value) == defaults[key], key


def per_value_format(value) -> str:
    """Reference CSV field formatting, one value at a time."""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


class TestWriteCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        # integer columns are whole floats, which %.17g prints as %d prints
        # the integer; floats keep signed zero, inf, nan and subnormals.
        # The whole table takes format_floats' numpy route, its first five
        # rows the %-format
        x = np.linspace(-1.0, 1.0, 7)
        rows = [[1, 0.1, -0.0, -4, 1e-300],
                [2, float("inf"), -1.5e-7, 0, 5e-324],
                [3, 1.0 / 3.0, -float("inf"), 2 ** 53, float("nan")],
                [0, 7.0, 2.0 ** 70, 10 ** 16, -0.0],
                [-4, -1e308, 1e-320, 1 - 2 ** 53, 1.0]]
        rows += [[i, *v, i * i, 0.5] for i, v in enumerate(
            np.random.default_rng(0).standard_normal((20, 2)).tolist(), 5)]
        rows += [[i, a, b, -i, c] for i, a, b, c
                 in zip(range(25, 32), x.tolist(), (x ** 3).tolist(),
                        np.exp(x).tolist())]
        header = ["a", "b", "c", "d", "e"]
        for part in (rows, rows[:5]):
            write_csv(tmp_path / "t.csv", header, np.array(part, dtype=float))
            want = "\n".join([",".join(header)] + [
                ",".join(per_value_format(v) for v in row)
                for row in part]) + "\n"
            assert (tmp_path / "t.csv").read_bytes() == want.encode("ascii")

    def test_empty_table_is_header_only(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], np.empty((0, 2)))
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("first, odd", [
        (1.5, 2), (1, 2.5), ("text", 1.5), (1.5, "text"), (np.int64(1), 0.5)])
    def test_field_needing_another_spec_is_refused(self, tmp_path, first, odd):
        # write_csv takes only a 2-D float64 array: fields in row-major
        # order, or an array of mixed objects, are refused whole, and
        # nothing is written
        fields = [first, 0.1, first, 0.2, odd, 0.3]
        for table in (fields, np.array(fields, dtype=object).reshape(3, 2)):
            with pytest.raises(ValueError, match="needs 2 float64 columns"):
                write_csv(tmp_path / "t.csv", ["a", "b"], table)
        assert not (tmp_path / "t.csv").exists()


def percent_lines(table) -> bytes:
    """Reference: the table's rows through one %-format, as write_csv's
    %-format route writes them."""
    rows, ncols = table.shape
    line = ",".join(["%.17g"] * ncols) + "\n"
    return ((line * rows) % tuple(table.ravel().tolist())).encode("ascii")


def random_bits(rng, size, exponents):
    """Doubles with random sign and mantissa bits and binary exponent
    fields drawn uniformly from ``exponents`` (0 subnormal, 2047 inf/nan)."""
    bits = (rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
            | rng.choice(exponents, size).astype(np.uint64) << np.uint64(52)
            | rng.integers(0, 2 ** 52, size, dtype=np.uint64))
    return bits.view(np.float64)


class TestFormatFloats:
    # exponent fields of the binades that print in fixed notation, from
    # 2**-13 (> 1e-4) up to 2**56 (< 1e17)
    FIXED_RANGE = np.arange(1023 - 13, 1023 + 56)

    def assert_bytes(self, table):
        table = np.asarray(table, dtype=float)
        assert format_floats(table) == percent_lines(table)

    def test_random_doubles_over_every_binary_exponent(self):
        # 1e6 doubles over all 2048 exponent fields, mostly in exponential
        # notation, beside 1e6 over the exponents of fixed notation
        rng = np.random.default_rng(20)
        for _ in range(20):
            self.assert_bytes(np.column_stack((
                random_bits(rng, 50000, np.arange(2048)),
                random_bits(rng, 50000, self.FIXED_RANGE))))

    def test_neighbours_of_powers_of_ten(self):
        # 10**k and its nine neighbours on each side, k in [-6, 18]
        values = []
        for k in range(-6, 19):
            p = float(f"1e{k}")
            below, above = [p], [p]
            for _ in range(9):
                below.append(np.nextafter(below[-1], 0.0))
                above.append(np.nextafter(above[-1], np.inf))
            values += below + above
        values = np.array(values)
        self.assert_bytes(np.column_stack((values, -values)))

    def test_exact_ties_round_half_to_even(self):
        # 1 + j 2**-17 has 18 significant digits, the last a 5
        odd = np.arange(1, 2 ** 17, 2)
        ties = 1.0 + odd * 2.0 ** -17
        self.assert_bytes(ties.reshape(-1, 4))
        assert format_floats(np.array([[1.00000762939453125]])) == (
            b"1.0000076293945312\n")

    def test_largest_doubles_below_a_power_do_not_round_up(self):
        # 17 digits never carry a double into the next decade
        tops = np.array([np.nextafter(float(f"1e{m}"), 0.0)
                         for m in (-4, -3, -2, -1, 0, 1, 16, 17)])
        assert format_floats(tops[:, None]).split(b"\n")[:-1] == [
            b"9.9999999999999991e-05", b"0.0009999999999999998",
            b"0.0099999999999999985", b"0.099999999999999992",
            b"0.99999999999999989", b"9.9999999999999982",
            b"9999999999999998", b"99999999999999984"]
        self.assert_bytes(np.column_stack((tops, -tops, 1.0 / 3.0 + tops)))

    def test_zeros_subnormals_and_non_finite_fields(self):
        odd = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
               np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e17, 9.9e-5]
        ramp = np.linspace(-3.0, 7.0, len(odd))
        self.assert_bytes(np.column_stack((odd, ramp, ramp * 1e3)))
        self.assert_bytes([[0.0, -0.0, 1.0]])

    @pytest.mark.parametrize("table", [
        np.geomspace(1e-300, 1e-5, 30).reshape(10, 3),
        np.full((4, 3), np.nan),
        np.array([[1e17, -np.inf, 1.5], [1e-7, 2e200, -3.5]])])
    def test_mostly_exponential_table_is_spliced(self, tmp_path, table):
        # fewer than half the fields in fixed notation, or none: the spliced
        # %-format fields give the %-format's bytes, in the file too
        self.assert_bytes(table)
        write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"a,b,c\n" + percent_lines(table))

    def test_write_csv_writes_the_table_rows(self, tmp_path):
        table = np.column_stack((np.linspace(0.0, 2 * np.pi, 9),
                                 np.cos(np.arange(9.0)), -np.arange(9.0)))
        write_csv(tmp_path / "t.csv", ["x", "y", "z"], table)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"x,y,z\n" + percent_lines(table))
        write_csv(tmp_path / "e.csv", ["x", "y"], np.empty((0, 2)))
        assert (tmp_path / "e.csv").read_bytes() == b"x,y\n"

    def test_numpy_route_on_the_small_tables_values(self):
        # the values the tests above format in small tables, repeated to
        # tables just below and at the numpy route's field count, so both
        # routes format them; a %-format of the same rows is the reference
        odd = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
               np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e17, 9.9e-5,
               1.00000762939453125]
        odd += [np.nextafter(float(f"1e{m}"), 0.0)
                for m in (-4, -3, -2, -1, 0, 1, 16, 17)]
        for ncols in (1, 3):
            for fields in (_PERCENT_FIELDS - 1, _PERCENT_FIELDS):
                rows = -(-fields // ncols)
                table = np.resize(np.array(odd), (rows, ncols))
                self.assert_bytes(table)
                self.assert_bytes(-table)

    @pytest.mark.parametrize("table", [
        np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2), np.float32)])
    def test_table_of_another_shape_is_refused(self, tmp_path, table):
        with pytest.raises(ValueError, match="needs 2 float64 columns"):
            write_csv(tmp_path / "t.csv", ["a", "b"], table)
        assert not (tmp_path / "t.csv").exists()


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
        assert "boundary.csv" in plot and "history.csv" not in plot

    @pytest.mark.parametrize("override", [
        [],
        ["--example", "dirichlet", "--nx", "513", "--ny", "3"],
        ["--example", "combo", "--terms", "1.0*cos1+0.5*sin1", "--nx", "385"],
        ["--example", "combo", "--terms", "0.7*sin2", "--ny", "6"],
    ], ids=["neumann", "dirichlet", "combo", "combo_ny6"])
    def test_bottom_error_scores_the_boundary_table(self, tmp_path, override):
        # history.csv's bottom_error is error_bottom of boundary.csv's two
        # traces, bit for bit (17 significant digits round-trip a float)
        out = tmp_path / "run15"
        path = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", path] + override) == EXIT_OK
        cfg = parse_config(["--config", path] + override)
        rows = np.loadtxt(out / "boundary.csv", delimiter=",", skiprows=1)
        hist = (out / "history.csv").read_text().splitlines()[1].split(",")
        want = error_bottom(rows[:, 2:], rows[:, 1], cfg.a / (cfg.nx - 1))
        assert float(hist[2]) == want

    @pytest.mark.parametrize("example,nx,ny,sample", [
        ("neumann", 257, 5, neumann_example),
        ("dirichlet", 513, 3, dirichlet_example),
    ])
    def test_top_residual_is_run_fields_data_mismatch(self, tmp_path, example,
                                                      nx, ny, sample):
        # history.csv's top_residual is top_residual of run's field against
        # the top data, bit for bit
        out = tmp_path / "run17"
        assert main(["solve", "--example", example, "--nx", str(nx),
                     "--ny", str(ny), "--output_dir", str(out)]) == EXIT_OK
        a, b = RunConfig.a, RunConfig.b
        grid = build_grid(a, b, nx, ny)
        cauchy = make_cauchy_data(sample(a, b), grid)
        mats = assemble(grid)
        gain = ackermann_gain(mats.F, mats.C_row, ring_poles(2 * ny, 0.55))
        field, _ = run(ObserverProblem(grid, cauchy, mats, gain))
        hist = (out / "history.csv").read_text().splitlines()[1].split(",")
        assert float(hist[1]) == top_residual(field, cauchy.f, grid.dx)

    def test_zero_data_score_the_absolute_error(self, tmp_path, capsys):
        out = tmp_path / "run16"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                           + "example = combo\nterms = 0*cos1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", cfg]) == EXIT_OK
        # one line of the CLI's own: no warning, path or source line
        assert capsys.readouterr().err == (
            "bottom_error in history.csv is the absolute error: the exact "
            "bottom trace is zero\n")
        hist = (out / "history.csv").read_text().splitlines()
        assert hist == ["sweep,top_residual,bottom_error", "1,0,0"]

    def test_tiny_data_score_the_relative_error(self, tmp_path, capsys):
        # the squares of a 1e-170 trace underflowed, so the exact trace read
        # as zero and the score was the absolute error.  Data scaled by a
        # power of two (2**-565, about 8e-171) scale the run exactly, and
        # its score is the scale-1 one bit for bit; 1e-170 rounds the data,
        # which the gain amplifies (1e-100 and 1e-290 read 2.6e-8 and
        # 2.7e-8 relative off the scale-1 score, 1e-170 9.2e-10)
        errors = {}
        for scale in ("1.0", repr(2.0 ** -565), "1e-170"):
            out = tmp_path / scale
            assert main(["solve", "--example", "combo", "--terms",
                         f"{scale}*cos1", "--output_dir", str(out)]) == EXIT_OK
            assert capsys.readouterr().err == ""
            hist = (out / "history.csv").read_text().splitlines()
            errors[scale] = float(hist[1].split(",")[2])
        assert errors[repr(2.0 ** -565)] == errors["1.0"]
        assert errors["1e-170"] == pytest.approx(errors["1.0"], rel=1e-7)

    def test_subnormal_data_are_refused(self, tmp_path, capsys):
        # the top trace of c*cos1 peaks at c / cosh 1.  Below 2**-1022 the
        # march loses its digits (1e-315 would score 0.145, not 0.0178).
        # 1e-308 is a normal coefficient, but its trace, 6.5e-309, is not
        for scale, peak in (("1e-315", "6.48e-316"), ("1e-308", "6.48e-309")):
            out = tmp_path / scale
            assert main(["solve", "--example", "combo", "--terms",
                         f"{scale}*cos1", "--output_dir", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"configuration error: Cauchy data peak {peak} is subnormal: "
                "below the smallest normal double 2**-1022 = 2.23e-308\n")
            assert not out.exists()
        out = tmp_path / "1e-300"
        assert main(["solve", "--example", "combo", "--terms", "1e-300*cos1",
                     "--output_dir", str(out)]) == EXIT_OK
        hist = (out / "history.csv").read_text().splitlines()
        assert float(hist[1].split(",")[2]) == pytest.approx(0.0177617,
                                                             rel=1e-6)

    def test_empty_terms_token_is_skipped(self, tmp_path, capsys):
        # a trailing "+" adds no term: the run is that of the one term
        outs = [tmp_path / "plain", tmp_path / "trailing"]
        for terms, out in zip(("1.0*cos1", "1.0*cos1+"), outs):
            assert main(["solve", "--example", "combo", "--terms", terms,
                         "--nx", "129", "--output_dir", str(out)]) == EXIT_OK
            assert capsys.readouterr().err == ""
        for name in ("gain.csv", "boundary.csv", "history.csv"):
            assert (outs[0] / name).read_bytes() == (
                outs[1] / name).read_bytes()

    @pytest.mark.parametrize("terms, plain", [
        ("1e+200*cos1", "1e200*cos1"), ("2.5E+3*cos1", "2500*cos1"),
        ("1.0*cos1+1e+2*sin2", "1.0*cos1+100*sin2")])
    def test_exponent_sign_is_not_a_term_separator(self, tmp_path, capsys,
                                                   terms, plain):
        # the "+" of an exponent split "1e+200*cos1" into "1e" and
        # "200*cos1", refused as a bad term
        outs = [tmp_path / "signed", tmp_path / "plain"]
        for text, out in zip((terms, plain), outs):
            assert main(["solve", "--example", "combo", "--terms", text,
                         "--nx", "129", "--output_dir", str(out)]) == EXIT_OK
            assert capsys.readouterr().err == ""
        for name in ("gain.csv", "boundary.csv", "history.csv"):
            assert (outs[0] / name).read_bytes() == (
                outs[1] / name).read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["--example", "combo", "--terms", "+"],
         "combo example needs at least one term"),
        (["--example", "bogus"], "unknown example 'bogus'"),
        (["--example", "combo", "--terms", "nan*cos1"],
         "bad term 'nan*cos1'; expected like 1.0*cos1"),
    ], ids=["no_term", "unknown_example", "nan_coefficient"])
    def test_bad_example_or_terms_message(self, tmp_path, capsys, argv,
                                          message):
        out = tmp_path / "out"
        assert main(["solve", "--output_dir", str(out)] + argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("layout", ["uniform", "ring"])
    def test_infinite_pole_min_is_usage_error(self, tmp_path, capsys, layout):
        # refused before any pole is built: no numpy warning, no directory
        out = tmp_path / "run14"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg, "--pole_layout", layout,
                     "--pole_min", "-inf"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "configuration error: pole_min must be finite, got -inf\n")
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
        ["--a", "inf"],
        ["--b", "inf"],
        ["--b", "1e-300"],                            # dy*dy underflows
        ["--a", "1e308", "--b", "1e-150"],            # 5*dx/dy**2 overflows
        ["--example", "combo",                        # the data overflow
         "--terms", "1e308*cos1+1e308*cos1+1e308*cos1"],
    ], ids=["ring_radius", "uniform_poles", "layout", "a_inf", "b_inf",
            "b_tiny", "step_overflow", "data_overflow"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys,
                                               override):
        out = tmp_path / "run9"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg] + override) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("extent", [["--a", "1e308"], ["--b", "1e-150"]])
    def test_overflowing_gain_design_fails(self, tmp_path, capsys, extent):
        # the observability matrix overflows: refused, with no traceback
        out = tmp_path / "run12"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", "--config", cfg] + extent) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == ("gain design failed: observability matrix is not "
                       "finite\n")

    @pytest.mark.parametrize("key,value", [("bottom_closure", "ghost"),
                                           ("gain_method", "tuned"),
                                           ("max_sweeps", "0"),
                                           ("tol", "nan"),
                                           ("guard", "-1"),
                                           ("guard", "nan")])
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

    def test_overflowing_march_fails(self, tmp_path, capsys):
        # the data term K f overflows: the march names the first state
        # that is not finite, with no warning or traceback
        out = tmp_path / "run13"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                           + "example = combo\n"
                           "terms = 1e308*cos1+1e308*cos1\n")
        assert main(["solve", "--config", cfg]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "solver overflowed: state is not finite at warm-up step 1\n")

    def test_large_data_are_not_refused(self, tmp_path):
        # no bound on the state's size refuses 50 or 1e200 times the data.
        # The march is linear in the data: scaled by a power of two, 64 or
        # 2**664 (7.654505172902098e+199), they score the scale-1 bits.
        # Other scalings round the data, which moves the score by up to
        # 2.7e-5 relative at 257x6
        assert float("7.654505172902098e+199") == 2.0 ** 664
        errors = {}
        for coeff in ("1.0", "50.0", "1e200", "64.0",
                      "7.654505172902098e+199"):
            out = tmp_path / coeff
            cfg = write_config(tmp_path, BASE_CONFIG.format(out=out)
                               + f"example = combo\nterms = {coeff}*cos1\n")
            assert main(["solve", "--config", cfg, "--ny", "6"]) == EXIT_OK
            history = (out / "history.csv").read_text().splitlines()
            errors[coeff] = history[1].split(",")[2]
        assert errors["64.0"] == errors["1.0"]
        assert errors["7.654505172902098e+199"] == errors["1.0"]

    def test_missing_config_file(self):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == EXIT_USAGE

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
        assert capsys.readouterr() == ("", USAGE + "\n")

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

    @pytest.mark.parametrize("example", ["neumann", "dirichlet"])
    def test_bad_terms_rejected_for_every_example(self, tmp_path, capsys,
                                                  example):
        # only combo reads terms, but a malformed value is refused anyway
        out = tmp_path / "run18"
        assert main(["solve", "--example", example, "--terms", "garbage",
                     "--output_dir", str(out)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "configuration error: bad term "
                                       "'garbage'; expected like 1.0*cos1\n")
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


class TestFailureTable:
    @pytest.mark.parametrize("argv, code, prefix", [
        (["solve", "--nx", "many"], EXIT_USAGE, "configuration error: "),
        (["solve", "--a", "1e308"], EXIT_RUNTIME, "gain design failed: "),
        (["solve", "--example", "combo", "--terms", "1e308*cos1+1e308*cos1"],
         EXIT_RUNTIME, "solver overflowed: "),
        (["solve", "--pole_layout", "uniform", "--pole_max", "0.9999"],
         EXIT_RUNTIME, "solver rejected the configuration: "),
        (["solve", "--nx", "129", "--output_dir", "{blocked}"], EXIT_RUNTIME,
         "cannot write "),
        (["diagnose", "--quadrature", "5"], EXIT_RUNTIME, "gram_err "),
        (["diagnose", "--modes_min", "100", "--modes_max", "102",
          "--quadrature", "101"], EXIT_RUNTIME,
         "observability lower bound at x = "),
        # 10**15 nodes need petabytes, past the address space: numpy
        # refuses the allocation at once and touches no page
        (["solve", "--nx", "1000000000000000"], EXIT_RUNTIME,
         "out of memory: "),
        (["diagnose", "--quadrature", "1000000000000000"], EXIT_RUNTIME,
         "out of memory: "),
    ], ids=["config", "gain_design", "overflow", "rejected", "unwritable",
            "gram_err", "observability", "solve_out_of_memory",
            "diagnose_out_of_memory"])
    def test_one_stderr_line_per_failure(self, tmp_path, capsys, argv, code,
                                         prefix):
        # main maps each failure to its exit code and one stderr line
        blocked = tmp_path / "blocked"
        (blocked / "boundary.csv").mkdir(parents=True)
        argv = [arg.format(blocked=blocked) for arg in argv]
        if "--output_dir" not in argv:
            argv += ["--output_dir", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith(prefix)


class TestUsage:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["solve", "--help"],
                                      ["diagnose", "-h"],
                                      ["solve", "--nx", "33", "-h"]])
    def test_help_prints_usage(self, capsys, argv):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == (USAGE + "\n", "")

    def test_help_token_as_a_value_is_that_value(self, tmp_path, monkeypatch,
                                                 capsys):
        # "-h" after --output_dir names the directory; it asks for no help
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--nx", "129", "--output_dir", "-h"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.endswith(f"outputs in {os.path.realpath('-h')}\n")
        assert err == ""
        rows = (tmp_path / "-h" / "boundary.csv").read_text().splitlines()
        assert len(rows) == 130

    def test_help_token_as_a_term_is_a_bad_term(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--terms", "--help"]) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", "configuration error: bad term '--help'; expected like "
            "1.0*cos1\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,err", [
        (["frobnicate"], USAGE),
        (["solve", "--config"], "configuration error: --config needs a value"),
        (["solve", "--nx", "33", "--ny"],
         "configuration error: --ny needs a value"),
        (["solve", "--conf", "run.cfg"],
         "configuration error: unknown configuration key: 'conf'"),
        (["diagnose", "output"],
         "configuration error: expected an override flag, got 'output'"),
    ], ids=["unknown_command", "config_without_value",
            "override_without_value", "abbreviated_config", "bare_value"])
    def test_usage_errors_return_64(self, tmp_path, monkeypatch, capsys, argv,
                                    err):
        # main returns the code in process; it never raises SystemExit
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", err + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_config_equals_form(self, tmp_path):
        out = tmp_path / "eq"
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=out))
        assert main(["solve", f"--config={cfg}", "--nx=129"]) == EXIT_OK
        assert len((out / "boundary.csv").read_text().splitlines()) == 130


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_unusable_output_dir_is_usage_error(self, tmp_path, capsys,
                                                command, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker if where == "file" else blocker / "sub"
        assert main([command, "--output_dir", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(
            f"configuration error: cannot create output_dir {str(out)!r}: ")
        assert err.count("\n") == 1
        assert blocker.read_text() == "not a directory\n"

    @staticmethod
    def contents(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_solve_rerun_with_shorter_files(self, tmp_path):
        # the second run's files are shorter; what the first run left must
        # not show through
        cfg = write_config(tmp_path, BASE_CONFIG.format(out=tmp_path / "x"))
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        assert main(["solve", "--config", cfg, "--nx", "513", "--ny", "3",
                     "--output_dir", str(again)]) == EXIT_OK
        for out in (again, fresh):
            assert main(["solve", "--config", cfg, "--nx", "129",
                         "--output_dir", str(out)]) == EXIT_OK
        assert self.contents(again) == self.contents(fresh)
        assert len(self.contents(fresh)) == 4

    def test_diagnose_rerun_with_shorter_files(self, tmp_path):
        again, fresh = tmp_path / "again", tmp_path / "fresh"
        assert main(["diagnose", "--modes_min", "-6", "--modes_max", "12",
                     "--output_dir", str(again)]) == EXIT_OK
        for out in (again, fresh):
            assert main(["diagnose", "--quadrature", "1001",
                         "--output_dir", str(out)]) == EXIT_OK
        assert self.contents(again) == self.contents(fresh)
        assert len(self.contents(fresh)) == 2

    @pytest.mark.parametrize("command, blocked, written", [
        ("solve", "boundary.csv", {"gain.csv"}),
        ("diagnose", "spectral.csv", set()),
    ])
    def test_unwritable_output_is_named(self, tmp_path, capsys, command,
                                        blocked, written):
        # a directory where an output file goes: the failure names the file,
        # exits 1 without a traceback, and the outputs written before it stay
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        args = ["--nx", "129"] if command == "solve" else []
        assert main([command, *args, "--output_dir", str(out)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.err == f"cannot write {out / blocked}: Is a directory\n"
        assert captured.out == ""
        assert {p.name for p in out.iterdir()} == written | {blocked}
        assert (out / blocked).is_dir()

    @staticmethod
    def argv(command, out):
        args = ["--nx", "129"] if command == "solve" else []
        return [command, *args, "--output_dir", str(out)]

    @pytest.mark.parametrize("command, count", [("solve", 4), ("diagnose", 2)])
    def test_rerun_rewrites_each_file_in_place(self, tmp_path, command, count):
        # the old files are held open, so a re-created file could not get
        # an old inode number back; a reader holding one sees the rewrite
        out = tmp_path / "out"
        assert main(self.argv(command, out)) == EXIT_OK
        held = {p.name: os.open(p, os.O_RDONLY) for p in out.iterdir()}
        try:
            assert main(self.argv(command, out)) == EXIT_OK
            assert len(held) == count
            for name, fd in held.items():
                assert os.fstat(fd).st_ino == (out / name).stat().st_ino
                assert os.pread(fd, 1 << 16, 0) == (out / name).read_bytes()
        finally:
            for fd in held.values():
                os.close(fd)

    @pytest.mark.parametrize("command, name", [("solve", "history.csv"),
                                               ("diagnose", "spectral.csv")])
    def test_fifo_output_is_replaced_without_blocking(self, tmp_path, command,
                                                      name):
        # no process reads the FIFO: opening it to write must neither wait
        # for a reader nor fail
        out = tmp_path / "out"
        out.mkdir()
        os.mkfifo(out / name)
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(main(self.argv(command, out))),
            daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), f"{command} blocked on the FIFO"
        assert codes == [EXIT_OK]
        assert (out / name).is_file()

    def test_linked_output_is_replaced_not_written_through(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "target.csv"
        target.write_text("kept\n")
        (out / "gain.csv").symlink_to(target)
        (out / "plot.gp").hardlink_to(target)
        assert main(["solve", "--nx", "129", "--output_dir", str(out)]) == EXIT_OK
        assert target.read_text() == "kept\n"
        assert not (out / "gain.csv").is_symlink()
        assert (out / "gain.csv").read_text().startswith("method,")
        assert (out / "plot.gp").stat().st_nlink == 1


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

    @staticmethod
    def assert_failed_after_writing(out, capsys, argv, err):
        assert main(["diagnose", "--output_dir", str(out)] + argv) == (
            EXIT_RUNTIME)
        assert capsys.readouterr() == (
            f"diagnostics written to {out.resolve()}\n", err + "\n")
        assert {p.name for p in out.iterdir()} == {"spectral.csv",
                                                   "observability.csv"}

    def test_gram_error_names_the_worst_mode(self, tmp_path, capsys):
        # 5 nodes cannot resolve the modes: their Gram rows are all ~1
        self.assert_failed_after_writing(
            tmp_path / "diag3", capsys, ["--quadrature", "5"],
            "gram_err 1.000e+00 of mode -4 exceeds 1e-06")

    def test_aliased_modes_fail_the_eigen_check(self, tmp_path, capsys):
        # on 5 nodes modes 20..22 alias to orthonormal samples (gram_err
        # ~1e-15) while their eigen defect is 0.92 of its scale
        self.assert_failed_after_writing(
            tmp_path / "diag5", capsys,
            ["--modes_min", "20", "--modes_max", "22", "--quadrature", "5"],
            "eigen_residual 1.689e+02 of mode 21 exceeds 9.140e+01, half its "
            "scale |rho c1| lam^2")

    def test_coarse_quadrature_below_aliasing_passes(self, tmp_path):
        # the default modes on 21 nodes: worst relative defect 0.363
        out = tmp_path / "diag6"
        assert main(["diagnose", "--output_dir", str(out),
                     "--quadrature", "21"]) == EXIT_OK
        rows = np.loadtxt(out / "spectral.csv", delimiter=",", skiprows=1)
        lam, rho, resid = rows[:, 1], rows[:, 2], rows[:, 4]
        defect = resid / (np.abs(rho * spectral.MODE_AMPLITUDE) * lam ** 2)
        assert 0.36 < defect.max() < 0.37

    def test_underflowing_bound_names_its_distance(self, tmp_path, capsys):
        # the bound of modes 100..102 underflows to 0 at x = 0.5
        self.assert_failed_after_writing(
            tmp_path / "diag4", capsys,
            ["--modes_min", "100", "--modes_max", "102", "--quadrature", "101"],
            "observability lower bound at x = 0.5 is not positive")

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


class TestConfigFileErrors:
    @pytest.mark.parametrize("kind", ["missing", "directory", "fifo"])
    def test_not_a_regular_file_is_not_found(self, tmp_path, capsys, kind):
        path = tmp_path / "run.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "fifo":
            os.mkfifo(path)
        with pytest.raises(ConfigError) as info:
            parse_config(["--config", str(path)])
        assert str(info.value) == f"config file not found: {path}"
        for command in ("solve", "diagnose"):
            out = tmp_path / f"out_{command}"
            assert main([command, "--config", str(path),
                         "--output_dir", str(out)]) == EXIT_USAGE
            assert capsys.readouterr() == (
                "", f"configuration error: config file not found: {path}\n")
            assert not out.exists()

    def test_line_without_equals_sign(self, tmp_path):
        path = write_config(tmp_path, "nx = 65\n\nny 3  # no sign\n")
        with pytest.raises(ConfigError) as info:
            parse_config(["--config", path])
        assert str(info.value) == f"{path}:3: expected 'key = value'"

    def test_null_byte_in_path_is_not_found(self, tmp_path):
        path = str(tmp_path / "run\0.cfg")
        with pytest.raises(ConfigError) as info:
            parse_config(["--config", path])
        assert str(info.value) == f"config file not found: {path}"

    def test_stat_error_is_named(self, tmp_path):
        # a path component over 255 bytes: ENAMETOOLONG, not "not found"
        path = str(tmp_path / ("x" * 256) / "run.cfg")
        with pytest.raises(ConfigError) as info:
            parse_config(["--config", path])
        assert str(info.value) == (
            f"cannot read config file {path}: File name too long")

    @pytest.mark.parametrize("command", ["solve", "diagnose"])
    def test_undecodable_config_is_a_configuration_error(
            self, tmp_path, monkeypatch, capsys, command):
        # the file is read before any output directory is made, the default
        # output_dir "." included
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"nx = 257\n\xff\xfe = 3\n")
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        for argv in ([command, "--config", "bad.cfg"],
                     [command, "--config", str(cfg), "--output_dir", str(out)]):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                f"configuration error: cannot read config file {argv[2]}: ")
            assert "codec can't decode byte 0xff" in captured.err
            assert captured.err.count("\n") == 1
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]


class TestOutputBits:
    @pytest.mark.parametrize("example, terms", [("neumann", "1.0*cos1"),
                                                ("combo", "0*cos1")])
    def test_history_csv_bytes(self, tmp_path, capsys, example, terms):
        # history.csv holds top_residual and error_bottom of the run's field
        # to 17 digits; a zero exact trace gives the absolute error
        out = tmp_path / "out"
        assert main(["solve", "--nx", "129", "--example", example,
                     "--terms", terms, "--output_dir", str(out)]) == EXIT_OK
        zero_note = ("bottom_error in history.csv is the absolute error: the "
                     "exact bottom trace is zero\n")
        assert capsys.readouterr().err == (zero_note if terms == "0*cos1"
                                           else "")
        sol = (neumann_example(2 * np.pi, 0.5) if example == "neumann"
               else combo_example([TrigTerm(1, 0.0, "cos")], 2 * np.pi, 0.5))
        grid = build_grid(2 * np.pi, 0.5, 129, 5)
        cauchy = make_cauchy_data(sol, grid)
        mats = assemble(grid)
        gain = ackermann_gain(mats.F, mats.C_row, ring_poles(10, 0.55))
        field, _ = run(ObserverProblem(grid=grid, cauchy=cauchy, mats=mats,
                                       gain=gain))
        want = "sweep,top_residual,bottom_error\n1,%.17g,%.17g\n" % (
            top_residual(field, cauchy.f, grid.dx),
            error_bottom(field, bottom_trace(sol, grid), grid.dx))
        assert (out / "history.csv").read_bytes() == want.encode("ascii")

    @staticmethod
    def record_cuts(monkeypatch):
        """The lengths os.ftruncate is called with from now on."""
        cuts, real_ftruncate = [], os.ftruncate
        monkeypatch.setattr(
            os, "ftruncate", lambda fd, n: cuts.append(n) or real_ftruncate(fd, n))
        return cuts

    @pytest.mark.parametrize("command, count", [("solve", 4), ("diagnose", 2)])
    def test_equal_length_rerun_keeps_bytes_and_inode(
            self, tmp_path, monkeypatch, command, count):
        # a re-run over files of the same length writes the same bytes over
        # them and never needs to cut them
        out = tmp_path / "out"
        argv = [command, "--output_dir", str(out)]
        assert main(argv) == EXIT_OK
        before = {p.name: (p.read_bytes(), p.stat().st_ino)
                  for p in out.iterdir()}
        cuts = self.record_cuts(monkeypatch)
        assert main(argv) == EXIT_OK
        after = {p.name: (p.read_bytes(), p.stat().st_ino)
                 for p in out.iterdir()}
        assert len(after) == count and after == before
        assert cuts == []

    def test_longer_old_file_is_cut(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["solve", "--nx", "513", "--ny", "3",
                     "--output_dir", str(out)]) == EXIT_OK
        cuts = self.record_cuts(monkeypatch)
        assert main(["solve", "--nx", "129", "--output_dir", str(out)]) == EXIT_OK
        size = (out / "boundary.csv").stat().st_size
        assert size in cuts
        assert (out / "boundary.csv").read_bytes().count(b"\n") == 130
