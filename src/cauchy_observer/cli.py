"""Command-line entry point: boundary recovery runs and spectral diagnostics.

Configuration is a flat ``key = value`` text file; any key can be overridden
on the command line with ``--key value``.  Outputs are CSV files with fixed
formatting (17 significant digits, comma separator, LF line endings) so that
identical runs produce byte-identical artifacts, plus a gnuplot script that
renders them.

Exit codes: 0 success, 1 runtime failure, 64 bad usage or configuration.
Code 2 (no convergence within ``max_sweeps``) is retired: a run is one sweep
on the periodic fixed point, and a gain that cannot give one is refused
with code 1.  Usage and configuration errors are found before the output
directory is created.
"""

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import spectral
from .discrete_ops import assemble
from .gain import (ObservabilityDeficient, PlacementFailed, PoleSpec,
                   ackermann_gain, ring_poles, uniform_poles)
from .grid import build_grid
from .observer import NonFiniteState, ObserverConfig, ObserverProblem, run
from .reference import (ReferenceSolution, TrigTerm, bottom_trace,
                        combo_example, dirichlet_example, make_cauchy_data,
                        neumann_example)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 64


@dataclass
class RunConfig:
    example: str = "neumann"            # neumann | dirichlet | combo
    terms: str = "1.0*cos1"             # combo only: "1.0*cos1+0.5*sin1"
    a: float = 2.0 * math.pi
    b: float = 0.5
    nx: int = 257
    ny: int = 5
    pole_layout: str = "ring"           # ring | uniform
    pole_min: float = 0.3
    pole_max: float = 0.8
    guard: float = 1e12
    modes_min: int = -4
    modes_max: int = 8
    quadrature: int = 2001
    output_dir: str = "."


class ConfigError(Exception):
    pass


def _coerce(name: str, raw: str, target_type):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def parse_config(path: Optional[str], overrides: List[str]) -> RunConfig:
    """Read ``key = value`` lines, then apply --key value override pairs."""
    cfg = RunConfig()
    types = {"example": str, "terms": str, "pole_layout": str,
             "output_dir": str,
             "a": float, "b": float, "pole_min": float, "pole_max": float,
             "guard": float, "nx": int, "ny": int,
             "modes_min": int, "modes_max": int, "quadrature": int}

    def apply(key: str, value: str):
        key = key.strip()
        if key not in types:
            raise ConfigError(f"unknown configuration key: {key!r}")
        setattr(cfg, key, _coerce(key, value.strip(), types[key]))

    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(p.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            apply(key, value)

    flat: List[str] = []
    for token in overrides:
        if token.startswith("--") and "=" in token:
            flat.extend(token.split("=", 1))
        else:
            flat.append(token)
    if len(flat) % 2 != 0:
        raise ConfigError("overrides must come in --key value pairs")
    for flag, value in zip(flat[::2], flat[1::2]):
        if not flag.startswith("--"):
            raise ConfigError(f"expected an override flag, got {flag!r}")
        apply(flag[2:], value)
    return cfg


def _parse_terms(text: str) -> List[TrigTerm]:
    """Parse "1.0*cos1+0.5*sin2" into trig terms."""
    terms = []
    for token in text.replace(" ", "").split("+"):
        if not token:
            continue
        try:
            coeff_str, rest = token.split("*", 1)
            parity = rest[:3]
            k = int(rest[3:])
            terms.append(TrigTerm(k=k, coeff=float(coeff_str), parity=parity))
        except (ValueError, IndexError) as exc:
            raise ConfigError(
                f"bad term {token!r}; expected like 1.0*cos1") from exc
    if not terms:
        raise ConfigError("combo example needs at least one term")
    return terms


def _reference_for(cfg: RunConfig) -> ReferenceSolution:
    if cfg.example == "neumann":
        return neumann_example(cfg.a, cfg.b)
    if cfg.example == "dirichlet":
        return dirichlet_example(cfg.a, cfg.b)
    if cfg.example == "combo":
        return combo_example(_parse_terms(cfg.terms), cfg.a, cfg.b)
    raise ConfigError(f"unknown example {cfg.example!r}")


def _spec(kind) -> str:
    """Printf spec for one CSV field: integers as integers, text verbatim,
    anything else as a float to 17 significant digits (round-trip exact)."""
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, str):
        return "%s"
    return "%.17g"


def write_csv(path: Path, header: List[str], rows) -> None:
    """Write one CSV table, each row by a single %-format built from the
    types of its fields.  Numeric tables format fastest as Python floats, so
    callers pass ``ndarray.tolist()`` rather than rows of numpy scalars."""
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join([_spec(k) for k in kinds])
        lines.append(fmt % row)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


_PLOT_SCRIPT = """\
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 900,600
set output 'boundary.png'
set xlabel 'x'
set ylabel 'u on the bottom boundary'
plot 'boundary.csv' using 1:2 with lines lw 2, \\
     'boundary.csv' using 1:3 with lines lw 2 dashtype 2
set output 'history.png'
set logscale y
set xlabel 'sweep'
set ylabel 'residual / error'
plot 'history.csv' using 1:2 with linespoints, \\
     'history.csv' using 1:3 with linespoints
"""


def _pole_spec(cfg: RunConfig) -> PoleSpec:
    n = 2 * cfg.ny
    if not (cfg.pole_min < cfg.pole_max < 1.0):
        raise ConfigError("poles must satisfy pole_min < pole_max < 1")
    try:
        if cfg.pole_layout == "uniform":
            return uniform_poles(n, cfg.pole_min, cfg.pole_max)
        if cfg.pole_layout == "ring":
            return ring_poles(n, 0.5 * (cfg.pole_min + cfg.pole_max))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown pole layout {cfg.pole_layout!r}")


def cmd_solve(cfg: RunConfig) -> int:
    try:
        grid = build_grid(cfg.a, cfg.b, cfg.nx, cfg.ny)
        config = ObserverConfig(guard=cfg.guard)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sol = _reference_for(cfg)
    spec = _pole_spec(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cauchy = make_cauchy_data(sol, grid)
    mats = assemble(grid)
    try:
        gain = ackermann_gain(mats.F, mats.C_row, spec)
    except (ObservabilityDeficient, PlacementFailed) as exc:
        print(f"gain design failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    write_csv(out / "gain.csv",
              ["method", "pole_min", "pole_max", "spectral_radius",
               "obs_matrix_condition"],
              [[gain.method, gain.pole_min, gain.pole_max,
                gain.spectral_radius, gain.obs_condition]])

    problem = ObserverProblem(grid=grid, cauchy=cauchy, mats=mats, gain=gain)
    try:
        field, report = run(problem, config, reference=sol)
    except NonFiniteState as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"solver rejected the configuration: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    exact = bottom_trace(sol, grid)
    write_csv(out / "boundary.csv",
              ["x", "exact_bottom", "estimated_bottom"],
              np.column_stack((grid.x, exact, field[:, 0])).tolist())
    write_csv(out / "history.csv", ["sweep", "top_residual", "bottom_error"],
              [[1, report.top_residual, report.bottom_error]])
    (out / "plot.gp").write_text(_PLOT_SCRIPT, encoding="ascii", newline="\n")
    print(f"one sweep after a {report.warmup_steps}-step warm-up; "
          f"periodicity defect {report.periodicity_defect:.1e}; "
          f"outputs in {out.resolve()}")
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig) -> int:
    if cfg.modes_min > cfg.modes_max:
        print("configuration error: modes_min exceeds modes_max", file=sys.stderr)
        return EXIT_USAGE
    try:
        modes = spectral.ModeSet(tuple(range(cfg.modes_min, cfg.modes_max + 1)),
                                 cfg.quadrature)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    xs = (0.0, 0.1, 0.5)
    G, resid, bounds = spectral.diagnostics(modes, xs)
    gram_err = np.abs(G - np.eye(len(G))).max(axis=1)
    rows = [[m.n, m.lam, m.rho, err, res] for m, err, res
            in zip(modes.modes(), gram_err.tolist(), resid.tolist())]
    all_ok = not (gram_err > 1e-6).any()
    write_csv(out / "spectral.csv",
              ["n", "lambda", "rho", "gram_err", "eigen_residual"], rows)

    if not (bounds > 0.0).all():
        all_ok = False
    write_csv(out / "observability.csv", ["x", "lower_bound"],
              zip(xs, bounds.tolist()))
    print(f"diagnostics written to {out.resolve()}")
    return EXIT_OK if all_ok else EXIT_RUNTIME


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cauchy-observer",
        description="Recover missing boundary data by sweeping a marching "
                    "observer across the rectangle, or run the spectral "
                    "diagnostics suite.")
    sub = parser.add_subparsers(dest="command")
    for name in ("solve", "diagnose"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
    args, overrides = parser.parse_known_args(argv)
    if args.command not in ("solve", "diagnose"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = parse_config(args.config, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_diagnose(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
