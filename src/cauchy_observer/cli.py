"""Command-line entry point: boundary recovery runs and spectral diagnostics.

    cauchy-observer {solve,diagnose} [--config FILE] [--key value ...]

Configuration is a flat ``key = value`` text file; any key can be overridden
on the command line with ``--key value`` or ``--key=value`` (``--config=FILE``
works too), and ``-h`` or ``--help`` prints the usage line where a flag
can stand.  Outputs are CSV files with fixed formatting (17 significant
digits, comma separator, LF line
endings) so that identical runs produce byte-identical artifacts, plus a
gnuplot script that plots the bottom traces.  Every table is a 2-D float64
array, formatted by ``format_floats`` byte for byte as ``%.17g`` writes
it: the small tables by one %-format, ``boundary.csv`` in numpy, 1.5-1.8
times as fast as the %-format at 129 rows and 2.6-3.5 times at 1025 rows
(warm).  Each output replaces any file of its name (see
``replace_file``): a regular file with one link is rewritten in place, and
cut to its new length only when it was longer, about 20-50 us per file on
ext4 mounted with ``discard`` against 130-280 us to unlink and re-create
it; a symlink, a hard-linked file, a FIFO or a
directory is unlinked and a new file created.  A rewritten file keeps its
inode and its mode, a reader holding it open sees the rewrite, and a
process killed between the write and the cut can leave the old file's
tail.

Exit codes are decided in ``main``, which maps each failure the commands
raise to its code and stderr line (``FAILURES``): 0 success, 1 runtime
failure (an output file that cannot be written, or memory that cannot be
allocated, included; the outputs written before it stay), 64 bad usage
or configuration, an output directory that cannot be created included.
Usage and configuration errors are found
before the output directory is created.  ``main`` returns every exit code;
it never raises SystemExit.
"""

import contextlib
import errno
import math
import os
import re
import stat
import sys
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import spectral
from .gain import (ObservabilityDeficient, PlacementFailed, PoleSpec,
                   ring_poles, uniform_poles)
from .grid import build_grid
from .observer import NonFiniteState, design, error_bottom, run, top_residual
from .reference import (ReferenceSolution, TrigTerm, bottom_trace,
                        combo_example, dirichlet_example, make_cauchy_data,
                        neumann_example)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 64

USAGE = ("usage: cauchy-observer {solve,diagnose} [--config FILE] "
         "[--key value ...]")


class RunConfig:
    """The keys of a config file, each a class attribute holding its default
    and annotated with its type; ``parse_config`` sets the values it reads
    on the instance."""

    example: str = "neumann"            # neumann | dirichlet | combo
    terms: str = "1.0*cos1"             # read by combo: "1.0*cos1+0.5*sin1"
    a: float = 2.0 * math.pi
    b: float = 0.5
    nx: int = 257
    ny: int = 5
    pole_layout: str = "ring"           # ring | uniform
    pole_min: float = 0.3
    pole_max: float = 0.8
    modes_min: int = spectral.DEFAULT_MODE_INDICES[0]
    modes_max: int = spectral.DEFAULT_MODE_INDICES[-1]
    quadrature: int = spectral.DEFAULT_QUADRATURE
    output_dir: str = "."


_FIELD_TYPES = RunConfig.__annotations__


class ConfigError(Exception):
    pass


class Failed(Exception):
    """A run or a check failed; the message says what broke and why."""


def parse_config(overrides: List[str]) -> RunConfig:
    """Read the ``key = value`` lines of the last ``--config FILE`` pair's
    file, if any, then apply the other --key value override pairs.  Each
    value is converted by its ``RunConfig`` key's annotated type."""
    pairs = _flag_pairs(overrides)
    path = dict(pairs).get("--config")
    cfg = RunConfig()

    def apply(key: str, value: str):
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key: {key!r}")
        try:
            setattr(cfg, key, _FIELD_TYPES[key](value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc

    if path is not None:
        for lineno, line in enumerate(_read_config(path).splitlines(), 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = stripped.split("=", 1)
            apply(key, value)

    for flag, value in pairs:
        if flag != "--config":
            apply(flag[2:], value)
    return cfg


# errors of os.stat that mean no file is there, as for Path.is_file
_NOT_THERE = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


def _read_config(path: str) -> str:
    """The text of the config file at ``path``.  ConfigError "config file
    not found" unless ``path`` is a regular file (a missing path, a
    directory and a FIFO among them), and "cannot read config file" when
    it cannot be read or decoded."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except ValueError:              # an embedded null byte
        regular = False
    except OSError as exc:
        if exc.errno not in _NOT_THERE:
            raise _unreadable(path, exc) from exc
        regular = False
    if not regular:
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc


def _unreadable(path: str, exc: Exception) -> ConfigError:
    reason = getattr(exc, "strerror", None) or exc
    return ConfigError(f"cannot read config file {path}: {reason}")


def _flag_pairs(tokens: List[str]) -> List[Tuple[str, str]]:
    """(flag, value) pairs from ``--key value`` and ``--key=value`` tokens."""
    pairs = []
    tokens = iter(tokens)
    for token in tokens:
        if not token.startswith("--"):
            raise ConfigError(f"expected an override flag, got {token!r}")
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"{flag} needs a value")
        pairs.append((flag, value))
    return pairs


def _wants_help(tokens: List[str]) -> bool:
    """Whether ``-h`` or ``--help`` stands where a flag can: not as the
    value of a ``--key`` before it, as in ``--output_dir -h``."""
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return True
        if token.startswith("--") and "=" not in token:
            next(tokens, None)
    return False


def _parse_terms(text: str) -> List[TrigTerm]:
    """Parse "1.0*cos1+0.5*sin2" into trig terms.  A "+" after "e" or "E"
    is an exponent's sign ("1e+200*cos1"), not a term separator."""
    terms = []
    for token in re.split(r"(?<![eE])\+", text.replace(" ", "")):
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
    terms = _parse_terms(cfg.terms)     # checked for every example
    if cfg.example == "neumann":
        return neumann_example(cfg.a, cfg.b)
    if cfg.example == "dirichlet":
        return dirichlet_example(cfg.a, cfg.b)
    if cfg.example == "combo":
        return combo_example(terms, cfg.a, cfg.b)
    raise ConfigError(f"unknown example {cfg.example!r}")


_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK


def replace_file(path: Path, data: bytes) -> None:
    """Make ``path`` a regular file holding ``data``.

    A missing file, or a regular file with one link, is written in place:
    one open without truncation, the bytes written over the old ones, then
    the file cut to the new length if the old one was longer (a re-run over
    a file of equal length or a shorter one makes no cut).  Anything else
    at ``path`` (a symlink, a hard-linked file, a FIFO, a directory, a file
    that will not open for writing) is unlinked and a new file created in
    its place, so a link is replaced, not written through.  Every re-run into one directory
    (``output_dir`` defaults to ``.``) rewrites all its outputs.  On ext4
    mounted with ``discard`` (a 2-vCPU Xeon VM), in-process ``solve`` runs
    at 257x5 re-run into 24 directories took a median 47-51 us per file
    rewritten in place against 219-277 us unlinked and re-created (the
    four files: 0.21 ms against 0.89-1.05 ms per ``solve``).  Truncating
    a file to zero costs 75-120 us, so it is never done.  A missing file
    costs the same either way.  The trade-offs of the rewrite: a reader
    holding the file open sees it change, the file keeps its inode and its
    mode, and a process killed between the write and the cut leaves the
    old file's tail after the new bytes.  An OSError from the write, the
    cut, the unlink (other than a missing file) or the create, such as a
    directory at ``path`` or a full disk, is raised as Failed."""
    try:
        if not _rewrite_in_place(path, data):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
            with open(path, "xb") as fh:
                fh.write(data)
    except OSError as exc:
        raise Failed(f"cannot write {path}: {exc.strerror or exc}") from exc


def _rewrite_in_place(path: Path, data: bytes) -> bool:
    """Write ``data`` over a missing file or a one-link regular file at
    ``path`` and cut it to ``len(data)`` if it was longer; False, with
    nothing written, for anything else.  O_NOFOLLOW refuses a symlink and
    O_NONBLOCK keeps the open of a FIFO without a reader from blocking."""
    try:
        fd = os.open(path, _REWRITE_FLAGS, 0o666)
    except OSError:
        return False
    try:
        st = os.fstat(fd)
        if not (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
            return False
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if st.st_size > len(data):
            os.ftruncate(fd, len(data))
        return True
    finally:
        os.close(fd)


# format_floats: %.17g in numpy.  A field's bucket
# j = _BOUNDS.searchsorted(|x|, "right") is exact: 0 for ±0, 1 for
# 0 < |x| < 1e-4, 2..22 for the decimal exponent E = floor(log10 |x|) =
# j - 6 in [-4, 16], where %.17g writes fixed notation, and 23 for
# |x| >= 1e17, inf and nan.  Buckets 1 and 23 are the slow ones, in
# exponential notation: the %-format writes them.  Rounding to 17 digits
# never carries a double into the next decade: below 10**m the nearest
# double is 2**-53 (relative) away for m >= 0, and 0.1 to 0.0001 are stored
# above their values, so each bound 1e{E} is the least double >= 10**E.
_BOUNDS = np.array([5e-324] + [float(f"1e{e}") for e in range(-4, 18)])
_BUCKETS = len(_BOUNDS) + 1
_SLOW = np.zeros(_BUCKETS, bool)
_SLOW[[1, -1]] = True
# |x| * 10**(16 - E) is in [1e16, 1e17), exactly; every power of ten up to
# 10**22 is a double.  The other buckets scale by 0.
_SCALE = np.array([float(10 ** (22 - j)) if 2 <= j <= 22 else 0.0
                   for j in range(_BUCKETS)])
_SPLIT = 134217729.0                # 2**27 + 1 splits a double in halves
_SCALE_HI = _SCALE * _SPLIT
_SCALE_HI -= _SCALE_HI - _SCALE
_SCALE_LO = _SCALE - _SCALE_HI


def _digit_tables() -> Tuple[np.ndarray, np.ndarray]:
    """``words[g]``: the four ASCII digits of ``g < 10000`` as one uint32.
    ``last[g]``: the place (1..4) of the last nonzero digit of those four,
    and -64 for ``g = 0``."""
    ascii = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        digits[..., k] = ascii.reshape((10,) + (1,) * (3 - k))
    zero = (ascii == ord("0")).astype(np.int8)
    trailing = zero + zero[:, None] * zero + zero[:, None, None] * (
        zero[:, None] * zero)
    last = 4 - np.broadcast_to(trailing, (10,) * 4).ravel()
    last[0] = -64
    return digits.reshape(-1, 4).view(np.uint32).ravel(), last


_WORDS, _LAST = _digit_tables()
_GROUP_AT = np.arange(0, 16, 4, dtype=np.int8)[:, None]
_LEAD, _DOTS, _COMMA, _NEWLINE = np.frombuffer(b"-0.0....,\0\0\0\n\0\0\0",
                                               np.uint32)


def _keep_table() -> np.ndarray:
    """Row ``j * 17 + nd - 1``: the bytes of a field's row that make its
    text, for its bucket j and its number nd of significant digits; byte 0,
    the sign, is set per field.  The 48-byte row (12 words) holds every
    byte the text could need, in the order written:

        0 '-' | 1 '0' | 2 '.' | 3..6 '0' | 7..23 d0..d16 | 24..27 '.'
        | 28..43 d1..d16 again | 44 ',' or LF | 45..47 unused

    E < 0 takes "0.", then -E - 1 zeros, then d0..d(nd-1).  E >= 0 takes
    d0..dE, then "." (byte 27) and d(E+1)..d(nd-1) from the second copy
    when nd > E + 1.  Zero takes "0".  A slow field takes only its
    separator: its text is spliced into the row."""
    j = np.arange(_BUCKETS)[:, None, None]
    e = j - 6
    nd = np.arange(1, 18)[:, None]
    col = np.arange(48)
    fixed = (j >= 2) & (j <= 22)
    below, above = fixed & (e < 0), fixed & (e >= 0)
    first = (col >= 7) & (col <= 23)        # d_k at 7 + k
    second = (col >= 28) & (col <= 43)      # d_k at 27 + k
    keep = ((col == 1) & (below | (j == 0))
            | (col == 2) & below
            | (col >= 8 + e) & (col <= 6) & below
            | first & below & (col - 7 < nd)
            | first & above & (col - 7 <= e)
            | (col == 27) & above & (nd > e + 1)
            | second & above & (col - 27 > e) & (col - 27 < nd)
            | (col == 44))
    return keep.reshape(-1, 48)


_KEEP = _keep_table()


def _digits(a: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``round(a * _SCALE[j])`` as int64, exactly, half to even.

    Dekker's TwoProduct gives the product as ``p + err`` with no rounding.
    In a fixed-notation bucket ``p >= 1e16 > 2**53`` is an even integer, so
    rounding ``err`` to the nearest, ties to even, rounds the sum the same
    way."""
    p = a * _SCALE[j]
    ah = a * _SPLIT
    al = ah - a
    ah -= al                        # the high half of a
    np.subtract(a, ah, out=al)      # the low half
    err = ah * _SCALE_HI[j]
    err -= p
    np.multiply(ah, _SCALE_LO[j], out=ah)
    err += ah
    bh = _SCALE_HI[j]
    bh *= al
    err += bh
    np.multiply(al, _SCALE_LO[j], out=al)
    err += al
    digits = p.astype(np.int64)
    digits += np.rint(err, out=err).astype(np.int64)
    return digits


def _groups(digits: np.ndarray) -> np.ndarray:
    """(5, n) rows of 17-digit integers: the leading digit, then four
    4-digit groups.  Every divisor is a scalar, so numpy divides by
    multiplication."""
    groups = np.empty((5, digits.size), np.intp)
    halves = np.empty((2, digits.size), np.intp)
    np.floor_divide(digits, 10 ** 8, out=halves[0])
    np.multiply(halves[0], 10 ** 8, out=halves[1])
    np.subtract(digits, halves[1], out=halves[1])
    np.floor_divide(halves, 10 ** 4, out=groups[1:4:2])
    np.multiply(groups[1:4:2], 10 ** 4, out=groups[2:5:2])
    np.subtract(halves, groups[2:5:2], out=groups[2:5:2])
    np.floor_divide(groups[1], 10 ** 4, out=groups[0])
    groups[1] -= groups[0] * 10 ** 4
    return groups


# Tables of fewer fields than this take one %-format.  The numpy route's
# ufunc calls cost a fixed 75-120 us, the %-format about 0.9 us a field:
# warm, in-process, on a 2-vCPU Xeon VM, 33x3 took 109 us in numpy against
# 90 us through %, 40x3 102 against 108, 65x3 136 against 177 and 129x3
# 168 against 354; 15x5 (spectral.csv) took 122 against 57.  Every small
# table (at most 15 modes x 5 = 75 fields) is below it, every boundary.csv
# (at least 129 x 3 = 387 fields) above.
_PERCENT_FIELDS = 128


def format_floats(table: np.ndarray) -> bytes:
    """The rows of a 2-D float64 table as CSV lines, each ending in LF,
    byte for byte what ``%.17g`` writes.

    A table of fewer than ``_PERCENT_FIELDS`` fields is one ``%.17g``
    %-format.  A larger one is formatted in numpy.  There the digits are
    computed exactly: the decimal exponent E from exact bounds, the 17
    digits as ``round(|x| * 10**(16 - E))`` from Dekker's TwoProduct.
    Four-digit groups are looked up in a table and laid out in a 48-byte
    row per field; one mask per exponent and digit count, plus the sign,
    picks the bytes written, and one masked select joins them.  A field in
    exponential notation is formatted by one ``%-25.17g`` of all such
    fields and spliced into its row."""
    rows, ncols = table.shape
    v = table.ravel()
    if v.size < _PERCENT_FIELDS:
        line = ",".join(["%.17g"] * ncols) + "\n"
        return ((line * rows) % tuple(v.tolist())).encode("ascii")
    a = np.fmin(np.abs(v), 1e17)        # inf and nan become 1e17
    j = _BOUNDS.searchsorted(a, "right")
    at = np.flatnonzero(_SLOW[j])     # the fields in exponential notation
    groups = _groups(_digits(a, j))
    # the place of the last nonzero digit after d0, 0 if there is none
    last = _LAST[groups[1:]]
    last += _GROUP_AT
    keep = _KEEP[j * 17 + np.maximum.reduce(last, axis=0, initial=0)]
    keep[:, 0] = np.signbit(v)
    words = np.empty((v.size, 12), np.uint32)
    words[:, 0] = _LEAD
    words[:, 1:6] = _WORDS[groups.T]
    words[:, 6] = _DOTS
    words[:, 7:11] = words[:, 2:6]
    lines = words.reshape(rows, ncols, 12)
    lines[:, :, 11] = _COMMA
    lines[:, -1, 11] = _NEWLINE
    text = words.view(np.uint8)
    if at.size:
        spliced = np.frombuffer(
            (("%-25.17g" * at.size) % tuple(v[at].tolist())).encode("ascii"),
            np.uint8).reshape(-1, 25)
        text[at, :25] = spliced
        keep[at, :25] = spliced != ord(" ")
    return text[keep].tobytes()


def write_csv(path: Path, header: List[str], table: np.ndarray) -> None:
    """Write the header line, then the rows of ``table``, a 2-D float64
    array of ``len(header)`` columns, through ``format_floats``.  Integer
    columns are floats here: ``%.17g`` prints a whole float as ``%d``
    prints its integer.  Any other ``table`` raises ValueError and writes
    nothing."""
    if not (isinstance(table, np.ndarray) and table.ndim == 2
            and table.shape[1] == len(header) and table.dtype == np.float64):
        raise ValueError(f"{path.name}: a table needs {len(header)} "
                         f"float64 columns")
    replace_file(path, (",".join(header) + "\n").encode("ascii")
                 + format_floats(table))


_PLOT_SCRIPT = """\
set datafile separator ','
set key autotitle columnhead
set terminal pngcairo size 900,600
set output 'boundary.png'
set xlabel 'x'
set ylabel 'u on the bottom boundary'
plot 'boundary.csv' using 1:2 with lines lw 2, \\
     'boundary.csv' using 1:3 with lines lw 2 dashtype 2
"""


def _output_dir(cfg: RunConfig) -> Path:
    """The output directory, created if missing; ConfigError if it cannot
    be (a file in its place or on its path, no permission)."""
    out = Path(cfg.output_dir)
    if os.path.isdir(out):          # mkdir would fail on EEXIST, then stat
        return out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output_dir {cfg.output_dir!r}: "
            f"{exc.strerror or exc}") from exc
    return out


def _pole_spec(cfg: RunConfig) -> PoleSpec:
    n = 2 * cfg.ny
    if not math.isfinite(cfg.pole_min):
        raise ConfigError(f"pole_min must be finite, got {cfg.pole_min}")
    if not (cfg.pole_min < cfg.pole_max < 1.0):
        raise ConfigError("poles must satisfy pole_min < pole_max < 1")
    if cfg.pole_layout == "uniform":
        return uniform_poles(n, cfg.pole_min, cfg.pole_max)
    if cfg.pole_layout == "ring":
        return ring_poles(n, 0.5 * (cfg.pole_min + cfg.pole_max))
    raise ConfigError(f"unknown pole layout {cfg.pole_layout!r}")


def cmd_solve(cfg: RunConfig) -> int:
    try:
        sol = _reference_for(cfg)
        spec = _pole_spec(cfg)
        grid = build_grid(cfg.a, cfg.b, cfg.nx, cfg.ny)
        cauchy = make_cauchy_data(sol, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _output_dir(cfg)
    problem = design(grid, cauchy, spec)
    gain = problem.gain

    reals = spec.poles.real
    row = np.array([[reals.min(), reals.max(), gain.spectral_radius,
                     gain.obs_condition]])
    replace_file(out / "gain.csv", b"method,pole_min,pole_max,spectral_radius,"
                 b"obs_matrix_condition\nackermann," + format_floats(row))

    try:
        field, report = run(problem)
    except ValueError as exc:
        raise Failed(f"solver rejected the configuration: {exc}") from exc

    exact = bottom_trace(sol, grid)
    write_csv(out / "boundary.csv",
              ["x", "exact_bottom", "estimated_bottom"],
              np.column_stack((grid.x, exact, field[:, 0])))
    if not exact.any():
        print("bottom_error in history.csv is the absolute error: the exact "
              "bottom trace is zero", file=sys.stderr)
    write_csv(out / "history.csv", ["sweep", "top_residual", "bottom_error"],
              np.array([[1.0, top_residual(field, cauchy.f, grid.dx),
                         error_bottom(field, exact, grid.dx)]]))
    replace_file(out / "plot.gp", _PLOT_SCRIPT.encode("ascii"))
    print(f"one sweep after a {report.warmup_steps}-step warm-up; "
          f"periodicity defect {report.periodicity_defect:.1e}; "
          f"outputs in {os.path.realpath(out)}")
    return EXIT_OK


def cmd_diagnose(cfg: RunConfig) -> int:
    """Write both diagnostic tables; Failed names the first broken check."""
    try:
        modes = spectral.ModeSet(tuple(range(cfg.modes_min, cfg.modes_max + 1)),
                                 cfg.quadrature)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _output_dir(cfg)
    xs = (0.0, 0.1, 0.5)
    G = spectral.gram_matrix(modes)
    resid = spectral.eigen_residual(modes)
    bounds = spectral.observability_lower_bound(modes, xs)
    gram_err = np.abs(G - np.eye(len(G))).max(axis=1)
    n = np.array(modes.indices, dtype=float)
    lam = spectral.mode_frequency(n)
    rho = 1.0 / (math.sqrt(2.0) * lam)
    write_csv(out / "spectral.csv",
              ["n", "lambda", "rho", "gram_err", "eigen_residual"],
              np.column_stack((n, lam, rho, gram_err, resid)))
    write_csv(out / "observability.csv", ["x", "lower_bound"],
              np.column_stack((xs, bounds)))
    print(f"diagnostics written to {os.path.realpath(out)}")

    worst, tol = int(gram_err.argmax()), 1e-6
    if not gram_err[worst] <= tol:
        raise Failed(f"gram_err {gram_err[worst]:.3e} of mode "
                     f"{modes.indices[worst]} exceeds {tol:g}")
    for x, bound in zip(xs, bounds):
        if not bound > 0.0:
            raise Failed(f"observability lower bound at x = {x:g} is not "
                         f"positive")
    # half the eigen relation's scale: |p2| peaks at |rho c1| lam^2 =
    # |c1 lam| / sqrt(2), and the exact discrete defect 1 - sinc^2(lam h / 2)
    # of that scale passes 0.5 only below about 2.3 nodes per wavelength,
    # where the family aliases
    limit = np.abs(lam) * (
        abs(spectral.MODE_AMPLITUDE) / (2.0 * math.sqrt(2.0)))
    worst = int((resid / limit).argmax())
    if not resid[worst] <= limit[worst]:
        raise Failed(f"eigen_residual {resid[worst]:.3e} of mode "
                     f"{modes.indices[worst]} exceeds {limit[worst]:.3e}, "
                     f"half its scale |rho c1| lam^2")
    return EXIT_OK


COMMANDS = {"solve": cmd_solve, "diagnose": cmd_diagnose}

# each failure main reports: its exit code and its stderr line's prefix
FAILURES = {ConfigError: (EXIT_USAGE, "configuration error: "),
            ObservabilityDeficient: (EXIT_RUNTIME, "gain design failed: "),
            PlacementFailed: (EXIT_RUNTIME, "gain design failed: "),
            NonFiniteState: (EXIT_RUNTIME, "solver overflowed: "),
            # numpy raises a subclass; main looks failures up by isinstance
            MemoryError: (EXIT_RUNTIME, "out of memory: "),
            Failed: (EXIT_RUNTIME, "")}


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; returns its exit code.  A usage line goes to stdout
    for ``-h``/``--help`` where a flag can stand and to stderr for a
    missing or unknown command."""
    args = sys.argv[1:] if argv is None else list(argv)
    if _wants_help(args):
        print(USAGE)
        return EXIT_OK
    if not args or args[0] not in COMMANDS:
        print(USAGE, file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args[0]](parse_config(args[1:]))
    except tuple(FAILURES) as exc:
        code, prefix = next(failure for cls, failure in FAILURES.items()
                            if isinstance(exc, cls))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
