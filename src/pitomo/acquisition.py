"""Synthetic experiment data: seeded phase scans and calibration runs.

A scan steps the source phase over a grid and records, per point, the
counts of the fringing detector and of the constant one.  Counts are
either deterministic (round(n * rate), independent of the seed) or
Poisson with mean n * rate.  Noise streams are addressed as
(seed, stream) with stream = 2*setting + channel, so the H and V scans
of one acquisition share a seed without sharing randomness:

    setting H: fringing detector stream 0, constant detector stream 1
    setting V: fringing detector stream 2, constant detector stream 3

Each channel is drawn with one batched ``Rng.poissons`` call; the
constant detector's means are all equal, so from its second point on
each draw is one bisection of a CDF table built whole for that mean, or
reuses one set of rejection constants.  The counts are those of one
``Rng.poisson`` call per point.

Work that depends only on a scan's phase grid (its checks, the text of
its CSV rows, a fit's grid pass) goes through :func:`once_per_grid`, done
once for the last grid seen.  The fringe rates of a scan come from
``Fringe.over``, one pass over the grid.

Persistence: CSV with a one-line metadata header and a JSON mirror of
the full record (the JSON additionally keeps the noiseless flag and, if
present, the generating configuration).  Integer counts round-trip
bit-exactly through both.  A stored calibration is range-checked as it
is read.  The scan rules are written once, in ``ScanPlan`` and
``ScanRecord``; each error names the entry, which a JSON scan reports as
``path: phases[5] ...``, ``--phases`` as ``phases[5] ...`` and the CSV
reader (itself checking only header tokens, columns and literals) as
``path:line: phi_rad ...``, with the text found there.  The CSV reader
parses a column at a time and goes row by row only to name a bad row.
Every file is UTF-8 text.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

from . import _kernels as _k
from ._fields import EntryError, brief, dump, field, items, load
from .interferometer import InterferometerConfig, SignalSetting, fringe
from .states import TWO_PI, IdlerStateParams

# the largest per-point budget whose counts and rates are exact floats
MAX_COUNTS_PER_POINT = 1 << 53
MAX_POINTS = 10 ** 6  # the most phase points default_grid builds
# the most phase points of a grid whose grid-only work is held
HELD_POINTS = MAX_POINTS // 100
# a visibility below this is a numerically flat fringe: no calibration
# ceiling to divide by, and no fringe phase to read
FLAT_VISIBILITY = 1e-9


@dataclass(frozen=True)
class ScanPlan:
    """Phase grid plus acquisition metadata for one scan."""

    phases: tuple[float, ...]
    counts_per_point: int
    setting: SignalSetting
    seed: int
    noiseless: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phases", once_per_grid(_checked_grid, self.phases))
        object.__setattr__(self, "setting", SignalSetting(self.setting))
        n = self.counts_per_point
        if not 1 <= n <= MAX_COUNTS_PER_POINT:
            raise EntryError("counts_per_point", None, "must be positive" if n < 1
                             else "must be at most 2**53", n)
        if not 0 <= self.seed < (1 << 64):
            raise EntryError("seed", None, "must fit in 64 bits", self.seed)

    @classmethod
    def default_grid(cls, setting: SignalSetting, seed: int, *, points: int = 20,
                     counts_per_point: int = 1000,
                     noiseless: bool = False) -> "ScanPlan":
        """points equally spaced over [0, 2*pi), at most ``MAX_POINTS``."""
        if points > MAX_POINTS:  # refused before the grid is allocated
            raise ValueError(f"points must be at most {MAX_POINTS}, got {points}")
        return cls(tuple(TWO_PI * k / points for k in range(points)),
                   counts_per_point, setting, seed, noiseless)

    def to_json_dict(self) -> dict:
        return {
            "phases": list(self.phases),
            "counts_per_point": self.counts_per_point,
            "setting": self.setting.value,
            "seed": self.seed,
            "noiseless": self.noiseless,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScanPlan":
        return cls(items(d, "phases", float), field(d, "counts_per_point", int),
                   field(d, "setting", SignalSetting), field(d, "seed", int),
                   field(d, "noiseless", bool, False))


@dataclass(frozen=True)
class ScanRecord:
    """Counts recorded over one phase scan, plus its plan and, for
    synthetic data, the configuration that generated it.  Each count lies in
    [0, 2**64), one per phase."""

    plan: ScanPlan
    counts_primary: tuple[int, ...]
    counts_constant: tuple[int, ...]
    truth: Optional[InterferometerConfig] = None

    def __post_init__(self):
        npts = len(self.plan.phases)
        for key in ("counts_primary", "counts_constant"):
            counts = tuple(getattr(self, key))
            object.__setattr__(self, key, counts)
            if len(counts) != npts:
                raise EntryError(key, None, "must match the phase grid "
                                 f"length {npts}", len(counts))
            if min(counts) < 0:
                i = next(i for i, c in enumerate(counts) if c < 0)
                raise EntryError(key, i, "must be nonnegative", counts[i])
            if max(counts) >= 1 << 64:
                i = next(i for i, c in enumerate(counts) if c >= 1 << 64)
                raise EntryError(key, i, "must fit in 64 bits", counts[i])

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "counts_primary": list(self.counts_primary),
            "counts_constant": list(self.counts_constant),
            "truth": self.truth.to_json_dict() if self.truth is not None else None,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScanRecord":
        truth = field(d, "truth", dict, None)
        if truth is not None:
            truth = InterferometerConfig.from_json_dict(truth)
        return cls(ScanPlan.from_json_dict(field(d, "plan", dict)),
                   items(d, "counts_primary", int),
                   items(d, "counts_constant", int), truth)


def once_per_grid(fn, phases):
    """``fn(phases)`` as a tuple, computed once for the last grid seen.

    The key is the grid's float64 bits: -0.0 == 0.0, so a float key would
    hand a grid from -0.0 its twin's values.  A grid of more than
    ``HELD_POINTS`` points is never held: it gets ``fn(phases)`` itself,
    so a grid near ``MAX_POINTS`` neither outlives its scan nor has all
    of a lazy ``fn``'s values alive at once.  A raising ``fn`` holds
    nothing; racing threads may compute a value twice, never another grid's.
    """
    if len(phases) > HELD_POINTS:
        return fn(phases)
    held = _held(array("d", phases).tobytes())
    if fn not in held:
        held[fn] = tuple(fn(phases))
    return held[fn]


@functools.lru_cache(maxsize=1)
def _held(grid: bytes) -> dict:
    """The values held for the grid of float64 bits ``grid``, by function."""
    return {}


def _checked_grid(phases) -> tuple[float, ...]:
    """The phases as floats, checked point by point by the scan rules."""
    phases = tuple(map(float, phases))
    if len(phases) < 5:
        raise EntryError("phases", None, "must hold at least 5 points", len(phases))
    first = phases[0]
    for i, p in enumerate(phases):
        if not math.isfinite(p):
            raise EntryError("phases", i, "must be a finite number", p)
        if i and p <= phases[i - 1]:
            raise EntryError("phases", i, "must be strictly increasing", p)
        if p - first >= TWO_PI:
            raise EntryError("phases", i, f"must stay within one period of {first!r}", p)
    return phases


def run_scan(cfg: InterferometerConfig, plan: ScanPlan) -> ScanRecord:
    """Generate one scan record from the configuration's fringe."""
    cfg = cfg.with_setting(plan.setting)
    f = fringe(cfg)
    n = plan.counts_per_point
    # cancellation at a fringe null can undershoot zero by ~1e-16; each
    # mean is n * max(0.0, r), which is n * r for r > 0 and 0.0 otherwise
    # (a -0.0 and a NaN included)
    means = [n * r if r > 0.0 else 0.0 for r in f.over(plan.phases)]
    mc = n * max(0.0, f.constant)
    if plan.noiseless:
        primary = list(map(round, means))
        constant = [round(mc)] * len(means)
    else:
        base = 2 * (cfg.signal_setting is SignalSetting.V)
        primary = _k.Rng(plan.seed, base).poissons(means)
        constant = _k.Rng(plan.seed, base + 1).poissons([mc] * len(means))
    return ScanRecord(plan, primary, constant, truth=cfg)


@dataclass(frozen=True)
class CalibrationResult:
    """Visibility ceilings from the calibration fringes: t_h (t_v) is the
    visibility of a pure H (V) idler, |t_h| (|t_v|) for balanced sources."""

    t_h: float
    t_h_stderr: float
    t_v: float
    t_v_stderr: float

    def to_json_dict(self) -> dict:
        return {"t_h": self.t_h, "t_h_stderr": self.t_h_stderr,
                "t_v": self.t_v, "t_v_stderr": self.t_v_stderr}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CalibrationResult":
        """Read a stored calibration, refusing a standard error that is
        negative or not finite, and a transmission t below
        ``FLAT_VISIBILITY`` or above 1 + 5 stderr + 1e-6.

        A calibration run estimates t above 1 about half the time when
        the true t is near 1, so the bound leaves room for its noise
        (and, in noiseless runs, for count rounding) plus a 1e-6 margin.
        The range is checked here, where the values enter from a file.
        """
        values = [field(d, key, float)
                  for key in ("t_h", "t_h_stderr", "t_v", "t_v_stderr")]
        for key, t, err in (("t_h", *values[:2]), ("t_v", *values[2:])):
            if not 0.0 <= err < math.inf:
                raise EntryError(f"{key}_stderr", None, "must be finite and >= 0", err)
            if not FLAT_VISIBILITY <= t <= 1.0 + 5.0 * err + 1e-6:
                raise EntryError(key, None, f"must lie in [{FLAT_VISIBILITY!r}, "
                                 f"1 + 5 {key}_stderr + 1e-6]", t)
        return cls(*values)


def calibration_configs(cfg: InterferometerConfig) -> list[InterferometerConfig]:
    """cfg with a pure H idler in setting H and with a pure V idler in
    setting V: their visibilities are the ceilings a calibration measures."""
    return [replace(cfg, idler=IdlerStateParams(p_h, 0.0, 1.0), signal_setting=setting)
            for setting, p_h in ((SignalSetting.H, 1.0), (SignalSetting.V, 0.0))]


def run_calibration(cfg_template: InterferometerConfig,
                    plan: ScanPlan) -> CalibrationResult:
    """Measure each setting's visibility ceiling from a dedicated fringe scan.

    Each configuration of :func:`calibration_configs` is scanned; its fitted
    visibility is the ceiling V_max = |t_h| 2 b1 b2 sqrt(p_h2) / (b1^2 +
    b2^2 p_h2) (t_v, p_v2 for V): |t| for balanced sources, and in any
    arrangement the inversion's divisor, p_h = (V_H/V_maxH)^2 and purity
    sqrt(p_v) = V_V/V_maxV.
    Standard errors are those of the fitted visibilities; for a noiseless
    plan their residual variance is floored at 1/12, the variance of
    rounding a rate to a count, which rounded counts' residuals can hide.
    FitError names the setting whose fringe is flat (visibility below
    ``FLAT_VISIBILITY``).
    """
    from .reconstruct import FitError, fit_sinusoid  # deferred: a module cycle

    results = []
    for cfg in calibration_configs(cfg_template):
        scan = run_scan(cfg, replace(plan, setting=cfg.signal_setting))
        fit = fit_sinusoid(scan.plan.phases, scan.counts_primary,
                           min_sigma2=1.0 / 12.0 if plan.noiseless else 0.0)
        if not fit.visibility >= FLAT_VISIBILITY:
            raise FitError(f"setting {cfg.signal_setting.value}: the calibration "
                           f"fringe is flat (visibility {fit.visibility!r})")
        results.append((fit.visibility, fit.visibility_stderr))
    (t_h, e_h), (t_v, e_v) = results
    return CalibrationResult(t_h, e_h, t_v, e_v)


# ---------------------------------------------------------------------------
# persistence


CSV_COLUMNS = ("phi_rad", "counts_fringe", "counts_const")
# the CSV name of each entry that a ScanPlan or ScanRecord rule names
_CSV_NAMES = dict(zip(("phases", "counts_primary", "counts_constant"), CSV_COLUMNS),
                  counts_per_point="n", seed="seed")


def scan_to_csv(record: ScanRecord, path: str | Path) -> None:
    plan = record.plan
    rows = map("{},{},{}\n".format, once_per_grid(_phase_text, plan.phases),
               record.counts_primary, record.counts_constant)
    Path(path).write_text(f"# setting={plan.setting.value} seed={plan.seed} "
                          f"n={plan.counts_per_point}\n{','.join(CSV_COLUMNS)}\n"
                          + "".join(rows), encoding="utf-8")


def _phase_text(phases) -> Iterable[str]:
    """repr of each phase: the text each CSV row starts with."""
    return map(repr, phases)


def scan_from_csv(path: str | Path) -> ScanRecord:
    """Read a scan CSV; the noiseless flag and truth are not part of CSV.

    A file that is not UTF-8 text is reported as ``path: ...``; a
    malformed header, row or number (digit-group underscores included,
    which int() and float() accept; an unreadable phase reads as NaN) as
    ``path:line: ...``, and so is the entry a scan rule refuses, under its
    column name and with the text found there.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    rows = [(k, line) for k, line in enumerate(
        map(str.strip, text.split("\n")), 1) if line]
    if len(rows) < 3 or not rows[0][1].startswith("# "):
        raise ValueError(f"{path}: not a scan CSV")
    head, header = rows[0]
    meta = {}
    for kv in header[2:].split():
        key, eq, value = kv.partition("=")
        if not eq:
            raise ValueError(f"{path}:{head}: expected key=value, got {kv!r}")
        if key in meta:
            raise ValueError(f"{path}:{head}: {key} appears twice in the header")
        if key not in _CSV_HEADER:
            raise ValueError(f"{path}:{head}: unknown header key {key!r}")
        meta[key] = value
    for key, (parse, what) in _CSV_HEADER.items():
        if key not in meta:
            raise ValueError(f"{path}:{head}: {key} is missing from the header")
        try:
            meta[key] = parse(meta[key])
        except ValueError:
            raise ValueError(f"{path}:{head}: {key} must be {what}, "
                             f"got {meta[key]!r}") from None
    if rows[1][1] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected column header {rows[1][1]!r}")
    phases, primary, constant = _csv_columns(path, rows[2:])
    try:
        return ScanRecord(ScanPlan(phases, meta["n"], meta["setting"],
                                   meta["seed"]), primary, constant)
    except EntryError as exc:
        name = _CSV_NAMES[exc.key]
        if exc.index is not None:  # a data row: show the text found there
            k, line = rows[2 + exc.index]
            got = line.split(",")[CSV_COLUMNS.index(name)]
        else:  # a header value, or a whole column
            k, got = (rows[1][0] if name in CSV_COLUMNS else head), exc.value
        raise ValueError(f"{path}:{k}: {name} {exc.rule}, got {brief(got)}") from None


def _csv_columns(path, rows: list) -> tuple[list, list, list]:
    """The phases (NaN where one does not read as a number) and the two
    count columns of the data ``rows``, (line number, text) pairs.

    Without a digit-group underscore in any row, the rows are split once
    and each column parsed by one map(); where that fails, and with an
    underscore, row by row in file order, which names the first bad row.
    """
    lines = [line for _, line in rows]
    cells = [line.split(",") for line in lines]
    if "_" not in "".join(lines) and set(map(len, cells)) == {len(CSV_COLUMNS)}:
        phi_col, fringe_col, const_col = zip(*cells)
        try:
            return (list(map(float, phi_col)), list(map(int, fringe_col)),
                    list(map(int, const_col)))
        except ValueError:
            pass
    phases, primary, constant = [], [], []
    for k, line in rows:
        try:
            phi_text, fringe_text, const_text = line.split(",")
        except ValueError:
            raise ValueError(f"{path}:{k}: expected {len(CSV_COLUMNS)} columns, "
                             f"got {line.count(',') + 1}") from None
        try:
            phases.append(float(phi_text) if "_" not in phi_text else math.nan)
        except ValueError:
            phases.append(math.nan)
        primary.append(_csv_count(path, k, CSV_COLUMNS[1], fringe_text))
        constant.append(_csv_count(path, k, CSV_COLUMNS[2], const_text))
    return phases, primary, constant


def _plain_int(text: str) -> int:
    """int(text), refusing the digit-group underscores int() accepts."""
    if "_" in text:
        raise ValueError(text)
    return int(text)


# the header's keys: each value's parser, and what the value must be
_CSV_HEADER = {"setting": (SignalSetting, "H or V"),
               "seed": (_plain_int, "an integer"),
               "n": (_plain_int, "an integer")}


def _csv_count(path, k: int, name: str, text: str) -> int:
    try:
        return _plain_int(text)
    except ValueError:
        raise ValueError(f"{path}:{k}: {name} must be an integer "
                         f"count, got {text!r}") from None


def scan_to_json(record: ScanRecord, path: str | Path) -> None:
    dump(path, record.to_json_dict())


def scan_from_json(path: str | Path) -> ScanRecord:
    """Read a scan JSON; malformed JSON or an invalid or missing field is
    reported as ``path: ...``."""
    return load(path, ScanRecord.from_json_dict)


def load_scan(path: str | Path) -> ScanRecord:
    """Dispatch on file extension (.csv or .json)."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return scan_from_csv(p)
    if p.suffix.lower() == ".json":
        return scan_from_json(p)
    raise ValueError(f"cannot tell scan format from extension: {p.name}")


def calibration_to_json(result: CalibrationResult, path: str | Path) -> None:
    dump(path, result.to_json_dict())


def calibration_from_json(path: str | Path) -> CalibrationResult:
    """Read a calibration JSON; errors are reported as ``path: ...``."""
    return load(path, CalibrationResult.from_json_dict)
