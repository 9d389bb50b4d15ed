"""Synthetic experiment data: seeded phase scans and calibration runs.

A scan steps the source phase over a grid and records, per point, the
counts of the fringing detector and of the constant one.  Counts are
either deterministic (round(n * rate), independent of the seed) or
Poisson with mean n * rate.  Noise streams are addressed as
(seed, stream) with stream = 2*setting + channel, so the H and V scans
of one acquisition share a seed without sharing randomness:

    setting H: fringing detector stream 0, constant detector stream 1
    setting V: fringing detector stream 2, constant detector stream 3

Persistence: CSV with a one-line metadata header and a JSON mirror of
the full record (the JSON additionally keeps the noiseless flag and, if
present, the generating configuration).  Integer counts round-trip
bit-exactly through both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from . import _kernels as _k
from .interferometer import InterferometerConfig, SignalSetting, fringe
from .states import IdlerStateParams

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ScanPlan:
    """Phase grid plus acquisition metadata for one scan."""

    phases: tuple[float, ...]
    counts_per_point: int
    setting: SignalSetting
    seed: int
    noiseless: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        object.__setattr__(self, "setting", SignalSetting(self.setting))
        if len(self.phases) < 5:
            raise ValueError("a scan needs at least 5 phase points")
        for i, p in enumerate(self.phases):
            if not math.isfinite(p):
                raise ValueError(f"phases[{i}] must be finite, got {p!r}")
        for a, b in zip(self.phases, self.phases[1:]):
            if b <= a:
                raise ValueError("phases must be strictly increasing")
        if self.phases[-1] - self.phases[0] >= TWO_PI:
            raise ValueError("phase grid must stay within one period")
        if self.counts_per_point < 1:
            raise ValueError("counts_per_point must be positive")
        if not 0 <= self.seed < (1 << 64):
            raise ValueError("seed must fit in 64 bits")

    @classmethod
    def default_grid(cls, setting: SignalSetting, seed: int, *, points: int = 20,
                     counts_per_point: int = 1000,
                     noiseless: bool = False) -> "ScanPlan":
        """points equally spaced over [0, 2*pi)."""
        phases = tuple(TWO_PI * k / points for k in range(points))
        return cls(phases, counts_per_point, setting, seed, noiseless)

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
        return cls(tuple(d["phases"]), int(d["counts_per_point"]),
                   SignalSetting(d["setting"]), int(d["seed"]),
                   bool(d.get("noiseless", False)))


@dataclass(frozen=True)
class ScanRecord:
    """Counts recorded over one phase scan, plus its plan and, for
    synthetic data, the configuration that generated it."""

    plan: ScanPlan
    counts_primary: tuple[int, ...]
    counts_constant: tuple[int, ...]
    truth: Optional[InterferometerConfig] = None

    def __post_init__(self):
        npts = len(self.plan.phases)
        if len(self.counts_primary) != npts or len(self.counts_constant) != npts:
            raise ValueError("count lists must match the phase grid length")
        if any(c < 0 for c in self.counts_primary + self.counts_constant):
            raise ValueError("counts must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "counts_primary": list(self.counts_primary),
            "counts_constant": list(self.counts_constant),
            "truth": self.truth.to_json_dict() if self.truth is not None else None,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScanRecord":
        truth = d.get("truth")
        return cls(ScanPlan.from_json_dict(d["plan"]),
                   _integral_counts(d["counts_primary"], "counts_primary"),
                   _integral_counts(d["counts_constant"], "counts_constant"),
                   InterferometerConfig.from_json_dict(truth) if truth else None)


def _integral_counts(values, field: str) -> tuple[int, ...]:
    """Counts read from a file: ints, or floats with an integral value."""
    out = []
    for i, c in enumerate(values):
        if isinstance(c, float) and c.is_integer():
            c = int(c)
        if type(c) is not int:
            raise ValueError(f"{field}[{i}] must be an integer count, got {c!r}")
        out.append(c)
    return tuple(out)


def run_scan(cfg: InterferometerConfig, plan: ScanPlan) -> ScanRecord:
    """Generate one scan record from the configuration's fringe."""
    cfg = cfg.with_setting(plan.setting)
    f = fringe(cfg)
    n = plan.counts_per_point
    # cancellation at a fringe null can undershoot zero by ~1e-16
    rates = [max(0.0, f.at(phi)) for phi in plan.phases]
    rc = max(0.0, f.constant)
    if plan.noiseless:
        primary = [round(n * rf) for rf in rates]
        constant = [round(n * rc)] * len(rates)
    else:
        base = 2 * (cfg.signal_setting is SignalSetting.V)
        rng_f = _k.Rng(plan.seed, base)
        rng_c = _k.Rng(plan.seed, base + 1)
        primary = [rng_f.poisson(n * rf) for rf in rates]
        constant = [rng_c.poisson(n * rc) for _ in rates]
    return ScanRecord(plan, tuple(primary), tuple(constant), truth=cfg)


@dataclass(frozen=True)
class CalibrationResult:
    """Transmission magnitudes estimated from the calibration fringes."""

    t_h: float
    t_h_stderr: float
    t_v: float
    t_v_stderr: float

    def to_json_dict(self) -> dict:
        return {"t_h": self.t_h, "t_h_stderr": self.t_h_stderr,
                "t_v": self.t_v, "t_v_stderr": self.t_v_stderr}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CalibrationResult":
        return cls(float(d["t_h"]), float(d["t_h_stderr"]),
                   float(d["t_v"]), float(d["t_v_stderr"]))


def run_calibration(cfg_template: InterferometerConfig,
                    plan: ScanPlan) -> CalibrationResult:
    """Estimate |t_h| and |t_v| from two dedicated fringe scans.

    The template's idler is overridden with pure H (pure V) and the
    matching signal setting is scanned, so each fitted visibility equals
    the corresponding transmission magnitude directly.  Requires the
    balanced source arrangement the identification is derived for.
    Standard errors are those of the fitted visibilities.
    """
    from .reconstruct import fit_sinusoid  # deferred: avoids a module cycle

    if not cfg_template.is_balanced:
        raise ValueError("calibration assumes the balanced source arrangement")
    results = []
    for setting, idler in ((SignalSetting.H, IdlerStateParams.horizontal()),
                           (SignalSetting.V, IdlerStateParams.vertical())):
        scan = run_scan(replace(cfg_template, idler=idler),
                        replace(plan, setting=setting))
        fit = fit_sinusoid(scan.plan.phases, scan.counts_primary)
        results.append((fit.visibility, fit.visibility_stderr))
    (t_h, e_h), (t_v, e_v) = results
    return CalibrationResult(t_h, e_h, t_v, e_v)


# ---------------------------------------------------------------------------
# persistence


CSV_COLUMNS = ("phi_rad", "counts_fringe", "counts_const")


def scan_to_csv(record: ScanRecord, path: str | Path) -> None:
    lines = [f"# setting={record.plan.setting.value} "
             f"seed={record.plan.seed} n={record.plan.counts_per_point}",
             ",".join(CSV_COLUMNS)]
    for phi, cf, cc in zip(record.plan.phases, record.counts_primary,
                           record.counts_constant):
        lines.append(f"{phi!r},{cf},{cc}")
    Path(path).write_text("\n".join(lines) + "\n")


def scan_from_csv(path: str | Path) -> ScanRecord:
    """Read a scan CSV; the noiseless flag and truth are not part of CSV.

    A malformed or out-of-range header value or data row is reported as
    ``path:line: ...``.
    """
    rows = [(k, line.strip()) for k, line
            in enumerate(Path(path).read_text().splitlines(), 1) if line.strip()]
    if len(rows) < 3 or not rows[0][1].startswith("# "):
        raise ValueError(f"{path}: not a scan CSV")
    head, header = rows[0]
    meta = {}
    for kv in header[2:].split():
        key, eq, value = kv.partition("=")
        if not eq:
            raise ValueError(f"{path}:{head}: expected key=value, got {kv!r}")
        meta[key] = value
    for key, parse, what in (("setting", SignalSetting, "H or V"),
                             ("seed", int, "an integer"),
                             ("n", int, "an integer")):
        if key not in meta:
            raise ValueError(f"{path}:{head}: {key} is missing from the header")
        try:
            meta[key] = parse(meta[key])
        except ValueError:
            raise ValueError(f"{path}:{head}: {key} must be {what}, "
                             f"got {meta[key]!r}") from None
    if meta["n"] < 1:
        raise ValueError(f"{path}:{head}: n must be positive, got {meta['n']}")
    if not 0 <= meta["seed"] < (1 << 64):
        raise ValueError(f"{path}:{head}: seed must fit in 64 bits, "
                         f"got {meta['seed']}")
    if rows[1][1] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unexpected column header {rows[1][1]!r}")
    phases: list[float] = []
    primary: list[int] = []
    constant: list[int] = []
    for k, line in rows[2:]:
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{k}: expected {len(CSV_COLUMNS)} columns, "
                             f"got {len(fields)}")
        try:
            phi = float(fields[0])
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            raise ValueError(f"{path}:{k}: {CSV_COLUMNS[0]} must be a finite "
                             f"number, got {fields[0]!r}")
        if phases and phi <= phases[-1]:
            raise ValueError(f"{path}:{k}: {CSV_COLUMNS[0]} must be strictly "
                             f"increasing, got {fields[0]!r} after "
                             f"{phases[-1]!r}")
        if phases and phi - phases[0] >= TWO_PI:
            raise ValueError(f"{path}:{k}: {CSV_COLUMNS[0]} must stay within "
                             f"one period of {phases[0]!r}, got {fields[0]!r}")
        phases.append(phi)
        for name, text, counts in zip(CSV_COLUMNS[1:], fields[1:],
                                      (primary, constant)):
            try:
                counts.append(int(text))
            except ValueError:
                raise ValueError(f"{path}:{k}: {name} must be an integer "
                                 f"count, got {text!r}") from None
            if counts[-1] < 0:
                raise ValueError(f"{path}:{k}: {name} must be nonnegative, "
                                 f"got {text!r}")
    try:
        plan = ScanPlan(tuple(phases), meta["n"], meta["setting"], meta["seed"],
                        noiseless=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return ScanRecord(plan, tuple(primary), tuple(constant), truth=None)


def scan_to_json(record: ScanRecord, path: str | Path) -> None:
    Path(path).write_text(json.dumps(record.to_json_dict(), indent=2,
                                     sort_keys=True) + "\n")


def scan_from_json(path: str | Path) -> ScanRecord:
    """Read a scan JSON; malformed JSON or an invalid or missing field is
    reported as ``path: ...``."""
    text = Path(path).read_text()
    try:
        return ScanRecord.from_json_dict(json.loads(text))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_scan(path: str | Path) -> ScanRecord:
    """Dispatch on file extension (.csv or .json)."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return scan_from_csv(p)
    if p.suffix.lower() == ".json":
        return scan_from_json(p)
    raise ValueError(f"cannot tell scan format from extension: {p.name}")


def calibration_to_json(result: CalibrationResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result.to_json_dict(), indent=2,
                                     sort_keys=True) + "\n")


def calibration_from_json(path: str | Path) -> CalibrationResult:
    return CalibrationResult.from_json_dict(json.loads(Path(path).read_text()))
