"""Seeded inputs and timed operations of the benchmark workloads.

Inputs come from the benchmark's own ``random.Random(seed)``; pitomo
receives only the generated numbers.  Each workload splits one op into
``run`` (the timed program work) and ``check`` (the harness's validation
of that op's output, untimed).  ``check`` raises :class:`CheckFailed` on a
wrong output, :class:`ReportedFailure` when the program's own output says
the op failed, and otherwise returns the op's error against the truth.

Importing this module does not import pitomo: :func:`setup` does, so that
the set-up time includes the import.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Inputs generated up front; a run that needs more ops reuses them cyclically.
POOL_SIZE = 8192

MC_POINTS, MC_COUNTS = 20, 1000      # Poisson means >= 30: rejection branch
DIM_POINTS, DIM_COUNTS = 200, 30     # Poisson means < 30: inversion branch
VERIFY_TRIALS = 10

# The exceptions by which pitomo declines an input it cannot invert.  An op
# ending in one of these is a failed op; any other exception is a wrong one.
REFUSALS = ("FitError", "CalibrationError", "ConvergenceError")


class CheckFailed(Exception):
    """An op returned an output that is wrong."""


class ReportedFailure(Exception):
    """An op's output reports that the op failed (a failed, not a wrong op)."""


@dataclass(frozen=True)
class StateInput:
    p_h: float
    xi: float
    purity: float
    t_h: float
    t_v: float
    origin: float      # common transmission phase = the scan's phase origin
    scan_seed: int


def draw_states(seed: int, n: int) -> list[StateInput]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        p_h = rng.uniform(0.05, 0.95)
        xi = rng.uniform(0.0, 2.0 * math.pi)
        purity = 1.0 - 0.9 * rng.random() ** 3   # weighted toward pure states
        t_h = rng.uniform(0.8, 1.0)
        t_v = rng.uniform(0.8, 1.0)
        origin = rng.uniform(0.0, 2.0 * math.pi)
        out.append(StateInput(p_h, xi, purity, t_h, t_v, origin,
                              rng.getrandbits(63)))
    return out


class _StateWorkload:
    """Shared part of the two tomography workloads."""

    def __init__(self, pitomo_mods, seed: int):
        self.m = pitomo_mods
        self.inputs = draw_states(seed, POOL_SIZE)

    def _config_and_truth(self, x: StateInput):
        truth = self.m.states.IdlerStateParams(x.p_h, x.xi, x.purity)
        phase = cmath.exp(1j * x.origin)
        cfg = self.m.interferometer.InterferometerConfig.balanced(
            truth, t_h=x.t_h * phase, t_v=x.t_v * phase)
        return cfg, truth

    def _scan_pair(self, cfg, x: StateInput, points: int, counts: int):
        acq = self.m.acquisition
        return tuple(acq.run_scan(cfg, acq.ScanPlan.default_grid(
            setting, x.scan_seed, points=points, counts_per_point=counts))
            for setting in ("H", "V"))

    @staticmethod
    def _check_reconstruction(result, fidelity: float) -> float:
        try:
            result.rho.assert_physical()
        except ValueError as exc:
            raise CheckFailed(f"reconstructed rho: {exc}") from None
        if not (math.isfinite(fidelity) and -1e-9 <= fidelity <= 1.0 + 1e-9):
            raise CheckFailed(f"fidelity {fidelity!r} outside [0, 1]")
        return 1.0 - fidelity


class McLsq(_StateWorkload):
    """Monte-Carlo tomography on the default least-squares route."""

    def run(self, x: StateInput):
        cfg, truth = self._config_and_truth(x)
        scan_h, scan_v = self._scan_pair(cfg, x, MC_POINTS, MC_COUNTS)
        rec = self.m.reconstruct
        result = rec.mle_reconstruct(scan_h, scan_v, x.t_h, x.t_v)
        return result, rec.report_fidelity(result, truth)

    def check(self, x: StateInput, out) -> float:
        return self._check_reconstruction(*out)


class DimFringeCsv(_StateWorkload):
    """Long dim scans written to CSV, read back and inverted by fringe fit."""

    def __init__(self, pitomo_mods, seed: int, workdir: Path):
        super().__init__(pitomo_mods, seed)
        self.paths = (workdir / "scan_H.csv", workdir / "scan_V.csv")
        self.bytes_written = 0

    def run(self, x: StateInput):
        cfg, truth = self._config_and_truth(x)
        scans = self._scan_pair(cfg, x, DIM_POINTS, DIM_COUNTS)
        acq = self.m.acquisition
        for scan, path in zip(scans, self.paths):
            acq.scan_to_csv(scan, path)
        loaded = tuple(acq.load_scan(path) for path in self.paths)
        rec = self.m.reconstruct
        result = rec.extract_parameters(*loaded, x.t_h, x.t_v)
        return scans, loaded, result, rec.report_fidelity(result, truth)

    def check(self, x: StateInput, out) -> float:
        scans, loaded, result, fidelity = out
        for written, read in zip(scans, loaded):
            if (read.counts_primary != written.counts_primary
                    or read.counts_constant != written.counts_constant
                    or read.plan.phases != written.plan.phases
                    or read.plan.setting != written.plan.setting):
                raise CheckFailed("CSV reload differs from the written scan")
        self.bytes_written += sum(p.stat().st_size for p in self.paths)
        return self._check_reconstruction(result, fidelity)


_WORST_DEVIATION = re.compile(r"max \|closed - exact\| = (\S+) over")


class VerifyOracle:
    """``pitomo verify``: exact matrix pipeline against the closed form."""

    def __init__(self, pitomo_mods, seed: int):
        self.m = pitomo_mods
        rng = random.Random(seed)
        self.inputs = [rng.getrandbits(32) for _ in range(POOL_SIZE)]

    def run(self, seed_k: int):
        return self.m.cli.run_verification(VERIFY_TRIALS, seed_k)

    def check(self, seed_k: int, report) -> float:
        if report.get("all_passed") is not True:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            raise ReportedFailure(f"verification failed: {failed}")
        # the op's error: the largest |closed - exact| rate difference it found
        for c in report["checks"]:
            match = _WORST_DEVIATION.search(c["detail"])
            if match:
                return float(match.group(1))
        raise CheckFailed("oracle-equivalence check missing from the report")


WORKLOADS = ("mc_lsq", "dim_fringe_csv", "verify_oracle")


class _Modules:
    """The pitomo modules a workload calls, looked up at call time so that
    the tracer's wrappers are seen."""

    def __init__(self):
        import pitomo.acquisition
        import pitomo.cli
        import pitomo.interferometer
        import pitomo.reconstruct
        import pitomo.states
        self.acquisition = pitomo.acquisition
        self.cli = pitomo.cli
        self.interferometer = pitomo.interferometer
        self.reconstruct = pitomo.reconstruct
        self.states = pitomo.states


def setup(name: str, seed: int, workdir: Path):
    """Import pitomo and generate the workload's inputs."""
    mods = _Modules()
    if name == "mc_lsq":
        return McLsq(mods, seed)
    if name == "dim_fringe_csv":
        return DimFringeCsv(mods, seed, workdir)
    if name == "verify_oracle":
        return VerifyOracle(mods, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
