"""Recover the undetected photon's polarization state from scan data.

Two routes are provided.  The fringe route fits each scan with a
sinusoid (linear least squares in the basis {1, cos, sin}), divides the
fitted visibilities by the calibrated transmissions, and reads the
state parameters off the closed-form visibility laws; the phase offset
between the two fringes gives the coherence phase.  The least-squares
route minimizes the total squared residual between both count records
and the physically parametrized rate model over (p_h, xi, purity) with
a bounded Nelder-Mead search, which yields a valid density matrix by
construction.

Both routes assume the balanced source arrangement (reference weights
1:2, even reference polarizations, zero reference phase), which is the
arrangement the rate model is reduced for.  The CLI's ``reconstruct``
and ``sweep`` refuse, with exit code 3, a scan truth or configuration
that ``InterferometerConfig.is_balanced`` rejects, the check
``run_calibration`` makes too.  Standard errors on
extracted parameters come from first-order propagation of the sinusoid
fit errors and are approximate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _kernels as _k
from .acquisition import ScanRecord
from .interferometer import SignalSetting
from .qcore import DensityMatrix, fidelity_mixed, qubit_state_fidelity
from .states import IdlerStateParams, wrap_angle

TWO_PI = 2.0 * math.pi

BALANCED_SOURCE1_WEIGHT = 1.0 / 3.0


class FitError(ValueError):
    """Raised when scan data cannot support the requested fit."""


class CalibrationError(ValueError):
    """Raised when a visibility exceeds its calibrated maximum."""


class ConvergenceError(RuntimeError):
    """Minimizer ran out of budget; carries the best result found."""

    def __init__(self, message: str, best: "ReconstructionResult"):
        super().__init__(message)
        self.best = best


class Method(str, enum.Enum):
    FRINGE = "fringe_extraction"
    MLE = "mle"


@dataclass
class SinusoidFit:
    """Least-squares parameters of counts ~ offset*(1 + ...) fringe.

    Model: offset + amplitude * cos(phi + phase); visibility is
    amplitude/offset.  Standard errors are residual-based; the fringe
    phase error is infinite when the amplitude is indistinguishable
    from zero.
    """

    offset: float
    amplitude: float
    phase: float
    visibility: float
    offset_stderr: float
    amplitude_stderr: float
    phase_stderr: float
    visibility_stderr: float


def _solve3(m: list[list[float]], rhs: list[float]) -> tuple[list[float], list[list[float]]]:
    """Solve the 3x3 system and return (solution, inverse) via the adjugate."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    ca = e * i - f * h
    cb = -(d * i - f * g)
    cc = d * h - e * g
    det = a * ca + b * cb + c * cc
    if abs(det) < 1e-12 * max(1.0, abs(a) ** 3):
        raise FitError("degenerate phase grid: normal equations are singular")
    inv = [
        [ca / det, -(b * i - c * h) / det, (b * f - c * e) / det],
        [cb / det, (a * i - c * g) / det, -(a * f - c * d) / det],
        [cc / det, -(a * h - b * g) / det, (a * e - b * d) / det],
    ]
    sol = [sum(inv[r][k] * rhs[k] for k in range(3)) for r in range(3)]
    return sol, inv


def fit_sinusoid(phases: Sequence[float], counts: Sequence[float]) -> SinusoidFit:
    """Fit counts ~ A + C cos(phi) + S sin(phi) and convert to fringe form."""
    m = len(phases)
    if m < 5 or len(counts) != m:
        raise FitError("need at least 5 matched (phase, count) points")
    if max(phases) - min(phases) < math.pi * 0.999:
        raise FitError("phase grid must span at least half a period")
    cos_k = [math.cos(p) for p in phases]
    sin_k = [math.sin(p) for p in phases]
    sc = sum(cos_k)
    ss = sum(sin_k)
    scc = sum(c * c for c in cos_k)
    sss = sum(s * s for s in sin_k)
    scs = sum(c * s for c, s in zip(cos_k, sin_k))
    sy = float(sum(counts))
    syc = sum(y * c for y, c in zip(counts, cos_k))
    sys_ = sum(y * s for y, s in zip(counts, sin_k))
    normal = [[float(m), sc, ss], [sc, scc, scs], [ss, scs, sss]]
    (a, c, s), inv = _solve3(normal, [sy, syc, sys_])

    ssr = 0.0
    for k in range(m):
        r = counts[k] - (a + c * cos_k[k] + s * sin_k[k])
        ssr += r * r
    sigma2 = ssr / (m - 3)
    var_a = max(0.0, sigma2 * inv[0][0])
    var_c = max(0.0, sigma2 * inv[1][1])
    var_s = max(0.0, sigma2 * inv[2][2])
    cov_cs = sigma2 * inv[1][2]

    b = math.sqrt(c * c + s * s)
    delta = wrap_angle(math.atan2(-s, c))
    if a <= 0.0:
        raise FitError("fitted offset is not positive; no usable signal")
    if b > 1e-12 * a:
        var_b = (c * c * var_c + s * s * var_s + 2.0 * c * s * cov_cs) / (b * b)
        var_d = (s * s * var_c + c * c * var_s - 2.0 * c * s * cov_cs) / (b ** 4)
        b_err = math.sqrt(max(0.0, var_b))
        d_err = math.sqrt(max(0.0, var_d))
    else:
        b_err = math.sqrt(max(var_c, var_s))
        d_err = math.inf
    a_err = math.sqrt(var_a)
    vis = b / a
    vis_err = math.sqrt((b_err / a) ** 2 + (b * a_err / (a * a)) ** 2)
    return SinusoidFit(a, b, delta, vis, a_err, b_err, d_err, vis_err)


@dataclass
class ReconstructionResult:
    """Recovered parameters, the assembled state, and fit diagnostics."""

    params: IdlerStateParams
    rho: DensityMatrix
    cost: float
    method: Method
    fidelity_vs_reference: Optional[float] = None
    flags: tuple[str, ...] = ()
    param_stderr: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "rho": self.rho.to_json_dict(),
            "cost": self.cost,
            "method": self.method.value,
            "fidelity_vs_reference": self.fidelity_vs_reference,
            "flags": list(self.flags),
            "param_stderr": self.param_stderr,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ReconstructionResult":
        return cls(
            params=IdlerStateParams.from_json_dict(d["params"]),
            rho=DensityMatrix.from_json_dict(d["rho"]),
            cost=float(d["cost"]),
            method=Method(d["method"]),
            fidelity_vs_reference=d.get("fidelity_vs_reference"),
            flags=tuple(d.get("flags") or ()),
            param_stderr=d.get("param_stderr"),
        )


def _check_scans(scan_h: ScanRecord, scan_v: ScanRecord) -> None:
    if scan_h.plan.setting is not SignalSetting.H:
        raise ValueError("scan_h must come from the H signal setting")
    if scan_v.plan.setting is not SignalSetting.V:
        raise ValueError("scan_v must come from the V signal setting")


def extract_parameters(scan_h: ScanRecord, scan_v: ScanRecord,
                       t_h: float, t_v: float) -> ReconstructionResult:
    """Fringe-route reconstruction: fit, calibrate, invert the visibility laws.

    Out-of-range intermediate values within their 3-sigma fit bands are
    clamped into the physical box and flagged; beyond that they raise
    CalibrationError (visibility above its calibrated maximum) or
    FitError (coherence seen where the H population leaves no room).
    """
    _check_scans(scan_h, scan_v)
    if not (0.0 < t_h <= 1.0 and 0.0 < t_v <= 1.0):
        raise ValueError("calibrated transmissions must lie in (0, 1]")
    fit_h = fit_sinusoid(scan_h.plan.phases, scan_h.counts_primary)
    fit_v = fit_sinusoid(scan_v.plan.phases, scan_v.counts_primary)
    flags: list[str] = []

    # 1e-6 absolute slack: count rounding biases noiseless fits where the
    # residual-based stderr is ~0
    ratio_h = fit_h.visibility / t_h
    sig_h = fit_h.visibility_stderr / t_h
    if ratio_h > 1.0 + 3.0 * sig_h + 1e-6:
        raise CalibrationError(
            f"H visibility {fit_h.visibility:.4f} exceeds calibration {t_h:.4f}")
    p_h = ratio_h * ratio_h
    if p_h > 1.0:
        p_h = 1.0
        flags.append("p_h_clamped")
    p_v = 1.0 - p_h

    ratio_v = fit_v.visibility / t_v
    sig_v = fit_v.visibility_stderr / t_v
    if p_v < 1e-9:
        if ratio_v > max(3.0 * sig_v, 1e-9):
            raise FitError(
                "V-fringe visibility is significant although the H population "
                "saturates; data are inconsistent with the rate model")
        purity = 1.0
        flags.append("coherence_unconstrained")
    else:
        if ratio_v / math.sqrt(p_v) > 1.0 + 3.0 * (sig_v / math.sqrt(p_v)) + 1e-6:
            raise CalibrationError(
                f"V visibility {fit_v.visibility:.4f} exceeds its maximum "
                f"{t_v * math.sqrt(p_v):.4f} for the extracted populations")
        purity = ratio_v / math.sqrt(p_v)
        if purity > 1.0:
            purity = 1.0
            flags.append("coherence_clamped")

    h_flat = fit_h.amplitude <= 3.0 * fit_h.amplitude_stderr + 1e-9 * fit_h.offset
    v_flat = fit_v.amplitude <= 3.0 * fit_v.amplitude_stderr + 1e-9 * fit_v.offset
    if h_flat or v_flat:
        xi = 0.0
        xi_err = math.inf
        flags.append("xi_undefined")
    else:
        xi = wrap_angle(fit_h.phase - fit_v.phase)
        xi_err = math.sqrt(fit_h.phase_stderr ** 2 + fit_v.phase_stderr ** 2)

    params = IdlerStateParams(p_h, xi, purity)
    stderr = {
        "p_h": 2.0 * ratio_h * sig_h,
        "xi": xi_err,
        "purity": (math.inf if p_v < 1e-9 else math.sqrt(
            (sig_v / math.sqrt(p_v)) ** 2
            + (0.5 * ratio_v * p_v ** -1.5 * 2.0 * ratio_h * sig_h) ** 2)),
    }
    cost = mle_cost(scan_h, scan_v, params, t_h, t_v)
    return ReconstructionResult(params, params.to_density_matrix(), cost,
                                Method.FRINGE, flags=tuple(flags),
                                param_stderr=stderr)


def _resolve_n(data_h: ScanRecord, data_v: ScanRecord,
               n: int | tuple[int, int] | None) -> tuple[float, float]:
    if n is None:
        return (float(data_h.plan.counts_per_point),
                float(data_v.plan.counts_per_point))
    if isinstance(n, tuple):
        return float(n[0]), float(n[1])
    return float(n), float(n)


def mle_cost(data_h: ScanRecord, data_v: ScanRecord,
             candidate: IdlerStateParams, t_h: float, t_v: float,
             n: int | tuple[int, int] | None = None) -> float:
    """Total squared residual of both count records against the rate model.

    The model is the balanced closed form: expected H counts
    n/3 * (1 + t_h sqrt(p_h) cos phi), expected V counts
    n/3 * (1 + purity t_v sqrt(p_v) cos(phi - xi)).  ``n`` defaults to
    each record's own per-point budget and may be overridden by a single
    value or an (n_h, n_v) pair.
    """
    _check_scans(data_h, data_v)
    n_h, n_v = _resolve_n(data_h, data_v, n)
    vis_h = t_h * math.sqrt(candidate.p_h)
    vis_v = candidate.purity * t_v * math.sqrt(candidate.p_v)
    cost_h = _k.sinusoid_sq_residual(
        list(data_h.plan.phases), list(data_h.counts_primary),
        n_h * BALANCED_SOURCE1_WEIGHT, vis_h, 0.0)
    cost_v = _k.sinusoid_sq_residual(
        list(data_v.plan.phases), list(data_v.counts_primary),
        n_v * BALANCED_SOURCE1_WEIGHT, vis_v, -candidate.xi)
    return cost_h + cost_v


def _fold01(x: float) -> float:
    """Reflect an unconstrained coordinate into [0, 1]."""
    y = math.fmod(abs(x), 2.0)
    return 2.0 - y if y > 1.0 else y


def _vector_to_params(v: Sequence[float]) -> IdlerStateParams:
    return IdlerStateParams(_fold01(v[0]), wrap_angle(v[1]), _fold01(v[2]))


def _nelder_mead(fn, x0, steps, maxfev=10000, tol=1e-9):
    """Plain Nelder-Mead; returns (best_x, best_f, nfev, converged)."""
    ndim = len(x0)
    simplex = [list(x0)]
    for i in range(ndim):
        v = list(x0)
        v[i] += steps[i]
        simplex.append(v)
    fvals = [fn(v) for v in simplex]
    nfev = ndim + 1

    while nfev < maxfev:
        order = sorted(range(ndim + 1), key=fvals.__getitem__)
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]
        diam = max(max(abs(simplex[i][d] - simplex[0][d]) for d in range(ndim))
                   for i in range(1, ndim + 1))
        if diam < tol:
            return simplex[0], fvals[0], nfev, True
        centroid = [sum(simplex[i][d] for i in range(ndim)) / ndim
                    for d in range(ndim)]
        worst = simplex[ndim]
        refl = [2.0 * centroid[d] - worst[d] for d in range(ndim)]
        f_r = fn(refl)
        nfev += 1
        if f_r < fvals[0]:
            expa = [3.0 * centroid[d] - 2.0 * worst[d] for d in range(ndim)]
            f_e = fn(expa)
            nfev += 1
            if f_e < f_r:
                simplex[ndim], fvals[ndim] = expa, f_e
            else:
                simplex[ndim], fvals[ndim] = refl, f_r
        elif f_r < fvals[ndim - 1]:
            simplex[ndim], fvals[ndim] = refl, f_r
        else:
            contr = [0.5 * (centroid[d] + worst[d]) for d in range(ndim)]
            f_c = fn(contr)
            nfev += 1
            if f_c < fvals[ndim]:
                simplex[ndim], fvals[ndim] = contr, f_c
            else:
                for i in range(1, ndim + 1):
                    simplex[i] = [0.5 * (simplex[i][d] + simplex[0][d])
                                  for d in range(ndim)]
                    fvals[i] = fn(simplex[i])
                nfev += ndim
    order = sorted(range(ndim + 1), key=fvals.__getitem__)
    return simplex[order[0]], fvals[order[0]], nfev, False


def mle_reconstruct(data_h: ScanRecord, data_v: ScanRecord,
                    t_h: float, t_v: float,
                    n: int | tuple[int, int] | None = None,
                    init: Optional[IdlerStateParams] = None) -> ReconstructionResult:
    """Least-squares reconstruction over (p_h, xi, purity).

    Nelder-Mead on the residual of :func:`mle_cost`, with the search
    box [0,1] x [0,2pi) x [0,1] enforced by reflection/wrapping of the
    coordinates.  Seeds from :func:`extract_parameters` when no initial
    point is given; restarts once from a shifted simplex if the first
    pass converged with a vanishing V fringe, where the phase is
    degenerate.  Raises ConvergenceError (carrying the best point) if
    the evaluation budget of 10^4 is exhausted first.
    """
    _check_scans(data_h, data_v)
    if init is None:
        try:
            init = extract_parameters(data_h, data_v, t_h, t_v).params
        except (FitError, CalibrationError):
            init = IdlerStateParams(0.5, math.pi, 0.5)

    def cost_of(vec: Sequence[float]) -> float:
        return mle_cost(data_h, data_v, _vector_to_params(vec), t_h, t_v, n)

    x0 = [init.p_h, init.xi, init.purity]
    best_x, best_f, nfev, converged = _nelder_mead(
        cost_of, x0, steps=(0.08, 0.4, 0.08))
    params = _vector_to_params(best_x)

    if converged and params.purity * t_v * math.sqrt(params.p_v) < 1e-6:
        x1 = [min(0.9, max(0.1, params.p_h)), wrap_angle(params.xi + 0.5 * math.pi),
              max(0.5, params.purity)]
        alt_x, alt_f, nfev2, conv2 = _nelder_mead(
            cost_of, x1, steps=(0.15, 0.8, 0.15))
        nfev += nfev2
        if conv2 and alt_f < best_f:
            best_x, best_f = alt_x, alt_f
            params = _vector_to_params(best_x)

    result = ReconstructionResult(params, params.to_density_matrix(),
                                  best_f, Method.MLE)
    if not converged:
        raise ConvergenceError(
            f"minimizer exhausted {nfev} evaluations without converging", result)
    return result


def report_fidelity(result: ReconstructionResult,
                    reference: IdlerStateParams) -> float:
    """Fidelity of the reconstructed state against a reference preparation.

    Pure reference: overlap of the reference ket with the reconstructed
    matrix (the squared inner product when the result is pure too).
    Mixed reference: the two-level closed-form state fidelity.  The
    value is stored on the result and returned.
    """
    if reference.purity >= 1.0 - 1e-12:
        f = fidelity_mixed(result.rho, reference.state_vector())
    else:
        f = qubit_state_fidelity(result.rho, reference.to_density_matrix())
    result.fidelity_vs_reference = f
    return f
