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

Both routes start from one unconstrained least-squares fit per scan on
the design matrix X = [1, cos phi, sin phi]: its solution theta_hat,
the residuals r at theta_hat, the gradient term g = X^T r and the
Cholesky factor L of the normal matrix G = X^T X = L L^T.  The fringe
route converts that fit into fringe form.  The rate model is linear in
the same basis, so the squared residual of any coefficient vector theta
follows from the fit without another pass over the data:

    |y - X theta|^2 = |r|^2 - 2 d.g + |L^T d|^2,   d = theta - theta_hat,

an identity for any theta_hat (g vanishes at the exact minimizer).
Every Nelder-Mead candidate therefore costs O(1).  The identity is kept
in this centered form, around theta_hat, on purpose.  The expanded form
|y|^2 - 2 theta.X^T y + theta.G theta subtracts terms of order
n^2 * points from each other to leave a residual of order 1; at
n = 10^8 that cancellation loses every significant digit, and the cost
of the bundled noiseless scans came out negative.  The centered form
only ever adds the residual sum to a nonnegative square.  For the same
reason L is built from the centered columns of X rather than from the
rounded entries of G, and when the counts dwarf the residuals, the
residuals are recomputed, rounded once from their exact values.

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

from ._fields import field, items
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


@dataclass(frozen=True)
class _ScanFit:
    """One scan's unconstrained least-squares fit on {1, cos phi, sin phi}.

    ``theta`` = (a, c, s) solves the normal equations G theta = X^T y of
    the design matrix X; ``inv`` is G^-1.  ``ssr`` is the squared
    residual at ``theta`` in plain float arithmetic, which the standard
    errors use.  ``rss`` is the same sum for the cost: equal to ``ssr``,
    or summed from exactly rounded residuals where the plain ones are not
    accurate to 1e-10 of it.  ``grad`` is X^T r for the residuals r that
    ``rss`` sums, which rounding leaves slightly off zero.  ``chol`` holds
    the lower Cholesky factor L of G = L L^T row by row (l00, l10, l11,
    l20, l21, l22).
    """

    m: int
    theta: tuple[float, float, float]
    inv: list[list[float]]
    ssr: float
    rss: float
    grad: tuple[float, float, float]
    chol: tuple[float, float, float, float, float, float]

    def cost(self, a: float, c: float, s: float) -> float:
        """Squared residual at (a, c, s): rss - 2 d.grad + |L^T d|^2.

        d = (a, c, s) - theta; the identity is exact for any theta.
        """
        l00, l10, l11, l20, l21, l22 = self.chol
        da = a - self.theta[0]
        dc = c - self.theta[1]
        ds = s - self.theta[2]
        u0 = l00 * da + l10 * dc + l20 * ds
        u1 = l11 * dc + l21 * ds
        u2 = l22 * ds
        g_a, g_c, g_s = self.grad
        return (self.rss - 2.0 * (da * g_a + dc * g_c + ds * g_s)
                + (u0 * u0 + u1 * u1 + u2 * u2))

    def sinusoid(self) -> SinusoidFit:
        """Fringe form of the fit, with residual-based standard errors."""
        a, c, s = self.theta
        inv = self.inv
        sigma2 = self.ssr / (self.m - 3)
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


def _split(x: float) -> tuple[float, float]:
    """Veltkamp split: x = hi + lo exactly, each half of at most 26 bits."""
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _fit_scan(phases: Sequence[float], counts: Sequence[float]) -> _ScanFit:
    """One pass over the data: normal equations, solution, residual sum.

    Raises FitError when the normal matrix is singular by ``_solve3``'s
    test, i.e. when the grid cannot separate the three basis functions.
    """
    m = len(phases)
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

    c_mean = sc / m
    s_mean = ss / m
    ssr = 0.0
    g_a = g_c = g_s = 0.0
    suu = suv = svv = 0.0
    for k in range(m):
        ck = cos_k[k]
        sk = sin_k[k]
        r = counts[k] - (a + c * ck + s * sk)
        ssr += r * r
        g_a += r
        g_c += r * ck
        g_s += r * sk
        u = ck - c_mean
        v = sk - s_mean
        suu += u * u
        suv += u * v
        svv += v * v

    # Each residual above is off by at most ~4 eps (|a| + |c| + |s|), so
    # rss is off by at most 8 eps (|a| + |c| + |s|) sqrt(m ssr).  When
    # counts dwarf the residuals (large n, near-exact fit) that can exceed
    # 1e-10 of rss; the residuals are then recomputed, rounded once from
    # their exact values: the model is summed from products of 26-bit
    # halves, which are exact.
    rss = ssr
    if ssr == 0.0 or (abs(a) + abs(c) + abs(s)) * math.sqrt(m / ssr) > 1e5:
        c_hi, c_lo = _split(c)
        s_hi, s_lo = _split(s)
        rss = 0.0
        g_a = g_c = g_s = 0.0
        for y, ck, sk in zip(counts, cos_k, sin_k):
            ck_hi, ck_lo = _split(ck)
            sk_hi, sk_lo = _split(sk)
            r = math.fsum((y, -a, -c_hi * ck_hi, -c_hi * ck_lo, -c_lo * ck_hi,
                           -c_lo * ck_lo, -s_hi * sk_hi, -s_hi * sk_lo,
                           -s_lo * sk_hi, -s_lo * sk_lo))
            rss += r * r
            g_a += r
            g_c += r * ck
            g_s += r * sk

    # L from the centered cos and sin columns, i.e. after a Gram-Schmidt
    # step against the constant column: on a narrow grid the pivots l11
    # and l22 are small differences that G's own rounded entries lose
    l00 = math.sqrt(m)
    l11 = math.sqrt(suu)
    l21 = suv / l11
    l22 = math.sqrt(max(0.0, svv - l21 * l21))
    return _ScanFit(m, (a, c, s), inv, ssr, rss, (g_a, g_c, g_s),
                    (l00, sc / l00, l11, ss / l00, l21, l22))


def _check_fringe_grid(phases: Sequence[float], counts: Sequence[float]) -> None:
    m = len(phases)
    if m < 5 or len(counts) != m:
        raise FitError("need at least 5 matched (phase, count) points")
    if max(phases) - min(phases) < math.pi * 0.999:
        raise FitError("phase grid must span at least half a period")


def fit_sinusoid(phases: Sequence[float], counts: Sequence[float]) -> SinusoidFit:
    """Fit counts ~ A + C cos(phi) + S sin(phi) and convert to fringe form."""
    _check_fringe_grid(phases, counts)
    return _fit_scan(phases, counts).sinusoid()


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
        stderr = field(d, "param_stderr", dict, None)
        return cls(
            params=IdlerStateParams.from_json_dict(field(d, "params", dict)),
            rho=DensityMatrix.from_json_dict(field(d, "rho", dict)),
            cost=field(d, "cost", float),
            method=field(d, "method", Method),
            fidelity_vs_reference=field(d, "fidelity_vs_reference", float, None),
            flags=items(d, "flags", str, ()),
            param_stderr=None if stderr is None else {
                key: field(stderr, key, float) for key in ("p_h", "xi", "purity")},
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
    return _extract(scan_h, scan_v, _fit_record(scan_h), _fit_record(scan_v),
                    t_h, t_v)


def _fit_record(record: ScanRecord) -> _ScanFit:
    return _fit_scan(record.plan.phases, record.counts_primary)


def _extract(scan_h: ScanRecord, scan_v: ScanRecord, lsq_h: _ScanFit,
             lsq_v: _ScanFit, t_h: float, t_v: float) -> ReconstructionResult:
    """The fringe route on both scans' least-squares fits."""
    if not (0.0 < t_h <= 1.0 and 0.0 < t_v <= 1.0):
        raise ValueError("calibrated transmissions must lie in (0, 1]")
    _check_fringe_grid(scan_h.plan.phases, scan_h.counts_primary)
    fit_h = lsq_h.sinusoid()
    _check_fringe_grid(scan_v.plan.phases, scan_v.counts_primary)
    fit_v = lsq_v.sinusoid()
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
    cost = _pair_cost(lsq_h, lsq_v, params, t_h, t_v,
                      *_resolve_n(scan_h, scan_v, None))
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

    Both models are linear in the basis {1, cos phi, sin phi}: the H model
    has coefficients (n/3, n/3 t_h sqrt(p_h), 0) and the V model
    (n/3, b cos xi, b sin xi) with b = n/3 purity t_v sqrt(p_v).  Each
    scan's residual is taken from its one least-squares fit in the
    centered form of the module docstring, never from the expanded
    square, which cancels catastrophically at large n.  This call fits
    both scans; :func:`mle_reconstruct` fits them once and then scores
    each candidate in O(1).
    """
    _check_scans(data_h, data_v)
    return _pair_cost(_fit_record(data_h), _fit_record(data_v), candidate,
                      t_h, t_v, *_resolve_n(data_h, data_v, n))


def _pair_cost(lsq_h: _ScanFit, lsq_v: _ScanFit, candidate: IdlerStateParams,
               t_h: float, t_v: float, n_h: float, n_v: float) -> float:
    """:func:`mle_cost` from the two scans' fits and per-point budgets."""
    amp_h = n_h * BALANCED_SOURCE1_WEIGHT
    amp_v = n_v * BALANCED_SOURCE1_WEIGHT
    b_h = amp_h * (t_h * math.sqrt(candidate.p_h))
    b_v = amp_v * (candidate.purity * t_v * math.sqrt(candidate.p_v))
    return (lsq_h.cost(amp_h, b_h, 0.0)
            + lsq_v.cost(amp_v, b_v * math.cos(candidate.xi),
                         b_v * math.sin(candidate.xi)))


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

    Each scan is fitted once, and every cost evaluation reuses the two
    fits.  A phase grid on which that fit's normal equations are
    singular (by ``_solve3``'s determinant test; for instance 5 points
    packed into a few milliradians) cannot identify the state, and is
    refused with FitError, with or without ``init``.  Narrow grids that
    pass the test, such as 5 points over 0.05 rad, are reconstructed
    even though the fringe route refuses any grid shorter than half a
    period; the initial point then falls back to (0.5, pi, 0.5).
    """
    _check_scans(data_h, data_v)
    n_h, n_v = _resolve_n(data_h, data_v, n)
    lsq_h, lsq_v = _fit_record(data_h), _fit_record(data_v)
    if init is None:
        try:
            init = _extract(data_h, data_v, lsq_h, lsq_v, t_h, t_v).params
        except (FitError, CalibrationError):
            init = IdlerStateParams(0.5, math.pi, 0.5)

    def cost_of(vec: Sequence[float]) -> float:
        return _pair_cost(lsq_h, lsq_v, _vector_to_params(vec), t_h, t_v,
                          n_h, n_v)

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
