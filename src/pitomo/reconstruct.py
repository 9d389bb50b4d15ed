"""Recover the undetected photon's polarization state from scan data.

Two routes are provided.  The fringe route fits each scan with a
sinusoid (linear least squares in the basis {1, cos, sin}); each fitted
fringe (c, s) divided by offset*t is a complex amplitude x = (c + is)/k,
x_h or x_v.  One solve finds the least-squares point of the physical ball
|x_h|^2 + |x_v|^2 <= 1, offsets held at their fits (a trust-region
subproblem; More and Sorensen, SIAM J. Sci. Stat. Comput. 4, 553
(1983)): the fit itself with multiplier mu = 0 when it lies inside, else
a point on the sphere with mu > 0, flagged ``purity_bound_active``.  The
state is read from that point: p_h = |x_h|^2, purity = |x_v|/sqrt(1-p_h)
(1 on the sphere), xi = arg x_v - arg x_h.  The route's cost is the
squared residual at the same point, so it, like the state, does not
depend on the scans' phase origin.  The least-squares route minimizes the
total squared residual between both count records and the physically
parametrized rate model over (p_h, xi, purity) with a bounded Nelder-Mead
search.

Both routes start from one unconstrained least-squares fit per scan on
the design matrix X = [1, cos phi, sin phi]: its solution theta_hat,
the residuals r at theta_hat, the gradient term g = X^T r and the
Cholesky factor L of the normal matrix G = X^T X = L L^T.  The fringe
route converts that fit into fringe form.  The rate model is linear in
the same basis, so the squared residual of any coefficient vector theta
follows from the fit without another pass over the data:

    |y - X theta|^2 = |r|^2 - 2 d.g + |L^T d|^2,   d = theta - theta_hat,

an identity for any theta_hat (g vanishes at the exact minimizer).
Every Nelder-Mead candidate therefore costs O(1), and the terms in each
scan's offset, which the search holds fixed, are formed once.  The fit's
grid pass (the cos and sin columns, G^-1 and L) and the fringe route's
half-period test depend on the phases alone and are done once per grid
(``acquisition.once_per_grid``); each scan then costs a counts pass,
X^T y and the residuals.  The identity is kept in this centered form,
around theta_hat, on purpose.  The expanded form
|y|^2 - 2 theta.X^T y + theta.G theta subtracts terms of order
n^2 * points from each other to leave a residual of order 1; at
n = 10^8 that cancellation loses every significant digit, and the cost
of the bundled noiseless scans came out negative.  The centered form
only ever adds the residual sum to a nonnegative square.  For the same
reason L is built from the centered columns of X rather than from the
rounded entries of G, and when the counts dwarf the residuals, the
residuals are recomputed, rounded once from their exact values.

In every source arrangement the H fringe is a (1 + t_h sqrt(p_h) cos phi)
and the V fringe a (1 + purity t_v sqrt(p_v) cos(phi - xi)): t is the
visibility ceiling V_max that ``run_calibration`` measures, a the fitted
offset (fringe route) or n/2 minus the constant detector's mean count
(least-squares route); t = |t| and a = n/3 for balanced sources.  xi is
read against arg t_v - arg t_h - theta, taken as 0; the least-squares H
model, of fringe phase 0, takes arg t_h = 0 too.  Standard errors come
from first-order propagation of the sinusoid fit errors; approximate.
"""

from __future__ import annotations

import cmath
import enum
import math
from array import array
from dataclasses import dataclass
from typing import Optional, Sequence

from ._fields import field, items
from ._kernels import plain_sum
from .acquisition import FLAT_VISIBILITY, ScanRecord, once_per_grid
from .interferometer import SignalSetting
from .states import (DensityMatrix, IdlerStateParams, fidelity_mixed,
                     qubit_state_fidelity, wrap_angle)


class FitError(ValueError):
    """Raised when scan data cannot support the requested fit."""


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


def _inverse3(m: list[list[float]]) -> tuple[tuple[float, float, float], ...]:
    """The inverse of a 3x3 matrix via the adjugate, rows as tuples."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    ca = e * i - f * h
    cb = -(d * i - f * g)
    cc = d * h - e * g
    det = a * ca + b * cb + c * cc
    if abs(det) < 1e-12 * max(1.0, abs(a) ** 3):
        raise FitError("degenerate phase grid: normal equations are singular")
    return (
        (ca / det, -(b * i - c * h) / det, (b * f - c * e) / det),
        (cb / det, (a * i - c * g) / det, -(a * f - c * d) / det),
        (cc / det, -(a * h - b * g) / det, (a * e - b * d) / det),
    )


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
    inv: tuple[tuple[float, float, float], ...]
    ssr: float
    rss: float
    grad: tuple[float, float, float]
    chol: tuple[float, float, float, float, float, float]

    def scorer(self, da: float):
        """``cost(dc, ds)``: the squared residual at theta + d, d = (da, dc,
        ds), rss - 2 d.grad + |L^T d|^2, an identity for any theta; exactly
        rss at d = 0.  The terms in ``da`` are formed once, here."""
        l00, l10, l11, l20, l21, l22 = self.chol
        g_a, g_c, g_s = self.grad
        rss, u0_a, g_da = self.rss, l00 * da, da * g_a

        def cost(dc: float, ds: float) -> float:
            u0 = u0_a + l10 * dc + l20 * ds
            u1, u2 = l11 * dc + l21 * ds, l22 * ds
            return (rss - 2.0 * (g_da + dc * g_c + ds * g_s)
                    + (u0 * u0 + u1 * u1 + u2 * u2))
        return cost

    def sinusoid(self, min_sigma2: float = 0.0) -> SinusoidFit:
        """Fringe form of the fit; the residual variance behind the
        standard errors is floored at ``min_sigma2``."""
        a, c, s = self.theta
        inv = self.inv
        sigma2 = max(self.ssr / (self.m - 3), min_sigma2)
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


def _fit_grid(phases: Sequence[float]) -> tuple:
    """What a fit needs of its phase grid alone: the cos and sin columns,
    G^-1 and the Cholesky factor of G (see :class:`_ScanFit`).

    Raises FitError when the normal matrix is singular by ``_inverse3``'s
    test, i.e. when the grid cannot separate the three basis functions.
    """
    m = len(phases)
    cos_k = tuple(math.cos(p) for p in phases)
    sin_k = tuple(math.sin(p) for p in phases)
    # each sum left to right from 0.0, as plain_sum does, and so the same
    # bits on every Python
    sc = ss = scc = sss = scs = 0.0
    for ck, sk in zip(cos_k, sin_k):
        sc += ck
        ss += sk
        scc += ck * ck
        sss += sk * sk
        scs += ck * sk
    inv = _inverse3([[float(m), sc, ss], [sc, scc, scs], [ss, scs, sss]])

    # L from the centered cos and sin columns, i.e. after a Gram-Schmidt
    # step against the constant column: on a narrow grid the pivots l11
    # and l22 are small differences that G's own rounded entries lose
    c_mean = sc / m
    s_mean = ss / m
    suu = suv = svv = 0.0
    for ck, sk in zip(cos_k, sin_k):
        u = ck - c_mean
        v = sk - s_mean
        suu += u * u
        suv += u * v
        svv += v * v
    l00 = math.sqrt(m)
    l11 = math.sqrt(suu)
    l21 = suv / l11
    l22 = math.sqrt(max(0.0, svv - l21 * l21))
    return cos_k, sin_k, inv, (l00, sc / l00, l11, ss / l00, l21, l22)


def _fit_scan(phases: Sequence[float], counts: Sequence[float],
              grid: tuple | None = None) -> _ScanFit:
    """The grid's part, ``grid`` or from :func:`_fit_grid`, then one pass
    over the counts for X^T y and one for the residuals at G^-1 X^T y.

    Raises FitError on a singular grid, as :func:`_fit_grid`.
    """
    cos_k, sin_k, inv, chol = grid or once_per_grid(_fit_grid, phases)
    m = len(cos_k)
    # integer counts sum exactly and are rounded once
    syc = sys_ = 0.0
    sy = 0
    for y, ck, sk in zip(counts, cos_k, sin_k):
        sy += y
        syc += y * ck
        sys_ += y * sk
    y0 = float(sy)
    # theta = G^-1 X^T y, each row summed from 0.0 as plain_sum would
    a, c, s = [0.0 + i0 * y0 + i1 * syc + i2 * sys_ for i0, i1, i2 in inv]

    ssr = 0.0
    g_a = g_c = g_s = 0.0
    for y, ck, sk in zip(counts, cos_k, sin_k):
        r = y - (a + c * ck + s * sk)
        ssr += r * r
        g_a += r
        g_c += r * ck
        g_s += r * sk

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
    return _ScanFit(m, (a, c, s), inv, ssr, rss, (g_a, g_c, g_s), chol)


def _check_fringe_grid(phases: Sequence[float], counts: Sequence[float]) -> None:
    m = len(phases)
    if m < 5 or len(counts) != m:
        raise FitError("need at least 5 matched (phase, count) points")
    if once_per_grid(_span, phases)[0] < math.pi * 0.999:
        raise FitError("phase grid must span at least half a period")


def _span(phases: Sequence[float]) -> tuple[float]:
    """The extent of the grid, for the half-period test."""
    return (max(phases) - min(phases),)


def fit_sinusoid(phases: Sequence[float], counts: Sequence[float], *,
                 min_sigma2: float = 0.0) -> SinusoidFit:
    """Fit counts ~ A + C cos(phi) + S sin(phi) and convert to fringe form."""
    _check_fringe_grid(phases, counts)
    return _fit_scan(phases, counts).sinusoid(min_sigma2)


@dataclass
class ReconstructionResult:
    """Recovered parameters, the assembled state, and fit diagnostics.

    ``cost`` is the squared residual of both count records at the result:
    on the fringe route at its ball solution, whatever the scans' phase
    origin, and on the least-squares route the objective it minimized.
    Fringe-route ``flags``: ``purity_bound_active`` (the fit lay outside the
    physical ball, the solve's multiplier mu > 0; the result is its
    least-squares point on the sphere) and ``xi_undefined`` (a fringe is
    flat within 3 sigma; xi reads 0).  A non-finite ``param_stderr`` entry
    (xi's when it is undefined, purity's when p_v < 1e-9) is written as
    JSON null, which reads back as inf; a missing entry is an error."""

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
            "param_stderr": None if self.param_stderr is None else {
                key: value if math.isfinite(value) else None
                for key, value in self.param_stderr.items()},
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
                key: math.inf if stderr.get(key, 0.0) is None
                else field(stderr, key, float) for key in ("p_h", "xi", "purity")},
        )


def _fits(scan_h: ScanRecord, scan_v: ScanRecord) -> tuple[_ScanFit, _ScanFit]:
    """Each scan's least-squares fit, once the settings are checked; two
    grids of the same float64 bits share one grid pass, held or not."""
    if scan_h.plan.setting is not SignalSetting.H:
        raise ValueError("scan_h must come from the H signal setting")
    if scan_v.plan.setting is not SignalSetting.V:
        raise ValueError("scan_v must come from the V signal setting")
    ph, pv = scan_h.plan.phases, scan_v.plan.phases
    same = pv is ph or array("d", pv).tobytes() == array("d", ph).tobytes()
    grid = once_per_grid(_fit_grid, ph) if same else None
    return (_fit_scan(ph, scan_h.counts_primary, grid),
            _fit_scan(pv, scan_v.counts_primary, grid))


def extract_parameters(scan_h: ScanRecord, scan_v: ScanRecord,
                       t_h: float, t_v: float) -> ReconstructionResult:
    """Fringe-route reconstruction: fit, calibrate, solve on the physical ball.

    One ball solve gives the state: the fit itself when it lies inside the
    ball, else its least-squares point on the sphere (purity 1), flagged
    ``purity_bound_active`` exactly when the solve's multiplier is
    positive.  The cost is the squared residual at that solution, the
    offsets at their fits; it does not depend on the scans' phase origin,
    and inside the ball it is the two fits' own residual.  FitError: a
    grid under half a period, an offset <= 0, or offset*t out of range.
    """
    return _extract(scan_h, scan_v, *_fits(scan_h, scan_v), t_h, t_v)


def _extract(scan_h: ScanRecord, scan_v: ScanRecord, lsq_h: _ScanFit,
             lsq_v: _ScanFit, t_h: float, t_v: float) -> ReconstructionResult:
    """The fringe route on both scans' least-squares fits."""
    for scan in (scan_h, scan_v):
        _check_fringe_grid(scan.plan.phases, scan.counts_primary)
    fit_h, fit_v = lsq_h.sinusoid(), lsq_v.sinusoid()
    _check_scale(fit_h.offset, t_h)
    _check_scale(fit_v.offset, t_v)
    lsqs, scales = (lsq_h, lsq_v), (fit_h.offset * t_h, fit_v.offset * t_v)
    blocks = [_ball_block(lsq, k) for lsq, k in zip(lsqs, scales)]
    (x_h, x_v), mu = _ball_solve(blocks)
    flags = ["purity_bound_active"] if mu > 0.0 else []
    p_h = min(1.0, abs(x_h) ** 2)
    p_v = 1.0 - p_h
    # inside the ball, rounding can put |x_v| an ulp above sqrt(p_v)
    purity = 1.0 if mu > 0.0 or p_v == 0.0 else min(1.0, abs(x_v) / math.sqrt(p_v))
    xi = wrap_angle(cmath.phase(x_v) - cmath.phase(x_h))
    # the residual at the solution: offsets at their fits, each fringe a
    # step k (x - c) from its fit, which is none inside the ball
    cost = 0.0
    for lsq, k, x, (_, c) in zip(lsqs, scales, (x_h, x_v), blocks):
        d = k * (x - c)
        cost += lsq.scorer(0.0)(d.real, d.imag)

    if any(f.amplitude <= 3.0 * f.amplitude_stderr + FLAT_VISIBILITY * f.offset
           for f in (fit_h, fit_v)):
        xi, xi_err = 0.0, math.inf
        flags.append("xi_undefined")
    else:
        xi_err = math.sqrt(fit_h.phase_stderr ** 2 + fit_v.phase_stderr ** 2)

    params = IdlerStateParams(p_h, xi, purity)
    ratio_h, sig_h = fit_h.visibility / t_h, fit_h.visibility_stderr / t_h
    ratio_v, sig_v = fit_v.visibility / t_v, fit_v.visibility_stderr / t_v
    stderr = {"p_h": 2.0 * ratio_h * sig_h, "xi": xi_err,
              "purity": (math.inf if p_v < 1e-9 else math.sqrt(
                  (sig_v / math.sqrt(p_v)) ** 2
                  + (0.5 * ratio_v * p_v ** -1.5 * 2.0 * ratio_h * sig_h) ** 2))}
    return ReconstructionResult(params, params.to_density_matrix(), cost,
                                Method.FRINGE, flags=tuple(flags),
                                param_stderr=stderr)


def _check_scale(a: float, t: float) -> None:
    """Refuse an offset a <= 0, or a*t whose square under- or overflows."""
    if not a > 0.0:
        raise FitError(f"the scan's offset {a!r} is not positive; no usable signal")
    if not 1e-150 < a * t < 1e150:
        raise FitError(f"the calibrated transmission puts the fringe scale "
                       f"offset*t = {a * t!r} outside [1e-150, 1e150]")


def _ball_block(lsq: _ScanFit, k: float) -> tuple[tuple[float, float, float], complex]:
    """(k^2 G[1:, 1:], (c + is)/k): the scan's cost in x = (c + is)/k, offset fixed."""
    _, l10, l11, l20, l21, l22 = lsq.chol
    return ((k * k * (l10 * l10 + l11 * l11), k * k * (l10 * l20 + l11 * l21),
             k * k * (l20 * l20 + l21 * l21 + l22 * l22)),
            complex(lsq.theta[1], lsq.theta[2]) / k)


def _ball_solve(blocks: list) -> tuple[list[complex], float]:
    """Blocks of x and mu minimizing sum_b (x_b - c_b)^T A_b (x_b - c_b) over
    |x| <= 1, ``blocks`` ((A11, A12, A22), c_b) with A_b > 0 and 2-vectors as
    complex x1 + i x2: x(mu) = (A + mu I)^-1 A c.  The centres themselves and
    mu = 0 when sum_b |c_b|^2 <= 1, else Newton on 1/|x(mu)| - 1 from 0 until
    ||x| - 1| <= 4e-16 or a step < 1e-15 mu."""
    if plain_sum(abs(c) ** 2 for _, c in blocks) <= 1.0:
        return [c for _, c in blocks], 0.0
    rot, lams, betas = [], [], []  # eigenbasis per block; eigenvalue, c per axis
    for (a11, a12, a22), c in blocks:
        rot.append(cmath.exp(0.5j * math.atan2(2.0 * a12, a11 - a22)))
        for u in (rot[-1], 1j * rot[-1]):
            lams.append(a11 * u.real ** 2 + 2.0 * a12 * u.real * u.imag + a22 * u.imag ** 2)
            betas.append(u.real * c.real + u.imag * c.imag)
    mu = 0.0
    while True:
        z = [beta / (1.0 + mu / lam) for lam, beta in zip(lams, betas)]
        norm = math.hypot(*z)
        step = (norm - 1.0) / plain_sum((zi / norm) ** 2 / (lam + mu)
                                        for zi, lam in zip(z, lams))
        if not (abs(norm - 1.0) > 4e-16 and step > 1e-15 * mu):
            return [u * complex(*z[2 * i:2 * i + 2]) for i, u in enumerate(rot)], mu
        mu += step


def _constant_offset(record: ScanRecord) -> float:
    """n/2 minus the constant detector's mean count, rounded once."""
    m = len(record.counts_constant)
    n = record.plan.counts_per_point
    return (n * m - 2 * sum(record.counts_constant)) / (2 * m)


def _objective(lsq_h: _ScanFit, lsq_v: _ScanFit, t_h: float, t_v: float,
               a_h: float, a_v: float):
    """``cost_of(vec)``: both scans' squared residual against the rate model
    (module docstring) at p_h = fold vec[0], xi = wrap vec[1] and purity =
    fold vec[2], offsets a_h and a_v.  The model is linear in {1, cos phi,
    sin phi}, so each residual is its fit's centered form, one scorer per
    scan, built here once for its fixed offset."""
    (ah, ch, sh), (av, cv, sv) = lsq_h.theta, lsq_v.theta
    cost_h, cost_v = lsq_h.scorer(a_h - ah), lsq_v.scorer(a_v - av)

    def cost_of(vec: Sequence[float]) -> float:
        p_h, xi = _fold01(vec[0]), wrap_angle(vec[1])
        b_h = a_h * (t_h * math.sqrt(p_h))
        b_v = a_v * (_fold01(vec[2]) * t_v * math.sqrt(1.0 - p_h))
        return (cost_h(b_h - ch, -sh)
                + cost_v(b_v * math.cos(xi) - cv, b_v * math.sin(xi) - sv))
    return cost_of


def _fold01(x: float) -> float:
    """Reflect an unconstrained coordinate into [0, 1]."""
    y = math.fmod(abs(x), 2.0)
    return 2.0 - y if y > 1.0 else y


def _vector_to_params(v: Sequence[float]) -> IdlerStateParams:
    return IdlerStateParams(_fold01(v[0]), wrap_angle(v[1]), _fold01(v[2]))


def _nelder_mead(fn, x0, steps, maxfev=10000, tol=1e-9):
    """Plain Nelder-Mead in three coordinates, the (p_h, xi, purity) that
    ``_mle`` searches; returns (best_x, best_f, nfev, converged).

    The generic n-dimensional method's arithmetic, written out per
    coordinate: the same float operations in the same order (the centroid
    summed from 0.0, the stable sort on the values), so every point, value
    and count keeps its bits.  The diameter test compares coordinate by
    coordinate, which on finite points is the verdict of the max.
    """
    p, q, r = x0
    simplex = [[p, q, r], [p + steps[0], q, r], [p, q + steps[1], r],
               [p, q, r + steps[2]]]
    fvals = [fn(v) for v in simplex]
    nfev = 4

    while nfev < maxfev:
        i0, i1, i2, i3 = sorted(range(4), key=fvals.__getitem__)
        best, v1, v2, (w0, w1, w2) = (simplex[i0], simplex[i1], simplex[i2],
                                      simplex[i3])
        f0, f1, f2, f3 = fvals[i0], fvals[i1], fvals[i2], fvals[i3]
        a0, a1, a2 = best
        b0, b1, b2 = v1
        c0, c1, c2 = v2
        if (abs(b0 - a0) < tol and abs(b1 - a1) < tol and abs(b2 - a2) < tol
                and abs(c0 - a0) < tol and abs(c1 - a1) < tol and abs(c2 - a2) < tol
                and abs(w0 - a0) < tol and abs(w1 - a1) < tol and abs(w2 - a2) < tol):
            return best, f0, nfev, True
        m0 = (0.0 + a0 + b0 + c0) / 3
        m1 = (0.0 + a1 + b1 + c1) / 3
        m2 = (0.0 + a2 + b2 + c2) / 3
        x = [2.0 * m0 - w0, 2.0 * m1 - w1, 2.0 * m2 - w2]  # reflect the worst
        f = fn(x)
        nfev += 1
        if f < f0:
            expa = [3.0 * m0 - 2.0 * w0, 3.0 * m1 - 2.0 * w1, 3.0 * m2 - 2.0 * w2]
            f_e = fn(expa)
            nfev += 1
            if f_e < f:
                x, f = expa, f_e
        elif not f < f2:  # no better than the second-worst (or NaN): contract
            contr = [0.5 * (m0 + w0), 0.5 * (m1 + w1), 0.5 * (m2 + w2)]
            f_c = fn(contr)
            nfev += 1
            if f_c < f3:
                x, f = contr, f_c
            else:  # shrink towards the best vertex
                simplex = [best, [0.5 * (b0 + a0), 0.5 * (b1 + a1), 0.5 * (b2 + a2)],
                           [0.5 * (c0 + a0), 0.5 * (c1 + a1), 0.5 * (c2 + a2)],
                           [0.5 * (w0 + a0), 0.5 * (w1 + a1), 0.5 * (w2 + a2)]]
                fvals = [f0, fn(simplex[1]), fn(simplex[2]), fn(simplex[3])]
                nfev += 3
                continue
        simplex = [best, v1, v2, x]
        fvals = [f0, f1, f2, f]
    i0 = sorted(range(4), key=fvals.__getitem__)[0]
    return simplex[i0], fvals[i0], nfev, False


def mle_reconstruct(data_h: ScanRecord, data_v: ScanRecord,
                    t_h: float, t_v: float) -> ReconstructionResult:
    """Least-squares reconstruction over (p_h, xi, purity).

    Nelder-Mead (:func:`_nelder_mead`) on :func:`_objective` over the box
    [0,1] x [0,2pi) x [0,1], from :func:`extract_parameters`, or from
    (0.5, pi, 0.5) where that raises FitError (a grid under half a period).
    It restarts once from a shifted simplex if it converged with a vanishing
    V fringe, where the phase is degenerate.  Raises ConvergenceError
    (carrying the best point) after 10^4 evaluations.

    Each scan is fitted once and scored on plain floats.  FitError refuses
    a singular grid (``_inverse3``'s determinant test, e.g. 5 points within
    a few milliradians), an offset <= 0 and an offset*t out of range.
    """
    return _mle(data_h, data_v, *_fits(data_h, data_v), t_h, t_v)


def _mle(data_h: ScanRecord, data_v: ScanRecord, lsq_h: _ScanFit,
         lsq_v: _ScanFit, t_h: float, t_v: float) -> ReconstructionResult:
    """The least-squares route on both scans' least-squares fits."""
    a_h, a_v = _constant_offset(data_h), _constant_offset(data_v)
    _check_scale(a_h, t_h)
    _check_scale(a_v, t_v)
    try:
        init = _extract(data_h, data_v, lsq_h, lsq_v, t_h, t_v).params
        x0 = [init.p_h, init.xi, init.purity]
    except FitError:
        x0 = [0.5, math.pi, 0.5]

    cost_of = _objective(lsq_h, lsq_v, t_h, t_v, a_h, a_v)
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


def _sweep_point(scan_h: ScanRecord, scan_v: ScanRecord, t_h: float, t_v: float,
                 mle: bool) -> tuple[ReconstructionResult, float, float]:
    """A reconstruction and both scans' fitted visibilities, from one fit
    per scan; FitError as :func:`mle_reconstruct`, resp.
    :func:`extract_parameters`, which alone needs half a period."""
    lsq_h, lsq_v = _fits(scan_h, scan_v)
    result = (_mle if mle else _extract)(scan_h, scan_v, lsq_h, lsq_v, t_h, t_v)
    return result, lsq_h.sinusoid().visibility, lsq_v.sinusoid().visibility


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
