"""Fringe fitting, parameter extraction, and least-squares reconstruction."""

import cmath
import math
from array import array
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pitomo import reconstruct
from pitomo._kernels import Rng, plain_sum
from pitomo.acquisition import (ScanPlan, ScanRecord, calibration_from_json,
                                load_scan, run_scan)
from pitomo.interferometer import InterferometerConfig, SignalSetting
from pitomo.reconstruct import (ConvergenceError, FitError, Method,
                                _ball_block, _ball_solve, _constant_offset,
                                _fit_scan, _fits, _fold01, _nelder_mead,
                                _objective,
                                extract_parameters, fit_sinusoid,
                                mle_reconstruct, report_fidelity)
from pitomo.states import IdlerStateParams, wrap_angle
from conftest import count_grids, digest, wrap_distance

DATA = Path(__file__).resolve().parent / "data"
TWO_PI = 2.0 * math.pi
GRID_20 = [TWO_PI * k / 20 for k in range(20)]
BIG_N = 10 ** 8


def scans_for(idler, t_h=1.0, t_v=1.0, n=BIG_N, seed=0, noiseless=True):
    cfg = InterferometerConfig.balanced(idler, t_h=t_h, t_v=t_v)
    plan_h = ScanPlan.default_grid(SignalSetting.H, seed, counts_per_point=n,
                                   noiseless=noiseless)
    plan_v = ScanPlan.default_grid(SignalSetting.V, seed, counts_per_point=n,
                                   noiseless=noiseless)
    return run_scan(cfg, plan_h), run_scan(cfg, plan_v)


# ---------------------------------------------------------------------------
# sinusoid fitting


def test_fit_exact_cosine():
    counts = [10 + 5 * math.cos(p) for p in GRID_20]
    fit = fit_sinusoid(GRID_20, counts)
    assert abs(fit.offset - 10) < 1e-9
    assert abs(fit.amplitude - 5) < 1e-9
    assert wrap_distance(fit.phase, 0.0) < 1e-9
    assert abs(fit.visibility - 0.5) < 1e-9


def test_fit_constant_signal():
    fit = fit_sinusoid(GRID_20, [7.0] * 20)
    assert abs(fit.amplitude) < 1e-9
    assert fit.phase_stderr == math.inf


def test_fit_phase_recovery():
    counts = [8 + 4 * math.cos(p + 1.3) for p in GRID_20]
    fit = fit_sinusoid(GRID_20, counts)
    assert wrap_distance(fit.phase, 1.3) < 1e-9


def test_fit_exactness_over_parameter_space(rng):
    for _ in range(100):
        a = 1.0 + 20.0 * rng.random()
        b = a * rng.random()
        d = TWO_PI * rng.random()
        counts = [a + b * math.cos(p + d) for p in GRID_20]
        fit = fit_sinusoid(GRID_20, counts)
        assert abs(fit.offset - a) < 1e-9 * a
        assert abs(fit.amplitude - b) < 1e-9 * a
        if b > 1e-6 * a:
            assert wrap_distance(fit.phase, d) < 1e-7
        assert fit.visibility <= 1.0 + 3.0 * fit.visibility_stderr + 1e-12


def test_fit_rejects_degenerate_grids():
    with pytest.raises(FitError):
        fit_sinusoid([0.0, 0.1, 0.2, 0.3, 0.4], [1, 2, 3, 4, 5])  # short span
    with pytest.raises(FitError):
        fit_sinusoid(GRID_20[:4], [1, 2, 3, 4])
    with pytest.raises(FitError):
        fit_sinusoid(GRID_20, [0] * 20)  # offset not positive


def test_fit_stderr_tracks_noise():
    base = [100 + 50 * math.cos(p) for p in GRID_20]
    jitter = [c + ((-1) ** k) * 3.0 for k, c in enumerate(base)]
    noisy_fit = fit_sinusoid(GRID_20, jitter)
    clean_fit = fit_sinusoid(GRID_20, base)
    assert noisy_fit.visibility_stderr > clean_fit.visibility_stderr
    assert noisy_fit.offset_stderr > 0


def _reference_solve3(m, rhs):
    """The one-pass fit's 3x3 solve, verbatim."""
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
    sol = [plain_sum(inv[r][k] * rhs[k] for k in range(3)) for r in range(3)]
    return sol, inv


def _reference_split(x):
    t = 134217729.0 * x  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _reference_fit_scan(phases, counts):
    """The one-pass ``_fit_scan`` that the grid and counts passes replaced,
    verbatim, returning (m, theta, inv, ssr, rss, grad, chol)."""
    m = len(phases)
    cos_k = [math.cos(p) for p in phases]
    sin_k = [math.sin(p) for p in phases]
    sc = ss = scc = sss = scs = syc = sys_ = 0.0
    sy = 0
    for y, ck, sk in zip(counts, cos_k, sin_k):
        sc += ck
        ss += sk
        scc += ck * ck
        sss += sk * sk
        scs += ck * sk
        sy += y
        syc += y * ck
        sys_ += y * sk
    normal = [[float(m), sc, ss], [sc, scc, scs], [ss, scs, sss]]
    (a, c, s), inv = _reference_solve3(normal, [float(sy), syc, sys_])

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

    rss = ssr
    if ssr == 0.0 or (abs(a) + abs(c) + abs(s)) * math.sqrt(m / ssr) > 1e5:
        c_hi, c_lo = _reference_split(c)
        s_hi, s_lo = _reference_split(s)
        rss = 0.0
        g_a = g_c = g_s = 0.0
        for y, ck, sk in zip(counts, cos_k, sin_k):
            ck_hi, ck_lo = _reference_split(ck)
            sk_hi, sk_lo = _reference_split(sk)
            r = math.fsum((y, -a, -c_hi * ck_hi, -c_hi * ck_lo, -c_lo * ck_hi,
                           -c_lo * ck_lo, -s_hi * sk_hi, -s_hi * sk_lo,
                           -s_lo * sk_hi, -s_lo * sk_lo))
            rss += r * r
            g_a += r
            g_c += r * ck
            g_s += r * sk

    l00 = math.sqrt(m)
    l11 = math.sqrt(suu)
    l21 = suv / l11
    l22 = math.sqrt(max(0.0, svv - l21 * l21))
    return (m, (a, c, s), inv, ssr, rss, (g_a, g_c, g_s),
            (l00, sc / l00, l11, ss / l00, l21, l22))


def _fit_scan_cases():
    """(phases, counts) pairs over the default 20- and 200-point grids,
    the --phases grids of the CLI tests, a skewed grid, a narrow grid, the
    n = 10^8 noiseless fixtures (the exact-residual path), counts whose
    total passes 2**53 and float counts, one set that sums differently in
    order than compensated; repeated grids with new counts in between new
    grids."""
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.3, 1.2, 0.9),
                                        t_h=0.9, t_v=0.85)
    grids = [tuple(TWO_PI * k / 20 for k in range(20)),
             tuple(TWO_PI * k / 200 for k in range(200)),
             (0.0, 0.7, 1.4, 2.1, 2.8, 3.5, 4.2),
             tuple(float(x) for x in range(6)),
             tuple(0.1 * k + 0.011 * k * k for k in range(20)),
             tuple(1.0 + 0.05 * k / 4 for k in range(5))]
    for phases in grids:
        for seed, n in ((1, 30), (2, 1000), (3, 1000)):
            for setting in SignalSetting:
                scan = run_scan(cfg, ScanPlan(phases, n, setting, seed))
                yield phases, scan.counts_primary
                yield phases, scan.counts_constant
    for name in ("scan_H.csv", "scan_V.csv"):
        scan = load_scan(DATA / name)
        yield scan.plan.phases, scan.counts_primary
    for truth in (IdlerStateParams(0.5, 1.0, 1.0), IdlerStateParams(1.0, 0.0, 1.0),
                  IdlerStateParams(0.3, 2.0, 0.4)):
        for scan in scans_for(truth):
            yield scan.plan.phases, scan.counts_primary
    yield GRID_20, [10 + 5 * math.cos(p) for p in GRID_20]
    yield GRID_20, [7.0] * 20
    yield GRID_20, [2 ** 63 + 2 ** 11 * k + 1 for k in range(20)]
    yield GRID_20, [1e16] + [1.0] * 19


def test_fit_scan_matches_the_one_pass_fit(monkeypatch):
    cases = list(_fit_scan_cases())
    grids = count_grids(monkeypatch, reconstruct, "_fit_grid")
    exact_path = 0
    for phases, counts in cases + cases[::-1]:
        fit = _fit_scan(phases, counts)
        got = (fit.m, fit.theta, [list(row) for row in fit.inv], fit.ssr,
               fit.rss, fit.grad, fit.chol)
        ref = _reference_fit_scan(phases, counts)
        assert repr(got) == repr(ref)
        exact_path += ref[3] != ref[4]
    assert exact_path >= 8  # the 10^8 fixtures take the exact-residual path
    # one grid is held, the last one fitted: each run of fits on one grid
    # does the grid pass once
    bits = [array("d", phases).tobytes() for phases, _ in cases + cases[::-1]]
    assert grids == [b for k, b in enumerate(bits) if k == 0 or b != bits[k - 1]]


def test_fit_scan_reads_numpy_integer_counts_as_their_ints():
    # numpy sums them in numpy arithmetic, exact while the total fits int64
    cases = [(phases, counts) for phases, counts in _fit_scan_cases()
             if all(type(c) is int for c in counts) and sum(counts) < 2 ** 63]
    assert len(cases) > 50
    for phases, counts in cases:
        for dtype in (np.int64, np.uint64):
            assert (repr(_fit_scan(phases, np.array(counts, dtype=dtype)))
                    == repr(_fit_scan(phases, counts)))


def test_fit_scan_refuses_a_singular_grid_like_the_one_pass_fit():
    phases = tuple(1.0 + 0.004 * k / 4 for k in range(5))
    for _ in range(2):
        with pytest.raises(FitError, match="singular") as got:
            _fit_scan(phases, [5, 6, 7, 8, 9])
        with pytest.raises(FitError) as ref:
            _reference_fit_scan(phases, [5, 6, 7, 8, 9])
        assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# fringe-route extraction


def test_extract_pure_circular_state():
    truth = IdlerStateParams(0.5, math.pi / 2, 1.0)
    scan_h, scan_v = scans_for(truth)
    result = extract_parameters(scan_h, scan_v, 1.0, 1.0)
    assert result.method is Method.FRINGE
    assert abs(result.params.p_h - 0.5) < 1e-6
    assert wrap_distance(result.params.xi, math.pi / 2) < 1e-6
    assert abs(result.params.purity - 1.0) < 1e-6
    assert result.param_stderr["p_h"] < 1e-6


def test_extract_partially_mixed_state():
    truth = IdlerStateParams(0.5, 0.0, 0.5)
    scan_h, scan_v = scans_for(truth)
    result = extract_parameters(scan_h, scan_v, 1.0, 1.0)
    assert abs(result.params.purity - 0.5) < 1e-6


def test_extract_saturated_h_flags():
    truth = IdlerStateParams(1.0, 0.0, 1.0)
    scan_h, scan_v = scans_for(truth)
    result = extract_parameters(scan_h, scan_v, 1.0, 1.0)
    assert result.params.p_h == pytest.approx(1.0, abs=1e-9)
    assert result.params.purity == 1.0
    assert result.flags == ("purity_bound_active", "xi_undefined")


def test_extract_round_trip_grid():
    p_grid = [0.1 * k for k in range(1, 10)]                 # 9 values
    xi_grid = [TWO_PI * k / 8 for k in range(8)]             # 8 values
    coh_grid = [0.2, 0.4, 0.6, 0.8, 1.0]                     # 5 values
    worst = 0.0
    for p_h in p_grid:
        for xi in xi_grid:
            for coh in coh_grid:
                truth = IdlerStateParams(p_h, xi, coh)
                scan_h, scan_v = scans_for(truth)
                got = extract_parameters(scan_h, scan_v, 1.0, 1.0).params
                worst = max(worst, abs(got.p_h - p_h),
                            abs(got.purity - coh),
                            wrap_distance(got.xi, xi))
    assert worst < 1e-6


def test_extract_with_calibration_division():
    truth = IdlerStateParams(0.35, 2.1, 0.8)
    scan_h, scan_v = scans_for(truth, t_h=0.85, t_v=0.73)
    result = extract_parameters(scan_h, scan_v, 0.85, 0.73)
    assert abs(result.params.p_h - 0.35) < 1e-6
    assert abs(result.params.purity - 0.8) < 1e-6
    assert wrap_distance(result.params.xi, 2.1) < 1e-6


def _isotropic_boundary_p_h(r_h, r_v, w_h, w_v):
    """|x_h|^2 of the least-squares point on the unit sphere for the cost
    w_h |x_h - c_h|^2 + w_v |x_v - c_v|^2, |c_h| = r_h, |c_v| = r_v, with
    the multiplier found by bisection."""
    def norm2(mu):
        return (w_h * r_h / (w_h + mu)) ** 2 + (w_v * r_v / (w_v + mu)) ** 2
    lo, hi = 0.0, 1.0
    while norm2(hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if norm2(mid) > 1.0 else (lo, mid)
    return (w_h * r_h / (w_h + lo)) ** 2


def test_extract_undercalibrated_visibility_lands_on_the_sphere():
    # the H visibility is twice its calibrated maximum.  On the uniform
    # grid each block is isotropic, so the solution keeps the fit's phases
    # and its radii follow from one multiplier
    truth = IdlerStateParams(0.9, 0.5, 1.0)
    scan_h, scan_v = scans_for(truth, t_h=1.0, t_v=1.0)
    result = extract_parameters(scan_h, scan_v, 0.5, 1.0)
    assert result.flags == ("purity_bound_active",)
    assert result.params.purity == 1.0
    assert wrap_distance(result.params.xi, 0.5) < 1e-6
    a = BIG_N / 3.0
    expected = _isotropic_boundary_p_h(2.0 * math.sqrt(0.9), math.sqrt(0.1),
                                       (0.5 * a) ** 2, a ** 2)
    assert result.params.p_h == pytest.approx(expected, abs=1e-6)
    assert 0.9 < result.params.p_h < 1.0


def test_extract_inconsistent_v_fringe_lands_on_the_sphere():
    # hand-built records: saturated H fringe but a visible V fringe.  With
    # equal weights the fit is scaled onto the sphere, so p_h = 1 / (1 +
    # 0.5^2) up to count rounding
    plan_h = ScanPlan(tuple(GRID_20), 1000, SignalSetting.H, 0, True)
    plan_v = ScanPlan(tuple(GRID_20), 1000, SignalSetting.V, 0, True)
    h_counts = tuple(round(333 * (1 + math.cos(p))) for p in GRID_20)
    v_counts = tuple(round(333 * (1 + 0.5 * math.cos(p))) for p in GRID_20)
    scan_h = ScanRecord(plan_h, h_counts, (166,) * 20)
    scan_v = ScanRecord(plan_v, v_counts, (166,) * 20)
    result = extract_parameters(scan_h, scan_v, 1.0, 1.0)
    assert result.flags == ("purity_bound_active",)
    assert result.params.purity == 1.0
    assert result.params.p_h == pytest.approx(0.8, abs=2e-3)
    assert wrap_distance(result.params.xi, 0.0) < 1e-3


# Literal outputs of the fringe route, kept bit-identical across changes to
# the fit: (p_h, xi, purity, t_h, t_v, n, seed) -> params, stderr, flags.
# The last two cases repeat the truths of cases 3 and 4 at seeds whose
# scans raise the flags those cases raise at other seeds.
EXTRACT_GOLDEN = [
    ((0.3, 1.2, 0.9, 0.9, 0.85, 1000, 1),
     (0.32029528718520434, 1.204164142258625, 0.9113536142668422),
     {"p_h": 0.02211634362102152, "xi": 0.0532150696301046,
      "purity": 0.0446820946013666}, ()),
    ((0.5, math.pi / 2, 1.0, 1.0, 1.0, 1000, 3),
     (0.506798751760038, 1.6029313479416891, 1.0),
     {"p_h": 0.02165732021046877, "xi": 0.025507371873832656,
      "purity": 0.029759262389875772}, ("purity_bound_active",)),
    ((0.98, 0.4, 1.0, 0.95, 0.9, 1000, 6),
     (0.9630383240354601, 0.32110418836548066, 1.0),
     {"p_h": 0.051956229200936704, "xi": 0.11701987409579889,
      "purity": 0.7139901244789293}, ("purity_bound_active",)),
    ((0.7, 5.0, 0.02, 0.9, 0.9, 1000, 7),
     (0.6797585614650377, 5.516558308582898, 0.10692122856773267),
     {"p_h": 0.04323949789577907, "xi": 0.2874342980035781,
      "purity": 0.03144726059200894}, ()),
    ((1.0, 0.0, 1.0, 0.9, 0.9, 1000, 10),
     (0.9543611369473044, 0.0, 0.09646285994075507),
     {"p_h": 0.028750230386546186, "xi": math.inf,
      "purity": 0.1085351036627404}, ("xi_undefined",)),
    ((0.62, 4.0, 0.7, 0.8, 0.95, 10 ** 6, 9),
     (0.6205416721576326, 4.000525397461286, 0.7004433791976561),
     {"p_h": 0.0009085486078259922, "xi": 0.0015130284819355232,
      "purity": 0.0012972562715341833}, ()),
    ((0.7, 5.0, 0.02, 0.9, 0.9, 1000, 0),
     (0.6959649730989138, 0.0, 0.0760933858796633),
     {"p_h": 0.0307493614316894, "xi": math.inf,
      "purity": 0.04387807337369814}, ("xi_undefined",)),
    ((1.0, 0.0, 1.0, 0.9, 0.9, 1000, 3),
     (0.9997697095031557, 0.0, 1.0),
     {"p_h": 0.03593550264974214, "xi": math.inf,
      "purity": 78.74603267284886}, ("purity_bound_active", "xi_undefined")),
]


@pytest.mark.parametrize("case, params, stderr, flags", EXTRACT_GOLDEN)
def test_extract_golden_outputs(case, params, stderr, flags):
    p_h, xi, purity, t_h, t_v, n, seed = case
    scan_h, scan_v = scans_for(IdlerStateParams(p_h, xi, purity), t_h=t_h,
                               t_v=t_v, n=n, seed=seed, noiseless=False)
    result = extract_parameters(scan_h, scan_v, t_h, t_v)
    got = result.params
    assert (got.p_h, got.xi, got.purity) == params
    assert result.param_stderr == stderr
    assert result.flags == flags


def _reference_cost(lsq, da, dc, ds):
    """The centered identity written out as one expression: the squared
    residual at theta + (da, dc, ds)."""
    l00, l10, l11, l20, l21, l22 = lsq.chol
    u0 = l00 * da + l10 * dc + l20 * ds
    u1 = l11 * dc + l21 * ds
    u2 = l22 * ds
    g_a, g_c, g_s = lsq.grad
    return (lsq.rss - 2.0 * (da * g_a + dc * g_c + ds * g_s)
            + (u0 * u0 + u1 * u1 + u2 * u2))


@pytest.mark.parametrize("case", [golden[0] for golden in EXTRACT_GOLDEN])
def test_scorer_keeps_the_bits_of_the_identity(case):
    # the fringe route's cost scores each scan's step to the ball solution
    # with scorer(0.0); that step, and seeded steps of every scale at the
    # fitted offset and off it, keep the bits of the identity written out
    p_h, xi, purity, t_h, t_v, n, seed = case
    scans = scans_for(IdlerStateParams(p_h, xi, purity), t_h=t_h, t_v=t_v,
                      n=n, seed=seed, noiseless=False)
    lsqs = _fits(*scans)
    scales = [lsq.sinusoid().offset * t for lsq, t in zip(lsqs, (t_h, t_v))]
    blocks = [_ball_block(lsq, k) for lsq, k in zip(lsqs, scales)]
    xs, _ = _ball_solve(blocks)
    rng = Rng(seed, 1)
    total = 0.0
    for lsq, k, x, (_, c) in zip(lsqs, scales, xs, blocks):
        d = k * (x - c)
        total += _reference_cost(lsq, 0.0, d.real, d.imag)
        a = lsq.theta[0]
        steps = [(0.0, 0.0), (d.real, d.imag)] + [
            (scale * (2.0 * rng.random() - 1.0), scale * (2.0 * rng.random() - 1.0))
            for scale in (1e-9, 1.0, a, 1e3 * a) for _ in range(25)]
        for da in (0.0, 1e-3 * a, -a):
            cost = lsq.scorer(da)
            for dc, ds in steps:
                assert (repr(cost(dc, ds))
                        == repr(_reference_cost(lsq, da, dc, ds))), (da, dc, ds)
    assert repr(extract_parameters(*scans, t_h, t_v).cost) == repr(total)


def test_extract_golden_outputs_on_bundled_fixture():
    cal = calibration_from_json(DATA / "calibration.json")
    result = extract_parameters(load_scan(DATA / "scan_H.csv"),
                                load_scan(DATA / "scan_V.csv"), cal.t_h, cal.t_v)
    got = result.params
    assert (got.p_h, got.xi, got.purity) == (
        0.3499999960462855, 2.1000000044368607, 0.9999999990704695)
    assert result.param_stderr == {"p_h": 4.256464707322428e-09,
                                   "xi": 7.392837285607559e-09,
                                   "purity": 6.027516127165829e-09}
    assert result.flags == ()


def test_golden_outputs_on_bundled_fixture_below_its_calibration():
    # t below the measured ceiling moves the state off the fixture's truth;
    # these bits change when any of the fit's float sums is compensated
    scans = load_scan(DATA / "scan_H.csv"), load_scan(DATA / "scan_V.csv")
    fringe = extract_parameters(*scans, 0.97, 0.95)
    assert (fringe.params.p_h, fringe.params.xi, fringe.params.purity) == (
        0.26875863461003263, 2.1000000044368607, 0.724478599556594)
    assert fringe.param_stderr == {"p_h": 3.2684618740809513e-09,
                                   "xi": 7.392837285607559e-09,
                                   "purity": 4.007957761055062e-09}
    mle = mle_reconstruct(*scans, 0.97, 0.95)
    assert (mle.params.p_h, mle.params.xi, mle.params.purity, mle.cost) == (
        0.26875864050474046, 2.1000000039545976, 0.7244786090251853,
        8.000046908143077)


# A non-uniform grid, over which each scan's Hessian block is anisotropic
SKEWED_GRID = tuple(0.1 * k + 0.011 * k * k for k in range(20))


def _noisy_pair(truth, t_h, t_v, seed, phases):
    cfg = InterferometerConfig.balanced(truth, t_h=t_h, t_v=t_v)
    return tuple(run_scan(cfg, ScanPlan(phases, 1000, setting, seed))
                 for setting in (SignalSetting.H, SignalSetting.V))


def _boundary_problems(phases):
    """Seeded noisy scans of pure states whose fit lies outside the ball,
    with the (Hessian block, centre) pairs of the fringe route's solve."""
    out = []
    for seed in range(60):
        truth = IdlerStateParams(0.05 + 0.015 * seed, 0.1 * seed, 1.0)
        t_h, t_v = 0.8 + 0.003 * seed, 0.95 - 0.002 * seed
        scan_h, scan_v = _noisy_pair(truth, t_h, t_v, seed, phases)
        result = extract_parameters(scan_h, scan_v, t_h, t_v)
        if "purity_bound_active" in result.flags:
            fits = _fits(scan_h, scan_v)
            blocks = [_ball_block(f, f.theta[0] * t) for f, t in zip(fits, (t_h, t_v))]
            out.append((result, blocks))
    return out


def _quad(a, d):
    """d^T A d for A = (A11, A12, A22) and the 2-vector d as a complex."""
    return a[0] * d.real ** 2 + 2.0 * a[1] * d.real * d.imag + a[2] * d.imag ** 2


@pytest.mark.parametrize("phases", [tuple(GRID_20), SKEWED_GRID],
                         ids=["uniform", "skewed"])
def test_ball_solve_meets_the_kkt_conditions(phases):
    problems = _boundary_problems(phases)
    assert len(problems) >= 15
    anisotropy = 0.0
    for result, blocks in problems:
        x, mu = _ball_solve(blocks)
        assert mu >= 0.0
        assert abs(math.hypot(*(abs(xb) for xb in x)) - 1.0) <= 1e-15
        for (a, c), xb in zip(blocks, x):
            anisotropy = max(anisotropy, abs(a[0] - a[2]) / a[0], abs(a[1]) / a[0])
            d = xb - c
            # stationarity A (x - c) + mu x = 0, relative to A c
            grad = complex(a[0] * d.real + a[1] * d.imag + mu * xb.real,
                           a[1] * d.real + a[2] * d.imag + mu * xb.imag)
            scale = abs(complex(a[0] * c.real + a[1] * c.imag,
                                a[1] * c.real + a[2] * c.imag))
            assert abs(grad) <= 1e-9 * scale
        # the route reports this solution
        assert result.params.p_h == pytest.approx(abs(x[0]) ** 2, abs=1e-15)
        assert result.params.purity == 1.0
    if phases is SKEWED_GRID:
        assert anisotropy > 0.05


def test_ball_solve_returns_a_centre_inside_the_ball():
    blocks = [((3.0, 0.5, 1.0), complex(0.3, -0.4)), ((2.0, -0.2, 5.0), 0.6j)]
    x, mu = _ball_solve(blocks)
    assert mu == 0.0
    assert x == [c for _, c in blocks]


@pytest.mark.parametrize("phases", [tuple(GRID_20), SKEWED_GRID],
                         ids=["uniform", "skewed"])
def test_ball_solve_beats_a_dense_grid_on_the_sphere(phases):
    steps = 48
    for _, blocks in _boundary_problems(phases)[:4]:
        x, _ = _ball_solve(blocks)
        best = sum(_quad(a, xb - c) for (a, c), xb in zip(blocks, x))
        grid_min = math.inf
        for i in range(steps + 1):
            eta = 0.5 * math.pi * i / steps
            for j in range(steps):
                x_h = math.cos(eta) * complex(math.cos(TWO_PI * j / steps),
                                              math.sin(TWO_PI * j / steps))
                cost_h = _quad(blocks[0][0], x_h - blocks[0][1])
                for k in range(steps):
                    x_v = math.sin(eta) * complex(math.cos(TWO_PI * k / steps),
                                                  math.sin(TWO_PI * k / steps))
                    grid_min = min(grid_min,
                                   cost_h + _quad(blocks[1][0], x_v - blocks[1][1]))
        assert best <= grid_min * (1.0 + 1e-12)


def _seeded_pairs(phases):
    """Noisy scan pairs at t = (0.9, 0.85), some of whose fits lie inside
    the ball and some outside."""
    for seed in range(30):
        truth = IdlerStateParams(0.1 + 0.027 * seed, 0.2 * seed,
                                 1.0 if seed % 2 else 0.7)
        yield _noisy_pair(truth, 0.9, 0.85, seed, phases)


@pytest.mark.parametrize("phases", [tuple(GRID_20), SKEWED_GRID],
                         ids=["uniform", "skewed"])
def test_extract_ignores_the_phase_origin(phases):
    # one constant added to every phase of both scans moves both fringe
    # phases together; p_h, purity, xi and the residual must not move
    branches = set()
    for scans in _seeded_pairs(phases):
        base = extract_parameters(*scans, 0.9, 0.85)
        branches.add(base.flags)
        for shift in (0.37, -1.9):
            moved = [ScanRecord(ScanPlan(tuple(p + shift for p in s.plan.phases),
                                         s.plan.counts_per_point, s.plan.setting,
                                         s.plan.seed),
                                s.counts_primary, s.counts_constant)
                     for s in scans]
            got = extract_parameters(*moved, 0.9, 0.85)
            assert got.flags == base.flags
            assert got.params.p_h == pytest.approx(base.params.p_h, abs=1e-9)
            assert got.params.purity == pytest.approx(base.params.purity, abs=1e-9)
            assert wrap_distance(got.params.xi, base.params.xi) < 1e-9
            assert got.cost == pytest.approx(base.cost, rel=1e-9, abs=0.0)
    assert {(), ("purity_bound_active",)} <= branches


@pytest.mark.parametrize("phases", [tuple(GRID_20), SKEWED_GRID],
                         ids=["uniform", "skewed"])
def test_extract_cost_is_the_residual_at_its_solution(phases):
    # inside the ball the solution is the fit itself; on the sphere each
    # scan adds its block's quadratic form to its residual
    branches = set()
    for scans in _seeded_pairs(phases):
        result = extract_parameters(*scans, 0.9, 0.85)
        branches.add(result.flags)
        fits = _fits(*scans)
        rss = fits[0].rss + fits[1].rss
        if "purity_bound_active" not in result.flags:
            assert result.cost == rss
            continue
        blocks = [_ball_block(f, f.theta[0] * t) for f, t in zip(fits, (0.9, 0.85))]
        x, _ = _ball_solve(blocks)
        moved = sum(_quad(a, xb - c) for (a, c), xb in zip(blocks, x))
        assert moved > 1e-6 * rss
        assert result.cost == pytest.approx(rss + moved, rel=1e-9, abs=0.0)
    assert {(), ("purity_bound_active",)} <= branches


@pytest.mark.parametrize("t", [0.0, -0.5, math.nan, math.inf])
def test_both_routes_refuse_a_transmission_without_a_fringe_scale(t):
    scan_h, scan_v = scans_for(IdlerStateParams(0.5, 0.0, 1.0))
    for route in (extract_parameters, mle_reconstruct):
        with pytest.raises(FitError, match="fringe scale"):
            route(scan_h, scan_v, 0.9, t)


def test_mle_refuses_a_constant_detector_at_half_the_budget():
    # the offset n/2 - mean(constant) would be 0: no fringe left to fit
    scan_h, scan_v = scans_for(IdlerStateParams(0.5, 0.0, 1.0), n=1000)
    scan_v = replace(scan_v, counts_constant=(500,) * len(GRID_20))
    with pytest.raises(FitError, match="offset 0.0 is not positive"):
        mle_reconstruct(scan_h, scan_v, 1.0, 1.0)


def test_extract_checks_setting_pairing():
    scan_h, scan_v = scans_for(IdlerStateParams(0.5, 0.0, 1.0))
    with pytest.raises(ValueError):
        extract_parameters(scan_v, scan_h, 1.0, 1.0)


# ---------------------------------------------------------------------------
# cost function


def lsq_cost(scan_h, scan_v, candidate, t_h, t_v):
    """The least-squares route's cost of ``candidate``, from one fit per
    scan and the constant detectors' offsets."""
    objective = _objective(*_fits(scan_h, scan_v), t_h, t_v,
                           _constant_offset(scan_h), _constant_offset(scan_v))
    return objective([candidate.p_h, candidate.xi, candidate.purity])


def test_cost_near_zero_on_self_generated_data():
    truth = IdlerStateParams(0.3, 1.2, 0.9)
    scan_h, scan_v = scans_for(truth, n=1000)
    cost = lsq_cost(scan_h, scan_v, truth, 1.0, 1.0)
    assert cost <= 0.25 * (len(GRID_20) * 2)


def test_cost_increases_away_from_truth():
    truth = IdlerStateParams(0.3, 1.2, 0.9)
    scan_h, scan_v = scans_for(truth, n=1000)
    base = lsq_cost(scan_h, scan_v, truth, 1.0, 1.0)
    off = lsq_cost(scan_h, scan_v, IdlerStateParams(0.4, 1.2, 0.9), 1.0, 1.0)
    assert off > base + 1.0


def test_cost_periodic_in_xi():
    truth = IdlerStateParams(0.3, 1.2, 0.9)
    scan_h, scan_v = scans_for(truth, n=1000)
    a = lsq_cost(scan_h, scan_v, IdlerStateParams(0.3, 0.7, 0.9), 1.0, 1.0)
    b = lsq_cost(scan_h, scan_v, IdlerStateParams(0.3, 0.7 + TWO_PI, 0.9),
                 1.0, 1.0)
    assert a == pytest.approx(b, rel=1e-12)


def _reference_objective(lsq_h, lsq_v, t_h, t_v, a_h, a_v, vec):
    """The least-squares route's cost composed directly: fold and wrap the
    point, then the identity written out per scan."""
    p_h, xi, purity = _fold01(vec[0]), wrap_angle(vec[1]), _fold01(vec[2])
    b_h = a_h * (t_h * math.sqrt(p_h))
    b_v = a_v * (purity * t_v * math.sqrt(1.0 - p_h))
    (ah, ch, sh), (av, cv, sv) = lsq_h.theta, lsq_v.theta
    return (_reference_cost(lsq_h, a_h - ah, b_h - ch, -sh)
            + _reference_cost(lsq_v, a_v - av, b_v * math.cos(xi) - cv,
                              b_v * math.sin(xi) - sv))


def _search_points(rng, count):
    """Seeded points as the search may visit them: inside the box, negative,
    past 2 and past 2pi, and whole numbers, whose folds land exactly on 0
    and 1 and whose xi is a multiple of 2 pi or not."""
    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    def whole(lo, hi):
        return float(math.floor(uniform(lo, hi + 1)))

    for k in range(count):
        kind = k % 4
        if kind == 0:
            yield [rng.random(), TWO_PI * rng.random(), rng.random()]
        elif kind == 1:
            yield [uniform(-7.0, 7.0), uniform(-40.0, 40.0), uniform(-7.0, 7.0)]
        elif kind == 2:
            yield [whole(-6, 6), TWO_PI * whole(-3, 3), whole(-6, 6)]
        else:
            yield [whole(-6, 6), uniform(-40.0, 40.0), uniform(-3.0, 3.0)]


def test_objective_keeps_the_bits_of_the_written_out_composition():
    rng = Rng(0x0B1E, 0)
    checked, folds = 0, set()
    for truth, t_h, t_v, origin, seed, noiseless in list(_mle_golden_pairs())[:10]:
        scans = _golden_scans(truth, t_h, t_v, origin, seed, noiseless)
        fits = _fits(*scans)
        offsets = [_constant_offset(scan) for scan in scans]
        objective = _objective(*fits, t_h, t_v, *offsets)
        for vec in _search_points(rng, 1000):
            assert (repr(objective(vec))
                    == repr(_reference_objective(*fits, t_h, t_v, *offsets, vec))), vec
            folds.update(_fold01(v) for v in (vec[0], vec[2]))
            checked += 1
    assert checked == 10 ** 4
    assert {0.0, 1.0} <= folds


def _exact_constant_offset(scan):
    """The least-squares route's offset: n/2 minus the constant detector's
    mean count, rounded once from its exact value."""
    counts = scan.counts_constant
    return float(Fraction(scan.plan.counts_per_point, 2)
                 - Fraction(sum(counts), len(counts)))


def _direct_cost(scan_h, scan_v, candidate, t_h, t_v):
    """Sum of squared residuals, each residual rounded once from its exact
    value, of the model a + b cos(phi - delta) on both scans, with the
    least-squares route's offsets a."""
    terms = []
    for scan, vis, delta in (
            (scan_h, t_h * math.sqrt(candidate.p_h), 0.0),
            (scan_v, candidate.purity * t_v * math.sqrt(candidate.p_v),
             candidate.xi)):
        a = _exact_constant_offset(scan)
        b = a * vis
        coef = (Fraction(a), Fraction(b * math.cos(delta)),
                Fraction(b * math.sin(delta)))
        for phi, y in zip(scan.plan.phases, scan.counts_primary):
            r = float(coef[0] + coef[1] * Fraction(math.cos(phi))
                      + coef[2] * Fraction(math.sin(phi)) - y)
            terms.append(r * r)
    return math.fsum(terms)


@pytest.mark.parametrize("noiseless", [False, True])
@pytest.mark.parametrize("n", [10, 10 ** 3, 10 ** 6, 10 ** 8])
def test_cost_matches_direct_residual(rng, n, noiseless):
    for trial in range(4):
        truth = IdlerStateParams(0.05 + 0.9 * rng.random(), TWO_PI * rng.random(),
                                 0.1 + 0.9 * rng.random())
        t_h, t_v = 0.8 + 0.2 * rng.random(), 0.8 + 0.2 * rng.random()
        scan_h, scan_v = scans_for(truth, t_h=t_h, t_v=t_v, n=n,
                                   seed=trial, noiseless=noiseless)
        candidates = [IdlerStateParams(rng.random(), TWO_PI * rng.random(),
                                       rng.random()) for _ in range(4)]
        best = mle_reconstruct(scan_h, scan_v, t_h, t_v)
        candidates.append(best.params)
        for candidate in candidates:
            ref = _direct_cost(scan_h, scan_v, candidate, t_h, t_v)
            got = lsq_cost(scan_h, scan_v, candidate, t_h, t_v)
            assert got == pytest.approx(ref, rel=1e-9, abs=0.0)
        assert best.cost == pytest.approx(
            _direct_cost(scan_h, scan_v, best.params, t_h, t_v), rel=1e-9, abs=0.0)


def test_cost_on_bundled_fixture_matches_exact_rational():
    # n = 10^8 noiseless: each model value is ~5e7 and each residual ~1,
    # so an expanded square would cancel away every significant digit.
    # The least-squares route's H fringe has phase 0, the fringe route's
    # its fitted phase
    scan_h, scan_v = load_scan(DATA / "scan_H.csv"), load_scan(DATA / "scan_V.csv")
    cal = calibration_from_json(DATA / "calibration.json")
    fitted = {scan: fit_sinusoid(scan.plan.phases, scan.counts_primary)
              for scan in (scan_h, scan_v)}
    for result, offset, phase_h in (
            (mle_reconstruct(scan_h, scan_v, cal.t_h, cal.t_v),
             _exact_constant_offset, 0.0),
            (extract_parameters(scan_h, scan_v, cal.t_h, cal.t_v),
             lambda scan: fitted[scan].offset, fitted[scan_h].phase)):
        c = result.params
        exact = Fraction(0)
        for scan, vis, delta in (
                (scan_h, cal.t_h * math.sqrt(c.p_h), phase_h),
                (scan_v, c.purity * cal.t_v * math.sqrt(c.p_v), phase_h - c.xi)):
            amp = Fraction(offset(scan))
            for phi, y in zip(scan.plan.phases, scan.counts_primary):
                model = amp * (1 + Fraction(vis) * Fraction(math.cos(phi + delta)))
                exact += (model - y) ** 2
        assert 1.0 < float(exact) < 10.0
        assert result.cost == pytest.approx(float(exact), rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# least-squares route


def test_mle_noiseless_round_trip():
    truth = IdlerStateParams(0.3, 1.2, 0.9)
    scan_h, scan_v = scans_for(truth)
    result = mle_reconstruct(scan_h, scan_v, 1.0, 1.0)
    assert result.method is Method.MLE
    assert abs(result.params.p_h - 0.3) < 1e-4
    assert wrap_distance(result.params.xi, 1.2) < 1e-4
    assert abs(result.params.purity - 0.9) < 1e-4
    result.rho.assert_physical()


def test_mle_agrees_with_fringe_route():
    truth = IdlerStateParams(0.62, 4.0, 0.7)
    scan_h, scan_v = scans_for(truth)
    fr = extract_parameters(scan_h, scan_v, 1.0, 1.0).params
    ml = mle_reconstruct(scan_h, scan_v, 1.0, 1.0).params
    assert abs(fr.p_h - ml.p_h) < 1e-4
    assert wrap_distance(fr.xi, ml.xi) < 1e-4
    assert abs(fr.purity - ml.purity) < 1e-4


def test_mle_search_builds_no_state_per_evaluation(monkeypatch):
    # the search scores plain floats; states are built only for the
    # fringe-route start and the result (and the result of a restart)
    scan_h, scan_v = (load_scan(DATA / f"scan_{s}.csv") for s in "HV")
    cal = calibration_from_json(DATA / "calibration.json")
    built = []
    check = IdlerStateParams.__post_init__
    monkeypatch.setattr(IdlerStateParams, "__post_init__",
                        lambda self: built.append(self) or check(self))
    result = mle_reconstruct(scan_h, scan_v, cal.t_h, cal.t_v)
    assert len(built) <= 3
    # the reported cost is the cost of the reported state, to the bit
    assert result.cost == lsq_cost(scan_h, scan_v, result.params,
                                   cal.t_h, cal.t_v)


def test_mle_monte_carlo_pure_state_fidelity():
    # shot-noise trials against the right-circular preparation
    truth = IdlerStateParams(0.5, math.pi / 2, 1.0)
    psi_truth = truth.state_vector()
    good = 0
    trials = 200
    for seed in range(trials):
        scan_h, scan_v = scans_for(truth, n=1000, seed=seed, noiseless=False)
        result = mle_reconstruct(scan_h, scan_v, 1.0, 1.0)
        pure_part = IdlerStateParams(result.params.p_h, result.params.xi, 1.0)
        f = abs(sum(a.conjugate() * b for a, b in
                    zip(psi_truth, pure_part.state_vector()))) ** 2
        if f >= 0.98:
            good += 1
    assert good >= 0.95 * trials


def test_mle_distinguishes_equal_visibility_states():
    diag = IdlerStateParams(0.5, 0.0, 1.0)
    anti = IdlerStateParams(0.5, math.pi, 1.0)
    scans_d = scans_for(diag)
    scans_a = scans_for(anti)
    fit_d_h = fit_sinusoid(scans_d[0].plan.phases, scans_d[0].counts_primary)
    fit_a_h = fit_sinusoid(scans_a[0].plan.phases, scans_a[0].counts_primary)
    assert abs(fit_d_h.visibility - fit_a_h.visibility) < 1e-6
    rec_d = mle_reconstruct(*scans_d, 1.0, 1.0).params
    rec_a = mle_reconstruct(*scans_a, 1.0, 1.0).params
    assert wrap_distance(rec_d.xi - rec_a.xi, math.pi) < 1e-3 or \
        wrap_distance(rec_a.xi - rec_d.xi, math.pi) < 1e-3


def _packed_scans(span):
    """Noisy scans over 5 phases packed into ``span`` radians."""
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.3, 1.2, 0.9),
                                        t_h=0.9, t_v=0.85)
    phases = tuple(1.0 + span * k / 4 for k in range(5))
    return tuple(run_scan(cfg, ScanPlan(phases, 1000, setting, 3))
                 for setting in (SignalSetting.H, SignalSetting.V))


def test_mle_refuses_singular_grid():
    scan_h, scan_v = _packed_scans(0.004)
    with pytest.raises(FitError, match="singular"):
        mle_reconstruct(scan_h, scan_v, 0.9, 0.85)


def test_mle_reconstructs_narrow_but_regular_grid():
    # the fringe route refuses this grid (span below half a period); the
    # least-squares route starts from its default point and must land
    # where the direct residual's minimizer did: these literals are
    # _reference_nelder_mead's, on the residual summed point by point
    result = mle_reconstruct(*_packed_scans(0.05), 0.9, 0.85)
    assert result.params.p_h == pytest.approx(0.27555962881722224, abs=1e-6)
    assert result.params.xi == pytest.approx(0.3213632029418244, abs=1e-6)
    assert result.params.purity == pytest.approx(0.9999999999985512, abs=1e-6)
    assert result.cost == pytest.approx(1880.3111018080144, rel=1e-9)


def _mle_golden_pairs():
    """300 seeded noisy scan pairs drawn as the benchmark's Monte-Carlo
    least-squares workload draws them (20 points at n = 1000, a random
    common transmission phase, |t| in [0.8, 1]), then three pairs whose
    first search converges with a vanishing V fringe and so restarts:
    (truth, t_h, t_v, phase origin, scan seed, noiseless)."""
    rng = Rng(0x5EED, 0)
    for seed in range(300):
        truth = IdlerStateParams(0.05 + 0.9 * rng.random(), TWO_PI * rng.random(),
                                 1.0 - 0.9 * rng.random() ** 3)
        t_h, t_v = 0.8 + 0.2 * rng.random(), 0.8 + 0.2 * rng.random()
        yield truth, t_h, t_v, TWO_PI * rng.random(), seed, False
    for truth, seed, noiseless in ((IdlerStateParams(1.0, 0.0, 1.0), 1, True),
                                   (IdlerStateParams(0.5, 1.0, 0.0), 1, True),
                                   (IdlerStateParams(0.5, 1.0, 0.0), 8, False)):
        yield truth, 0.9, 0.85, 0.7, seed, noiseless


# sha256 (conftest.digest) of p_h, xi, purity, cost and the rho entries of
# the least-squares route on every pair of _mle_golden_pairs, in order; the
# route gives the same digest with _reference_nelder_mead as its search
MLE_GOLDEN = "c35d7f2b01d9ab97ceec66d4e0829aa4f6a151ba1ba6cb03376453b0c1c5f207"


def _golden_scans(truth, t_h, t_v, origin, seed, noiseless):
    """The H and V scans of one of _mle_golden_pairs."""
    phase = cmath.exp(1j * origin)
    cfg = InterferometerConfig.balanced(truth, t_h=t_h * phase, t_v=t_v * phase)
    return [run_scan(cfg, ScanPlan.default_grid(setting, seed, noiseless=noiseless))
            for setting in (SignalSetting.H, SignalSetting.V)]


def test_mle_golden_outputs(monkeypatch):
    import pitomo.reconstruct as rec
    searches = []
    search = rec._nelder_mead
    monkeypatch.setattr(rec, "_nelder_mead",
                        lambda *args, **kw: searches.append(1) or search(*args, **kw))
    values, restarts = [], []
    for truth, t_h, t_v, origin, seed, noiseless in _mle_golden_pairs():
        scans = _golden_scans(truth, t_h, t_v, origin, seed, noiseless)
        searches.clear()
        result = rec.mle_reconstruct(*scans, t_h, t_v)
        restarts.append(len(searches) == 2)
        p = result.params
        values += [p.p_h, p.xi, p.purity, result.cost, *result.rho.entries]
    assert restarts[-3:] == [True] * 3
    assert digest(values) == MLE_GOLDEN


def _rosen3(v):
    return ((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2
            + (1 - v[1]) ** 2 + 100 * (v[2] - v[1] ** 2) ** 2)


def test_nelder_mead_reports_nonconvergence():
    _, _, nfev, converged = _nelder_mead(_rosen3, [5.0, -3.0, 2.0],
                                         (0.5, 0.5, 0.5), maxfev=20)
    assert not converged
    assert nfev >= 20


def _reference_nelder_mead(fn, x0, steps, maxfev=10000, tol=1e-9):
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
        centroid = [plain_sum(col) / ndim for col in zip(*simplex[:ndim])]
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


def _nelder_mead_problems():
    """Seeded 3-D objectives, each with a fixed (start, steps, tol) or None
    for three random starts at tol 1e-9: convex quadratics, the 3-D
    Rosenbrock function, a terraced bowl whose flat steps force
    contractions and shrinks, a constant (every step a shrink), a bowl that
    is NaN off a slab (every comparison with it false), and the constant
    again from a dyadic start with tol = steps / 2^10: each shrink halves
    every spread exactly, so the tenth leaves spreads equal to tol, the
    edge of the convergence test, and the eleventh converges."""
    rng = Rng(0x4E4D, 0)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.random()

    for _ in range(6):
        m = [[uniform(-1.0, 1.0) for _ in range(3)] for _ in range(3)]
        centre = [uniform(-2.0, 2.0) for _ in range(3)]

        def quadratic(v, m=m, centre=centre):
            d = [v[k] - centre[k] for k in range(3)]
            return sum((m[r][0] * d[0] + m[r][1] * d[1] + m[r][2] * d[2]) ** 2
                       for r in range(3)) + 0.1 * sum(x * x for x in d)
        yield quadratic, None
    yield _rosen3, None
    yield lambda v: float(math.floor(4.0 * (v[0] ** 2 + v[1] ** 2 + v[2] ** 2))), None
    yield lambda v: 1.0, None
    yield (lambda v: (v[0] ** 2 + v[1] ** 2 + v[2] ** 2 if abs(v[2]) < 1.5
                      else math.nan)), None
    yield lambda v: 1.0, ([0.5, -1.25, 1.75], (0.125,) * 3, 0.125 / 2 ** 10)


@pytest.mark.parametrize("maxfev", [4, 5, 20, 10 ** 4])
def test_nelder_mead_matches_the_generic_method(maxfev):
    rng = Rng(maxfev, 0)
    for fn, fixed in _nelder_mead_problems():
        starts = [fixed] if fixed else [
            ([4.0 * rng.random() - 2.0 for _ in range(3)],
             tuple(0.05 + rng.random() for _ in range(3)), 1e-9) for _ in range(3)]
        for x0, steps, tol in starts:
            assert (repr(_nelder_mead(fn, x0, steps, maxfev=maxfev, tol=tol))
                    == repr(_reference_nelder_mead(fn, x0, steps, maxfev=maxfev,
                                                   tol=tol)))


def test_nelder_mead_stops_one_shrink_past_spreads_equal_to_tol():
    # 4 starting values, then 5 per shrink (reflect, contract, 3 vertices);
    # the tenth shrink leaves every spread equal to tol, not below it
    fn, (x0, steps, tol) = list(_nelder_mead_problems())[-1]
    best, _, nfev, converged = _nelder_mead(fn, x0, steps, tol=tol)
    assert converged and best == x0
    assert nfev == 4 + 5 * 11


def test_mle_convergence_error_carries_best(monkeypatch):
    import pitomo.reconstruct as rec

    def never_converges(fn, x0, steps, maxfev=10000, tol=1e-9):
        return list(x0), fn(list(x0)), maxfev, False

    monkeypatch.setattr(rec, "_nelder_mead", never_converges)
    truth = IdlerStateParams(0.3, 1.2, 0.9)
    scan_h, scan_v = scans_for(truth, n=1000)
    with pytest.raises(ConvergenceError) as err:
        rec.mle_reconstruct(scan_h, scan_v, 1.0, 1.0)
    assert err.value.best.params.p_h == pytest.approx(0.3, abs=1e-3)


# ---------------------------------------------------------------------------
# fidelity reporting


def test_report_fidelity_identity_and_orthogonal():
    truth = IdlerStateParams(0.5, 0.0, 1.0)  # diagonal
    scan_h, scan_v = scans_for(truth)
    result = extract_parameters(scan_h, scan_v, 1.0, 1.0)
    assert report_fidelity(result, truth) == pytest.approx(1.0, abs=1e-9)
    assert result.fidelity_vs_reference == pytest.approx(1.0, abs=1e-9)
    anti = IdlerStateParams(0.5, math.pi, 1.0)
    assert report_fidelity(result, anti) == pytest.approx(0.0, abs=1e-9)


def test_report_fidelity_mixed_reference():
    truth = IdlerStateParams(0.5, 1.0, 0.6)
    scan_h, scan_v = scans_for(truth)
    result = mle_reconstruct(scan_h, scan_v, 1.0, 1.0)
    f = report_fidelity(result, truth)
    assert f == pytest.approx(1.0, abs=1e-6)


def test_hwp_sweep_reconstruction_fidelities():
    from pitomo.states import WaveplateSetting, prepared_idler_params
    for k in range(0, 46, 5):
        prepared = prepared_idler_params([WaveplateSetting.hwp(math.radians(k))])
        scan_h, scan_v = scans_for(prepared)
        result = extract_parameters(scan_h, scan_v, 1.0, 1.0)
        assert report_fidelity(result, prepared) >= 0.999
