"""Acceptance suite: one test per criterion, run at the stated tolerance.

Each test prints a single PASS line with the measured figure of merit
(visible with `pytest -s` or on failure).  Criteria cover closed-form vs
exact-pipeline agreement, the visibility laws, calibration recovery,
round-trip tomography, fringe-phase disambiguation, sweep theory curves,
the post-interaction state, the positivity boundary, and shot-noise
scaling of the estimator.
"""

import cmath
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import pytest

from pitomo._kernels import Rng, eigh
from pitomo.acquisition import ScanPlan, run_calibration, run_scan
from pitomo.cli import main
from pitomo.interferometer import (InterferometerConfig, SignalSetting,
                                   _total_state_raw, random_valid_config,
                                   rates_closed_form, rates_exact)
from pitomo.reconstruct import extract_parameters, fit_sinusoid, mle_reconstruct
from pitomo.states import IdlerStateParams, fidelity_mixed, qubit_state_fidelity
from conftest import path_b_idler, unbalanced_config, wrap_distance

TWO_PI = 2.0 * math.pi
BIG_N = 10 ** 8


def _scan_pair(cfg, n, seed, noiseless):
    plan_h = ScanPlan.default_grid(SignalSetting.H, seed, counts_per_point=n,
                                   noiseless=noiseless)
    plan_v = ScanPlan.default_grid(SignalSetting.V, seed, counts_per_point=n,
                                   noiseless=noiseless)
    return run_scan(cfg, plan_h), run_scan(cfg, plan_v)


def test_c1_oracle_equivalence_and_runtime():
    rng = Rng(20260810, 0)
    trials = 1000
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(trials):
        base = random_valid_config(rng)
        for _ in range(5):  # random phase grid per configuration
            cfg = replace(base, phi=TWO_PI * rng.random())
            for setting in (SignalSetting.H, SignalSetting.V):
                c = cfg.with_setting(setting)
                exact = rates_exact(c)
                closed = rates_closed_form(c)
                worst = max(worst, abs(exact.rate_h - closed.rate_h),
                            abs(exact.rate_v - closed.rate_v))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: max |closed-form - exact| = {worst:.3e} "
          f"over {trials} configs x 5 phases x 2 settings in {elapsed:.2f}s")


def test_c2_visibility_law_grid():
    worst = 0.0
    xi = 0.7
    for p_h in [0.1 * k for k in range(1, 10)]:
        for coh in (0.2, 0.4, 0.6, 0.8, 1.0):
            for t in (0.2, 0.4, 0.6, 0.8, 1.0):
                cfg = InterferometerConfig.balanced(
                    IdlerStateParams(p_h, xi, coh), t_h=t, t_v=t)
                scan_h, scan_v = _scan_pair(cfg, BIG_N, 0, noiseless=True)
                vis_h = fit_sinusoid(scan_h.plan.phases,
                                     scan_h.counts_primary).visibility
                vis_v = fit_sinusoid(scan_v.plan.phases,
                                     scan_v.counts_primary).visibility
                worst = max(worst,
                            abs(vis_h - t * math.sqrt(p_h)),
                            abs(vis_v - coh * t * math.sqrt(1.0 - p_h)))
    assert worst <= 1e-6
    print(f"\nACCEPTANCE 2 PASS: max fitted-visibility error = {worst:.3e} "
          f"over the 9x5x5 (population, coherence, transmission) grid")


def test_c3_calibration_reproduction(tmp_path):
    # noiseless command-line calibration hits the configured maxima
    out = tmp_path / "cal"
    assert main(["calibrate", "--t-h", "0.85", "--t-v", "0.73", "--noiseless",
                 "--n", str(BIG_N), "--out", str(out)]) == 0
    cal = json.loads((out / "calibration.json").read_text())
    err_h = abs(cal["t_h"] - 0.85)
    err_v = abs(cal["t_v"] - 0.73)
    assert err_h < 1e-6 and err_v < 1e-6

    # shot-noise trials: truth within 3 fitted standard errors
    cfg = InterferometerConfig.balanced(IdlerStateParams.horizontal(),
                                        t_h=0.85, t_v=0.73)
    trials = 200
    hits = 0
    for seed in range(trials):
        plan = ScanPlan.default_grid(SignalSetting.H, seed,
                                     counts_per_point=1000)
        got = run_calibration(cfg, plan)
        if (abs(got.t_h - 0.85) <= 3.0 * got.t_h_stderr
                and abs(got.t_v - 0.73) <= 3.0 * got.t_v_stderr):
            hits += 1
    assert hits >= 0.95 * trials
    print(f"\nACCEPTANCE 3 PASS: noiseless calibration error "
          f"({err_h:.2e}, {err_v:.2e}); noisy coverage {hits}/{trials}")


@pytest.mark.parametrize("arrangement", [None, 0, 1, 2, 3],
                         ids=["balanced", *(f"unbalanced-{k}" for k in range(4))])
def test_c4_round_trip_tomography_grid(arrangement):
    # the arrangement is calibrated by a noiseless run; both routes divide
    # by what it measured, the fringe route also under a common phase
    if arrangement is None:
        cfg = InterferometerConfig.balanced(IdlerStateParams.horizontal())
    else:
        cfg = unbalanced_config(arrangement)
    cal = run_calibration(cfg, ScanPlan.default_grid(
        SignalSetting.H, 0, counts_per_point=BIG_N, noiseless=True))
    phase = cmath.exp(TWO_PI * 1j * Rng(4, 0).random())  # arg 3.39 rad
    phased = replace(cfg, t_h=cfg.t_h * phase, t_v=cfg.t_v * phase)
    worst_param = 0.0
    worst_fid = 1.0
    for p_h in [0.1 * k for k in range(1, 10)]:
        for xi in [TWO_PI * k / 8 for k in range(8)]:
            for coh in (0.2, 0.4, 0.6, 0.8, 1.0):
                truth = IdlerStateParams(p_h, xi, coh)
                real = _scan_pair(replace(cfg, idler=truth), BIG_N, 0, True)
                shifted = _scan_pair(replace(phased, idler=truth), BIG_N, 0, True)
                for result in (mle_reconstruct(*real, cal.t_h, cal.t_v),
                               extract_parameters(*real, cal.t_h, cal.t_v),
                               extract_parameters(*shifted, cal.t_h, cal.t_v)):
                    got = result.params
                    worst_param = max(worst_param,
                                      abs(got.p_h - truth.p_h),
                                      abs(got.purity - truth.purity),
                                      wrap_distance(got.xi, truth.xi))
                    fid = qubit_state_fidelity(result.rho,
                                               truth.to_density_matrix())
                    worst_fid = min(worst_fid, fid)
    assert worst_param <= 1e-4
    assert worst_fid >= 0.999
    print(f"\nACCEPTANCE 4 PASS: round-trip parameter error <= "
          f"{worst_param:.3e}, min fidelity {worst_fid:.6f} over 9x8x5 grid, "
          f"both routes")


def test_c5_degenerate_visibility_pairs_disambiguated():
    # diagonal / antidiagonal and right / left circular
    pairs = [(IdlerStateParams(0.5, 0.0, 1.0), IdlerStateParams(0.5, math.pi, 1.0)),
             (IdlerStateParams(0.5, 0.5 * math.pi, 1.0),
              IdlerStateParams(0.5, 1.5 * math.pi, 1.0))]
    worst_vis = 0.0
    worst_phase = 0.0
    for state_a, state_b in pairs:
        results = []
        for state in (state_a, state_b):
            cfg = InterferometerConfig.balanced(state)
            scan_h, scan_v = _scan_pair(cfg, BIG_N, 0, noiseless=True)
            vis_h = fit_sinusoid(scan_h.plan.phases,
                                 scan_h.counts_primary).visibility
            vis_v = fit_sinusoid(scan_v.plan.phases,
                                 scan_v.counts_primary).visibility
            rec = mle_reconstruct(scan_h, scan_v, 1.0, 1.0)
            results.append((vis_h, vis_v, rec.params.xi))
        (vh_a, vv_a, xi_a), (vh_b, vv_b, xi_b) = results
        worst_vis = max(worst_vis, abs(vh_a - vh_b), abs(vv_a - vv_b))
        worst_phase = max(worst_phase,
                          abs(wrap_distance(xi_a - xi_b, TWO_PI) - math.pi))
    assert worst_vis <= 1e-6
    assert worst_phase <= 1e-3
    print(f"\nACCEPTANCE 5 PASS: visibility degeneracy {worst_vis:.3e}, "
          f"fringe-phase separation within {worst_phase:.3e} of pi")


def test_c6_sweep_theory_curves(tmp_path):
    out1 = tmp_path / "hwp_ideal"
    assert main(["sweep", "--plate", "hwp", "--angles", "0:45:2.5",
                 "--noiseless", "--n", str(BIG_N), "--out", str(out1)]) == 0
    worst = 0.0
    for line in (out1 / "sweep.csv").read_text().strip().splitlines()[1:]:
        vals = [float(x) for x in line.split(",")]
        angle, vis_h = vals[0], vals[1]
        worst = max(worst, abs(vis_h - abs(math.cos(2 * math.radians(angle)))))
    assert worst <= 1e-6

    out2 = tmp_path / "qwp_ideal"
    assert main(["sweep", "--plate", "qwp", "--angles", "15,30,45,60,75",
                 "--noiseless", "--n", str(BIG_N), "--out", str(out2)]) == 0
    rows = {float(line.split(",")[0]): [float(x) for x in line.split(",")]
            for line in (out2 / "sweep.csv").read_text().strip().splitlines()[1:]}
    plateau_err = max(abs(rows[45.0][1] - 1 / math.sqrt(2)),
                      abs(rows[45.0][2] - 1 / math.sqrt(2)))
    assert plateau_err <= 1e-6

    out3 = tmp_path / "hwp_cal"
    assert main(["sweep", "--plate", "hwp", "--angles", "0:45:5",
                 "--t-h", "0.85", "--t-v", "0.73",
                 "--noiseless", "--n", str(BIG_N), "--out", str(out3)]) == 0
    worst_scaled = 0.0
    for line in (out3 / "sweep.csv").read_text().strip().splitlines()[1:]:
        vals = [float(x) for x in line.split(",")]
        angle, vis_h, vis_v = vals[0], vals[1], vals[2]
        a2 = 2 * math.radians(angle)
        worst_scaled = max(worst_scaled,
                           abs(vis_h - 0.85 * abs(math.cos(a2))),
                           abs(vis_v - 0.73 * abs(math.sin(a2))))
    assert worst_scaled <= 1e-6
    print(f"\nACCEPTANCE 6 PASS: sweep curve errors ideal {worst:.3e}, "
          f"circular plateau {plateau_err:.3e}, scaled {worst_scaled:.3e}")


def test_c7_post_interaction_state():
    # the exact oracle's idler in path b at equal source weights, |t| = 1
    # and p_h2 = 1/2: half the prepared state plus a quarter of the identity
    rng = Rng(777, 0)
    half = math.sqrt(0.5)
    worst = 0.0
    for _ in range(100):
        idler = IdlerStateParams(rng.random(), TWO_PI * rng.random(), 1.0)
        cfg = InterferometerConfig(b1=half, b2_mag=half, idler=idler)
        rho = path_b_idler(cfg)
        lo, hi = eigh(rho.entries, 2)
        fid = fidelity_mixed(rho, idler.state_vector())
        worst = max(worst, abs(lo - 0.25), abs(hi - 0.75), abs(fid - 0.75))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 7 PASS: post-interaction spectrum/fidelity deviation "
          f"{worst:.3e} over 100 random pure preparations")


def test_c8_positivity_boundary():
    rng = Rng(888, 0)
    worst_valid = 0.0
    for _ in range(100):
        for coh in (0.0, 0.5, 1.0):
            cfg = random_valid_config(rng, purity=coh)
            lo = eigh(_total_state_raw(cfg), 8)[0]
            worst_valid = min(worst_valid, lo)
    assert worst_valid >= -1e-10

    stressed_cfg = InterferometerConfig(
        b1=1 / math.sqrt(3), b2_mag=math.sqrt(2 / 3), phi=0.7,
        idler=IdlerStateParams(0.3, 1.2, 1.0))
    lo_bad = eigh(_total_state_raw(stressed_cfg, coherence_override=1.2), 8)[0]
    assert lo_bad <= -1e-4
    print(f"\nACCEPTANCE 8 PASS: valid states min eigenvalue {worst_valid:.3e}; "
          f"coherence-1.2 state detected at {lo_bad:.3e}")


def test_c9_noise_scaling():
    truth = IdlerStateParams(0.3, 1.2, 0.9)
    cfg = InterferometerConfig.balanced(truth)
    trials = 100
    rms = {}
    for n in (100, 1000, 10000):
        se = {"p_h": 0.0, "xi": 0.0, "purity": 0.0}
        for seed in range(trials):
            scan_h, scan_v = _scan_pair(cfg, n, seed, noiseless=False)
            got = mle_reconstruct(scan_h, scan_v, 1.0, 1.0).params
            se["p_h"] += (got.p_h - truth.p_h) ** 2
            se["xi"] += wrap_distance(got.xi, truth.xi) ** 2
            se["purity"] += (got.purity - truth.purity) ** 2
        rms[n] = {k: math.sqrt(v / trials) for k, v in se.items()}
    for key in ("p_h", "xi", "purity"):
        assert rms[100][key] > rms[1000][key] > rms[10000][key], (
            f"RMS({key}) not strictly decreasing: "
            f"{rms[100][key]:.4g} / {rms[1000][key]:.4g} / {rms[10000][key]:.4g}")
    summary = ", ".join(
        f"{k}: {rms[100][k]:.3g} > {rms[1000][k]:.3g} > {rms[10000][k]:.3g}"
        for k in ("p_h", "xi", "purity"))
    print(f"\nACCEPTANCE 9 PASS: RMS errors shrink with the count budget "
          f"({trials} trials each) — {summary}")
