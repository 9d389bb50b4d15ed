"""Interferometer physics: joint-state entries, alignment evolution,
closed-form vs exact-pipeline agreement, visibility laws."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitomo._kernels import Rng
from pitomo.interferometer import (BASIS_8, _BS_ROWS, InterferometerConfig,
                                   SignalSetting, _alignment_isometry_raw,
                                   _apply_alignment_raw, _detected_raw,
                                   _signal_marginal_raw, _total_state_raw,
                                   coherence_stressed_state, fringe,
                                   random_valid_config, rates_closed_form,
                                   rates_exact, total_state)
from pitomo._kernels import eigh, sandwich
from pitomo.qcore import fidelity_mixed
from pitomo.reconstruct import fit_sinusoid
from pitomo.states import IdlerStateParams, SourceQ2Params
from conftest import dense_from_rows, digest, path_b_idler, wrap_distance

SQRT1_2 = 1.0 / math.sqrt(2.0)


def reference_total_state(b1, b2, p_h, xi, coh_i, coh_l, coh_lp, p_h2, theta,
                          setting="H"):
    """Independent numpy transcription of the printed 8x8 joint state."""
    p_v, p_v2 = 1 - p_h, 1 - p_h2
    r = np.zeros((8, 8), dtype=complex)
    r[0, 0] = abs(b1) ** 2 * p_h
    r[0, 1] = abs(b1) ** 2 * coh_i * math.sqrt(p_h * p_v) * cmath.exp(-1j * xi)
    r[0, 4] = b1 * np.conj(b2) * math.sqrt(p_h * p_h2)
    r[0, 7] = b1 * np.conj(b2) * math.sqrt(p_h * p_v2) * cmath.exp(-1j * theta)
    r[1, 1] = abs(b1) ** 2 * p_v
    r[1, 4] = b1 * np.conj(b2) * coh_l * math.sqrt(p_v * p_h2) * cmath.exp(1j * xi)
    r[1, 7] = (b1 * np.conj(b2) * coh_lp * math.sqrt(p_v * p_v2)
               * cmath.exp(-1j * (theta - xi)))
    r[4, 4] = abs(b2) ** 2 * p_h2
    r[4, 7] = abs(b2) ** 2 * math.sqrt(p_h2 * p_v2) * cmath.exp(-1j * theta)
    r[7, 7] = abs(b2) ** 2 * p_v2
    r = r + np.triu(r, 1).conj().T
    if setting == "V":
        perm = [2, 3, 0, 1, 4, 5, 6, 7]
        r = r[np.ix_(perm, perm)]
    return r


def visibilities(cfg):
    """Fringe visibilities of the H and V settings."""
    return tuple(fringe(cfg.with_setting(s)).visibility for s in SignalSetting)


def as_np(rho) -> np.ndarray:
    return np.array(rho.entries, dtype=complex).reshape(rho.dim, rho.dim)


def random_real_t_config(rng):
    """A random valid configuration with real, nonnegative transmissions."""
    cfg = random_valid_config(rng)
    return replace(cfg, t_h=abs(cfg.t_h), t_v=abs(cfg.t_v))


def square(flat) -> np.ndarray:
    n = math.isqrt(len(flat))
    return np.array(flat, dtype=complex).reshape(n, n)


def stages(cfg):
    """The exact oracle's states: joint, aligned, signal, and the full
    recombined state, of which ``rates_exact`` forms two populations."""
    r8 = _total_state_raw(cfg)
    r12 = _apply_alignment_raw(r8, cfg)
    rs = _signal_marginal_raw(r12)
    return r8, r12, rs, sandwich(_BS_ROWS, 4, 4, rs)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    idler = IdlerStateParams.horizontal()
    with pytest.raises(ValueError):
        InterferometerConfig(b1=0.5, b2_mag=0.5, idler=idler)
    with pytest.raises(ValueError):
        InterferometerConfig(b1=1.0, b2_mag=0.0, t_h=1.5, idler=idler)
    InterferometerConfig.balanced(IdlerStateParams(0.4, 0.3, 0.75))


def test_config_json_round_trip():
    cfg = InterferometerConfig.balanced(
        IdlerStateParams(0.3, 1.2, 0.9), t_h=0.85 * cmath.exp(0.2j), t_v=0.73,
        phi=0.4, setting=SignalSetting.V)
    back = InterferometerConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg


def test_config_json_cross_coherences_must_equal_purity():
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.3, 1.2, 0.9))
    d = cfg.to_json_dict()
    assert "coherence_l" not in d and "coherence_lp" not in d
    # files written while the coherences were separate fields still load
    old = dict(d, coherence_l=0.9, coherence_lp=0.9)
    assert InterferometerConfig.from_json_dict(old) == cfg
    for key in ("coherence_l", "coherence_lp"):
        with pytest.raises(ValueError, match=key):
            InterferometerConfig.from_json_dict(dict(old, **{key: 0.1}))


# ---------------------------------------------------------------------------
# joint state


def test_total_state_single_source_limit():
    idler = IdlerStateParams(0.3, 1.2, 0.9)
    cfg = InterferometerConfig(b1=1.0, b2_mag=0.0, idler=idler)
    rho = total_state(cfg)
    arr = as_np(rho)
    # top-left 2x2 sub-block carries the idler state; everything else is 0
    idm = as_np(idler.to_density_matrix())
    assert np.max(np.abs(arr[:2, :2] - idm)) < 1e-15
    arr[:2, :2] = 0
    assert np.max(np.abs(arr)) == 0.0
    assert rho.basis_labels == BASIS_8


def test_total_state_reference_source_limit():
    cfg = InterferometerConfig(b1=0.0, b2_mag=1.0,
                               idler=IdlerStateParams.horizontal(),
                               q2=SourceQ2Params(0.5, 0.0))
    arr = as_np(total_state(cfg))
    bell = np.zeros(8, dtype=complex)
    bell[4] = SQRT1_2
    bell[7] = SQRT1_2
    assert np.max(np.abs(arr - np.outer(bell, bell.conj()))) < 1e-15


def test_total_state_generic_entry():
    idler = IdlerStateParams(0.3, 1.2, 0.9)
    cfg = InterferometerConfig(b1=1 / math.sqrt(3), b2_mag=math.sqrt(2 / 3),
                               phi=0.9, idler=idler)
    rho = total_state(cfg)
    expected = (1.0 / 3.0) * 0.9 * math.sqrt(0.3 * 0.7) * cmath.exp(-1.2j)
    assert abs(rho.at(0, 1) - expected) < 1e-15


@pytest.mark.parametrize("setting", ["H", "V"])
def test_total_state_matches_reference_entrywise(setting):
    rng = Rng(77, 0)
    for _ in range(25):
        cfg = random_valid_config(rng, setting=SignalSetting(setting))
        got = as_np(total_state(cfg))
        ref = reference_total_state(
            cfg.b1, cfg.b2, cfg.idler.p_h, cfg.idler.xi, cfg.idler.purity,
            cfg.idler.purity, cfg.idler.purity, cfg.q2.p_h2, cfg.q2.theta,
            setting)
        assert np.max(np.abs(got - ref)) < 1e-14
        assert abs(np.trace(got) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# alignment


def test_alignment_isometry_property(rng):
    for _ in range(20):
        cfg = random_valid_config(rng)
        k = np.array(dense_from_rows(_alignment_isometry_raw(cfg), 12, 8)
                     ).reshape(12, 8)
        assert np.max(np.abs(k.conj().T @ k - np.eye(8))) < 1e-14


def test_alignment_perfect_transmission():
    idler = IdlerStateParams(0.3, 1.2, 1.0)
    cfg = InterferometerConfig.balanced(idler, t_h=1.0, t_v=1.0, phi=0.8)
    arr = square(stages(cfg)[1])
    # witness-path rows (indices 2,3 and 6,7) stay empty
    for w in (2, 3, 6, 7):
        assert np.max(np.abs(arr[w, :])) < 1e-15
        assert np.max(np.abs(arr[:, w])) < 1e-15


def test_alignment_blocked_transmission_kills_cross_terms():
    idler = IdlerStateParams(0.5, 0.4, 1.0)
    cfg = InterferometerConfig.balanced(idler, t_h=0.0, t_v=0.0, phi=0.3)
    rs = square(stages(cfg)[2])
    assert np.max(np.abs(rs[:2, 2:])) < 1e-15


def test_alignment_preserves_trace_and_positivity(rng):
    for _ in range(15):
        cfg = random_valid_config(rng)
        r12 = stages(cfg)[1]
        assert abs(np.trace(square(r12)) - 1.0) < 1e-12
        assert eigh(r12, 12)[0] >= -1e-10


# ---------------------------------------------------------------------------
# recombination and rates


def test_recombiner_is_unitary():
    bs = square(dense_from_rows(_BS_ROWS, 4, 4))
    assert np.max(np.abs(bs @ bs.conj().T - np.eye(4))) < 1e-15


def test_recombine_splits_single_path():
    m = [0j] * 16
    m[0] = 1.0 + 0j
    bs = square(dense_from_rows(_BS_ROWS, 4, 4))
    out = bs @ square(m) @ bs.conj().T
    assert out[0, 0] == pytest.approx(0.5)
    assert out[2, 2] == pytest.approx(0.5)
    assert out[0, 2] == pytest.approx(0.5)
    assert abs(out[1, 1]) == 0.0
    # the detected port sees the H half and no V
    assert _detected_raw(m) == pytest.approx((0.5, 0.0), abs=1e-15)


def test_rate_worked_example():
    # balanced weights, pure H idler, ideal alignment
    cfg = InterferometerConfig(b1=1 / math.sqrt(3), b2_mag=math.sqrt(2 / 3),
                               phi=0.0, idler=IdlerStateParams.horizontal())
    assert rates_exact(cfg).rate_h == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert rates_closed_form(cfg).rate_h == pytest.approx(2.0 / 3.0, abs=1e-12)
    quarter = replace(cfg, phi=math.pi / 2)
    assert rates_exact(quarter).rate_h == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rate_no_transmission_is_flat():
    idler = IdlerStateParams.horizontal()
    cfg = InterferometerConfig.balanced(idler, t_h=0.0)
    r0 = rates_closed_form(replace(cfg, phi=0.0)).rate_h
    for phi in (0.5, 1.5, 3.0):
        assert rates_closed_form(replace(cfg, phi=phi)).rate_h == pytest.approx(r0)
        assert rates_exact(replace(cfg, phi=phi)).rate_h == pytest.approx(r0, abs=1e-14)


def test_oracle_equivalence_sample():
    rng = Rng(4242, 0)
    worst = 0.0
    for _ in range(300):
        cfg = random_valid_config(rng)
        exact = rates_exact(cfg)
        closed = rates_closed_form(cfg)
        worst = max(worst, abs(exact.rate_h - closed.rate_h),
                    abs(exact.rate_v - closed.rate_v))
    assert worst <= 1e-10


unit = st.floats(0.0, 1.0)
angle = st.floats(0.0, 2 * math.pi)


@given(w1=unit, p_h=unit, xi=angle, purity=unit, p_h2=unit, theta=angle,
       t_h=unit, arg_h=angle, t_v=unit, arg_v=angle, phi=angle,
       setting=st.sampled_from(SignalSetting))
def test_closed_form_matches_exact_for_any_config(w1, p_h, xi, purity, p_h2,
                                                  theta, t_h, arg_h, t_v,
                                                  arg_v, phi, setting):
    cfg = InterferometerConfig(
        b1=math.sqrt(w1), b2_mag=math.sqrt(1.0 - w1), phi=phi,
        t_h=t_h * cmath.exp(1j * arg_h), t_v=t_v * cmath.exp(1j * arg_v),
        idler=IdlerStateParams(p_h, xi, purity),
        q2=SourceQ2Params(p_h2, theta), signal_setting=setting)
    exact = rates_exact(cfg)
    closed = rates_closed_form(cfg)
    assert abs(exact.rate_h - closed.rate_h) <= 1e-10
    assert abs(exact.rate_v - closed.rate_v) <= 1e-10


def test_fringe_extrema_sit_at_its_phase(rng):
    for _ in range(20):
        cfg = random_valid_config(rng)
        f = fringe(cfg)
        assert f.at(f.phase) == pytest.approx(f.offset + f.amplitude, abs=1e-12)
        assert f.at(f.phase + math.pi) == pytest.approx(
            f.offset - f.amplitude, abs=1e-12)
        exact = rates_exact(replace(cfg, phi=f.phase))
        top = exact.rate_h if cfg.signal_setting is SignalSetting.H else exact.rate_v
        assert top == pytest.approx(f.offset + f.amplitude, abs=1e-12)


def test_fringe_over_a_grid_is_at_point_by_point(rng):
    # each rate of a grid is the one-point rate: nothing carries over from
    # one point to the next
    grids = [[2.0 * math.pi * k / 200 for k in range(200)],
             [-3.0, -0.0, 0.0, 1e-300, 0.5, 2.75, 6.0, 40.0, 1e6]]
    for _ in range(40):
        f = fringe(random_valid_config(rng))
        grids.append([20.0 * rng.random() - 10.0 for _ in range(30)])
        for phases in grids:
            assert repr(f.over(phases)) == repr([f.at(p) for p in phases])
    assert f.over(()) == []


def test_balanced_case_reduction():
    rng = Rng(11, 0)
    for _ in range(50):
        idler = IdlerStateParams(rng.random(), 2 * math.pi * rng.random(),
                                 rng.random())
        cfg = InterferometerConfig.balanced(idler, t_h=rng.random(),
                                            t_v=rng.random(),
                                            phi=2 * math.pi * rng.random())
        got = rates_closed_form(cfg)
        w1 = cfg.b1 ** 2
        expected_h = w1 * (1.0 + abs(cfg.t_h) * math.sqrt(idler.p_h)
                           * math.cos(cfg.phi))
        assert abs(got.rate_h - expected_h) < 1e-12
        cfg_v = cfg.with_setting(SignalSetting.V)
        got_v = rates_closed_form(cfg_v)
        expected_v = w1 * (1.0 + idler.purity * abs(cfg.t_v)
                           * math.sqrt(idler.p_v) * math.cos(cfg.phi - idler.xi))
        assert abs(got_v.rate_v - expected_v) < 1e-12
        # constant channel: half the reference weight in that polarization
        assert got_v.rate_h == pytest.approx(
            0.5 * cfg.b2_mag ** 2 * cfg.q2.p_h2, abs=1e-12)


def test_intermediate_states_stay_physical(rng):
    for _ in range(10):
        cfg = random_valid_config(rng)
        for state in stages(cfg):
            n = math.isqrt(len(state))
            assert abs(np.trace(square(state)) - 1.0) < 1e-12
            assert eigh(state, n)[0] >= -1e-10
        # the public joint state is the first stage
        assert total_state(cfg).entries == tuple(stages(cfg)[0])


# ---------------------------------------------------------------------------
# visibilities


def test_visibility_calibration_values():
    idler = IdlerStateParams.horizontal()
    cfg = InterferometerConfig.balanced(idler, t_h=0.85, t_v=0.73)
    v_h, _ = visibilities(cfg)
    assert v_h == pytest.approx(0.85, abs=1e-12)
    cfg_v = InterferometerConfig.balanced(IdlerStateParams(0.0, 0.0, 1.0),
                                          t_h=0.85, t_v=0.73)
    _, v_v = visibilities(cfg_v)
    assert v_v == pytest.approx(0.73, abs=1e-12)


def test_visibility_circular_extreme():
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.5, 0.3, 1.0))
    v_h, v_v = visibilities(cfg)
    assert v_h == pytest.approx(SQRT1_2, abs=1e-12)
    assert v_v == pytest.approx(SQRT1_2, abs=1e-12)


def test_visibility_mixed_idler_has_no_v_fringe():
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.3, 0.0, 0.0))
    _, v_v = visibilities(cfg)
    assert v_v == 0.0


def test_visibility_matches_swept_extrema(rng):
    # sweep grids aligned with the fringe extrema so max/min are exact
    for _ in range(20):
        cfg = random_real_t_config(rng)
        v_h, v_v = visibilities(cfg)
        for setting, vis in ((SignalSetting.H, v_h), (SignalSetting.V, v_v)):
            c = cfg.with_setting(setting)
            delta = 0.0 if setting is SignalSetting.H else (
                cfg.idler.xi - cfg.q2.theta)
            rates = [rates_closed_form(replace(c, phi=delta + k * math.pi / 10))
                     for k in range(20)]
            vals = [r.rate_h if setting is SignalSetting.H else r.rate_v
                    for r in rates]
            hi, lo = max(vals), min(vals)
            swept = (hi - lo) / (hi + lo)
            assert abs(swept - vis) <= 1e-10


def test_visibility_monotonic_in_population_and_transmission():
    base = 0.0
    for p_h in (0.1, 0.3, 0.5, 0.7, 0.9):
        cfg = InterferometerConfig.balanced(IdlerStateParams(p_h, 0.0, 1.0))
        v_h, _ = visibilities(cfg)
        assert v_h > base
        base = v_h
    base = 0.0
    for t in (0.2, 0.4, 0.6, 0.8, 1.0):
        cfg = InterferometerConfig.balanced(IdlerStateParams(0.6, 0.0, 1.0),
                                            t_h=t)
        v_h, _ = visibilities(cfg)
        assert v_h > base
        base = v_h


def test_fringe_phase_shift_equals_xi_minus_theta(rng):
    # fit noiseless rate curves; the two fringe maxima differ by xi - theta
    phases = [2 * math.pi * k / 40 for k in range(40)]
    for _ in range(10):
        cfg = random_real_t_config(rng)
        if cfg.idler.purity * math.sqrt(cfg.idler.p_h * cfg.idler.p_v) < 0.05:
            continue
        rh = [rates_closed_form(
            replace(cfg, signal_setting=SignalSetting.H, phi=p)).rate_h
            for p in phases]
        rv = [rates_closed_form(
            replace(cfg, signal_setting=SignalSetting.V, phi=p)).rate_v
            for p in phases]
        fit_h = fit_sinusoid(phases, rh)
        fit_v = fit_sinusoid(phases, rv)
        # maxima sit at -phase; difference of maxima = phase_h - phase_v
        shift = wrap_distance(fit_h.phase - fit_v.phase,
                              2 * math.pi)
        target = wrap_distance(cfg.idler.xi - cfg.q2.theta, 2 * math.pi)
        assert abs(shift - target) < 1e-10 or abs(
            (2 * math.pi - shift) - target) < 1e-10


# ---------------------------------------------------------------------------
# post-interaction state: the oracle's idler in path b


def test_post_interaction_h():
    # equal source weights: w1 |H><H| + w2 diag(1/2, 1/2) over 1
    cfg = InterferometerConfig(b1=SQRT1_2, b2_mag=SQRT1_2,
                               idler=IdlerStateParams.horizontal())
    rho = path_b_idler(cfg)
    assert rho.at(0, 0) == pytest.approx(0.75, abs=1e-15)
    assert rho.at(1, 1) == pytest.approx(0.25, abs=1e-15)
    # balanced sources, w1 = 1/3: diag(2/3, 1/3)
    rho = path_b_idler(InterferometerConfig.balanced(IdlerStateParams.horizontal()))
    assert eigh(rho.entries, 2) == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-15)


def test_post_interaction_spectrum_and_fidelity(rng):
    for _ in range(30):
        idler = IdlerStateParams(rng.random(), 2 * math.pi * rng.random(), 1.0)
        cfg = InterferometerConfig(b1=SQRT1_2, b2_mag=SQRT1_2, idler=idler)
        rho = path_b_idler(cfg)
        vals = eigh(rho.entries, 2)
        assert abs(vals[0] - 0.25) < 1e-12
        assert abs(vals[1] - 0.75) < 1e-12
        assert fidelity_mixed(rho, idler.state_vector()) == pytest.approx(
            0.75, abs=1e-12)
    # any arrangement and any idler purity: source 1's idler passes
    # T = diag(t_h, t_v), source 2's loses its coherence with its signal,
    # so the state is w1 T rho T^dagger + w2 diag(p_h2, p_v2) over its trace
    for _ in range(300):
        cfg = random_valid_config(rng)
        w1, w2 = cfg.b1 ** 2, cfg.b2_mag ** 2
        t = (cfg.t_h, cfg.t_v)
        q2 = (cfg.q2.p_h2, cfg.q2.p_v2)
        rho = cfg.idler.to_density_matrix()
        m = [w1 * t[i] * t[j].conjugate() * rho.at(i, j) + (w2 * q2[i] if i == j else 0)
             for i in range(2) for j in range(2)]
        trace = (m[0] + m[3]).real
        assert [x / trace for x in m] == pytest.approx(path_b_idler(cfg).entries,
                                                        abs=1e-12)


def test_coherence_stress_boundary():
    rng = Rng(8, 0)
    cfg = random_valid_config(rng, purity=0.5)
    ok = coherence_stressed_state(cfg, 1.0)
    assert ok.min_eigenvalue() >= -1e-10
    bad = coherence_stressed_state(cfg, 1.2)
    assert bad.min_eigenvalue() <= -1e-4


def test_exact_pipeline_golden_bits():
    # digests of the matrix pipeline's outputs on seeded configurations;
    # any change to the kernels' arithmetic or order of summation shows here
    rng = Rng(1618, 0)
    aligned, rates = [], []
    for _ in range(300):
        cfg = random_valid_config(rng)
        aligned.extend(_apply_alignment_raw(_total_state_raw(cfg), cfg))
        r = rates_exact(cfg)
        rates.extend((r.rate_h, r.rate_v))
    assert digest(aligned) == (
        "b748791f05f685b186710ebfc619a0a11e7b46efc06d41555780278913357b7d")
    assert digest(rates) == (
        "9a8660a026c5243123a8bea7b2aa322ce1526448b08debf1d57d80c059189e76")
