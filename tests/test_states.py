"""State parametrization and waveplate preparation tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitomo.states import (IdlerStateParams, SourceQ2Params, WaveplateKind,
                           WaveplateSetting, apply_plates,
                           prepared_idler_params, waveplate_unitary,
                           wrap_angle)
from conftest import wrap_distance

SQRT1_2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# parametrization


def test_idler_matrix_pure_h():
    rho = IdlerStateParams(1.0, 0.0, 1.0).to_density_matrix()
    assert rho.at(0, 0) == 1.0
    assert rho.at(1, 1) == 0.0
    assert rho.at(0, 1) == 0.0


def test_idler_matrix_fully_mixed():
    rho = IdlerStateParams(0.5, 0.0, 0.0).to_density_matrix()
    assert rho.at(0, 0) == pytest.approx(0.5)
    assert rho.at(0, 1) == 0.0
    assert rho.at(1, 0) == 0.0


def test_idler_matrix_circular():
    rho = IdlerStateParams(0.5, math.pi / 2, 1.0).to_density_matrix()
    assert abs(rho.at(0, 1) - (-0.5j)) < 1e-15
    assert abs(rho.at(1, 0) - 0.5j) < 1e-15


def test_params_validation_and_wrap():
    with pytest.raises(ValueError):
        IdlerStateParams(1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        IdlerStateParams(0.5, 0.0, -0.1)
    p = IdlerStateParams(0.5, -math.pi, 1.0)
    assert p.xi == pytest.approx(math.pi)
    assert IdlerStateParams(0.5, 2 * math.pi, 1.0).xi == pytest.approx(0.0)


def test_state_vector_requires_purity():
    with pytest.raises(ValueError):
        IdlerStateParams(0.5, 0.0, 0.9).state_vector()


def test_q2_params():
    q2 = SourceQ2Params(0.5, -0.5)
    assert q2.p_v2 == pytest.approx(0.5)
    assert q2.theta == pytest.approx(2 * math.pi - 0.5)
    with pytest.raises(ValueError):
        SourceQ2Params(1.2, 0.0)


@given(st.floats(0.0, 1.0), st.floats(-10.0, 10.0),
       st.floats(0.0, 1.0))
def test_round_trip_params_matrix(p_h, xi, purity):
    # read the parameters back from the matrix form in the module docstring
    params = IdlerStateParams(p_h, xi, purity)
    rho = params.to_density_matrix()
    assert rho.basis_labels == ("H", "V")
    assert rho.at(0, 0).real == params.p_h and rho.at(1, 1).real == params.p_v
    assert rho.at(1, 0) == rho.at(0, 1).conjugate()
    off = rho.at(0, 1)
    denom = math.sqrt(p_h * (1.0 - p_h))
    if denom > 1e-12:
        assert abs(abs(off) / denom - params.purity) < 1e-12
    if params.purity * denom > 1e-9:
        assert wrap_distance(wrap_angle(-cmath.phase(off)), params.xi) < 1e-12


# ---------------------------------------------------------------------------
# waveplates


def test_hwp_at_zero_is_diag():
    u = waveplate_unitary(WaveplateSetting.hwp(0.0))
    assert abs(u[0] - 1.0) < 1e-15
    assert abs(u[3] + 1.0) < 1e-15
    assert abs(u[1]) < 1e-15


def test_hwp_22p5_prepares_diagonal():
    x, y = apply_plates([WaveplateSetting.hwp(math.radians(22.5))])
    assert abs(x - SQRT1_2) < 1e-12
    assert abs(y - SQRT1_2) < 1e-12


def test_qwp_45_prepares_circular():
    x, y = apply_plates([WaveplateSetting.qwp(math.radians(45))])
    assert abs(abs(x) - SQRT1_2) < 1e-12
    assert abs(abs(y) - SQRT1_2) < 1e-12
    # quarter-period lag between the components
    assert abs(abs(cmath.phase(y) - cmath.phase(x)) - math.pi / 2) < 1e-12


@given(st.floats(-10.0, 10.0),
       st.sampled_from([WaveplateKind.HALF_WAVE, WaveplateKind.QUARTER_WAVE]))
def test_waveplate_unitarity(angle, kind):
    u = waveplate_unitary(WaveplateSetting(kind, angle))
    m = np.array(u).reshape(2, 2)
    assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12


def test_prepared_params_hwp_zero():
    p = prepared_idler_params([WaveplateSetting.hwp(0.0)])
    assert (p.p_h, p.xi, p.purity) == (1.0, 0.0, 1.0)


def test_prepared_params_hwp_22p5():
    p = prepared_idler_params([WaveplateSetting.hwp(math.radians(22.5))])
    assert p.p_h == pytest.approx(0.5, abs=1e-12)
    assert p.xi == pytest.approx(0.0, abs=1e-12)
    assert p.purity == 1.0


def test_prepared_params_qwp_45_circular():
    p = prepared_idler_params([WaveplateSetting.qwp(math.radians(45))])
    assert p.p_h == pytest.approx(0.5, abs=1e-12)
    # project convention: qwp at +45 deg lands on xi = 3*pi/2
    assert wrap_distance(p.xi, 1.5 * math.pi) < 1e-12
    assert p.purity == 1.0


def test_hwp_sweep_population_law():
    for k in range(46):
        alpha = math.radians(k)
        p = prepared_idler_params([WaveplateSetting.hwp(alpha)])
        assert abs(p.p_h - math.cos(2 * alpha) ** 2) < 1e-12


def test_plate_cascade_matches_matrix_product():
    plates = [WaveplateSetting.hwp(0.3), WaveplateSetting.qwp(1.1)]
    x, y = apply_plates(plates)
    u1 = np.array(waveplate_unitary(plates[0])).reshape(2, 2)
    u2 = np.array(waveplate_unitary(plates[1])).reshape(2, 2)
    ref = u2 @ u1 @ np.array([1.0, 0.0])
    assert abs(x - ref[0]) < 1e-12 and abs(y - ref[1]) < 1e-12


def test_wrap_angle():
    assert wrap_angle(-0.1) == pytest.approx(2 * math.pi - 0.1)
    assert wrap_angle(7.0) == pytest.approx(7.0 - 2 * math.pi)
    assert wrap_angle(math.pi, math.pi) == 0.0
