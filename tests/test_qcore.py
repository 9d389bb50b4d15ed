"""The qubit's density matrix and the eigensolver: construction
contracts, ``_kernels.eigh`` against the all-principal-minors positivity
oracle, positivity of the joint state, and the state fidelities."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pitomo.states import (DensityMatrix, IdlerStateParams, fidelity_mixed,
                           qubit_state_fidelity)
from pitomo.interferometer import (InterferometerConfig, _BS_ROWS,
                                   _total_state_raw)
from pitomo._kernels import Rng, eigh
from conftest import dense_from_rows, random_hermitian

SQRT1_2 = 1.0 / math.sqrt(2.0)


def flat(rows):
    return tuple(complex(x) for row in rows for x in row)


def eigenvalues(rows):
    return eigh(flat(rows), len(rows))


def dm(rows, labels=()):
    return DensityMatrix(len(rows), flat(rows), tuple(labels))


# ---------------------------------------------------------------------------
# construction


def test_density_matrix_entry_validation():
    with pytest.raises(ValueError, match="expected 4 entries, got 3"):
        DensityMatrix(2, (0.5j, 0j, 0.5j))
    with pytest.raises(ValueError, match="must be finite"):
        dm([[complex("nan"), 0.0], [0.0, 0.5]])
    with pytest.raises(ValueError, match="must be finite"):  # off the diagonal
        dm([[0.5, complex("inf")], [0.0, 0.5]])
    # it holds a qubit and nothing else
    for n in (0, 1, 3, 8):
        with pytest.raises(ValueError, match=f"dim must be 2, got {n}"):
            DensityMatrix(n, flat(np.eye(n) / max(n, 1)))
    # a list is copied into a tuple of complexes; a tuple is kept as given
    state = DensityMatrix(2, [1, 0, 0, 0])
    assert state.entries == (1 + 0j, 0j, 0j, 0j)
    given_entries = (0.5 + 0j, 0.5j, -0.5j, 0.5 + 0j)
    assert DensityMatrix(2, given_entries).entries is given_entries


def test_density_matrix_validation():
    with pytest.raises(ValueError):  # not Hermitian
        dm([[0.5, 0.5], [0.2, 0.5]])
    with pytest.raises(ValueError):  # trace 2
        dm([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):  # label count
        dm([[1.0, 0.0], [0.0, 0.0]], labels=("a",))
    state = dm([[0.5, 0.5], [0.5, 0.5]])
    assert state.basis_labels == ("m0", "m1")


def test_matrix_json_round_trip():
    state = dm([[0.75, 0.1j], [-0.1j, 0.25]], labels=("H", "V"))
    d = state.to_json_dict()
    assert d == {"rows": 2, "cols": 2, "re": [0.75, 0.0, 0.0, 0.25],
                 "im": [0.0, 0.1, -0.1, 0.0], "basis_labels": ["H", "V"]}
    assert DensityMatrix.from_json_dict(d) == state
    with pytest.raises(ValueError, match="rows = 1 and cols = 4"):
        DensityMatrix.from_json_dict(dict(d, rows=1, cols=4))
    three = dict(d, rows=3, cols=3, re=[1 / 3, 0, 0, 0, 1 / 3, 0, 0, 0, 1 / 3],
                 im=[0.0] * 9, basis_labels=["a", "b", "c"])
    with pytest.raises(ValueError, match="2x2, got rows = 3 and cols = 3"):
        DensityMatrix.from_json_dict(three)


# ---------------------------------------------------------------------------
# the recombiner


def test_kron_builds_recombiner():
    # Hadamard on the path factor, identity on polarization
    had = np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]])
    expected = np.kron(had, np.eye(2))
    bs = np.array(dense_from_rows(_BS_ROWS, 4, 4)).reshape(4, 4)
    assert np.max(np.abs(bs - expected)) < 1e-15


# ---------------------------------------------------------------------------
# eigensolver


def test_eigenvalues_diagonal():
    assert eigenvalues([[0.3, 0], [0, 0.7]]) == pytest.approx([0.3, 0.7])
    assert eigenvalues([[0.5, 0], [0, 0.5]]) == pytest.approx([0.5, 0.5])
    assert dm([[0.7, 0], [0, 0.3]]).min_eigenvalue() == pytest.approx(0.3)


def test_eigenvalues_post_interaction_spectrum():
    # half a pure projector plus a quarter of the identity
    psi = (SQRT1_2, SQRT1_2 * 1j)
    rows = [[0.5 * psi[i] * psi[j].conjugate() + (0.25 if i == j else 0.0)
             for j in range(2)] for i in range(2)]
    assert eigenvalues(rows) == pytest.approx([0.25, 0.75], abs=1e-12)
    assert dm(rows).min_eigenvalue() == pytest.approx(0.25, abs=1e-12)


def test_eigen_sum_equals_trace(rng):
    for trial in range(40):
        n = 2 + trial % 7
        h = random_hermitian(rng, n)
        vals = eigh(h, n)
        assert vals == sorted(vals)
        assert abs(sum(vals) - sum(h[i * n + i] for i in range(n)).real) < 1e-10


def test_eigen_rejects_non_hermitian():
    # a density matrix is Hermitian by construction, so its spectrum is real
    with pytest.raises(ValueError, match="not Hermitian"):
        dm([[0.5, 1], [0, 0.5]])


# ---------------------------------------------------------------------------
# positivity


def _principal_minors_psd(flat, n, tol=1e-10):
    """Generalized Sylvester oracle: every principal minor >= -tol."""
    arr = np.array(flat, dtype=complex).reshape(n, n)

    def det(sub):
        m = sub.shape[0]
        if m == 1:
            return sub[0, 0]
        acc = 0j
        for j in range(m):
            minor = np.delete(np.delete(sub, 0, axis=0), j, axis=1)
            acc += (-1) ** j * sub[0, j] * det(minor)
        return acc

    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            sub = arr[np.ix_(subset, subset)]
            if det(sub).real < -tol:
                return False
    return True


def _is_psd(flat_entries, n, tol=1e-10):
    return eigh(flat_entries, n)[0] >= -tol


def test_psd_boundary_case():
    assert _is_psd(flat([[1, 0], [0, 0]]), 2)
    rho = dm([[1, 0], [0, 0]])
    assert rho.assert_physical() is rho
    assert rho.min_eigenvalue() == 0.0


def test_psd_full_coherence_total_state():
    idler = IdlerStateParams(0.5, 0.9, 1.0)
    cfg = InterferometerConfig(b1=0.6, b2_mag=0.8, phi=0.7, idler=idler)
    assert _is_psd(_total_state_raw(cfg), 8)


def test_psd_detects_overcoherent_state():
    idler = IdlerStateParams(0.5, 1.2, 1.0)
    cfg = InterferometerConfig(b1=1 / math.sqrt(3), b2_mag=math.sqrt(2 / 3),
                               phi=0.7, idler=idler)
    raw = _total_state_raw(cfg, coherence_override=1.5)
    assert eigh(raw, 8)[0] < -1e-10
    # numpy agrees the spectrum is genuinely negative
    ref = np.linalg.eigvalsh(np.array(raw).reshape(8, 8))
    assert ref[0] < -1e-4
    # and the qubit's matrix refuses to pass a negative spectrum as physical
    with pytest.raises(ValueError, match="negative eigenvalue"):
        dm([[0.5, 0.6], [0.6, 0.5]]).assert_physical()


def test_psd_agrees_with_principal_minors_oracle():
    rng = Rng(314159, 0)
    checked = 0
    for trial in range(1000):
        n = 3 if trial % 2 == 0 else 4
        h = random_hermitian(rng, n)
        if trial % 2 == 1:
            # make roughly half the cases PSD by squaring
            arr = np.array(h, dtype=complex).reshape(n, n)
            arr = arr @ arr.conj().T
            h = list(arr.flatten())
        assert _is_psd(h, n) == _principal_minors_psd(h, n, tol=1e-10)
        checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# fidelities


def projector(psi):
    return dm([[psi[i] * psi[j].conjugate() for j in range(2)] for i in range(2)])


def test_pure_fidelity_basics():
    # the fidelity report_fidelity takes against a pure reference
    h = (1.0, 0.0)
    v = (0.0, 1.0)
    d = (SQRT1_2, SQRT1_2)
    assert fidelity_mixed(projector(h), h) == pytest.approx(1.0)
    assert fidelity_mixed(projector(h), v) == pytest.approx(0.0)
    assert fidelity_mixed(projector(h), d) == pytest.approx(0.5)
    assert fidelity_mixed(projector(d), h) == pytest.approx(0.5)


@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_pure_fidelity_global_phase_invariance(a, b):
    import cmath
    psi = (SQRT1_2, SQRT1_2 * 1j)
    phi = (0.6, math.sqrt(1 - 0.36) + 0j)
    base = fidelity_mixed(projector(psi), phi)
    rotated = fidelity_mixed(projector(tuple(cmath.exp(1j * a) * x for x in psi)),
                             tuple(cmath.exp(1j * b) * x for x in phi))
    assert abs(base - rotated) < 1e-12


def test_fidelity_mixed():
    half = dm([[0.5, 0], [0, 0.5]])
    any_state = (0.8, 0.6j)
    assert fidelity_mixed(half, any_state) == pytest.approx(0.5)
    proj = dm([[1.0, 0], [0, 0.0]])
    assert fidelity_mixed(proj, (1.0, 0.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity_mixed(half, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        fidelity_mixed(half, (1.0, 1.0))


def test_fidelity_mixed_post_interaction_value():
    psi = (0.6, 0.8j)
    rho = dm([[0.5 * psi[i] * psi[j].conjugate() + (0.25 if i == j else 0)
              for j in range(2)] for i in range(2)])
    assert fidelity_mixed(rho, psi) == pytest.approx(0.75, abs=1e-12)


def test_qubit_state_fidelity_matches_pure_overlap():
    a = IdlerStateParams(0.3, 0.7, 1.0)
    b = IdlerStateParams(0.6, 2.0, 1.0)
    f_closed = qubit_state_fidelity(a.to_density_matrix(), b.to_density_matrix())
    f_pure = abs(sum(x.conjugate() * y for x, y in
                     zip(a.state_vector(), b.state_vector()))) ** 2
    assert f_closed == pytest.approx(f_pure, abs=1e-12)
