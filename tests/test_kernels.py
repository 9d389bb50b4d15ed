"""Kernel-level tests: PRNG streams against reference transcriptions and
golden draws, Poisson statistics, and linear algebra against numpy."""

import math

import numpy as np
import pytest

from pitomo import _kernels as kernels
from pitomo.qcore import ComplexMatrix, DensityMatrix, kron, partial_trace
from conftest import random_hermitian

MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# PRNG reference checks


def _splitmix64_reference(seed, count):
    """Independent transcription of the published splitmix64 generator."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_published_vector():
    # first outputs for seed 0, as listed with the reference implementation
    assert _splitmix64_reference(0, 3) == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def _xoshiro_reference(state4, count):
    """Independent transcription of the published xoshiro256** generator."""
    s = list(state4)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    out = []
    for _ in range(count):
        out.append((rotl((s[1] * 5) & MASK, 7) * 9) & MASK)
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


def test_stream_matches_reference_composition():
    # the package generator must equal xoshiro256** seeded with four
    # splitmix64 words starting from mix64(seed + GOLDEN*stream)
    seed, stream = 987654321, 3
    z = (seed + 0x9E3779B97F4A7C15 * stream) & MASK
    zm = z
    zm = ((zm ^ (zm >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    zm = ((zm ^ (zm >> 27)) * 0x94D049BB133111EB) & MASK
    zm ^= zm >> 31
    state = _splitmix64_reference(zm, 4)
    expected = _xoshiro_reference(state, 32)
    rng = kernels.Rng(seed, stream)
    assert [rng.u64() for _ in range(32)] == expected


def test_uniform_range_and_determinism():
    rng = kernels.Rng(42, 0)
    xs = [rng.random() for _ in range(2000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    rng2 = kernels.Rng(42, 0)
    assert [rng2.random() for _ in range(2000)] == xs
    # crude uniformity check
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.03


def test_streams_are_distinct():
    a = kernels.Rng(42, 0)
    b = kernels.Rng(42, 1)
    xs = [a.u64() for _ in range(8)]
    ys = [b.u64() for _ in range(8)]
    assert xs != ys


# ---------------------------------------------------------------------------
# Poisson sampler


def test_loggam_against_lgamma():
    for k in range(1, 300):
        ref = math.lgamma(k)
        got = kernels.loggam(float(k))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize("mu", [0.5, 5.0, 50.0])
def test_poisson_moments(mu):
    n = 100000
    rng = kernels.Rng(2024, 0)
    total = 0
    total2 = 0
    for _ in range(n):
        x = rng.poisson(mu)
        assert isinstance(x, int) and x >= 0
        total += x
        total2 += x * x
    mean = total / n
    var = total2 / n - mean * mean
    assert abs(mean - mu) <= 3.0 * math.sqrt(mu / n)
    assert abs(var - mu) <= 0.05 * mu


def test_poisson_large_mean_branch():
    rng = kernels.Rng(5, 0)
    n = 20000
    mu = 667.0
    total = 0
    for _ in range(n):
        total += rng.poisson(mu)
    assert abs(total / n - mu) <= 4.0 * math.sqrt(mu / n)


@pytest.mark.parametrize("seed, stream, mu, expected", [
    (2024, 0, 5.0,
     [9, 1, 3, 5, 4, 2, 5, 5, 4, 9, 4, 3, 3, 3, 4, 2, 5, 7, 4, 7]),
    (2024, 0, 666.6,
     [735, 640, 653, 666, 649, 639, 656, 671, 649, 643,
      664, 666, 665, 658, 661, 702, 721, 693, 698, 670]),
    (7, 3, 5.0,
     [12, 5, 5, 4, 5, 7, 6, 5, 7, 4, 5, 3, 1, 7, 6, 6, 7, 1, 5, 9]),
    (7, 3, 666.6,
     [665, 666, 686, 690, 675, 681, 688, 669, 668, 704,
      597, 680, 614, 701, 621, 673, 685, 653, 662, 649]),
])
def test_poisson_stream_golden(seed, stream, mu, expected):
    # pins the (seed, stream) contract on the inversion (mu < 30) and
    # rejection (mu >= 30) branches
    rng = kernels.Rng(seed, stream)
    assert [rng.poisson(mu) for _ in range(20)] == expected


def test_poisson_edge_cases():
    rng = kernels.Rng(1, 0)
    assert rng.poisson(0.0) == 0
    with pytest.raises(ValueError):
        rng.poisson(-1.0)


# ---------------------------------------------------------------------------
# linear algebra vs numpy


def _as_np(flat, r, c):
    return np.array(flat, dtype=complex).reshape(r, c)


def test_mat_mul_and_kron_against_numpy(rng):
    for _ in range(50):
        r1, c1, c2 = (2 + rng.u64() % 3 for _ in range(3))
        a = [complex(rng.random(), rng.random()) for _ in range(r1 * c1)]
        b = [complex(rng.random(), rng.random()) for _ in range(c1 * c2)]
        got = _as_np(kernels.mat_mul(a, r1, c1, b, c1, c2), r1, c2)
        ref = _as_np(a, r1, c1) @ _as_np(b, c1, c2)
        assert np.max(np.abs(got - ref)) < 1e-13
        gotk = _as_np(kron(ComplexMatrix(r1, c1, tuple(a)),
                           ComplexMatrix(c1, c2, tuple(b))).entries,
                      r1 * c1, c1 * c2)
        refk = np.kron(_as_np(a, r1, c1), _as_np(b, c1, c2))
        assert np.max(np.abs(gotk - refk)) < 1e-13


def test_mat_mul_shape_mismatch():
    with pytest.raises(ValueError):
        kernels.mat_mul([1j] * 4, 2, 2, [1j] * 9, 3, 3)


def test_dagger(rng):
    a = [complex(rng.random(), rng.random()) for _ in range(6)]
    d = kernels.mat_dagger(a, 2, 3)
    ref = _as_np(a, 2, 3).conj().T
    assert np.max(np.abs(_as_np(d, 3, 2) - ref)) == 0.0


def test_partial_trace_against_einsum(rng):
    dims = (2, 3, 2)
    n = 12
    h = random_hermitian(rng, n)
    trace = sum(h[i * n + i].real for i in range(n))
    rho = [x * (1.0 / trace) for x in h]
    got = _as_np(partial_trace(DensityMatrix(n, ComplexMatrix(n, n, tuple(rho))),
                               dims, (0, 2)).matrix.entries, 4, 4)
    t = _as_np(rho, n, n).reshape(2, 3, 2, 2, 3, 2)
    ref = np.einsum("ijkljm->iklm", t).reshape(4, 4)
    assert np.max(np.abs(got - ref)) < 1e-14


def test_eigh_against_numpy(rng):
    for trial in range(60):
        n = 2 + trial % 7
        h = random_hermitian(rng, n)
        vals, vecs = kernels.eigh(h, n)
        ref = np.linalg.eigvalsh(_as_np(h, n, n))
        assert np.max(np.abs(np.array(vals) - ref)) < 1e-11
        # reconstruction residual
        v = _as_np(vecs, n, n)
        recon = v @ np.diag(vals) @ v.conj().T
        assert np.max(np.abs(recon - _as_np(h, n, n))) < 1e-10
        # unitarity of the eigenvector matrix
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10

