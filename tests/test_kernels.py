"""Kernel-level tests: PRNG streams against MT19937's published vector
and golden draws, Poisson statistics, linear algebra against numpy, and the
bits of the oracle's signal state against the trace of naive loops, of
the eigensolver against its plain-loop reference, and golden digests."""

import cmath
import math
import random
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pitomo import _kernels as kernels
from pitomo._kernels import loggam
from pitomo.interferometer import (InterferometerConfig, _BS_ROWS,
                                   SignalSetting, _alignment_isometry_raw,
                                   _detected_raw, _signal_state_raw,
                                   _total_state_raw, random_valid_config,
                                   rates_exact)
from pitomo.states import IdlerStateParams
from conftest import (IDLER_MODES, dense_alignment, dense_from_rows,
                      dense_joint, digest, loop_marginal, naive_aligned,
                      naive_sandwich, random_hermitian)

MASK = (1 << 64) - 1
# the modes of a matrix given densely on all eight joint modes
_EVERY_MODE = tuple(range(8))


# ---------------------------------------------------------------------------
# PRNG: the standard library's MT19937 at (seed << 64) | stream


def test_mt19937_published_vector():
    # the first outputs of Matsumoto and Nishimura's mt19937ar.out, seeded
    # by init_by_array with the key {0x123, 0x234, 0x345, 0x456}; an int
    # seed is that key when its 32-bit words, lowest first, are the key
    key = (0x123, 0x234, 0x345, 0x456)
    gen = random.Random(sum(k << (32 * i) for i, k in enumerate(key)))
    assert [gen.getrandbits(32) for _ in range(3)] == [
        1067595299, 955945823, 477289528]


def test_stream_uniform_is_the_same_on_every_python():
    # the value on every CPython from 3.6 to 3.13
    assert kernels.Rng(12345, 3).random() == 0.12692429910334824


def test_stream_matches_reference_composition():
    # stream (seed, stream) is the generator seeded with (seed << 64) | stream
    for seed, stream in [(0, 0), (987654321, 3), (1, MASK), (MASK, 0),
                         (MASK, MASK)]:
        rng = kernels.Rng(seed, stream)
        gen = random.Random((seed << 64) | stream)
        assert ([rng.random() for _ in range(32)]
                == [gen.random() for _ in range(32)])


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
    draws = {tuple(kernels.Rng(42, k).random() for _ in range(8))
             for k in range(4)}
    assert len(draws) == 4


@pytest.mark.parametrize("seed, stream", [
    (-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
def test_seed_and_stream_must_fit_in_64_bits(seed, stream):
    # the fold (seed << 64) | stream is one-to-one only on [0, 2^64)^2
    name = "seed" if stream == 0 else "stream"
    with pytest.raises(ValueError, match=f"{name} must fit in 64 bits"):
        kernels.Rng(seed, stream)


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


# each list is _reference_poisson run over random.Random((seed << 64) | stream)
@pytest.mark.parametrize("seed, stream, mu, expected", [
    (2024, 0, 5.0,
     [3, 4, 7, 2, 7, 9, 6, 3, 5, 9, 3, 4, 6, 5, 5, 4, 5, 1, 8, 8]),
    (2024, 0, 666.6,
     [638, 690, 676, 672, 640, 675, 663, 673, 711, 649,
      644, 708, 699, 628, 720, 626, 657, 658, 641, 686]),
    (7, 3, 5.0,
     [5, 1, 6, 4, 4, 5, 8, 8, 9, 2, 7, 5, 3, 3, 7, 4, 6, 1, 3, 8]),
    (7, 3, 666.6,
     [666, 683, 651, 706, 718, 692, 645, 694, 675, 648,
      669, 668, 652, 706, 648, 652, 695, 645, 690, 650]),
])
def test_poisson_stream_golden(seed, stream, mu, expected):
    # pins the (seed, stream) contract on the inversion (mu < 30) and
    # rejection (mu >= 30) branches
    rng = kernels.Rng(seed, stream)
    assert [rng.poisson(mu) for _ in range(20)] == expected


def test_poisson_edge_cases():
    rng = kernels.Rng(1, 0)
    assert rng.poisson(0.0) == 0
    for bad in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            rng.poisson(bad)
    assert _state(rng) == _state(kernels.Rng(1, 0))


def _reference_poisson(self, mu):
    """The draw-by-draw sampler that ``Rng.poissons`` replaced, verbatim."""
    if mu < 0.0 or math.isnan(mu):
        raise ValueError(f"Poisson mean must be >= 0, got {mu}")
    if mu == 0.0:
        return 0
    if mu < 30.0:
        # inversion by sequential search on the CDF, one uniform per draw
        u = self.random()
        pmf = math.exp(-mu)
        cdf = pmf
        k = 0
        while u > cdf:
            k += 1
            pmf = pmf * (mu / k)
            cdf = cdf + pmf
            if k > 1000:  # unreachable for mu < 30; guards fp corner cases
                break
        return k
    # transformed rejection: proposal centered on the normal
    # approximation, exact log-pmf acceptance test
    slam = math.sqrt(mu)
    loglam = math.log(mu)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = self.random() - 0.5
        v = self.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mu + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                <= k * loglam - mu - loggam(k + 1.0)):
            return int(k)


def _state(rng):
    return rng._gen.getstate()


_EDGE_MEANS = (0.0, 5e-324, 29.999999999999996, 30.0, 1e4)
_mean = (st.sampled_from(_EDGE_MEANS) | st.floats(0.0, 30.0)
         | st.floats(30.0, 1e4))
# runs of equal means (the memoized path) between changes of mean
_means = st.lists(st.tuples(_mean, st.integers(1, 6)), max_size=12).map(
    lambda runs: [mu for mu, count in runs for _ in range(count)])


@given(st.integers(0, MASK), st.integers(0, 3), _means)
# a new mean on the inversion branch must drop the previous mean's table
@example(1, 0, [2.0, 2.0, 2.0, 20.0, 20.0, 20.0, 2.0, 2.0])
@example(1, 0, [40.0, 40.0, 900.0, 900.0, 40.0])
@example(7, 1, [0.0, 0.0, 5e-324, 5e-324, 29.999999999999996,
                29.999999999999996, 30.0, 30.0, 1e4, 1e4])
# the rejection branch's check refuses only an infinite or NaN mean
@example(5, 1, [3.0, 1e308, 1e308, 3.0, 3.0, 40.0, sys.float_info.max])
def test_poissons_matches_reference_sampler(seed, stream, mus):
    rng = kernels.Rng(seed, stream)
    ref = kernels.Rng(seed, stream)
    assert rng.poissons(mus) == [_reference_poisson(ref, mu) for mu in mus]
    assert _state(rng) == _state(ref)


@pytest.mark.parametrize("mu", [1e-300, 0.5, 5.0, 29.999])
def test_constant_mean_batches_match_reference_sampler(mu):
    # the constant detector's batches: one mean, its CDF table built on
    # the first repeat and bisected for every draw after
    for seed in range(50):
        rng = kernels.Rng(seed, 1)
        ref = kernels.Rng(seed, 1)
        assert rng.poissons([mu] * 2000) == [_reference_poisson(ref, mu)
                                            for _ in range(2000)]
        assert _state(rng) == _state(ref)


class _TopUniforms:
    """A generator whose every uniform is the largest, 1 - 2^-53."""

    def random(self):
        return 1.0 - 2.0 ** -53


@pytest.mark.parametrize("mu", [2.75, 4.0, 9.25])
def test_a_uniform_above_the_whole_cdf_takes_the_cap(mu):
    # these means' CDF sums stop growing below 1 - 2^-53, so the largest
    # uniform lies above every term: the search and the table give k = 1001
    assert kernels._cdf_table(mu)[-1] < 1.0 - 2.0 ** -53
    rng = kernels.Rng(1)
    rng._gen = _TopUniforms()
    assert rng.poissons([mu] * 3) == [_reference_poisson(rng, mu)] * 3 == [1001] * 3


@pytest.mark.parametrize("bad", [-1.0, -5e-324, math.nan, math.inf])
def test_poissons_bad_mean_mid_batch_keeps_state_of_draws_before(bad):
    mus = [3.0, 3.0, 700.0, 700.0, bad, 3.0]
    rng = kernels.Rng(11, 2)
    ref = kernels.Rng(11, 2)
    with pytest.raises(ValueError):
        rng.poissons(mus)
    for mu in mus[:4]:
        _reference_poisson(ref, mu)
    assert _state(rng) == _state(ref)


@pytest.mark.parametrize("mus", [[math.nan, 3.0], [-0.5], [math.inf, -1.0]])
def test_poissons_draw_nothing_before_a_bad_first_mean(mus):
    rng = kernels.Rng(11, 2)
    state = _state(rng)
    with pytest.raises(ValueError, match=f"got {mus[0]}"):
        rng.poissons(mus)
    assert _state(rng) == state


# ---------------------------------------------------------------------------
# linear algebra vs numpy


def _as_np(flat, r, c):
    return np.array(flat, dtype=complex).reshape(r, c)


def test_mat_mul_against_numpy(rng):
    """The aligned state K m K^dagger of the test reference, and the signal
    state traced from it, against numpy, for joint states and for dense
    non-Hermitian m, given on all eight modes; with K the plain
    embedding (t_h = t_v = 1) the aligned state is m itself, to the bit."""
    for _ in range(50):
        cfg = random_valid_config(rng)
        k = _as_np(dense_alignment(cfg), 12, 8)
        m = [complex(rng.random(), rng.random()) for _ in range(64)]
        for modes, block in (_total_state_raw(cfg), (_EVERY_MODE, m)):
            r8 = dense_joint(modes, block)
            got = _as_np(naive_aligned(r8, cfg), 12, 12)
            ref = k @ _as_np(r8, 8, 8) @ k.conj().T
            assert np.max(np.abs(got - ref)) < 1e-13
            rs = _as_np(_signal_state_raw(modes, block, cfg), 4, 4)
            rs_ref = _as_np(loop_marginal(ref.ravel().tolist()), 4, 4)
            assert np.max(np.abs(rs - rs_ref)) < 1e-13
        got = _as_np(naive_aligned(m, replace(cfg, t_h=1.0, t_v=1.0)), 12, 12)
        b_modes = [0, 1, 4, 5, 8, 9, 10, 11]
        assert got[np.ix_(b_modes, b_modes)].ravel().tolist() == m
        got[np.ix_(b_modes, b_modes)] = 0
        assert not got.any()


def test_dagger(rng):
    """The right factor of the alignment is the conjugate transpose of K:
    K I K^dagger is Hermitian to the bit and matches numpy K K^H, and so
    is the signal state traced from it."""
    eye = [complex(i == j) for i in range(8) for j in range(8)]
    for _ in range(50):
        cfg = random_valid_config(rng)
        kkd = _as_np(naive_aligned(eye, cfg), 12, 12)
        k = _as_np(dense_alignment(cfg), 12, 8)
        assert np.array_equal(kkd, kkd.conj().T)
        assert np.max(np.abs(kkd - k @ k.conj().T)) < 1e-14
        rs = _as_np(_signal_state_raw(_EVERY_MODE, eye, cfg), 4, 4)
        ref = _as_np(loop_marginal((k @ k.conj().T).ravel().tolist()), 4, 4)
        assert np.array_equal(rs, rs.conj().T)
        assert np.max(np.abs(rs - ref)) < 1e-14


def test_eigh_against_numpy(rng):
    for trial in range(60):
        n = 2 + trial % 7
        h = random_hermitian(rng, n)
        vals = kernels.eigh(h, n)
        assert vals == sorted(vals)
        ref = np.linalg.eigvalsh(_as_np(h, n, n))
        assert np.max(np.abs(np.array(vals) - ref)) < 1e-11


# ---------------------------------------------------------------------------
# bit-level pins of the alignment and eigh


_SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                 complex(-0.0, -0.0))
_finite = st.floats(-1e3, 1e3, allow_nan=False)
# about 70% exact zeros of every sign, the rest arbitrary finite entries
_sparse_entry = st.tuples(st.integers(0, 9), st.sampled_from(_SIGNED_ZEROS),
                          st.builds(complex, _finite, _finite)).map(
    lambda t: t[1] if t[0] < 7 else t[2])


@st.composite
def _dead_mode_alignment(draw):
    """An 8x8 m of sparse entries with a drawn set of modes zeroed with
    signed zeros: their rows only, their columns only, or both (dead
    modes); and a configuration from ``random_valid_config`` whose t_h and
    t_v may be replaced by one of modulus 0 (signed zeros), 1 or 5e-324."""
    m = draw(st.lists(_sparse_entry, min_size=64, max_size=64))
    modes = draw(st.sets(st.integers(0, 7)))
    part = draw(st.sampled_from(("rows", "columns", "both")))
    zero = st.sampled_from(_SIGNED_ZEROS)
    for l in sorted(modes):
        for j in range(8):
            if part != "columns":
                m[l * 8 + j] = draw(zero)
            if part != "rows":
                m[j * 8 + l] = draw(zero)
    cfg = random_valid_config(kernels.Rng(draw(st.integers(0, 2**32 - 1)), 0))
    t = {}
    for name in ("t_h", "t_v"):
        unit = cmath.exp(1j * cmath.phase(getattr(cfg, name)))
        t[name] = draw(st.sampled_from((getattr(cfg, name), 0.0 * unit,
                                        -0.0 * unit, unit, 1 + 0j,
                                        complex(5e-324, 0.0))))
    return m, replace(cfg, **t)


def _m8_with(zeros=(), entries=()):
    """An 8x8 m of nonzero entries with the listed entries set to 0j and
    then the listed (index, value) pairs set."""
    m = [complex(k + 1, 0.5 - k) for k in range(64)]
    for k in zeros:
        m[k] = 0j
    for k, v in entries:
        m[k] = v
    return m


_CFG = InterferometerConfig.balanced(IdlerStateParams(0.3, 1.0, 0.7),
                                     t_h=0.6 * cmath.exp(0.4j), t_v=-0.8j)
_ROW_1 = range(8, 16)
_COL_1 = range(1, 64, 8)


@given(_dead_mode_alignment())
# m all zero: every mode is dead
@example(([_SIGNED_ZEROS[k % 4] for k in range(64)], _CFG))
# mode 1 has a zero row but a nonzero column, then the reverse
@example((_m8_with(zeros=_ROW_1), _CFG))
@example((_m8_with(zeros=_COL_1), _CFG))
# a subnormal, the only nonzero of its row and column
@example((_m8_with(zeros=[*_ROW_1, *_COL_1],
                   entries=[(9, complex(5e-324, 0.0))]), _CFG))
# a transmission of modulus 0 with signed zeros, and one of modulus 1
@example((_m8_with(), replace(_CFG, t_h=complex(-0.0, 0.0), t_v=1j)))
def test_sandwich_bits_equal_naive_loop_with_dead_modes(case):
    # the signal state is the trace of the naive K m K^dagger, to the bit
    m, cfg = case
    assert list(map(repr, _signal_state_raw(_EVERY_MODE, m, cfg))) == list(map(
        repr, loop_marginal(naive_aligned(m, cfg))))


def test_sandwich_bits_equal_naive_loop_on_alignment_and_recombiner():
    """The oracle's stages on joint states: the signal state, the trace of
    the naive K r8 K^dagger, and the detected populations, each against
    its naive loop."""
    rng = kernels.Rng(31, 0)
    configs = [random_valid_config(rng) for _ in range(40)]
    configs.append(InterferometerConfig.balanced(IdlerStateParams(0.3, 1.0, 0.7)))
    bs = dense_from_rows(_BS_ROWS, 4, 4)
    for cfg in configs:
        modes, block = _total_state_raw(cfg)
        rs = _signal_state_raw(modes, block, cfg)
        assert list(map(repr, rs)) == list(map(repr, loop_marginal(
            naive_aligned(dense_joint(modes, block), cfg))))
        full = naive_sandwich(bs, 4, 4, rs)
        assert list(map(repr, _detected_raw(rs))) == [
            repr(full[0].real), repr(full[5].real)]


def test_detected_rates_equal_naive_recombined_diagonal():
    # rates_exact forms only the detected port's two populations; they are
    # the first two diagonal entries of the full naive B rho_S B^dagger
    rng = kernels.Rng(1729, 0)
    bs = dense_from_rows(_BS_ROWS, 4, 4)
    for _ in range(2000):
        cfg = random_valid_config(rng)
        rs = loop_marginal(naive_aligned(dense_joint(*_total_state_raw(cfg)), cfg))
        full = naive_sandwich(bs, 4, 4, rs)
        rates = rates_exact(cfg)
        assert (repr(rates.rate_h), repr(rates.rate_v)) == (
            repr(full[0].real), repr(full[5].real))
        assert list(map(repr, _detected_raw(rs))) == [
            repr(full[0].real), repr(full[5].real)]


def _reference_eigh(a, n):
    """The Jacobi eigensolver as plain loops over whole rows and columns."""
    m = [0j] * (n * n)
    for i in range(n):
        m[i * n + i] = complex(a[i * n + i].real, 0.0)
        for j in range(i + 1, n):
            h = 0.5 * (a[i * n + j] + a[j * n + i].conjugate())
            m[i * n + j] = h
            m[j * n + i] = h.conjugate()

    fro2 = 0.0
    for i in range(n * n):
        x = m[i]
        fro2 = fro2 + x.real * x.real + x.imag * x.imag
    thr = 1e-13 * max(1.0, math.sqrt(fro2))

    rows = [range(p * n, p * n + n) for p in range(n)]
    cols = [range(p, n * n, n) for p in range(n)]
    off_diag = [i * n + j for i in range(n) for j in range(n) if i != j]
    for _ in range(100):
        off2 = 0.0
        for ij in off_diag:
            x = m[ij]
            off2 = off2 + x.real * x.real + x.imag * x.imag
        if math.sqrt(off2) < thr:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = m[p * n + q]
                gm = math.sqrt(g.real * g.real + g.imag * g.imag)
                if gm <= 1e-300:
                    continue
                u = complex(g.real / gm, g.imag / gm)
                uc = u.conjugate()
                alpha = m[p * n + p].real
                beta = m[q * n + q].real
                d = (alpha - beta) / (2.0 * gm)
                if d >= 0.0:
                    t = 1.0 / (d + math.sqrt(d * d + 1.0))
                else:
                    t = -1.0 / (-d + math.sqrt(d * d + 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s_uc = s * uc
                ms_u = -s * u
                s_u = s * u
                ms_uc = -s * uc
                for ip, iq in zip(cols[p], cols[q]):
                    x = m[ip]
                    y = m[iq]
                    m[ip] = c * x + s_uc * y
                    m[iq] = ms_u * x + c * y
                for pj, qj in zip(rows[p], rows[q]):
                    x = m[pj]
                    y = m[qj]
                    m[pj] = c * x + s_u * y
                    m[qj] = ms_uc * x + c * y

    return sorted(m[i * n + i].real for i in range(n))


def _with_zero_rows(rng, n):
    """A seeded Hermitian matrix whose rows and columns outside a random
    subset are exact zeros of random signs, some with a -0.0 diagonal."""
    h = random_hermitian(rng, n)
    for i in range(n):
        if rng.random() < 0.5:
            for j in range(n):
                z = _SIGNED_ZEROS[int(4 * rng.random())]
                h[i * n + j] = z
                h[j * n + i] = z.conjugate()
            if rng.random() < 0.5:
                h[i * n + i] = complex(-0.0, 0.0)
    return h


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 12])
def test_eigh_bits_equal_reference_with_zero_rows(n):
    rng = kernels.Rng(4242, n)
    cases = [[0j] * (n * n), [complex(-0.0, 0.0)] * (n * n)]
    cases += [_with_zero_rows(rng, n) for _ in range(24)]
    # tiny but nonzero entries keep their rows in the sweep
    tiny = _with_zero_rows(rng, n)
    tiny[n * n - 1] = complex(1e-310, 0.0)
    cases.append(tiny)
    for x in (1e-310, 1e-150) if n > 1 else ():
        # rows 0 and 1 hold one small coupling, beside unit-scale rows
        # that keep the sweeps going: 1e-310 squares to 0 and is never
        # rotated, 1e-150 is
        lone = random_hermitian(rng, n)
        for i in range(n):
            for j in (0, 1):
                lone[i * n + j] = lone[j * n + i] = 0j
        lone[1] = complex(x, -x)
        lone[n] = lone[1].conjugate()
        cases.append(lone)
    if n > 1:
        sub = _with_zero_rows(rng, n)
        sub[n - 1] = sub[n * (n - 1)] = complex(5e-324, 0.0)
        cases.append(sub)
    cases.append(random_hermitian(rng, n))
    # mode z's row is nonzero but its Hermitized row vanishes: its row is
    # minus the dagger of its column and its diagonal imaginary, beside zero
    # modes
    for z in range(n):
        anti = _with_zero_rows(rng, n)
        for j in range(n):
            if j != z:
                anti[z * n + j] = -anti[j * n + z].conjugate()
        anti[z * n + z] = complex(_SIGNED_ZEROS[z % 4].real, 1.0 + rng.random())
        cases.append(anti)
    # nonzero modes that are not a prefix of the modes
    for keep in ({n - 1}, set(range(1, n, 2)), set(range(n // 2, n)),
                 {0, n - 1}):
        h = random_hermitian(rng, n)
        for i in set(range(n)) - keep:
            for j in range(n):
                h[i * n + j] = h[j * n + i] = _SIGNED_ZEROS[(i + j) % 4]
        cases.append(h)
    for h in cases:
        assert list(map(repr, kernels.eigh(h, n))) == list(map(
            repr, _reference_eigh(h, n)))


class _Reads(list):
    """A list that records the indices read from it one entry at a time,
    in order."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = []

    def __getitem__(self, key):
        if isinstance(key, int):
            self.read.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("setting", list(SignalSetting))
def test_the_alignment_forms_no_entry_outside_the_support(setting):
    # the signal state reads the joint state's block once for each aligned
    # entry the trace sums whose two modes are on the support, in the
    # trace's order, and no other entry: 10 reads; the nine entries of rho_S
    # with no such term are +0j
    support = (0, 1, 4, 7) if setting is SignalSetting.H else (2, 3, 4, 7)
    rng = kernels.Rng(98, 0)
    for _ in range(40):
        cfg = random_valid_config(rng, setting=setting)
        modes, block = _total_state_raw(cfg)
        assert modes == support
        block = _Reads(block)
        rs = _signal_state_raw(modes, block, cfg)
        at = [modes.index(l) if l in modes else None
              for l, _ in _alignment_isometry_raw(cfg)]
        terms = [[at[x] * 4 + at[y]
                  for x, y in zip(IDLER_MODES[s], IDLER_MODES[sp])
                  if at[x] is not None and at[y] is not None]
                 for s in range(4) for sp in range(4)]
        assert block.read == [k for t in terms for k in t]
        assert len(block.read) == 10
        assert [repr(rs[e]) for e, t in enumerate(terms) if not t] == [repr(0j)] * 9


def _degenerate(cfg):
    """``cfg`` with each edge value in turn: p_h 0 and 1, purity 0, t_h 0,
    b1 0 and b2_mag 0."""
    idler = cfg.idler
    return [replace(cfg, idler=IdlerStateParams(0.0, idler.xi, idler.purity)),
            replace(cfg, idler=IdlerStateParams(1.0, idler.xi, idler.purity)),
            replace(cfg, idler=IdlerStateParams(idler.p_h, idler.xi, 0.0)),
            replace(cfg, t_h=0j),
            replace(cfg, b1=0.0, b2_mag=1.0),
            replace(cfg, b1=1.0, b2_mag=0.0)]


@pytest.mark.parametrize("setting", list(SignalSetting))
def test_the_block_holds_the_joint_states_trace_and_least_eigenvalue(setting):
    # the 8x8 joint state is zero off its support, so its trace and least
    # eigenvalue are, to the bit, the block's trace and the least of the
    # block's eigenvalues and 0.0; over seeded and edge configurations and
    # the coherence overrides that verify uses
    support = (0, 1, 4, 7) if setting is SignalSetting.H else (2, 3, 4, 7)
    rng = kernels.Rng(3141, 0)
    for _ in range(100):
        cfg = random_valid_config(rng, setting=setting)
        for c in (cfg, *_degenerate(cfg), replace(cfg, t_v=0j)):
            for coherence in (None, 0.0, 1.2):
                modes, block = _total_state_raw(c, coherence)
                assert modes == support
                r8 = dense_joint(modes, block)
                assert not any(r8[i * 8 + j] for i in range(8) for j in range(8)
                               if i not in modes or j not in modes)
                assert repr(kernels.plain_sum(r8[::9], 0j)) == repr(
                    kernels.plain_sum(block[::5], 0j))
                assert repr(_reference_eigh(r8, 8)[0]) == repr(
                    min(kernels.eigh(block, 4)[0], 0.0))


@pytest.mark.parametrize("setting", list(SignalSetting))
def test_signal_state_bits_equal_trace_of_naive_sandwich(setting):
    # rho_S and both rates, over 1500 seeded configurations per setting and
    # one edge case of each, against the naive K r8 K^dagger traced in the
    # partial trace's order from +0j
    rng = kernels.Rng(2211, 0)
    for k in range(1500):
        cfg = random_valid_config(rng, setting=setting)
        for c in (cfg, _degenerate(cfg)[k % 6]):
            modes, block = _total_state_raw(c)
            want = loop_marginal(naive_aligned(dense_joint(modes, block), c))
            assert list(map(repr, _signal_state_raw(modes, block, c))) == list(
                map(repr, want))
            rates = rates_exact(c)
            assert list(map(repr, (rates.rate_h, rates.rate_v))) == list(
                map(repr, _detected_raw(want)))


def _eigh_digest(matrices):
    """sha256 of eigh's values on 8x8 matrices; each pin below is the
    digest of _reference_eigh on the same matrices."""
    flat = []
    for m in matrices:
        flat.extend(kernels.eigh(m, 8))
    return digest(flat)


def test_eigh_golden_total_states():
    rng = kernels.Rng(2718, 0)
    states = [dense_joint(*_total_state_raw(random_valid_config(rng)))
              for _ in range(40)]
    assert _eigh_digest(states) == (
        "29efa812ee244c1a568b0168d32d4faa0ccfc992fae276eb0515de5f0c76d1a8")


def test_eigh_golden_stressed_states():
    rng = kernels.Rng(2718, 1)
    states = []
    for _ in range(40):
        cfg = InterferometerConfig.balanced(
            IdlerStateParams(rng.random(), 2.0 * math.pi * rng.random(),
                             rng.random()),
            phi=2.0 * math.pi * rng.random())
        states.append(dense_joint(*_total_state_raw(cfg, coherence_override=1.2)))
    assert _eigh_digest(states) == (
        "7a083b7feb78216b32f07f1e6754107ff4dd467e36da79dc1d6d64ef0e8397d4")
