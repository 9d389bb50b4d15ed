import math
from array import array

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    from pitomo._kernels import Rng
    return Rng(0xC0FFEE, 0)


def random_hermitian(rng, n, scale=1.0):
    """Random Hermitian matrix as a flat list (shared test helper)."""
    a = [complex(scale * (2.0 * rng.random() - 1.0),
                 scale * (2.0 * rng.random() - 1.0)) for _ in range(n * n)]
    h = [0j] * (n * n)
    for i in range(n):
        for j in range(n):
            h[i * n + j] = a[i * n + j] + a[j * n + i].conjugate()
    return h


def dense_from_rows(rows, r, c):
    """The row-major r x c list of a matrix given by the entries of its
    rows, ``[(i, [(l, v), ...]), ...]``, as ``interferometer._BS_ROWS``
    holds the recombiner."""
    out = [0j] * (r * c)
    for i, entries in rows:
        for l, v in entries:
            out[i * c + l] = v
    return out


def dense_alignment(cfg):
    """The row-major 12x8 list of the alignment isometry of ``cfg``, whose
    row i is the one ``(column, value)`` pair ``_alignment_isometry_raw``
    gives it."""
    from pitomo.interferometer import _alignment_isometry_raw
    return dense_from_rows([(i, [e]) for i, e in
                            enumerate(_alignment_isometry_raw(cfg))], 12, 8)


def dense_joint(modes, block):
    """The row-major 8x8 list of the joint state that
    ``_total_state_raw`` gives as ``(modes, block)``: the block's entries
    on its modes, 0j everywhere else."""
    n = len(modes)
    out = [0j] * 64
    for x, i in enumerate(modes):
        for y, j in enumerate(modes):
            out[i * 8 + j] = block[x * n + y]
    return out


def naive_mat_mul(a, ar, ac, b, bc):
    """Every term of every entry, summed in ascending k from 0j."""
    out = []
    for i in range(ar):
        for j in range(bc):
            s = 0j
            for k in range(ac):
                s = s + a[i * ac + k] * b[k * bc + j]
            out.append(s)
    return out


def naive_sandwich(a, ar, ac, m):
    """(a m) a^dagger by two full triple loops."""
    a_dagger = [a[j * ac + l].conjugate() for l in range(ac) for j in range(ar)]
    tmp = naive_mat_mul(a, ar, ac, m, ac)
    return naive_mat_mul(tmp, ar, ac, a_dagger, ar)


def naive_aligned(r8, cfg):
    """The 12-dim aligned state K r8 K^dagger of ``cfg``, the reference the
    oracle's signal state is traced from: the naive triple loops over the
    dense alignment isometry."""
    return naive_sandwich(dense_alignment(cfg), 12, 8, r8)


# the 12-dim aligned modes of each signal mode, one per idler mode it
# pairs with: H_Sa and V_Sa with b and w, H_Sb and V_Sb with b
IDLER_MODES = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9], [10, 11]]


def loop_marginal(r12):
    """The partial trace as a loop over the shared idler modes: entry
    (s, sp) of the signal state sums r12 over the idler modes i that
    both signal modes pair with, ascending, from +0j."""
    idler = IDLER_MODES
    rs = []
    for s in range(4):
        for sp in range(4):
            acc = 0j
            for i in range(min(len(idler[s]), len(idler[sp]))):
                acc = acc + r12[idler[s][i] * 12 + idler[sp][i]]
            rs.append(acc)
    return rs


def wrap_distance(a, b, period=2.0 * math.pi):
    """Smallest absolute difference of two angles modulo the period."""
    d = math.fmod(abs(a - b), period)
    return min(d, period - d)


def digest(values):
    """sha256 of the reprs of a sequence of floats or complexes; two
    sequences share a digest only if every entry has the same bits (up to
    the sign of a NaN)."""
    import hashlib
    return hashlib.sha256(",".join(map(repr, values)).encode()).hexdigest()


def unbalanced_config(seed, phase=0.0):
    """A seeded source arrangement off the balanced one: b1^2 and p_h2 in
    [0.1, 0.9], |t_h| and |t_v| in [0.5, 1], theta = 0, and both
    transmissions carrying the common phase ``phase``; pure H idler."""
    import cmath
    from pitomo._kernels import Rng
    from pitomo.interferometer import InterferometerConfig
    from pitomo.states import IdlerStateParams, SourceQ2Params
    rng = Rng(seed, 0)
    w1 = 0.1 + 0.8 * rng.random()
    q2 = SourceQ2Params(0.1 + 0.8 * rng.random(), 0.0)
    t_h, t_v = (cmath.exp(1j * phase) * (0.5 + 0.5 * rng.random()) for _ in "hv")
    return InterferometerConfig(b1=math.sqrt(w1), b2_mag=math.sqrt(1.0 - w1),
                                t_h=t_h, t_v=t_v,
                                idler=IdlerStateParams.horizontal(), q2=q2)


def path_b_idler(cfg):
    """The exact oracle's idler state in path b: the aligned 12-dim state
    (``naive_aligned``) traced over the four signal modes (H_Sa, V_Sa,
    H_Sb, V_Sb) on the idler's H_Ib and V_Ib, over its trace."""
    from pitomo.interferometer import _total_state_raw
    from pitomo.states import DensityMatrix
    r12 = naive_aligned(dense_joint(*_total_state_raw(cfg)), cfg)
    m = [sum(r12[(s + i) * 12 + s + j] for s in (0, 4, 8, 10))
         for i in range(2) for j in range(2)]
    trace = (m[0] + m[3]).real
    return DensityMatrix(2, tuple(x / trace for x in m), ("H_I", "V_I"))


def count_grids(mp, module, name):
    """Replace ``module.name`` through the monkeypatch ``mp`` by a wrapper
    that records the float64 bits of each grid it is called on; returns
    that record.  The wrapper is a new function, so the grid memo holds
    nothing for it yet."""
    fn = getattr(module, name)
    calls = []

    def counted(phases):
        calls.append(array("d", phases).tobytes())
        return fn(phases)

    mp.setattr(module, name, counted)
    return calls
