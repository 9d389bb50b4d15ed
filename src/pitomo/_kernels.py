"""Numeric kernels: small complex matrices and the seeded RNG.

This is the package's one implementation of them.  The arithmetic is
spelled out in a fixed evaluation order, and libm functions whose
results may differ between platforms (complex abs/division, lgamma) are
avoided, so that a ``(seed, stream)`` pair gives the same noise stream
and the same primary outputs everywhere.

Matrices are flat row-major sequences (lists or tuples) of Python complex
numbers with dimensions passed alongside.  A mode of a matrix is live when
its row or its column holds a nonzero (:func:`live_modes`); the joint 8x8
state has four live modes.  The oracle's signal state and :func:`eigh` both
work on the live modes alone.  :func:`eigh` Hermitizes the live block into a
compact k x k list and sweeps it whole.  Its bits are those of the sweep of
the full matrix: a mode that is not live has a row and column of signed
zeros, which rotations among the others keep zero, so every rotation that
involves it meets a zero pivot and is skipped, its squares (+0) add nothing
to the norms, and its diagonal, ``a``'s real part as it stands (``-0.0``
included), is an eigenvalue.  The same holds for a live mode whose
Hermitized row vanishes (``a[z, j] = -conj(a[j, z])``), which stays in the
block.  Every other rotation sees the same floats in the same order.  A
rotation updates its 2x2 pivot block as the full sweep's loops do: the
column step on (a_pp, a_pq) and (a_qp, a_qq), then the row step on the
results (a_pp', a_qp') and (a_pq', a_qq'); each other mode's two column
and two row entries are independent of each other and are updated in one
pass.

Random numbers come from the standard library's MT19937 (Matsumoto &
Nishimura, *ACM TOMACS* 8, 3 (1998)): stream ``(seed, stream)`` is
``random.Random((seed << 64) | stream)``, one-to-one because both must lie
in [0, 2^64).  CPython documents that ``random()`` repeats its sequence
for the same int seed across versions; it forms each double exactly from
53 bits of two 32-bit outputs, with no libm call.  Poisson counts use
inversion by sequential search for mean < 30, and the transformed-rejection
sampler (normal-approximation proposal with an exact acceptance step)
above, using a fixed-coefficient Stirling series for log(k!) so no
platform lgamma enters the stream.

:meth:`Rng.poissons` draws a whole sequence of means in one call, and
:meth:`Rng.poisson` is the one-mean case of it.  A new mean takes the
plain sequential search, which builds no list; the fringing detector's
mean is new at every point.  While the mean repeats, its per-mean work is
kept: on the first repeat the inversion branch builds the mean's whole
CDF table by the same recurrence ``pmf *= mu/k; cdf += pmf`` from
``exp(-mu)``, up to the first k > mu whose term no longer grows the sum
(or k = 1000), and every repeat is one bisection of it; the rejection
branch keeps its constants.  Both the search and the table step over the
module tuple ``_STEPS`` of ``(k, float(k))`` pairs, so each step divides
a float by a float; ``mu / float(k)`` is the float ``mu / k``, since every
k there is exact as a double.  No bit changes, because each kept value is
the float the draw-by-draw sampler would compute again from the same
mean, and bisecting the nondecreasing CDF terms finds the first term
>= u, which is where the sequential search stops.  Past the table's end
every term equals its last, so a u above the last term is above them
all and takes the search's k = 1001 cap.  The constant detector draws every
point from one such table.  A repeated CDF lookup is the standard
speed-up of inversion (Devroye, *Non-Uniform Random Variate Generation*,
1986, section X.3); the rejection sampler is Hörmann's PTRS (*Insur.
Math. Econ.* 12, 39 (1993)).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from functools import reduce
from itertools import islice
from operator import add

_EIGH_MAX_SWEEPS = 100


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "pure"


def plain_sum(xs, start=0.0):
    """``start`` plus the items of ``xs``, added left to right in plain
    arithmetic.  sum() compensates float sums from Python 3.12 on, so its
    last bit depends on the Python version; this is 3.11's sum() on every
    version, given start 0.0 for floats, 0j for complexes, 0 for ints."""
    return reduce(add, xs, start)


# ---------------------------------------------------------------------------
# complex matrix kernels


def live_modes(a, n):
    """The modes of the n x n matrix ``a`` whose row or column holds a
    nonzero, ascending; a NaN counts as nonzero."""
    return [l for l in range(n) if any(a[l * n:l * n + n]) or any(a[l::n])]


def _jacobi_tables(k):
    """A k x k block's off-diagonal indices and, per pair p < q, (pp, pq, qp,
    qq, others) with (rp, rq, pr, qr) for each other mode r."""
    off_diag = tuple(x * k + y for x in range(k) for y in range(k) if x != y)
    pairs = tuple((p * k + p, p * k + q, q * k + p, q * k + q,
                   tuple((r * k + p, r * k + q, p * k + r, q * k + r)
                         for r in range(k) if r != p and r != q))
                  for p in range(k) for q in range(p + 1, k))
    return off_diag, pairs


_JACOBI_TABLES = tuple(_jacobi_tables(k) for k in range(9))  # k <= 8 modes
_HALF = complex(0.5, 0.0)


def eigh(a, n):
    """Eigenvalues, ascending, of a Hermitian matrix by cyclic Jacobi rotations.

    The input is Hermitized (averaged with its dagger) before iterating;
    convergence is declared when the off-diagonal Frobenius norm drops
    below 1e-13 * max(1, ||a||_F), or after ``_EIGH_MAX_SWEEPS`` sweeps.
    Only the block of the live modes is Hermitized and swept; a mode that
    is not live keeps ``a``'s real diagonal as its eigenvalue, and the bits
    are those of the full sweep (see the module docstring).  Index tables
    are built at import for blocks of k <= 8 modes.  A rotation updates the
    pivot block by the column step and then the row step, and each other
    mode's column and row entries in one pass.  c, s, -s and the Hermitizing
    0.5 are promoted to ``complex(x, 0.0)``, the operand CPython 3.10-3.13
    make of a float times a complex: no bit changes, and no product tries
    ``float.__mul__`` first.  This should also hold the bits on 3.14, which
    multiplies a float into each part (gh-69639); not yet run there.
    """
    live = live_modes(a, n)
    k = len(live)
    m = [0j] * (k * k)
    for x, i in enumerate(live):
        m[x * k + x] = complex(a[i * n + i].real, 0.0)
        for y in range(x + 1, k):
            j = live[y]
            h = _HALF * (a[i * n + j] + a[j * n + i].conjugate())
            m[x * k + y] = h
            m[y * k + x] = h.conjugate()

    fro2 = 0.0
    for x in m:
        fro2 = fro2 + x.real * x.real + x.imag * x.imag
    thr = 1e-13 * max(1.0, math.sqrt(fro2))

    off_diag, pairs = _JACOBI_TABLES[k] if k <= 8 else _jacobi_tables(k)
    for _ in range(_EIGH_MAX_SWEEPS):
        off2 = 0.0
        for ij in off_diag:
            x = m[ij]
            off2 = off2 + x.real * x.real + x.imag * x.imag
        if math.sqrt(off2) < thr:
            break
        for pp, pq, qp, qq, others in pairs:
            g = m[pq]
            gm = math.sqrt(g.real * g.real + g.imag * g.imag)
            if gm <= 1e-300:
                continue
            u = complex(g.real / gm, g.imag / gm)
            uc = u.conjugate()
            app = m[pp]
            aqq = m[qq]
            d = (app.real - aqq.real) / (2.0 * gm)
            if d >= 0.0:
                t = 1.0 / (d + math.sqrt(d * d + 1.0))
            else:
                t = -1.0 / (-d + math.sqrt(d * d + 1.0))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            c, sc, msc = complex(c, 0.0), complex(s, 0.0), complex(-s, 0.0)
            # unitary: R[p][p]=c, R[p][q]=-s*u, R[q][p]=s*conj(u), R[q][q]=c
            s_uc = sc * uc
            ms_u = msc * u
            s_u = sc * u
            ms_uc = msc * uc
            # the pivot block: the column step, then the row step
            aqp = m[qp]
            app, apq = c * app + s_uc * g, ms_u * app + c * g
            aqp, aqq = c * aqp + s_uc * aqq, ms_u * aqp + c * aqq
            m[pp] = c * app + s_u * aqp
            m[qp] = ms_uc * app + c * aqp
            m[pq] = c * apq + s_u * aqq
            m[qq] = ms_uc * apq + c * aqq
            for rp, rq, pr, qr in others:
                x = m[rp]
                y = m[rq]
                m[rp] = c * x + s_uc * y
                m[rq] = ms_u * x + c * y
                x = m[pr]
                y = m[qr]
                m[pr] = c * x + s_u * y
                m[qr] = ms_uc * x + c * y

    vals = [a[i * n + i].real for i in range(n)]
    for x, i in enumerate(live):
        vals[i] = m[x * k + x].real
    return sorted(vals)


# ---------------------------------------------------------------------------
# random numbers


_LOGGAM_A = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.392432216905901e+00,
)
_LOG_2PI = 1.8378770664093453


def loggam(x):
    """log(Gamma(x)) for x >= 1 via a fixed Stirling series (portable)."""
    if x == 1.0 or x == 2.0:
        return 0.0
    x0 = x
    n = 0
    if x <= 7.0:
        n = int(7 - x)
        x0 = x + n
    x2 = 1.0 / (x0 * x0)
    gl0 = _LOGGAM_A[9]
    for k in range(8, -1, -1):
        gl0 = gl0 * x2 + _LOGGAM_A[k]
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    if x <= 7.0:
        for _ in range(n):
            gl -= math.log(x0 - 1.0)
            x0 -= 1.0
    return gl


# the inversion's steps k = 1 .. 1001, each with k as a float
_STEPS = tuple((k, float(k)) for k in range(1, 1002))


def _cdf_table(mu):
    """The Poisson CDF terms for 0 < mu < 30 that the sequential search
    sums, k = 0, 1, ...: ``pmf *= mu/k; cdf += pmf`` from exp(-mu).  The
    table stops at the first k > mu whose term adds nothing, as every later
    term then does (the pmf only falls past mu), or at k = 1000."""
    pmf = cdf = math.exp(-mu)
    table = [cdf]
    for k, fk in islice(_STEPS, 1000):
        pmf = pmf * (mu / fk)
        grown = cdf + pmf
        if grown == cdf and k > mu:
            break
        table.append(grown)
        cdf = grown
    return table


class Rng:
    """MT19937 stream addressed by (seed, stream); see module docstring."""

    __slots__ = ("_gen",)

    def __init__(self, seed, stream=0):
        for name, value in (("seed", seed), ("stream", stream)):
            if not 0 <= value < (1 << 64):
                raise ValueError(f"{name} must fit in 64 bits, got {value}")
        self._gen = random.Random((seed << 64) | stream)

    def random(self):
        """Uniform double in [0, 1)."""
        return self._gen.random()

    def poisson(self, mu):
        """Poisson variate with mean ``mu``; exact for all mu >= 0."""
        return self.poissons((mu,))[0]

    def poissons(self, mus):
        """One Poisson variate per mean in ``mus``, in order.

        Values and final state equal those of drawing one at a time; see
        the module docstring.  A negative, infinite or NaN mean raises
        ValueError with the state left as it was after the draws before it.
        """
        uniform = self._gen.random
        exp, log, floor = math.exp, math.log, math.floor
        out = []
        last = None  # the mean whose per-mean work is held below
        for mu in mus:
            repeat = mu == last
            if not repeat:
                if not 0.0 <= mu < math.inf:
                    raise ValueError(
                        f"Poisson mean must be finite and >= 0, got {mu}")
                last = mu
                cdf_table = None  # built on this mean's first repeat
                if mu >= 30.0:
                    slam = math.sqrt(mu)
                    loglam = log(mu)
                    b = 0.931 + 2.53 * slam
                    a = -0.059 + 0.02483 * b
                    two_a = 2.0 * a
                    invalpha = 1.1239 + 1.1328 / (b - 3.4)
                    log_invalpha = log(invalpha)
                    vr = 0.9277 - 3.6224 / (b - 2.0)
            if mu == 0.0:
                out.append(0)
                continue
            if mu < 30.0:
                # inversion: the first CDF term >= u, one uniform
                u = uniform()
                if not repeat:
                    # sequential search; k stops at 1001 when u lies
                    # above every term
                    pmf = exp(-mu)
                    cdf = pmf
                    k = 0
                    if u > cdf:
                        for k, fk in _STEPS:
                            pmf = pmf * (mu / fk)
                            cdf = cdf + pmf
                            if u <= cdf:
                                break
                    out.append(k)
                    continue
                # the whole table, searched by bisection; a u above
                # its last term is above every later one too
                if cdf_table is None:
                    cdf_table = _cdf_table(mu)
                k = bisect_left(cdf_table, u)
                out.append(k if k < len(cdf_table) else 1001)
                continue
            # transformed rejection: proposal centered on the normal
            # approximation, exact log-pmf acceptance test
            while True:
                u = uniform() - 0.5
                v = uniform()
                us = 0.5 - abs(u)
                k = floor((two_a / us + b) * u + mu + 0.43)
                if us >= 0.07 and v <= vr:
                    break
                if k < 0 or (us < 0.013 and v > us):
                    continue
                if (log(v) + log_invalpha - log(a / (us * us) + b)
                        <= k * loglam - mu - loggam(k + 1.0)):
                    break
            out.append(k)
        return out
