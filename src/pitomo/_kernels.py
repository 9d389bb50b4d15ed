"""Numeric kernels: dense complex matrices and the seeded RNG.

This is the package's one implementation of them.  The arithmetic is
spelled out in a fixed evaluation order, and libm functions whose
results may differ between platforms (complex abs/division, lgamma) are
avoided, so that a ``(seed, stream)`` pair gives the same noise stream
and the same primary outputs everywhere.

Matrices are flat row-major sequences of Python complex numbers with
dimensions passed alongside; any indexable sequence will do.

Random numbers come from xoshiro256** seeded through splitmix64:

* stream state: ``s = splitmix_mix((seed + GOLDEN*stream) mod 2^64)``,
  then four successive splitmix64 outputs starting from ``s`` fill the
  xoshiro256** state.  ``(seed, stream)`` fully determines the stream.
* uniforms: ``(u64 >> 11) * 2^-53`` in [0, 1).
* Poisson counts: inversion by sequential search for mean < 30, and the
  transformed-rejection sampler (normal-approximation proposal with an
  exact acceptance step) above, using a fixed-coefficient Stirling
  series for log(k!) so no platform lgamma enters the stream.
"""

from __future__ import annotations

import math

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 1.0 / 9007199254740992.0  # 2^-53


def active_backend() -> str:
    """Name of the kernel implementation, recorded in run manifests."""
    return "pure"


# ---------------------------------------------------------------------------
# dense complex matrix kernels


def mat_mul(a, ar, ac, b, br, bc):
    """Product of row-major complex matrices a (ar x ac) and b (br x bc)."""
    if ac != br:
        raise ValueError(f"matrix product shape mismatch: {ar}x{ac} @ {br}x{bc}")
    out = [0j] * (ar * bc)
    for i in range(ar):
        ia = i * ac
        for j in range(bc):
            s = 0j
            for k in range(ac):
                s = s + a[ia + k] * b[k * bc + j]
            out[i * bc + j] = s
    return out


def mat_dagger(a, r, c):
    """Conjugate transpose; returns a c x r matrix."""
    out = [0j] * (r * c)
    for i in range(r):
        ic = i * c
        for j in range(c):
            out[j * r + i] = a[ic + j].conjugate()
    return out


def eigh(a, n, max_sweeps=100):
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(values, vectors)`` with eigenvalues ascending and the
    row-major unitary whose columns are the matching eigenvectors.  The
    input is Hermitized (averaged with its dagger) before iterating;
    convergence is declared when the off-diagonal Frobenius norm drops
    below 1e-13 * max(1, ||a||_F).
    """
    m = [0j] * (n * n)
    for i in range(n):
        m[i * n + i] = complex(a[i * n + i].real, 0.0)
        for j in range(i + 1, n):
            h = 0.5 * (a[i * n + j] + a[j * n + i].conjugate())
            m[i * n + j] = h
            m[j * n + i] = h.conjugate()
    v = [0j] * (n * n)
    for i in range(n):
        v[i * n + i] = 1.0 + 0j

    fro2 = 0.0
    for i in range(n * n):
        x = m[i]
        fro2 = fro2 + x.real * x.real + x.imag * x.imag
    thr = 1e-13 * max(1.0, math.sqrt(fro2))

    for _ in range(max_sweeps):
        off2 = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    x = m[i * n + j]
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
                # unitary: R[p][p]=c, R[p][q]=-s*u, R[q][p]=s*conj(u), R[q][q]=c
                for i in range(n):
                    x = m[i * n + p]
                    y = m[i * n + q]
                    m[i * n + p] = c * x + (s * uc) * y
                    m[i * n + q] = (-s * u) * x + c * y
                for j in range(n):
                    x = m[p * n + j]
                    y = m[q * n + j]
                    m[p * n + j] = c * x + (s * u) * y
                    m[q * n + j] = (-s * uc) * x + c * y
                for i in range(n):
                    x = v[i * n + p]
                    y = v[i * n + q]
                    v[i * n + p] = c * x + (s * uc) * y
                    v[i * n + q] = (-s * u) * x + c * y

    vals = [m[i * n + i].real for i in range(n)]
    order = sorted(range(n), key=vals.__getitem__)
    svals = [vals[k] for k in order]
    svecs = [0j] * (n * n)
    for col, k in enumerate(order):
        for i in range(n):
            svecs[i * n + col] = v[i * n + k]
    return svals, svecs


# ---------------------------------------------------------------------------
# random numbers


def _mix64(z):
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


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


class Rng:
    """xoshiro256** stream addressed by (seed, stream); see module docstring."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed, stream=0):
        s = _mix64((seed + _GOLDEN * stream) & _MASK64)
        st = []
        for _ in range(4):
            s = (s + _GOLDEN) & _MASK64
            st.append(_mix64(s))
        if not any(st):
            st[0] = _GOLDEN
        self._s0, self._s1, self._s2, self._s3 = st

    def u64(self):
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def random(self):
        """Uniform double in [0, 1)."""
        return (self.u64() >> 11) * _INV_2_53

    def poisson(self, mu):
        """Poisson variate with mean ``mu``; exact for all mu >= 0."""
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

