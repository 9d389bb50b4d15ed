import math

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
