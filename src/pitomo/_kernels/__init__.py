"""Numeric kernels, loaded once at import time from one backend.

The compiled backend (``_fast``, built from ``_fast.pyx``) is used when it
imports; otherwise the pure-Python reference in ``pure`` is.  There is no
run-time switch: the choice follows only from what is installed.

Both backends implement the same operations with the same signatures and
must give bit-identical results, so that seeded ``(seed, stream)`` noise
streams and every primary output do not depend on which one is loaded.
``tests/test_kernels.py::TestBackendParity`` checks this: it compiles the
committed ``_fast.c`` beside ``pure`` when a C compiler is present and
compares the two operation by operation.
"""

from __future__ import annotations

try:
    from ._fast import (BACKEND, Rng, eigh, kron, loggam, mat_dagger,
                        mat_mul, partial_trace, sinusoid_sq_residual)
except ImportError:
    from .pure import (BACKEND, Rng, eigh, kron, loggam, mat_dagger,
                       mat_mul, partial_trace, sinusoid_sq_residual)


def active_backend() -> str:
    """Name of the loaded backend: ``"fast"`` or ``"pure"``."""
    return BACKEND
