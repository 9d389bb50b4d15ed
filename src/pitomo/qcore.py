"""Density matrices and state fidelities for small Hilbert spaces (dim <= 8).

:class:`DensityMatrix` carries the 8-dim joint state, whose positivity
at coherence 1.2 ``verify`` checks, and the reconstructed and reference
qubit states; the fidelities compare a reconstruction with its reference.
Entries are kept as one flat row-major tuple, the layout the exact
oracle's arithmetic and the eigensolve behind
:meth:`DensityMatrix.min_eigenvalue` in ``_kernels`` work on.

Tolerances used package-wide: Hermiticity and trace checks at 1e-12,
positive semidefiniteness at 1e-10 on the eigenvalue scale (loose
enough to absorb float error accumulated through the 8- and 12-dim
evolution chain).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as _k
from ._fields import field, items

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """Square Hermitian unit-trace matrix, row-major entries, with a
    labeled mode basis.

    Finiteness, Hermiticity and the unit trace are checked at
    construction, in one pass over the entries; positive
    semidefiniteness is checked by :meth:`min_eigenvalue` /
    :meth:`assert_physical` (an eigensolve, so opt-in rather than paid
    on every intermediate value).
    """

    dim: int
    entries: tuple[complex, ...]
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ValueError(f"dim must be positive, got {n}")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(complex(e) for e in self.entries))
        e = self.entries
        if len(e) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(e)}")
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", tuple(f"m{i}" for i in range(n)))
        elif len(self.basis_labels) != n:
            raise ValueError("basis_labels length must equal dim")
        defect = 0.0
        tr = 0
        for i in range(n):
            tr += e[i * n + i]
            for j in range(i, n):
                a = e[i * n + j]
                b = e[j * n + i]
                if not (cmath.isfinite(a) and cmath.isfinite(b)):
                    raise ValueError("matrix entries must be finite")
                d = abs(a - b.conjugate())
                if d > defect:
                    defect = d
        if defect > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: defect {defect:.3e}")
        if abs(tr.imag) > TRACE_TOL or abs(tr.real - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.dim + j]

    def min_eigenvalue(self) -> float:
        return _k.eigh(self.entries, self.dim)[0]

    def assert_physical(self, tol: float = PSD_TOL) -> "DensityMatrix":
        lo = self.min_eigenvalue()
        if lo < -tol:
            raise ValueError(f"state has negative eigenvalue {lo:.3e}")
        return self

    def to_json_dict(self) -> dict:
        return {
            "rows": self.dim,
            "cols": self.dim,
            "re": [e.real for e in self.entries],
            "im": [e.imag for e in self.entries],
            "basis_labels": list(self.basis_labels),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DensityMatrix":
        re, im = items(d, "re", float), items(d, "im", float)
        if len(re) != len(im):
            raise ValueError(f"re and im must have equal lengths, got "
                             f"{len(re)} and {len(im)}")
        rows, cols = field(d, "rows", int), field(d, "cols", int)
        if rows != cols:
            raise ValueError(f"a density matrix is square, got rows = {rows} "
                             f"and cols = {cols}")
        return cls(rows, tuple(complex(r, i) for r, i in zip(re, im)),
                   items(d, "basis_labels", str, ()))


def _norm(psi: Sequence[complex]) -> float:
    return math.sqrt(_k.plain_sum(x.real * x.real + x.imag * x.imag for x in psi))


def fidelity_mixed(rho: DensityMatrix, psi: Sequence[complex]) -> float:
    """<psi|rho|psi> for a unit-norm vector against a density matrix."""
    if len(psi) != rho.dim:
        raise ValueError(f"vector dim {len(psi)} vs state dim {rho.dim}")
    n = _norm(psi)
    if abs(n - 1.0) > 1e-10:
        raise ValueError(f"state vector is not normalized (norm {n})")
    acc = 0j
    for i in range(rho.dim):
        for j in range(rho.dim):
            acc += psi[i].conjugate() * rho.at(i, j) * psi[j]
    if abs(acc.imag) > 1e-12:
        raise ValueError(f"fidelity came out non-real ({acc}); state invalid?")
    return acc.real


def qubit_state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity between two qubit states.

    Uses the 2x2 closed form tr(rho sigma) + 2 sqrt(det rho det sigma),
    which avoids matrix square roots and reduces to <psi|sigma|psi> when
    either argument is pure.
    """
    if rho.dim != 2 or sigma.dim != 2:
        raise ValueError("closed form is specific to qubits")
    tr = _k.plain_sum((rho.at(i, j) * sigma.at(j, i)
                       for i in range(2) for j in range(2)), 0j)
    det_r = (rho.at(0, 0) * rho.at(1, 1) - rho.at(0, 1) * rho.at(1, 0)).real
    det_s = (sigma.at(0, 0) * sigma.at(1, 1) - sigma.at(0, 1) * sigma.at(1, 0)).real
    f = tr.real + 2.0 * math.sqrt(max(0.0, det_r) * max(0.0, det_s))
    return min(1.0, max(0.0, f))
