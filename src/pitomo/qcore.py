"""Matrix carriers and state fidelities for small Hilbert spaces (dim <= 8).

:class:`ComplexMatrix` and :class:`DensityMatrix` carry the 8-dim
joint state, whose trace and positivity ``verify`` checks, and the
reconstructed and reference qubit states; the fidelities compare a
reconstruction with its reference.  The exact oracle's matrix arithmetic
runs on flat lists in ``_kernels``, and so does the eigensolve behind
:meth:`DensityMatrix.min_eigenvalue`.

Tolerances used package-wide: Hermiticity and trace checks at 1e-12,
positive semidefiniteness at 1e-10 on the eigenvalue scale (loose
enough to absorb float error accumulated through the 8- and 12-dim
evolution chain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as _k
from ._fields import field, items

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


@dataclass(frozen=True)
class ComplexMatrix:
    """Dense complex matrix, row-major entries, immutable."""

    rows: int
    cols: int
    entries: tuple[complex, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(complex(e) for e in self.entries))
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}")
        for e in self.entries:
            if not (math.isfinite(e.real) and math.isfinite(e.imag)):
                raise ValueError("matrix entries must be finite")

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def trace(self) -> complex:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i * self.cols + i] for i in range(self.rows))

    def hermitian_defect(self) -> float:
        """max entrywise |M - M^dagger| (0 for square Hermitian input)."""
        if self.rows != self.cols:
            raise ValueError("hermitian_defect of a non-square matrix")
        n = self.rows
        worst = 0.0
        for i in range(n):
            for j in range(n):
                d = abs(self.entries[i * n + j] - self.entries[j * n + i].conjugate())
                if d > worst:
                    worst = d
        return worst

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": [e.real for e in self.entries],
            "im": [e.imag for e in self.entries],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ComplexMatrix":
        re, im = items(d, "re", float), items(d, "im", float)
        if len(re) != len(im):
            raise ValueError(f"re and im must have equal lengths, got "
                             f"{len(re)} and {len(im)}")
        return cls(field(d, "rows", int), field(d, "cols", int),
                   tuple(complex(r, i) for r, i in zip(re, im)))


@dataclass(frozen=True)
class DensityMatrix:
    """Square Hermitian unit-trace matrix with a labeled mode basis.

    Hermiticity and the unit trace are enforced at construction;
    positive semidefiniteness is checked by :meth:`min_eigenvalue` /
    :meth:`assert_physical` (an eigensolve, so opt-in rather than paid
    on every intermediate value).
    """

    dim: int
    matrix: ComplexMatrix
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.matrix.rows != self.dim or self.matrix.cols != self.dim:
            raise ValueError(f"matrix is {self.matrix.rows}x{self.matrix.cols}, "
                             f"declared dim {self.dim}")
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels",
                               tuple(f"m{i}" for i in range(self.dim)))
        elif len(self.basis_labels) != self.dim:
            raise ValueError("basis_labels length must equal dim")
        defect = self.matrix.hermitian_defect()
        if defect > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: defect {defect:.3e}")
        tr = self.matrix.trace()
        if abs(tr.imag) > TRACE_TOL or abs(tr.real - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")

    def at(self, i: int, j: int) -> complex:
        return self.matrix.at(i, j)

    def min_eigenvalue(self) -> float:
        return _k.eigh(self.matrix.entries, self.dim)[0]

    def assert_physical(self, tol: float = PSD_TOL) -> "DensityMatrix":
        lo = self.min_eigenvalue()
        if lo < -tol:
            raise ValueError(f"state has negative eigenvalue {lo:.3e}")
        return self

    def to_json_dict(self) -> dict:
        d = self.matrix.to_json_dict()
        d["basis_labels"] = list(self.basis_labels)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "DensityMatrix":
        m = ComplexMatrix.from_json_dict(d)
        return cls(m.rows, m, items(d, "basis_labels", str, ()))


def _norm(psi: Sequence[complex]) -> float:
    return math.sqrt(sum(x.real * x.real + x.imag * x.imag for x in psi))


def fidelity_pure(psi_a: Sequence[complex], psi_b: Sequence[complex]) -> float:
    """|<a|b>|^2 for unit-norm state vectors; symmetric in its arguments."""
    if len(psi_a) != len(psi_b):
        raise ValueError("state vectors of different dimension")
    for name, psi in (("first", psi_a), ("second", psi_b)):
        n = _norm(psi)
        if abs(n - 1.0) > 1e-10:
            raise ValueError(f"{name} state vector is not normalized (norm {n})")
    ip = sum(a.conjugate() * b for a, b in zip(psi_a, psi_b))
    return abs(ip) ** 2


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
    tr = sum(rho.at(i, j) * sigma.at(j, i) for i in range(2) for j in range(2))
    det_r = (rho.at(0, 0) * rho.at(1, 1) - rho.at(0, 1) * rho.at(1, 0)).real
    det_s = (sigma.at(0, 0) * sigma.at(1, 1) - sigma.at(0, 1) * sigma.at(1, 0)).real
    f = tr.real + 2.0 * math.sqrt(max(0.0, det_r) * max(0.0, det_s))
    return min(1.0, max(0.0, f))
