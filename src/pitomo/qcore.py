"""Minimal dense complex linear algebra for small Hilbert spaces (dim <= 8).

Provides the matrix carriers used throughout the package plus the
handful of operations the simulation and reconstruction pipelines need:
Kronecker products, partial traces, a Jacobi eigensolver for Hermitian
matrices, positive-semidefiniteness tests and state fidelities.  Matrix
products, conjugate transposes and eigensolves run in ``_kernels``.

Tolerances used package-wide: Hermiticity and trace checks at 1e-12,
positive semidefiniteness at 1e-10 on the eigenvalue scale (loose
enough to absorb float error accumulated through the 8- and 12-dim
evolution chain).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[complex]]) -> "ComplexMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, tuple(complex(x) for row in rows for x in row))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ComplexMatrix":
        return cls(rows, cols, (0j,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ComplexMatrix":
        return cls(n, n, tuple(1 + 0j if i == j else 0j
                               for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, vec: Sequence[complex]) -> "ComplexMatrix":
        return cls(len(vec), 1, tuple(complex(x) for x in vec))

    # -- element access ------------------------------------------------

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[complex]]:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]

    # -- algebra ---------------------------------------------------------

    def __matmul__(self, other: "ComplexMatrix") -> "ComplexMatrix":
        out = _k.mat_mul(self.entries, self.rows, self.cols,
                         other.entries, other.rows, other.cols)
        return ComplexMatrix(self.rows, other.cols, tuple(out))

    def dagger(self) -> "ComplexMatrix":
        out = _k.mat_dagger(self.entries, self.rows, self.cols)
        return ComplexMatrix(self.cols, self.rows, tuple(out))

    def scaled(self, factor: complex) -> "ComplexMatrix":
        return ComplexMatrix(self.rows, self.cols,
                             tuple(factor * e for e in self.entries))

    def plus(self, other: "ComplexMatrix") -> "ComplexMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return ComplexMatrix(self.rows, self.cols,
                             tuple(a + b for a, b in zip(self.entries, other.entries)))

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

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermitian_defect() <= tol

    def frobenius(self) -> float:
        return math.sqrt(sum(e.real * e.real + e.imag * e.imag for e in self.entries))

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

    def eigenvalues(self) -> list[float]:
        return eigenvalues_hermitian(self.matrix)

    def min_eigenvalue(self) -> float:
        return self.eigenvalues()[0]

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


# ---------------------------------------------------------------------------
# operations


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product; dimensions multiply."""
    ar, ac, br, bc = a.rows, a.cols, b.rows, b.cols
    rc = ac * bc
    out = [0j] * (ar * br * rc)
    for i in range(ar):
        for k in range(br):
            ro = (i * br + k) * rc
            for j in range(ac):
                av = a.entries[i * ac + j]
                for m in range(bc):
                    out[ro + j * bc + m] = av * b.entries[k * bc + m]
    return ComplexMatrix(ar * br, rc, tuple(out))


def partial_trace(rho: DensityMatrix, subsystem_dims: Sequence[int],
                  keep: Iterable[int]) -> DensityMatrix:
    """Reduced state over the kept tensor factors.

    ``subsystem_dims`` must multiply to ``rho.dim`` (first factor is the
    slowest index); ``keep`` selects the factors to retain.
    """
    dims = tuple(int(d) for d in subsystem_dims)
    n = 1
    for d in dims:
        n *= d
    if n != rho.dim:
        raise ValueError(f"subsystem dims {dims} do not multiply to {rho.dim}")
    keep = tuple(sorted(set(int(i) for i in keep)))
    if not keep or any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError(f"invalid keep set {keep} for {len(dims)} subsystems")
    traced = tuple(i for i in range(len(dims)) if i not in keep)
    strides = [0] * len(dims)
    acc = 1
    for i in range(len(dims) - 1, -1, -1):
        strides[i] = acc
        acc *= dims[i]

    def offsets(subsys):
        # row-major enumeration over the group, kept order preserved
        offs = [0]
        for i in subsys:
            offs = [o + v * strides[i] for o in offs for v in range(dims[i])]
        return offs

    kept_offs = offsets(keep)
    traced_offs = offsets(traced)
    dk = len(kept_offs)
    out = [0j] * (dk * dk)
    for ki, oi in enumerate(kept_offs):
        for kj, oj in enumerate(kept_offs):
            s = 0j
            for ot in traced_offs:
                s = s + rho.matrix.entries[(oi + ot) * n + (oj + ot)]
            out[ki * dk + kj] = s
    labels = tuple(f"m{i}" for i in range(dk))
    return DensityMatrix(dk, ComplexMatrix(dk, dk, tuple(out)), labels)


def eigh_hermitian(m: ComplexMatrix) -> tuple[list[float], ComplexMatrix]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""
    if m.rows != m.cols:
        raise ValueError("eigendecomposition of a non-square matrix")
    defect = m.hermitian_defect()
    if defect > HERMITIAN_TOL:
        raise ValueError(f"not Hermitian: defect {defect:.3e}")
    vals, vecs = _k.eigh(m.entries, m.rows)
    return vals, ComplexMatrix(m.rows, m.rows, tuple(vecs))


def eigenvalues_hermitian(m: ComplexMatrix) -> list[float]:
    """Real spectrum of a Hermitian matrix, ascending."""
    return eigh_hermitian(m)[0]


def is_positive_semidefinite(m: ComplexMatrix, tol: float = PSD_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol (input must be Hermitian)."""
    return eigenvalues_hermitian(m)[0] >= -tol


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
