"""Polarization states of one photon: parameters, matrix, fidelities and
waveplate preparation.

A single-photon polarization state is carried as (p_h, xi, purity):
population of H, relative phase of V against H, and the magnitude of
the off-diagonal coherence (1 = pure, 0 = fully mixed).  The associated
density matrix is

    [[ p_h,                  purity*sqrt(p_h p_v) e^{-i xi} ],
     [ purity*sqrt(p_h p_v) e^{+i xi},                  p_v ]]

with p_v = 1 - p_h.  :class:`DensityMatrix` holds this matrix in one flat
row-major tuple.  It is the qubit's matrix only (a reconstruction, its
reference, :meth:`IdlerStateParams.to_density_matrix`); the two-source
joint state stays the exact oracle's flat list in ``interferometer``.  The
fidelities compare a reconstruction with its reference.

Tolerances: Hermiticity and the trace are checked at 1e-12, positive
semidefiniteness at 1e-10 on the eigenvalue scale.

Waveplate conventions, fixed project-wide (the handedness attached to
them is a documented choice): with R(a) the real rotation by the
fast-axis angle a,

    HWP(a) = R(a) diag(1, -1) R(-a)
    QWP(a) = R(a) diag(1,  i) R(-a)

and the state with xi = +pi/2 is labeled right-circular.  Global phases
are discarded when extracting parameters from state vectors; xi is
reported as 0 whenever it is undefined (p_h in {0, 1}).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

from . import _kernels as _k
from ._fields import field, items

TWO_PI = 2.0 * math.pi

QUBIT_LABELS = ("H", "V")

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def wrap_angle(x: float, period: float = TWO_PI) -> float:
    """Wrap into [0, period)."""
    y = math.fmod(x, period)
    if y < 0.0:
        y += period
    if y >= period:  # fmod corner, e.g. tiny negatives rounding up
        y -= period
    return y


@dataclass(frozen=True)
class DensityMatrix:
    """A qubit's 2x2 Hermitian unit-trace matrix, row-major entries, with
    its two basis labels.

    ``dim`` must be 2.  Finiteness, Hermiticity and the unit trace are
    checked at construction; positive semidefiniteness is checked by
    :meth:`min_eigenvalue` / :meth:`assert_physical` (an eigensolve, so
    opt-in rather than paid on every intermediate value).
    """

    dim: int
    entries: tuple[complex, ...]
    basis_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.dim != 2:
            raise ValueError(f"a DensityMatrix holds a qubit: dim must be 2, "
                             f"got {self.dim}")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(complex(e) for e in self.entries))
        if len(self.entries) != 4:
            raise ValueError(f"expected 4 entries, got {len(self.entries)}")
        if not self.basis_labels:
            object.__setattr__(self, "basis_labels", ("m0", "m1"))
        elif len(self.basis_labels) != 2:
            raise ValueError("basis_labels length must equal dim")
        if not all(map(cmath.isfinite, self.entries)):
            raise ValueError("matrix entries must be finite")
        a, b, c, d = self.entries
        defect = max(abs(a - a.conjugate()), abs(b - c.conjugate()),
                     abs(d - d.conjugate()))
        if defect > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian: defect {defect:.3e}")
        tr = a + d
        if abs(tr.imag) > TRACE_TOL or abs(tr.real - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")

    def at(self, i: int, j: int) -> complex:
        return self.entries[i * 2 + j]

    def min_eigenvalue(self) -> float:
        return _k.eigh(self.entries, 2)[0]

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
        if rows != 2 or cols != 2:
            raise ValueError(f"a density matrix is a qubit's 2x2, got rows = "
                             f"{rows} and cols = {cols}")
        return cls(2, tuple(complex(r, i) for r, i in zip(re, im)),
                   items(d, "basis_labels", str, ()))


def _norm(psi: Sequence[complex]) -> float:
    return math.sqrt(_k.plain_sum(x.real * x.real + x.imag * x.imag for x in psi))


def fidelity_mixed(rho: DensityMatrix, psi: Sequence[complex]) -> float:
    """<psi|rho|psi> for a unit-norm vector against a density matrix."""
    if len(psi) != 2:
        raise ValueError(f"vector dim {len(psi)} vs state dim 2")
    n = _norm(psi)
    if abs(n - 1.0) > 1e-10:
        raise ValueError(f"state vector is not normalized (norm {n})")
    acc = 0j
    for i in range(2):
        for j in range(2):
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
    tr = _k.plain_sum((rho.at(i, j) * sigma.at(j, i)
                       for i in range(2) for j in range(2)), 0j)
    det_r = (rho.at(0, 0) * rho.at(1, 1) - rho.at(0, 1) * rho.at(1, 0)).real
    det_s = (sigma.at(0, 0) * sigma.at(1, 1) - sigma.at(0, 1) * sigma.at(1, 0)).real
    f = tr.real + 2.0 * math.sqrt(max(0.0, det_r) * max(0.0, det_s))
    return min(1.0, max(0.0, f))


@dataclass(frozen=True)
class IdlerStateParams:
    """(p_h, xi, purity) triple; see module docstring for the matrix form."""

    p_h: float
    xi: float
    purity: float

    def __post_init__(self):
        if not 0.0 <= self.p_h <= 1.0:
            raise ValueError(f"p_h must lie in [0,1], got {self.p_h}")
        if not 0.0 <= self.purity <= 1.0:
            raise ValueError(f"purity must lie in [0,1], got {self.purity}")
        if not math.isfinite(self.xi):
            raise ValueError(f"xi must be finite, got {self.xi}")
        object.__setattr__(self, "xi", wrap_angle(self.xi))

    @property
    def p_v(self) -> float:
        return 1.0 - self.p_h

    def to_density_matrix(self) -> DensityMatrix:
        off = self.purity * math.sqrt(self.p_h * self.p_v) * cmath.exp(-1j * self.xi)
        return DensityMatrix(2, (complex(self.p_h), off, off.conjugate(),
                                 complex(self.p_v)), QUBIT_LABELS)

    def state_vector(self) -> tuple[complex, complex]:
        """Ket (amplitude_H, amplitude_V) for a pure state, H amplitude real."""
        if self.purity < 1.0 - 1e-12:
            raise ValueError(f"state with purity {self.purity} is not pure")
        return (complex(math.sqrt(self.p_h)),
                math.sqrt(self.p_v) * cmath.exp(1j * self.xi))

    def to_json_dict(self) -> dict:
        return {"p_h": self.p_h, "xi": self.xi, "purity": self.purity}

    @classmethod
    def from_json_dict(cls, d: dict) -> "IdlerStateParams":
        return cls(field(d, "p_h", float), field(d, "xi", float),
                   field(d, "purity", float))

    # common preparations
    @classmethod
    def horizontal(cls):
        return cls(1.0, 0.0, 1.0)


@dataclass(frozen=True)
class SourceQ2Params:
    """Reference-source amplitudes: H weight p_h2 and V phase theta."""

    p_h2: float = 0.5
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_h2 <= 1.0:
            raise ValueError(f"p_h2 must lie in [0,1], got {self.p_h2}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def p_v2(self) -> float:
        return 1.0 - self.p_h2

    def to_json_dict(self) -> dict:
        return {"p_h2": self.p_h2, "theta": self.theta}

    @classmethod
    def from_json_dict(cls, d: dict) -> "SourceQ2Params":
        return cls(field(d, "p_h2", float), field(d, "theta", float))


class WaveplateKind(str, enum.Enum):
    HALF_WAVE = "half_wave"
    QUARTER_WAVE = "quarter_wave"


@dataclass(frozen=True)
class WaveplateSetting:
    """A retarder with its fast-axis angle (radians from horizontal)."""

    kind: WaveplateKind
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "kind", WaveplateKind(self.kind))
        object.__setattr__(self, "angle", wrap_angle(self.angle, math.pi))

    @classmethod
    def hwp(cls, angle: float) -> "WaveplateSetting":
        return cls(WaveplateKind.HALF_WAVE, angle)

    @classmethod
    def qwp(cls, angle: float) -> "WaveplateSetting":
        return cls(WaveplateKind.QUARTER_WAVE, angle)


def waveplate_unitary(s: WaveplateSetting) -> tuple[complex, complex, complex, complex]:
    """Jones matrix of the waveplate, row-major, unitary to 1e-12."""
    c = math.cos(s.angle)
    sn = math.sin(s.angle)
    retard = -1.0 + 0j if s.kind is WaveplateKind.HALF_WAVE else 1j
    # R(a) diag(1, retard) R(-a)
    return (c * c + retard * sn * sn,
            c * sn - retard * sn * c,
            sn * c - retard * c * sn,
            sn * sn + retard * c * c)


def apply_plates(plates: Sequence[WaveplateSetting]) -> tuple[complex, complex]:
    """State vector after sending |H> through the plates in order."""
    x, y = 1.0 + 0j, 0j
    for p in plates:
        u00, u01, u10, u11 = waveplate_unitary(p)
        x, y = u00 * x + u01 * y, u10 * x + u11 * y
    return x, y


def prepared_idler_params(plates: Sequence[WaveplateSetting]) -> IdlerStateParams:
    """Pure-state parameters of the plates applied to |H>.

    The global phase is discarded; xi is 0 by convention when the
    prepared state has no V (or no H) component.
    """
    x, y = apply_plates(plates)
    p_h = abs(x) ** 2
    p_h = min(1.0, max(0.0, p_h))
    if abs(x) < 1e-12 or abs(y) < 1e-12:
        return IdlerStateParams(round(p_h), 0.0, 1.0)
    xi = wrap_angle(cmath.phase(y) - cmath.phase(x))
    return IdlerStateParams(p_h, xi, 1.0)
