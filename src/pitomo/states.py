"""Polarization state parametrizations and waveplate state preparation.

A single-photon polarization state is carried as (p_h, xi, purity):
population of H, relative phase of V against H, and the magnitude of
the off-diagonal coherence (1 = pure, 0 = fully mixed).  The associated
density matrix is

    [[ p_h,                  purity*sqrt(p_h p_v) e^{-i xi} ],
     [ purity*sqrt(p_h p_v) e^{+i xi},                  p_v ]]

with p_v = 1 - p_h.

Waveplate conventions, fixed project-wide (the handedness attached to
them is a documented choice): with R(a) the real rotation by the
fast-axis angle a,

    HWP(a) = R(a) diag(1, -1) R(-a)
    QWP(a) = R(a) diag(1,  i) R(-a)

and the state with xi = +pi/2 is labeled right-circular.  Global phases
are discarded when extracting parameters from state vectors; xi is
reported as 0 whenever it is undefined (p_h in {0, 1} or purity 0).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

from ._fields import field
from .qcore import ComplexMatrix, DensityMatrix

TWO_PI = 2.0 * math.pi

QUBIT_LABELS = ("H", "V")


def wrap_angle(x: float, period: float = TWO_PI) -> float:
    """Wrap into [0, period)."""
    y = math.fmod(x, period)
    if y < 0.0:
        y += period
    if y >= period:  # fmod corner, e.g. tiny negatives rounding up
        y -= period
    return y


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
        m = ComplexMatrix(2, 2, (complex(self.p_h), off,
                                 off.conjugate(), complex(self.p_v)))
        return DensityMatrix(2, m, QUBIT_LABELS)

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

    @classmethod
    def vertical(cls):
        return cls(0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls):
        return cls(0.5, 0.0, 1.0)

    @classmethod
    def antidiagonal(cls):
        return cls(0.5, math.pi, 1.0)

    @classmethod
    def circular_right(cls):
        return cls(0.5, 0.5 * math.pi, 1.0)

    @classmethod
    def circular_left(cls):
        return cls(0.5, 1.5 * math.pi, 1.0)


def idler_density_matrix(p: IdlerStateParams) -> DensityMatrix:
    """Density matrix of the (p_h, xi, purity) parametrization."""
    return p.to_density_matrix()


def params_from_density_matrix(dm: DensityMatrix) -> IdlerStateParams:
    """Inverse of :func:`idler_density_matrix`, with edge conventions.

    When the off-diagonal is identically zero the phase is reported as
    0; when p_h is 0 or 1 the coherence magnitude is unconstrained and
    reported as 1.
    """
    if dm.dim != 2:
        raise ValueError("expected a qubit state")
    p_h = min(1.0, max(0.0, dm.at(0, 0).real))
    denom = math.sqrt(p_h * (1.0 - p_h))
    off = dm.at(0, 1)
    if denom < 1e-15:
        return IdlerStateParams(p_h, 0.0, 1.0)
    purity = min(1.0, abs(off) / denom)
    xi = wrap_angle(-cmath.phase(off)) if abs(off) > 0.0 else 0.0
    return IdlerStateParams(p_h, xi, purity)


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


def waveplate_unitary(s: WaveplateSetting) -> ComplexMatrix:
    """Jones matrix of the waveplate, unitary to 1e-12."""
    c = math.cos(s.angle)
    sn = math.sin(s.angle)
    retard = -1.0 + 0j if s.kind is WaveplateKind.HALF_WAVE else 1j
    # R(a) diag(1, retard) R(-a)
    return ComplexMatrix(2, 2, (
        c * c + retard * sn * sn,
        c * sn - retard * sn * c,
        sn * c - retard * c * sn,
        sn * sn + retard * c * c,
    ))


def apply_plates(plates: Sequence[WaveplateSetting],
                 initial: Sequence[complex] = (1.0, 0.0)) -> tuple[complex, complex]:
    """State vector after sending ``initial`` through the plates in order."""
    x, y = complex(initial[0]), complex(initial[1])
    for p in plates:
        u = waveplate_unitary(p)
        x, y = (u.at(0, 0) * x + u.at(0, 1) * y,
                u.at(1, 0) * x + u.at(1, 1) * y)
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
