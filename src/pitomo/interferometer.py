"""Two-source interferometer: state construction, evolution and rates.

One photon pair is emitted coherently by one of two sources.  Source 1
carries the unknown idler polarization state (signal fixed H in path a,
idler in path b'); source 2 emits the reference pair (signal in path b,
idler in path b).  The joint state lives on the eight modes

    {H_Sa H_Ib', H_Sa V_Ib', V_Sa H_Ib', V_Sa V_Ib',
     H_Sb H_Ib,  H_Sb V_Ib,  V_Sb H_Ib,  V_Sb V_Ib}

with source weights b1 (real) and b2 = b2_mag * e^{i phi}.  Only four
of them can hold amplitude: source 1 emits its signal in the set
polarization alone (modes 0, 1 for setting H; 2, 3 for V), and source 2
emits HH or VV (modes 4, 7), never HV or VH.  The exact oracle therefore
holds the state as that support and the flat row-major 4x4 block on it;
it is never wrapped in a ``states.DensityMatrix``, which holds a qubit.
The idler beams are aligned by an effective splitter that acts on the b'
idler modes alone (Zou, Wang & Mandel, PRL 67, 318 (1991)): it sends
them to the reference mode b with amplitude t_h/t_v and to a discarded
witness path w otherwise; this is realized as an isometry into a 12-dim
space so every intermediate object stays a valid state.  After tracing
the idler, the two signal paths are recombined on a balanced splitter
(Hadamard on paths, identity on polarization) and the H/V populations
of one output port are the detection rates.  :func:`rates_exact` is the
one matrix path, each stage a private helper on flat row-major lists: the
joint state's block; the signal state rho_S = Tr_I(K rho K^dagger),
formed from the aligned entries the trace reads alone (the alignment
isometry K has one entry per row); and of B rho_S B^dagger only the two
populations the detectors read.

Port convention: the detectors sit on the recombiner output where the
two source amplitudes add in phase at phi = 0; in matrix terms the
detected H/V rates are the first two diagonal elements after
recombination.

The rate law.  With the signal set to H (V), one detector sees a fringe
as the source phase phi is scanned and the other a constant rate:

    fringing:  offset + amplitude * cos(phi - phase)
    constant:  b2^2 p_v2 / 2     (setting H; b2^2 p_h2 / 2 for V)

    setting H:  offset    = (b1^2 + b2^2 p_h2) / 2
                amplitude = b1 b2 |t_h| sqrt(p_h p_h2)
                phase     = arg t_h
    setting V:  offset    = (b1^2 + b2^2 p_v2) / 2
                amplitude = b1 b2 I |t_v| sqrt(p_v p_v2)
                phase     = xi + arg t_v - theta

where I is the idler purity; offset + constant = (b1^2 + b2^2)/2 = 1/2 in
both settings.  Rates are probabilities per generated pair.  :func:`fringe`
is the one closed-form statement of this law; :func:`rates_exact` reaches
the same rates through the full matrix evolution (the oracle used in
tests) and agrees with it to better than 1e-10 for every configuration
that can be constructed.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

from ._fields import check, field
from .states import IdlerStateParams, SourceQ2Params

SQRT1_2 = 1.0 / math.sqrt(2.0)

# recombiner B as (row, [(column, value), ...]): Hadamard-like on the path
# factor, identity on polarization; rows 0 and 1 are the detected port's H
# and V, the only rows ``_detected_raw`` reads
_BS_ROWS = [
    (0, [(0, SQRT1_2 + 0j), (2, SQRT1_2 + 0j)]),
    (1, [(1, SQRT1_2 + 0j), (3, SQRT1_2 + 0j)]),
    (2, [(0, SQRT1_2 + 0j), (2, -SQRT1_2 + 0j)]),
    (3, [(1, SQRT1_2 + 0j), (3, -SQRT1_2 + 0j)]),
]


class SignalSetting(str, enum.Enum):
    H = "H"
    V = "V"


@dataclass(frozen=True)
class InterferometerConfig:
    """Every physical knob of the two-source arrangement.

    phi is the source phase of the joint state; a scan steps it over its
    own grid, so only the exact matrix pipeline reads this field.
    """

    b1: float
    b2_mag: float
    phi: float = 0.0
    t_h: complex = 1.0 + 0j
    t_v: complex = 1.0 + 0j
    idler: IdlerStateParams = IdlerStateParams.horizontal()
    q2: SourceQ2Params = SourceQ2Params()
    signal_setting: SignalSetting = SignalSetting.H

    def __post_init__(self):
        # every test is written so that a NaN fails it
        if not (self.b1 >= 0.0 and self.b2_mag >= 0.0):
            raise ValueError(f"b1 and b2_mag must be >= 0, got {self.b1!r} "
                             f"and {self.b2_mag!r}")
        norm = self.b1 * self.b1 + self.b2_mag * self.b2_mag
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"b1^2 + b2^2 must be 1, got {norm!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        object.__setattr__(self, "t_h", complex(self.t_h))
        object.__setattr__(self, "t_v", complex(self.t_v))
        if not (abs(self.t_h) <= 1.0 + 1e-12 and abs(self.t_v) <= 1.0 + 1e-12):
            raise ValueError("|t_h| and |t_v| must be <= 1")
        if not isinstance(self.signal_setting, SignalSetting):
            object.__setattr__(self, "signal_setting",
                               SignalSetting(self.signal_setting))

    # -- convenience ----------------------------------------------------

    @classmethod
    def balanced(cls, idler: IdlerStateParams, *, t_h: complex = 1.0,
                 t_v: complex = 1.0, phi: float = 0.0,
                 setting: SignalSetting = SignalSetting.H) -> "InterferometerConfig":
        """Second source pumped twice as hard, balanced reference weights."""
        return cls(b1=math.sqrt(1.0 / 3.0), b2_mag=math.sqrt(2.0 / 3.0),
                   phi=phi, t_h=t_h, t_v=t_v, idler=idler,
                   q2=SourceQ2Params(), signal_setting=setting)

    def with_setting(self, setting: SignalSetting) -> "InterferometerConfig":
        return replace(self, signal_setting=setting)

    @property
    def b2(self) -> complex:
        return self.b2_mag * cmath.exp(1j * self.phi)

    def to_json_dict(self) -> dict:
        return {
            "b1": self.b1,
            "b2_mag": self.b2_mag,
            "phi": self.phi,
            "t_h": {"re": self.t_h.real, "im": self.t_h.imag},
            "t_v": {"re": self.t_v.real, "im": self.t_v.imag},
            "idler": self.idler.to_json_dict(),
            "q2": self.q2.to_json_dict(),
            "signal_setting": self.signal_setting.value,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "InterferometerConfig":
        def _cplx(key):
            v = d.get(key, 1.0)
            if not isinstance(v, dict):
                return complex(check(v, float, key))
            return complex(check(v.get("re"), float, f"{key}.re"),
                           check(v.get("im", 0.0), float, f"{key}.im"))
        idler = IdlerStateParams.from_json_dict(field(d, "idler", dict))
        # Files written before the cross-source coherences were tied to the
        # idler purity carry them; they load only while they agree with it.
        for key in ("coherence_l", "coherence_lp"):
            value = field(d, key, float, None)
            if value is not None and value != idler.purity:
                raise ValueError(
                    f"{key} = {value!r} differs from the idler purity "
                    f"{idler.purity!r}; a physical state needs them equal")
        return cls(
            b1=field(d, "b1", float),
            b2_mag=field(d, "b2_mag", float),
            phi=field(d, "phi", float, 0.0),
            t_h=_cplx("t_h"),
            t_v=_cplx("t_v"),
            idler=idler,
            q2=SourceQ2Params.from_json_dict(
                field(d, "q2", dict, {"p_h2": 0.5, "theta": 0.0})),
            signal_setting=field(d, "signal_setting", SignalSetting,
                                 SignalSetting.H),
        )


@dataclass(frozen=True)
class DetectionRates:
    """Per-pair click probabilities of the two polarization detectors."""

    rate_h: float
    rate_v: float

    def __post_init__(self):
        for name, r in (("rate_h", self.rate_h), ("rate_v", self.rate_v)):
            if not -1e-12 <= r <= 1.0 + 1e-12:
                raise ValueError(f"{name} out of [0,1]: {r}")


# ---------------------------------------------------------------------------
# stages of the exact oracle, on flat row-major lists


# the joint state's support: source 1's two modes of the signal setting,
# then source 2's HH and VV
_SUPPORT = {SignalSetting.H: (0, 1, 4, 7), SignalSetting.V: (2, 3, 4, 7)}


def _total_state_raw(cfg: InterferometerConfig,
                     coherence_override: float | None = None
                     ) -> tuple[tuple[int, ...], list[complex]]:
    """The joint two-source state as ``(modes, block)``: its four-mode
    support, ascending, and the 4x4 row-major block on it; every entry of
    the 8x8 state off the support is zero.

    ``coherence_override`` forces every coherence slot, the idler purity
    and both cross-source coherences, to one value: the one-parameter
    family whose positivity boundary sits at coherence = 1, above which
    the matrix is indefinite (``verify`` checks 1.2).  For positivity
    studies, not for simulation.
    """
    p_h = cfg.idler.p_h
    p_v = cfg.idler.p_v
    xi = cfg.idler.xi
    pur = cfg.idler.purity if coherence_override is None else coherence_override
    p_h2 = cfg.q2.p_h2
    p_v2 = cfg.q2.p_v2
    theta = cfg.q2.theta
    b1 = cfg.b1
    b2 = cfg.b2
    w1 = b1 * b1
    w2 = cfg.b2_mag * cfg.b2_mag
    cross = b1 * b2.conjugate()

    # source 1's idler coherence, source 2's HH-VV coherence, and the
    # cross terms from source 1's H and V idler to source 2's HH and VV
    s1 = w1 * pur * math.sqrt(p_h * p_v) * cmath.exp(-1j * xi)
    s2 = w2 * math.sqrt(p_h2 * p_v2) * cmath.exp(-1j * theta)
    c_hh = cross * math.sqrt(p_h * p_h2)
    c_hv = cross * math.sqrt(p_h * p_v2) * cmath.exp(-1j * theta)
    c_vh = cross * pur * math.sqrt(p_v * p_h2) * cmath.exp(1j * xi)
    c_vv = cross * pur * math.sqrt(p_v * p_v2) * cmath.exp(1j * (xi - theta))
    return _SUPPORT[cfg.signal_setting], [
        complex(w1 * p_h), s1, c_hh, c_hv,
        s1.conjugate(), complex(w1 * p_v), c_vh, c_vv,
        c_hh.conjugate(), c_vh.conjugate(), complex(w2 * p_h2), s2,
        c_hv.conjugate(), c_vv.conjugate(), s2.conjugate(), complex(w2 * p_v2),
    ]


def _alignment_isometry_raw(cfg: InterferometerConfig) -> list:
    """12x8 isometry: b' idler modes split into (b, w), b modes untouched.

    The 12 output modes are H_Sa and V_Sa, each with the idler modes
    H_Ib, V_Ib, H_Iw, V_Iw, then the joint state's four source-2 modes.
    Each row has one entry, returned as its ``(column, value)`` pair, in
    row order.
    """
    r_h = complex(math.sqrt(max(0.0, 1.0 - abs(cfg.t_h) ** 2)))
    r_v = complex(math.sqrt(max(0.0, 1.0 - abs(cfg.t_v) ** 2)))
    return [
        (0, cfg.t_h), (1, cfg.t_v), (0, r_h), (1, r_v),  # H_Sa: b' -> b, w
        (2, cfg.t_h), (3, cfg.t_v), (2, r_h), (3, r_v),  # V_Sa: b' -> b, w
        # the source-2 sector passes through
        (4, 1.0 + 0j), (5, 1.0 + 0j), (6, 1.0 + 0j), (7, 1.0 + 0j),
    ]


# each signal mode's 12-dim modes: source 1's with idler b and w, source 2's b
_IDLER_MODES = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9), (10, 11))
# the 12-dim mode pairs (x, y) whose aligned entries sum, in order, to each
# entry of the 4x4 signal state, row-major; zip keeps the idler modes two
# signal modes share: the b modes whenever a source-2 mode is involved
_MARGINAL_TERMS = tuple(tuple(zip(_IDLER_MODES[s], _IDLER_MODES[sp]))
                        for s in range(4) for sp in range(4))


def _signal_state_raw(modes: Sequence[int], block: Sequence[complex],
                      cfg: InterferometerConfig) -> list[complex]:
    """The signal state Tr_I(K r8 K^dagger), 4x4 row-major, of the joint
    state r8 that is ``block`` (row-major, n x n) on the n joint modes
    ``modes`` and zero elsewhere.

    The 12-dim space is a direct sum, not a full tensor product: the
    source-1 signal modes pair with four idler modes (b and w, both
    polarizations), the source-2 signal modes with the two b modes.
    Off-diagonal signal blocks therefore sum over the shared b modes
    only, which is exactly where the induced coherence lives.  Row x of K
    has one entry, v_x in column l_x, so for finite input the naive loops
    give the aligned entry (x, y) as 0j + (0j + v_x r8[l_x, l_y]) conj(v_y).
    Each entry of rho_S sums its pairs of ``_MARGINAL_TERMS`` from +0j in
    ascending order, each v_x * r8[l_x, l_y] * conj(v_y) where l_x and l_y
    are in ``modes``: 10 products for a joint state.  The bits are the
    naive loops': a sum from +0j is never -0, so a pair left out (a signed
    zero) adds nothing, nor does a +0j left out, which changes at most the
    sign of a zero part.
    """
    n = len(modes)
    at = {l: i for i, l in enumerate(modes)}
    rows = [(at[l] * n, at[l], v, v.conjugate()) if l in at else None
            for l, v in _alignment_isometry_raw(cfg)]
    rs = []
    for pairs in _MARGINAL_TERMS:
        acc = 0j
        for x, y in pairs:
            row, col = rows[x], rows[y]
            if row is not None and col is not None:
                acc = acc + row[2] * block[row[0] + col[1]] * col[3]
        rs.append(acc)
    return rs


def _detected_raw(rs: Sequence[complex]) -> tuple[float, float]:
    """The detected port's populations <0|B rs B^dagger|0> and
    <1|B rs B^dagger|1>, each summed as the full triple loop sums it, from
    +0j in ascending column order, over the nonzero entries of B's row
    alone: a term left out is a signed zero, and adding one to a sum that
    started at +0j (so is never -0) changes no bit of finite input."""
    out = []
    for _, nz in _BS_ROWS[:2]:
        acc = 0j
        for l, v in nz:
            row = 0j  # (B rs)[i, l]
            for k, w in nz:
                row = row + w * rs[k * 4 + l]
            acc = acc + row * v.conjugate()
        out.append(acc.real)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# public operations


def rates_exact(cfg: InterferometerConfig) -> DetectionRates:
    """The oracle's rates: joint state, signal state, detected populations."""
    return DetectionRates(*_detected_raw(
        _signal_state_raw(*_total_state_raw(cfg), cfg)))


@dataclass(frozen=True)
class Fringe:
    """Per-pair rates of one signal setting as the source phase is scanned.

    The fringing detector's rate is offset + amplitude * cos(phi - phase),
    the constant detector's is ``constant``.  The phase is kept as the
    terms (theta, xi, arg t) of phase = xi + arg t - theta, so that every
    evaluation rounds phi + theta - xi - arg t the same way.  The law is
    written once, in ``over``, which gives the rates over a whole grid in
    one comprehension, as a scan reads them; ``at`` is ``over`` at one
    phase.
    """

    offset: float
    amplitude: float
    phase_terms: tuple[float, float, float]
    constant: float

    @property
    def phase(self) -> float:
        theta, xi, arg_t = self.phase_terms
        return xi + arg_t - theta

    @property
    def visibility(self) -> float:
        return self.amplitude / self.offset if self.offset > 0.0 else 0.0

    def at(self, phi: float) -> float:
        """Rate of the fringing detector at source phase phi."""
        return self.over((phi,))[0]

    def over(self, phases: Sequence[float]) -> list[float]:
        """Rates of the fringing detector at each source phase of ``phases``."""
        theta, xi, arg_t = self.phase_terms
        offset, amplitude, cos = self.offset, self.amplitude, math.cos
        return [offset + amplitude * cos(phi + theta - xi - arg_t) for phi in phases]


def fringe(cfg: InterferometerConfig) -> Fringe:
    """The closed-form rate law for ``cfg.signal_setting``.

    The fringing detector's rate is offset + amplitude * cos(phi - phase)
    and the other detector's is constant; the module docstring gives the
    terms of each setting.  Every other closed-form rate derives from this.
    """
    idler = cfg.idler
    q2 = cfg.q2
    b12 = cfg.b1 * cfg.b2_mag
    w2 = cfg.b2_mag * cfg.b2_mag
    if cfg.signal_setting is SignalSetting.H:
        return Fringe(
            0.5 * (cfg.b1 * cfg.b1 + w2 * q2.p_h2),
            b12 * abs(cfg.t_h) * math.sqrt(idler.p_h * q2.p_h2),
            (0.0, 0.0, cmath.phase(cfg.t_h)),
            0.5 * w2 * q2.p_v2)
    return Fringe(
        0.5 * (cfg.b1 * cfg.b1 + w2 * q2.p_v2),
        b12 * idler.purity * abs(cfg.t_v) * math.sqrt(idler.p_v * q2.p_v2),
        (q2.theta, idler.xi, cmath.phase(cfg.t_v)),
        0.5 * w2 * q2.p_h2)


def rates_closed_form(cfg: InterferometerConfig) -> DetectionRates:
    """Detection rates at ``cfg.phi`` from :func:`fringe`."""
    f = fringe(cfg)
    if cfg.signal_setting is SignalSetting.H:
        return DetectionRates(f.at(cfg.phi), f.constant)
    return DetectionRates(f.constant, f.at(cfg.phi))


def random_valid_config(rng, *, purity: float | None = None,
                        setting: SignalSetting | None = None) -> InterferometerConfig:
    """Sample a physically valid configuration (used by property sweeps).

    ``rng`` is a ``_kernels.Rng``; its held generator is drawn from
    directly, the draws that ``rng.random`` would give."""
    uniform = rng._gen.random
    w1 = 0.02 + 0.96 * uniform()
    b1 = math.sqrt(w1)
    b2_mag = math.sqrt(1.0 - w1)
    pur = uniform() if purity is None else purity
    idler = IdlerStateParams(uniform(), 2.0 * math.pi * uniform(), pur)
    q2 = SourceQ2Params(uniform(), 2.0 * math.pi * uniform())
    t_h = uniform()
    t_v = uniform()
    t_h *= cmath.exp(2j * math.pi * uniform())
    t_v *= cmath.exp(2j * math.pi * uniform())
    if setting is None:
        setting = SignalSetting.H if uniform() < 0.5 else SignalSetting.V
    return InterferometerConfig(
        b1=b1, b2_mag=b2_mag, phi=2.0 * math.pi * uniform(),
        t_h=t_h, t_v=t_v, idler=idler, q2=q2, signal_setting=setting)
