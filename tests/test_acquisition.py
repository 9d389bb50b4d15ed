"""Scan synthesis, noise reproducibility, persistence, and calibration."""

import cmath
import math
import tempfile
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pitomo import acquisition, reconstruct
from pitomo._fields import EntryError
from pitomo._kernels import Rng
from pitomo.acquisition import (CSV_COLUMNS, HELD_POINTS, CalibrationResult,
                                ScanPlan, ScanRecord, calibration_from_json,
                                calibration_to_json, load_scan, once_per_grid,
                                run_calibration, run_scan, scan_from_csv,
                                scan_from_json, scan_to_csv, scan_to_json)
from pitomo.interferometer import (InterferometerConfig, SignalSetting,
                                   fringe, rates_closed_form)
from pitomo.reconstruct import extract_parameters, fit_sinusoid
from pitomo.states import TWO_PI, IdlerStateParams, SourceQ2Params
from conftest import count_grids, digest, unbalanced_config


def balanced(idler=None, **kw):
    return InterferometerConfig.balanced(idler or IdlerStateParams(0.3, 1.2, 0.9),
                                         **kw)


# ---------------------------------------------------------------------------
# plans


def test_plan_validation():
    with pytest.raises(ValueError):
        ScanPlan((0.0, 0.1, 0.2, 0.3), 100, SignalSetting.H, 1)  # 4 points
    with pytest.raises(ValueError):
        ScanPlan((0.0, 0.2, 0.1, 0.3, 0.4), 100, SignalSetting.H, 1)
    with pytest.raises(ValueError):
        ScanPlan((0.0, 1.0, 2.0, 4.0, 7.0), 100, SignalSetting.H, 1)  # > 2*pi
    with pytest.raises(ValueError):
        ScanPlan.default_grid(SignalSetting.H, seed=1, counts_per_point=0)
    # counts and rates stay exact floats up to 2**53
    ScanPlan.default_grid(SignalSetting.H, seed=1, counts_per_point=2 ** 53)
    with pytest.raises(ValueError, match="counts_per_point must be at most 2"):
        ScanPlan.default_grid(SignalSetting.H, seed=1,
                              counts_per_point=2 ** 53 + 1)
    plan = ScanPlan.default_grid(SignalSetting.V, seed=3)
    assert len(plan.phases) == 20
    assert plan.phases[0] == 0.0


# Grids that break a rule, and the point the rule names: an infinity is
# in order, so only the span rule sees it.
@pytest.mark.parametrize("phases, index, rule", [
    ((0.0, 1.0, 2.0, 3.0, math.inf), 4, "must be a finite number"),
    ((-math.inf, 1.0, 2.0, 3.0, 4.0), 0, "must be a finite number"),
    ((math.nan, 1.0, 2.0, 3.0, 4.0), 0, "must be a finite number"),
    ((0.0, 1.0, math.nan, 3.0, 4.0), 2, "must be a finite number"),
    ((0.0, 1.0, 2.0, 2.0, 1.5), 3, "must be strictly increasing"),
    ((1.0, 2.0, 3.0, 4.0, 1.0 + 2 * math.pi), 4, "must stay within one period"),
])
def test_plan_names_the_first_bad_phase(phases, index, rule):
    with pytest.raises(EntryError, match=rule) as exc:
        ScanPlan(phases, 100, SignalSetting.H, 1)
    assert (exc.value.key, exc.value.index) == ("phases", index)


def test_plan_accepts_a_grid_just_short_of_a_period():
    last = math.nextafter(2 * math.pi, 0.0)
    plan = ScanPlan((0.0, 1.0, 2.0, 3.0, last), 100, SignalSetting.H, 1)
    assert plan.phases[-1] == last


# ---------------------------------------------------------------------------
# scans


def test_noiseless_counts_are_rounded_rates():
    cfg = balanced(IdlerStateParams.horizontal())
    plan = ScanPlan.default_grid(SignalSetting.H, seed=9, counts_per_point=1000,
                                 noiseless=True)
    record = run_scan(cfg, plan)
    for phi, c in zip(plan.phases, record.counts_primary):
        rate = rates_closed_form(replace(cfg, phi=phi)).rate_h
        assert c == round(1000 * rate)


def test_noiseless_quadrature_point():
    # cosine vanishes at phi = pi/2, leaving the source-1 weight
    cfg = balanced(IdlerStateParams.horizontal())
    plan = ScanPlan((0.1, 0.3, math.pi / 2, 2.0, 3.0), 999, SignalSetting.H,
                    seed=0, noiseless=True)
    record = run_scan(cfg, plan)
    assert record.counts_primary[2] == round(999 * cfg.b1 ** 2)


def test_noiseless_independent_of_seed():
    cfg = balanced()
    a = run_scan(cfg, ScanPlan.default_grid(SignalSetting.H, 1, noiseless=True))
    b = run_scan(cfg, ScanPlan.default_grid(SignalSetting.H, 2, noiseless=True))
    assert a.counts_primary == b.counts_primary


def test_noisy_scan_deterministic_per_seed():
    cfg = balanced()
    plan = ScanPlan.default_grid(SignalSetting.H, seed=123)
    a = run_scan(cfg, plan)
    b = run_scan(cfg, plan)
    assert a.counts_primary == b.counts_primary
    assert a.counts_constant == b.counts_constant
    c = run_scan(cfg, ScanPlan.default_grid(SignalSetting.H, seed=124))
    assert c.counts_primary != a.counts_primary


def test_channels_and_settings_use_distinct_streams():
    cfg = balanced(IdlerStateParams(0.5, 0.0, 1.0))
    plan_h = ScanPlan.default_grid(SignalSetting.H, seed=5)
    plan_v = ScanPlan.default_grid(SignalSetting.V, seed=5)
    h = run_scan(cfg, plan_h)
    v = run_scan(cfg, plan_v)
    assert h.counts_primary != v.counts_primary
    assert h.counts_primary != h.counts_constant


def test_counts_nonnegative_integers():
    cfg = balanced()
    for seed in range(5):
        rec = run_scan(cfg, ScanPlan.default_grid(SignalSetting.V, seed,
                                                  counts_per_point=50))
        assert all(isinstance(c, int) and c >= 0 for c in rec.counts_primary)


@pytest.mark.parametrize("noiseless", [True, False])
def test_a_fringe_null_keeps_the_clamped_counts(noiseless):
    # a visibility-1 fringe: the rate at its null, phi = pi on the default
    # grid, rounds to -5.6e-17, which the scan clamps as max(0.0, r) does
    cfg = balanced(IdlerStateParams.horizontal())
    f = fringe(cfg)
    plan = ScanPlan.default_grid(SignalSetting.H, 31, counts_per_point=10 ** 6,
                                 noiseless=noiseless)
    assert min(map(f.at, plan.phases)) < 0.0
    means = [10 ** 6 * max(0.0, f.at(phi)) for phi in plan.phases]
    if noiseless:
        expected = [round(mu) for mu in means]
    else:
        expected = Rng(31, 0).poissons(means)
    assert run_scan(cfg, plan).counts_primary == tuple(expected)
    assert expected[10] == 0


def test_empirical_visibility_matches_closed_form():
    # extrema on the grid (xi = 0, real transmissions), so the empirical
    # contrast is rounding-limited
    n = 10 ** 6
    idler = IdlerStateParams(0.4, 0.0, 0.8)
    cfg = balanced(idler, t_h=0.9, t_v=0.8)
    for setting in SignalSetting:
        expected = fringe(cfg.with_setting(setting)).visibility
        plan = ScanPlan.default_grid(setting, 0, counts_per_point=n,
                                     noiseless=True)
        rec = run_scan(cfg, plan)
        hi, lo = max(rec.counts_primary), min(rec.counts_primary)
        measured = (hi - lo) / (hi + lo)
        assert abs(measured - expected) <= 2.0 / n


# Literal counts pin the noise streams and the float evaluation order of
# the rate law: a change to either changes a count.  n = 1000 draws on the
# Poisson rejection branch (mean >= 30), n = 30 on the inversion branch.
# The unbalanced arrangement carries phi = 1.3, which a scan overrides.
_UNBALANCED = dict(b1=0.8, b2_mag=0.6, phi=1.3, t_h=0.9 * cmath.exp(2.5j),
                   t_v=0.6 * cmath.exp(0.3j),
                   idler=IdlerStateParams(0.62, 4.0, 0.7),
                   q2=SourceQ2Params(0.3, 1.3))
GOLDEN_SCANS = {
    "balanced_complex_t": (
        dict(b1=math.sqrt(1 / 3), b2_mag=math.sqrt(2 / 3),
             t_h=0.85 * cmath.exp(0.4j), t_v=0.73 * cmath.exp(-1.1j),
             idler=IdlerStateParams(0.35, 2.1, 0.8)), 1000, False, {
            "H": ((547, 466, 388, 270, 170, 164, 261, 399),
                  (178, 154, 184, 178, 184, 168, 173, 153)),
            "V": ((427, 516, 463, 374, 218, 214, 193, 288),
                  (174, 153, 177, 141, 177, 175, 143, 184)),
        }),
    "unbalanced_theta": (_UNBALANCED, 1000, False, {
        "H": ((265, 328, 474, 558, 508, 379, 255, 192),
              (136, 115, 141, 136, 141, 127, 132, 92)),
        "V": ((351, 410, 459, 538, 504, 567, 419, 350),
              (58, 46, 60, 39, 60, 59, 41, 64)),
    }),
    "unbalanced_dim": (_UNBALANCED, 30, False, {
        "H": ((12, 5, 11, 16, 14, 8, 8, 6), (5, 3, 2, 1, 6, 5, 5, 3)),
        "V": ((11, 9, 18, 19, 16, 14, 14, 11), (2, 0, 0, 2, 2, 1, 0, 0)),
    }),
    "noiseless_big_n": (
        dict(b1=0.45, b2_mag=math.sqrt(1 - 0.45 ** 2),
             t_h=0.95 * cmath.exp(-0.7j), t_v=0.8 * cmath.exp(1.9j),
             idler=IdlerStateParams(0.2, 0.9, 0.95),
             q2=SourceQ2Params(0.7, 5.1)), 10 ** 6, True, {
            "H": ((489629, 392559, 288352, 238050, 271121, 368191, 472398,
                   522700), (119625,) * 8),
            "V": ((121185, 71489, 109301, 212471, 320565, 370261, 332449,
                   229279), (279125,) * 8),
        }),
}


@pytest.mark.parametrize("setting", ["H", "V"])
@pytest.mark.parametrize("case", sorted(GOLDEN_SCANS))
def test_run_scan_golden_counts(case, setting):
    kwargs, n, noiseless, expected = GOLDEN_SCANS[case]
    plan = ScanPlan.default_grid(SignalSetting(setting), 2024, points=8,
                                 counts_per_point=n, noiseless=noiseless)
    record = run_scan(InterferometerConfig(**kwargs), plan)
    assert (record.counts_primary, record.counts_constant) == expected[setting]


def test_record_length_validation():
    plan = ScanPlan.default_grid(SignalSetting.H, 1)
    with pytest.raises(ValueError):
        ScanRecord(plan, (1,) * 19, (1,) * 20)
    with pytest.raises(ValueError):
        ScanRecord(plan, (-1,) + (1,) * 19, (1,) * 20)


def test_record_counts_fit_in_64_bits():
    plan = ScanPlan.default_grid(SignalSetting.H, 1)
    top = 2 ** 64 - 1
    assert ScanRecord(plan, (top,) * 20, (top,) * 20).counts_primary[0] == top
    with pytest.raises(ValueError,
                       match=r"counts_constant\[4\] must fit in 64 bits, got 18446744073709551616"):
        ScanRecord(plan, (1,) * 20, (1,) * 4 + (top + 1,) * 16)


@pytest.mark.parametrize("primary, constant", [
    ([3] * 20, (1,) * 20), ((3,) * 20, [1] * 20), ([3] * 20, [1] * 20)])
def test_record_normalizes_list_counts_to_tuples(primary, constant):
    plan = ScanPlan.default_grid(SignalSetting.H, 1)
    record = ScanRecord(plan, primary, constant)
    assert record.counts_primary == (3,) * 20
    assert record.counts_constant == (1,) * 20
    assert record == ScanRecord(plan, (3,) * 20, (1,) * 20)
    assert hash(record) == hash(ScanRecord(plan, (3,) * 20, (1,) * 20))
    with pytest.raises(ValueError, match="nonnegative"):
        ScanRecord(plan, primary, [1] * 19 + [-1])
    with pytest.raises(ValueError, match="grid length"):
        ScanRecord(plan, primary, [1] * 19)


# ---------------------------------------------------------------------------
# persistence


def test_csv_round_trip(tmp_path):
    cfg = balanced()
    rec = run_scan(cfg, ScanPlan.default_grid(SignalSetting.V, seed=77, counts_per_point=321))
    path = tmp_path / "scan.csv"
    scan_to_csv(rec, path)
    back = scan_from_csv(path)
    assert back.counts_primary == rec.counts_primary
    assert back.counts_constant == rec.counts_constant
    assert back.plan.phases == rec.plan.phases
    assert back.plan.seed == 77
    assert back.plan.counts_per_point == 321
    assert back.plan.setting is SignalSetting.V
    header = path.read_text().splitlines()[0]
    assert header == "# setting=V seed=77 n=321"


def test_json_round_trip(tmp_path):
    cfg = balanced()
    rec = run_scan(cfg, ScanPlan.default_grid(SignalSetting.H, seed=8))
    path = tmp_path / "scan.json"
    scan_to_json(rec, path)
    back = scan_from_json(path)
    assert back == rec  # includes plan, counts and embedded truth config


def test_load_scan_dispatch(tmp_path):
    cfg = balanced()
    rec = run_scan(cfg, ScanPlan.default_grid(SignalSetting.H, seed=8))
    scan_to_csv(rec, tmp_path / "s.csv")
    scan_to_json(rec, tmp_path / "s.json")
    assert load_scan(tmp_path / "s.csv").counts_primary == rec.counts_primary
    assert load_scan(tmp_path / "s.json") == rec
    with pytest.raises(ValueError):
        load_scan(tmp_path / "s.txt")


def test_csv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("phi,counts\n0,1\n")
    with pytest.raises(ValueError):
        scan_from_csv(p)


# Rows of a 20-point scan edited at once, by file line (data from line 3):
# the first bad row in file order is reported, cells of a row in column
# order, except that a phase that does not read as a number is refused
# only once every row has been read, as the phase grid's rule.
@pytest.mark.parametrize("edits, message", [
    pytest.param({5: (None, "x", None), 9: (None, "y", None)},
                 "5: counts_fringe must be an integer count, got 'x'",
                 id="two_bad_counts"),
    pytest.param({6: (None, None, "-"), 8: (None, "1.5", None)},
                 "6: counts_const must be an integer count, got '-'",
                 id="bad_constant_count_then_bad_fringe_count"),
    pytest.param({7: (None, "x", "y")},
                 "7: counts_fringe must be an integer count, got 'x'",
                 id="both_counts_of_one_row"),
    pytest.param({4: ("zz", None, None), 9: (None, "4_6", None)},
                 "9: counts_fringe must be an integer count, got '4_6'",
                 id="later_bad_count_beats_earlier_unreadable_phase"),
    pytest.param({4: ("0.3_1", None, None), 12: (None, None, "7.0")},
                 "12: counts_const must be an integer count, got '7.0'",
                 id="later_bad_count_beats_earlier_underscore_phase"),
    pytest.param({4: ("zz", None, None), 10: ("0.1,2", None, None)},
                 "10: expected 3 columns, got 4",
                 id="later_column_count_beats_earlier_unreadable_phase"),
    pytest.param({5: (None, "x", None), 10: ("0.1,2", None, None)},
                 "5: counts_fringe must be an integer count, got 'x'",
                 id="bad_count_then_bad_column_count"),
    pytest.param({4: ("zz", None, None), 7: ("yy", None, None)},
                 "4: phi_rad must be a finite number, got 'zz'",
                 id="two_unreadable_phases"),
    pytest.param({4: ("zz", None, None), 8: (None, "-3", None)},
                 "4: phi_rad must be a finite number, got 'zz'",
                 id="unreadable_phase_beats_later_negative_count"),
    pytest.param({8: (None, "-3", None), 11: (None, None, "-4")},
                 "8: counts_fringe must be nonnegative, got '-3'",
                 id="two_negative_counts"),
    # str.splitlines() would also break at U+2028 and count one line more
    pytest.param({4: (None, None, "1\u2028"), 8: (None, "x", None)},
                 "8: counts_fringe must be an integer count, got 'x'",
                 id="line_separator_inside_a_line"),
])
def test_csv_reports_the_first_bad_row(tmp_path, edits, message):
    path = tmp_path / "scan.csv"
    scan_to_csv(run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 5)),
                path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for line, cells in edits.items():
        old = lines[line - 1].split(",")
        lines[line - 1] = ",".join(o if c is None else c for o, c in zip(old, cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        scan_from_csv(path)
    assert str(exc.value) == f"{path}:{message}"


def _reference_csv(record):
    """The CSV text of ``record``, written one f-string per row."""
    plan = record.plan
    lines = [f"# setting={plan.setting.value} seed={plan.seed} "
             f"n={plan.counts_per_point}", ",".join(CSV_COLUMNS)]
    for phi, cf, cc in zip(plan.phases, record.counts_primary,
                           record.counts_constant):
        lines.append(f"{phi!r},{cf},{cc}")
    return ("\n".join(lines) + "\n").encode()


def _uneven_grids(lo):
    """Distinct phases in [lo, lo + 6.28], sorted, as ``--phases`` gives."""
    return st.lists(st.floats(lo, lo + 6.28), min_size=5, max_size=40,
                    unique=True).map(sorted)


def _uniform(m):
    return ScanPlan.default_grid(SignalSetting.H, 0, points=m).phases


_GRIDS = st.one_of(
    st.integers(5, 300).map(_uniform),
    _uneven_grids(0.0),
    st.floats(-20.0, 20.0).flatmap(_uneven_grids),
    st.integers(5, 300).map(lambda m: [p - math.pi for p in _uniform(m)]))
# a grid from 0.0 and its twin from -0.0, which compare equal
_TWINS = st.lists(st.floats(1e-6, 6.28), min_size=4, max_size=40,
                  unique=True).map(lambda rest: ([0.0, *sorted(rest)],
                                                 [-0.0, *sorted(rest)]))


@given(grids=st.one_of(st.tuples(_GRIDS, _GRIDS), _TWINS), data=st.data())
def test_csv_writes_the_reference_bytes_and_reads_them_back(grids, data):
    records = []
    for phases in grids:
        counts = st.lists(st.integers(0, (1 << 64) - 1), min_size=len(phases),
                          max_size=len(phases))
        plan = ScanPlan(phases, data.draw(st.integers(1, 1 << 53)),
                        data.draw(st.sampled_from(SignalSetting)),
                        data.draw(st.integers(0, (1 << 64) - 1)))
        records.append(ScanRecord(plan, data.draw(counts), data.draw(counts)))
    a, b = records
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        texts = count_grids(mp, acquisition, "_phase_text")
        path = Path(tmp) / "scan.csv"
        for record in (a, a, b, b, a):  # a miss, then a hit, on each grid
            scan_to_csv(record, path)
            assert path.read_bytes() == _reference_csv(record)
            back = scan_from_csv(path)
            assert back == record
            assert (array("d", back.plan.phases).tobytes()
                    == array("d", record.plan.phases).tobytes())
    # a grid's text is held by its bits: the -0.0 twin of a grid misses
    twins = (array("d", a.plan.phases).tobytes()
             == array("d", b.plan.phases).tobytes())
    assert len(texts) == (1 if twins else 3)


def _dim_pairs():
    """16 seeded H/V scan pairs of 200 points at n = 30, as a dim
    benchmark op draws them, with the transmissions the inversion gets."""
    rng = Rng(0xD1, 0)
    for k in range(16):
        idler = IdlerStateParams(0.05 + 0.9 * rng.random(), TWO_PI * rng.random(),
                                 1.0 - 0.9 * rng.random() ** 3)
        t_h, t_v = 0.8 + 0.2 * rng.random(), 0.8 + 0.2 * rng.random()
        phase = cmath.exp(1j * TWO_PI * rng.random())
        cfg = InterferometerConfig.balanced(idler, t_h=t_h * phase,
                                            t_v=t_v * phase)
        yield tuple(run_scan(cfg, ScanPlan.default_grid(
            setting, 1000 + k, points=200, counts_per_point=30))
            for setting in SignalSetting), t_h, t_v


def _dim_path_values(tmp_path):
    """Each pair through scan_to_csv, load_scan and the fringe route: the
    file bytes, the loaded record and the result."""
    values = []
    for scans, t_h, t_v in _dim_pairs():
        loaded = []
        for scan in scans:
            path = tmp_path / f"scan_{scan.plan.setting.value}.csv"
            scan_to_csv(scan, path)
            loaded.append(load_scan(path))
            plan = loaded[-1].plan
            values += [path.read_bytes(), plan.phases, plan.counts_per_point,
                       plan.setting.value, plan.seed, loaded[-1].counts_primary,
                       loaded[-1].counts_constant]
        result = extract_parameters(*loaded, t_h, t_v)
        p = result.params
        values += [p.p_h, p.xi, p.purity, result.cost, result.flags,
                   sorted(result.param_stderr.items())]
    return values


# sha256 (conftest.digest) of _dim_path_values; pins every byte and bit of
# the CSV round trip and the fringe route on dim scans
DIM_PATH_GOLDEN = "0ecc2ed00e8c453c6e4dff796b2363125ce231491078ac0666c7cf02784e9b20"


def test_dim_csv_path_golden(tmp_path):
    assert digest(_dim_path_values(tmp_path)) == DIM_PATH_GOLDEN


# ---------------------------------------------------------------------------
# the grid memo


def test_a_scan_pair_on_one_grid_formats_its_phases_once(tmp_path, monkeypatch):
    (scan_h, scan_v), t_h, t_v = next(_dim_pairs())
    counted = [count_grids(monkeypatch, acquisition, "_checked_grid"),
               count_grids(monkeypatch, acquisition, "_phase_text"),
               count_grids(monkeypatch, reconstruct, "_fit_grid")]
    plans = [ScanPlan.default_grid(setting, 3, points=200, counts_per_point=30)
             for setting in SignalSetting]
    loaded = []
    for scan in (scan_h, scan_v):
        scan_to_csv(scan, tmp_path / "scan.csv")
        loaded.append(load_scan(tmp_path / "scan.csv"))
        assert loaded[-1].plan.phases == scan.plan.phases
    extract_parameters(*loaded, t_h, t_v)
    # validation, CSV text and the fit's grid pass: one call each, and
    # the plans built, written and reloaded share one tuple
    assert [len(calls) for calls in counted] == [1, 1, 1]
    assert all(p.phases is plans[0].phases for p in
               (*plans, *(s.plan for s in loaded)))


def test_once_per_grid_keys_on_the_grid_bits():
    calls = []

    def fn(phases):
        calls.append(array("d", phases).tobytes())
        return iter([len(calls)])  # held as a tuple

    grid = [TWO_PI * k / 10 for k in range(10)]
    twin = [-0.0, *grid[1:]]  # == grid, with other bits
    ulp = [*grid[:-1], math.nextafter(grid[-1], 7.0)]
    assert once_per_grid(fn, grid) == once_per_grid(fn, tuple(grid)) == (1,)
    assert once_per_grid(fn, twin) == once_per_grid(fn, twin) == (2,)
    assert once_per_grid(fn, ulp) == (3,)
    assert once_per_grid(fn, grid) == (4,)  # only the last grid is held
    assert len(set(calls)) == 3


def test_once_per_grid_holds_nothing_that_raised(monkeypatch):
    def fn(phases):
        calls.append(phases)
        raise ZeroDivisionError

    calls = []
    grid = [0.5 * k for k in range(6)]
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            once_per_grid(fn, grid)
    assert len(calls) == 2
    # a NaN grid breaks a rule each time it is checked
    checks = count_grids(monkeypatch, acquisition, "_checked_grid")
    for _ in range(2):
        with pytest.raises(EntryError, match="must be a finite number"):
            ScanPlan((0.0, 1.0, math.nan, 3.0, 4.0), 100, SignalSetting.H, 1)
    assert len(checks) == 2


def test_a_grid_above_held_points_is_not_held(tmp_path, monkeypatch):
    m = HELD_POINTS + 1
    counted = [count_grids(monkeypatch, acquisition, "_checked_grid"),
               count_grids(monkeypatch, acquisition, "_phase_text")]
    small = ScanPlan.default_grid(SignalSetting.H, 3)
    for _ in range(2):
        plan = ScanPlan.default_grid(SignalSetting.H, 3, points=m, noiseless=True)
        assert plan.phases == tuple(TWO_PI * k / m for k in range(m))
        record = run_scan(balanced(), plan)
        scan_to_csv(record, tmp_path / "scan.csv")
        assert (tmp_path / "scan.csv").read_bytes() == _reference_csv(record)
    assert [len(calls) for calls in counted] == [3, 2]
    # nor does it displace the grid held before it
    assert ScanPlan.default_grid(SignalSetting.V, 3).phases is small.phases
    assert len(counted[0]) == 3


def test_default_grid_is_built_once_per_point_count(monkeypatch):
    checks = count_grids(monkeypatch, acquisition, "_checked_grid")
    plans = [ScanPlan.default_grid(setting, 3, points=200)
             for setting in SignalSetting]
    assert plans[0].phases is plans[1].phases
    assert len(checks) == 1
    with pytest.raises(TypeError):  # range() refuses a float count
        ScanPlan.default_grid(SignalSetting.H, 3, points=200.0)
    with pytest.raises(TypeError):
        ScanPlan.default_grid(SignalSetting.H, 3, points=1.0)
    with pytest.raises(EntryError):  # the one-point grid of True
        ScanPlan.default_grid(SignalSetting.H, 3, points=True)


# ---------------------------------------------------------------------------
# calibration


def test_calibration_recovers_transmissions_noiselessly():
    cfg = balanced(t_h=0.85, t_v=0.73)
    plan = ScanPlan.default_grid(SignalSetting.H, 0, counts_per_point=10 ** 8,
                                 noiseless=True)
    cal = run_calibration(cfg, plan)
    assert abs(cal.t_h - 0.85) < 1e-6
    assert abs(cal.t_v - 0.73) < 1e-6


def test_calibration_ideal_transmissions():
    cfg = balanced(t_h=1.0, t_v=1.0)
    plan = ScanPlan.default_grid(SignalSetting.H, 0, counts_per_point=10 ** 8,
                                 noiseless=True)
    cal = run_calibration(cfg, plan)
    assert abs(cal.t_h - 1.0) < 1e-6
    assert abs(cal.t_v - 1.0) < 1e-6


def test_calibration_reproducible_and_noisy_coverage():
    cfg = balanced(t_h=1.0, t_v=1.0)
    plan = ScanPlan.default_grid(SignalSetting.H, 42, counts_per_point=10 ** 4)
    a = run_calibration(cfg, plan)
    b = run_calibration(cfg, plan)
    assert a == b
    # coverage of the true value within 3 fitted standard errors
    hits = 0
    trials = 500
    for seed in range(trials):
        p = ScanPlan.default_grid(SignalSetting.H, seed, counts_per_point=10 ** 4)
        cal = run_calibration(cfg, p)
        if (abs(cal.t_h - 1.0) <= 3 * cal.t_h_stderr
                and abs(cal.t_v - 1.0) <= 3 * cal.t_v_stderr):
            hits += 1
    assert hits >= 0.99 * trials


@pytest.mark.parametrize("seed", range(4))
def test_calibration_measures_the_visibility_ceilings(seed):
    # in any source arrangement each calibrated t is the visibility of a
    # pure H (V) idler, V_max = |t| 2 b1 b2 sqrt(p_h2) / (b1^2 + b2^2 p_h2)
    cfg = unbalanced_config(seed)
    cal = run_calibration(cfg, ScanPlan.default_grid(
        SignalSetting.H, 0, counts_per_point=10 ** 8, noiseless=True))
    b1, b2 = cfg.b1, cfg.b2_mag
    for got, t, p2, setting, idler in (
            (cal.t_h, cfg.t_h, cfg.q2.p_h2, SignalSetting.H,
             IdlerStateParams.horizontal()),
            (cal.t_v, cfg.t_v, cfg.q2.p_v2, SignalSetting.V,
             IdlerStateParams(0.0, 0.0, 1.0))):
        v_max = fringe(replace(cfg, idler=idler, signal_setting=setting)).visibility
        assert v_max == pytest.approx(
            abs(t) * 2.0 * b1 * b2 * math.sqrt(p2) / (b1 * b1 + b2 * b2 * p2),
            rel=1e-12)
        assert abs(got - v_max) < 1e-6


def test_calibration_json_round_trip(tmp_path):
    cal = CalibrationResult(0.85, 0.003, 0.73, 0.002)
    calibration_to_json(cal, tmp_path / "cal.json")
    assert calibration_from_json(tmp_path / "cal.json") == cal


def test_every_calibration_estimate_loads():
    # t estimates above 1 are noise: 192 of these 400 are, by up to 1.9
    # standard errors; a stored calibration must still be readable
    cfg = balanced(IdlerStateParams.horizontal())
    above = 0
    for seed in range(1, 201):
        cal = run_calibration(cfg, ScanPlan.default_grid(SignalSetting.H, seed))
        assert CalibrationResult.from_json_dict(cal.to_json_dict()) == cal
        above += (cal.t_h > 1.0) + (cal.t_v > 1.0)
    assert above > 100


def test_every_noiseless_calibration_loads():
    # rounding noiseless counts biases the fitted visibility by more than
    # the residuals show (n = 7 with 5 points fits t = 1.246); the floored
    # residual variance keeps every such estimate within its bound
    cfg = balanced(IdlerStateParams.horizontal())
    for n in range(1, 301):
        for points in range(5, 41, 5):
            plan = ScanPlan.default_grid(SignalSetting.H, 0, points=points,
                                         counts_per_point=n, noiseless=True)
            cal = run_calibration(cfg, plan)
            assert CalibrationResult.from_json_dict(cal.to_json_dict()) == cal


def test_noisy_calibration_stderr_is_the_residual_one():
    # the rounding floor applies to noiseless plans only
    cfg = balanced(IdlerStateParams.horizontal(), t_h=0.85, t_v=0.73)
    plan = ScanPlan.default_grid(SignalSetting.H, 3, counts_per_point=50)
    cal = run_calibration(cfg, plan)
    scan = run_scan(replace(cfg, idler=IdlerStateParams.horizontal()), plan)
    fit = fit_sinusoid(scan.plan.phases, scan.counts_primary)
    assert (cal.t_h, cal.t_h_stderr) == (fit.visibility, fit.visibility_stderr)
