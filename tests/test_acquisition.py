"""Scan synthesis, noise reproducibility, persistence, and calibration."""

import cmath
import math
import sys
import tempfile
import threading
import tracemalloc
from array import array
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from pitomo import acquisition, reconstruct
from pitomo._fields import EntryError, rewrite
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
# the rate law: a change to either changes a count.  The noisy ones are
# test_kernels's _reference_poisson over random.Random((seed << 64) | stream)
# at the scan's means.  n = 1000 draws on the
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
            "H": ((463, 509, 406, 274, 165, 182, 266, 401),
                  (190, 184, 164, 163, 171, 171, 136, 181)),
            "V": ((394, 498, 461, 396, 252, 177, 213, 276),
                  (169, 161, 176, 176, 144, 159, 179, 161)),
        }),
    "unbalanced_theta": (_UNBALANCED, 1000, False, {
        "H": ((208, 364, 493, 564, 500, 407, 260, 193),
              (146, 141, 124, 123, 130, 130, 99, 139)),
        "V": ((321, 393, 457, 564, 554, 503, 449, 336),
              (55, 51, 60, 59, 41, 50, 61, 51)),
    }),
    "unbalanced_dim": (_UNBALANCED, 30, False, {
        "H": ((4, 9, 18, 10, 19, 17, 9, 4), (7, 3, 6, 3, 3, 6, 0, 5)),
        "V": ((7, 10, 15, 14, 13, 24, 12, 8), (2, 4, 2, 3, 1, 0, 2, 1)),
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
_FIRST_BAD_ROW = [
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
]


@pytest.mark.parametrize("edits, message", _FIRST_BAD_ROW)
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


# A chunk of 40 characters ends inside the column header, so every edited
# row lies in a later chunk, and most pairs of edits in different ones; a
# chunk of 256 holds some pairs together.
@pytest.mark.parametrize("chunk", [40, 256])
@pytest.mark.parametrize("edits, message", _FIRST_BAD_ROW)
def test_csv_reports_the_first_bad_row_in_a_later_chunk(tmp_path, monkeypatch,
                                                        chunk, edits, message):
    monkeypatch.setattr(acquisition, "_CHUNK", chunk)
    test_csv_reports_the_first_bad_row(tmp_path, edits, message)


@pytest.mark.parametrize("chunk", [40, acquisition._CHUNK])
def test_csv_counts_blank_lines_in_its_line_numbers(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(acquisition, "_CHUNK", chunk)
    path = tmp_path / "scan.csv"
    record = run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 5))
    scan_to_csv(record, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # blank and blank-looking lines: before the header, around the column
    # header and among the rows; a whitespace-only line is blank too
    lines[7:7] = ["", " \t", ""]
    lines[2:2] = ["   "]
    lines[1:1] = [""]
    lines[0:0] = ["", ""]
    path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
    assert scan_from_csv(path) == replace(record, truth=None)
    # seven blank lines in, the 12th data row is on line 21 of the file
    assert lines[20].startswith(repr(record.plan.phases[11]) + ",")
    lines[20] = lines[20].rpartition(",")[0] + ",-7"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        scan_from_csv(path)
    assert str(exc.value) == f"{path}:21: counts_const must be nonnegative, got '-7'"


@pytest.mark.parametrize("chunk", [40, acquisition._CHUNK])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("end", ["", "\n"])
def test_csv_reads_any_line_ending_and_a_last_line_without_one(
        tmp_path, monkeypatch, chunk, newline, end):
    monkeypatch.setattr(acquisition, "_CHUNK", chunk)
    path = tmp_path / "scan.csv"
    record = run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 5))
    scan_to_csv(record, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_bytes((newline.join(lines) + end).encode())
    assert scan_from_csv(path) == replace(record, truth=None)
    # the line numbers count each line ending once
    lines[9] = lines[9].replace(",", ";", 1)
    path.write_bytes((newline.join(lines) + end).encode())
    with pytest.raises(ValueError) as exc:
        scan_from_csv(path)
    assert str(exc.value) == f"{path}:10: expected 3 columns, got 2"


def test_csv_refuses_rows_whose_commas_only_add_up(tmp_path):
    # 2 and 4 columns make 6 cells on 2 lines, as two good rows do, and
    # each of the 6 reads as a number
    path = tmp_path / "scan.csv"
    scan_to_csv(run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 5)),
                path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[6:8] = ["2,3", "4,5,6,7"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        scan_from_csv(path)
    assert str(exc.value) == f"{path}:7: expected 3 columns, got 2"


def test_csv_names_the_line_of_a_bad_column_header(tmp_path):
    path = tmp_path / "scan.csv"
    scan_to_csv(run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 5)),
                path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1:2] = ["", "phi,counts_fringe,counts_const"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        scan_from_csv(path)
    assert (str(exc.value) == f"{path}:3: unexpected column header "
            "'phi,counts_fringe,counts_const'")


@pytest.mark.parametrize("chunk", [40, acquisition._CHUNK])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xe2\x82\xac\xed\xa0\x80"])
def test_csv_reports_a_byte_that_is_not_utf8_at_its_file_offset(
        tmp_path, monkeypatch, chunk, bad):
    # an offset past the first chunk, and past the 8 KiB blocks a text
    # file decodes at a time; a euro sign before the bad byte puts the
    # offset in bytes two past the offset in characters
    monkeypatch.setattr(acquisition, "_CHUNK", chunk)
    path = tmp_path / "scan.csv"
    scan_to_csv(run_scan(balanced(), ScanPlan.default_grid(
        SignalSetting.H, 5, points=1000, noiseless=True)), path)
    data = path.read_bytes()
    cut = data.index(b"\n", 20000)
    path.write_bytes(data[:200] + b" \xe2\x82\xac" + data[200:cut] + bad
                     + data[cut:])
    with pytest.raises(UnicodeDecodeError) as want:
        path.read_text(encoding="utf-8")
    assert want.value.start > 20000
    with pytest.raises(ValueError) as exc:
        scan_from_csv(path)
    assert str(exc.value) == f"{path}: {want.value}"


def test_a_long_scan_file_is_written_and_read_a_chunk_at_a_time(tmp_path,
                                                                monkeypatch):
    # no write() longer than a chunk, and no traced peak while loading
    # beyond twice the record loaded (a 3 MB file of 10**5 rows)
    record = run_scan(balanced(), ScanPlan.default_grid(
        SignalSetting.H, 5, points=10 ** 5, counts_per_point=10 ** 5,
        noiseless=True))
    path = tmp_path / "scan.csv"
    writes = []

    @contextmanager
    def counted(path):
        with rewrite(path) as f:
            yield SimpleNamespace(write=lambda text: writes.append(len(text))
                                  or f.write(text))

    with monkeypatch.context() as mp:
        mp.setattr(acquisition, "rewrite", counted)
        scan_to_csv(record, path)
    assert path.read_bytes() == _reference_csv(record)
    assert sum(writes) == path.stat().st_size > 10 * acquisition._CHUNK
    assert max(writes) <= acquisition._CHUNK

    tracemalloc.start()
    try:
        loaded = load_scan(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == ScanRecord(replace(record.plan, noiseless=False),
                                record.counts_primary, record.counts_constant)
    assert peak <= 2 * held


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
    _check_csv_round_trip(grids, data)


# from a chunk shorter than any row to one of about three rows
@given(grids=st.one_of(st.tuples(_GRIDS, _GRIDS), _TWINS), data=st.data(),
       chunk=st.integers(1, 200))
def test_csv_round_trip_in_small_chunks(grids, data, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acquisition, "_CHUNK", chunk)
        _check_csv_round_trip(grids, data)


def _check_csv_round_trip(grids, data):
    """Two records on ``grids``, each written to the reference bytes and
    read back bit for bit; the phase text is made once per grid."""
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
DIM_PATH_GOLDEN = "2d04c0424a545470f188a4d58d934e017aab173b2643c011c3713159c79b7d73"


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


def test_a_scan_pair_above_the_memo_shares_the_fit_grid_pass(monkeypatch):
    # two grids of HELD_POINTS + 1 points, which the memo does not hold:
    # one _fit_grid call when their bits are equal, two for a -0.0 twin,
    # and the fits those of each scan's own grid pass
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.3, 1.1, 0.8))
    points = HELD_POINTS + 1
    plan_h, plan_v = (ScanPlan.default_grid(setting, 3, points=points,
                                            counts_per_point=30)
                      for setting in SignalSetting)
    assert plan_h.phases is not plan_v.phases
    twin = ScanPlan((-0.0, *plan_v.phases[1:]), 30, SignalSetting.V, 3)
    scan_h = run_scan(cfg, plan_h)
    for plan, want in ((plan_v, 1), (twin, 2)):
        scan_v = run_scan(cfg, plan)
        alone = [repr(reconstruct._fit_scan(s.plan.phases, s.counts_primary))
                 for s in (scan_h, scan_v)]
        calls = count_grids(monkeypatch, reconstruct, "_fit_grid")
        assert list(map(repr, reconstruct._fits(scan_h, scan_v))) == alone
        assert len(calls) == want


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
    ScanPlan.default_grid(SignalSetting.H, 3, points=7)  # another grid held
    builds = []
    build = acquisition._default_phases
    monkeypatch.setattr(acquisition, "_default_phases",
                        lambda points: builds.append(points) or build(points))
    checks = count_grids(monkeypatch, acquisition, "_checked_grid")
    plans = []
    for setting in SignalSetting:
        plans.append(ScanPlan.default_grid(setting, 3, points=200))
        # the first call builds the grid and checks that it is the default
        # one; a second call builds no tuple: it hands back the held one
        assert builds == [200, 200]
    assert plans[0].phases is plans[1].phases
    assert len(checks) == 1
    with pytest.raises(TypeError):  # range() refuses a float count
        ScanPlan.default_grid(SignalSetting.H, 3, points=200.0)
    with pytest.raises(TypeError):
        ScanPlan.default_grid(SignalSetting.H, 3, points=1.0)
    with pytest.raises(EntryError):  # True counts one point
        ScanPlan.default_grid(SignalSetting.H, 3, points=True)
    again = [ScanPlan.default_grid(setting, 4, points=200, counts_per_point=9)
             for setting in (*SignalSetting, *SignalSetting)]
    assert all(plan.phases is plans[0].phases for plan in again)
    assert builds == [200, 200] and len(checks) == 1


def test_a_held_tuple_computes_no_key(tmp_path, monkeypatch):
    plan = ScanPlan.default_grid(SignalSetting.H, 3, points=50)
    grid = plan.phases
    keys = []  # the grid key of each call that computes one
    held = acquisition._held
    monkeypatch.setattr(acquisition, "_held",
                        lambda key: keys.append(key) or held(key))
    record = run_scan(balanced(), replace(plan, setting=SignalSetting.V))
    scan_to_csv(record, tmp_path / "scan.csv")
    fit_sinusoid(grid, record.counts_primary)
    assert ScanPlan.default_grid(SignalSetting.H, 4, points=50).phases is grid
    assert ScanPlan(grid, 7, SignalSetting.H, 5).phases is grid
    assert keys == []
    # an equal list, and an equal tuple that is not the held one, are keyed
    texts = once_per_grid(acquisition._phase_text, grid)
    assert once_per_grid(acquisition._phase_text, list(grid)) is texts
    assert once_per_grid(acquisition._phase_text, tuple(list(grid))) is texts
    assert len(keys) == 2


def _counting_float(monkeypatch):
    """Record each text the acquisition module parses as a float."""
    parsed = []

    def counted(x):
        if isinstance(x, str):
            parsed.append(x)
        return float(x)

    monkeypatch.setattr(acquisition, "float", counted, raising=False)
    return parsed


def test_a_scan_of_the_held_grid_is_read_back_without_parsing(tmp_path,
                                                              monkeypatch):
    records = [run_scan(balanced(), ScanPlan.default_grid(
        setting, 3, points=200, counts_per_point=30)) for setting in SignalSetting]
    paths = [tmp_path / f"scan_{r.plan.setting.value}.csv" for r in records]
    for record, path in zip(records, paths):
        scan_to_csv(record, path)
    parsed = _counting_float(monkeypatch)
    for record, path in zip(records, paths):
        back = load_scan(path)
        assert back.plan.phases is records[0].plan.phases
        assert back.counts_primary == record.counts_primary
        assert back.counts_constant == record.counts_constant
    assert parsed == []
    # a pair read back in a process that holds another grid: the H file is
    # parsed, and its grid, now held, serves the V file
    ScanPlan.default_grid(SignalSetting.H, 3, points=7)
    texts = count_grids(monkeypatch, acquisition, "_phase_text")
    loaded = [load_scan(path) for path in paths]
    assert len(parsed) == 200 and len(texts) == 1
    assert loaded[0].plan.phases is loaded[1].plan.phases
    assert loaded[0].plan.phases == records[0].plan.phases


def _times_ten(cell):
    """The decimal ``cell`` with its point moved one digit right."""
    whole, frac = cell.split(".")
    return f"{whole}{frac[0]}.{frac[1:] or '0'}"


@pytest.mark.parametrize("edit", [
    lambda cell: cell + "0",  # 0.10 for 0.1
    lambda cell: " " + cell,
    lambda cell: _times_ten(cell) + "e-1",
    lambda cell: "-0.0" if cell == "0.0" else cell,  # the -0.0 twin
], ids=["trailing-zero", "leading-space", "exponent", "negative-zero"])
def test_reworded_phase_text_is_parsed(tmp_path, monkeypatch, edit):
    record = run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 3,
                                                        points=40))
    path = tmp_path / "scan.csv"
    scan_to_csv(record, path)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    for row in rows[::7]:
        row[0] = edit(row[0])
    path.write_text("\n".join([*lines[:2], *map(",".join, rows)]) + "\n")
    cells = [line.split(",")[0] for line in path.read_text().splitlines()[2:]]
    parsed = _counting_float(monkeypatch)
    back = load_scan(path)
    # every phase has the bits that parsing its text gives, as before
    assert (array("d", back.plan.phases).tobytes()
            == array("d", map(float, cells)).tobytes())
    assert [*map(str.strip, parsed)] == [*map(str.strip, cells)]
    assert back.counts_primary == record.counts_primary
    twin = math.copysign(1.0, back.plan.phases[0]) < 0.0
    assert (back.plan.phases is record.plan.phases) is not twin


@pytest.mark.parametrize("chunk", [30, 40, 64])
def test_a_held_grid_split_across_chunks_matches_chunk_by_chunk(
        tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(acquisition, "_CHUNK", chunk)
    record = run_scan(balanced(), ScanPlan.default_grid(SignalSetting.H, 3,
                                                        points=60))
    scan_to_csv(record, tmp_path / "scan.csv")
    served = []
    held_rows = acquisition._held_rows
    monkeypatch.setattr(acquisition, "_held_rows",
                        lambda *a: served.append(held_rows(*a)) or served[-1])
    parsed = _counting_float(monkeypatch)
    back = load_scan(tmp_path / "scan.csv")
    assert back.plan.phases is record.plan.phases
    assert back.counts_primary == record.counts_primary
    assert parsed == [] and len(served) > 10 and None not in served
    assert sum(served, ()) == record.plan.phases


_TWIN_CASES = [
    lambda grid: (-0.0, *grid[1:]),  # == the default grid, with other bits
    lambda grid: (*grid[:-1], math.nextafter(grid[-1], 7.0)),
    lambda grid: tuple(TWO_PI * k / (len(grid) + 1)
                       for k in range(len(grid) + 1)),
    lambda grid: grid[:-1],
]


@given(m=st.integers(6, 300), case=st.sampled_from(_TWIN_CASES))
def test_default_grid_never_returns_a_grid_of_other_bits(m, case):
    default = tuple(TWO_PI * k / m for k in range(m))
    held = ScanPlan(case(default), 10, SignalSetting.H, 1).phases
    for _ in range(2):
        phases = ScanPlan.default_grid(SignalSetting.H, 1, points=m).phases
        assert phases is not held
        assert array("d", phases).tobytes() == array("d", default).tobytes()
    # and that grid, held now, is the one handed back
    assert ScanPlan.default_grid(SignalSetting.V, 2, points=m).phases is phases


def test_racing_threads_never_get_another_grids_values(tmp_path):
    # two grids that compare equal but differ in the sign of 0.0, so a
    # value served for the wrong one shows in the bits
    grid = ScanPlan.default_grid(SignalSetting.H, 0, points=64).phases
    grids = (grid, (-0.0, *grid[1:]))
    counts = run_scan(balanced(), ScanPlan(grid, 500, SignalSetting.H, 1,
                                           noiseless=True)).counts_primary
    bits = [array("d", g).tobytes() for g in grids]
    texts = [tuple(map(repr, g)) for g in grids]
    fit = repr(fit_sinusoid(grid, counts))
    failures = []

    def race(t):
        path = tmp_path / f"scan_{t}.csv"
        try:
            for i in range(3000):
                j = (i + t) % 2
                plan = ScanPlan(list(grids[j]), 500, SignalSetting.H, t)
                assert array("d", plan.phases).tobytes() == bits[j]
                text = once_per_grid(acquisition._phase_text, plan.phases)
                assert text == texts[j]
                if i % 20 > 1:
                    continue
                assert repr(fit_sinusoid(plan.phases, counts)) == fit
                scan_to_csv(ScanRecord(plan, counts, counts), path)
                back = scan_from_csv(path).plan.phases
                assert array("d", back).tobytes() == bits[j]
                default = ScanPlan.default_grid(SignalSetting.V, t, points=64)
                assert array("d", default.phases).tobytes() == bits[0]
        except Exception as exc:  # reported below, from the main thread
            failures.append((t, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # three threads, each switched out after a microsecond of bytecode
        threads = [threading.Thread(target=race, args=(t,)) for t in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


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
