"""Command-line surface: determinism, formats, exit codes, bundled fixture."""

import copy
import hashlib
import json
import math
import os
import platform
import stat
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from pitomo import active_backend
from pitomo._fields import dump
from pitomo.cli import (MAX_ANGLES, _fixed, _parse_angles, main,
                        run_verification)
from pitomo.acquisition import (MAX_POINTS, ScanPlan, calibration_from_json,
                                load_scan, run_scan, scan_from_csv,
                                scan_to_csv)
from pitomo.interferometer import (InterferometerConfig, SignalSetting,
                                   rates_closed_form)
from pitomo.reconstruct import (ReconstructionResult, extract_parameters,
                                fit_sinusoid)
from pitomo.states import IdlerStateParams, SourceQ2Params
from conftest import wrap_distance

DATA = Path(__file__).parent / "data"
SQRT1_2 = 1.0 / math.sqrt(2.0)


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in ln.split(","))))
            for ln in lines[1:]]
    return rows


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_deterministic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("simulate", "--setting", "H", "--points", 20, "--n", 1000,
                   "--seed", 7, "--out", out) == 0
    assert (a / "scan_H.csv").read_bytes() == (b / "scan_H.csv").read_bytes()
    assert (a / "scan_H.json").read_bytes() == (b / "scan_H.json").read_bytes()
    assert (a / "manifest.json").exists()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["backend"] == active_backend()


def test_simulate_noiseless_counts_match_model(tmp_path):
    assert run("simulate", "--setting", "H", "--noiseless", "--seed", 0,
               "--n", 5000, "--p-h", 0.8, "--xi", 0.4, "--purity", 1.0,
               "--out", tmp_path) == 0
    rec = scan_from_csv(tmp_path / "scan_H.csv")
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.8, 0.4, 1.0))
    for phi, c in zip(rec.plan.phases, rec.counts_primary):
        assert c == round(5000 * rates_closed_form(replace(cfg, phi=phi)).rate_h)


def test_simulate_requires_seed(tmp_path, capsys):
    assert run("simulate", "--setting", "H", "--out", tmp_path) == 2
    assert "--seed" in capsys.readouterr().err


def test_simulate_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"b1": 0.5, "b2_mag": 0.5, "idler": {"p_h": 1, "xi": 0, "purity": 1}}')
    assert run("simulate", "--setting", "H", "--seed", 1,
               "--config", bad, "--out", tmp_path) == 3


# A value for each config flag that differs from the baseline run's.
PERTURBED = {"--b1": 0.5, "--t-h": 0.8, "--t-v": 0.7, "--t-h-phase": 0.4,
             "--t-v-phase": 0.5, "--p-h": 0.3, "--xi": 1.0, "--purity": 0.6,
             "--p-h2": 0.3, "--theta": 0.7}


def test_every_simulate_config_flag_changes_the_scan(tmp_path):
    import argparse
    from pitomo.cli import _add_config_flags
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    flags = {a.option_strings[0] for a in parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    assert flags == set(PERTURBED)

    cfg = InterferometerConfig.balanced(IdlerStateParams(0.5, 0.3, 0.9))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg.to_json_dict()))
    base = ("--seed", 1, "--noiseless", "--n", 10 ** 6, "--format", "csv")

    def scans(out, *extra):
        for setting in "HV":
            assert run("simulate", "--setting", setting, *base, *extra,
                       "--out", out) == 0
        return [(out / f"scan_{s}.csv").read_bytes() for s in "HV"]

    baseline = scans(tmp_path / "base", "--p-h", 0.5, "--xi", 0.3,
                     "--purity", 0.9)
    assert scans(tmp_path / "config", "--config", config) == baseline
    for flag, value in PERTURBED.items():
        args = {"--p-h": 0.5, "--xi": 0.3, "--purity": 0.9, flag: value}
        extra = [x for kv in args.items() for x in kv]
        assert scans(tmp_path / flag.strip("-"), *extra) != baseline, flag


def test_simulate_csv_only_format(tmp_path):
    assert run("simulate", "--setting", "V", "--seed", 3, "--format", "csv",
               "--out", tmp_path) == 0
    assert (tmp_path / "scan_V.csv").exists()
    assert not (tmp_path / "scan_V.json").exists()


@pytest.mark.parametrize("fmt, names", [
    ("csv", ["scan_V.csv"]), ("json", ["scan_V.json"]),
    ("both", ["scan_V.csv", "scan_V.json"])])
def test_simulate_names_the_files_it_wrote(tmp_path, capsys, fmt, names):
    assert run("simulate", "--setting", "V", "--seed", 3, "--format", fmt,
               "--out", tmp_path) == 0
    assert capsys.readouterr().out == f"wrote {' and '.join(names)} to {tmp_path}\n"
    assert sorted(p.name for p in tmp_path.glob("scan_*")) == names


# sha256 of simulate's files pins every byte of the noise streams: 200
# points at n = 30 draw on the Poisson inversion branch, where the V
# scan's fringing detector repeats one mean (the default idler is pure
# H) like every constant detector; 20 points at n = 1000 draw on the
# rejection branch, and at n = 10^6 write counts past the CSV writer's
# table of count texts
@pytest.mark.parametrize("points, n, digests", [
    pytest.param(200, 30, {
        "scan_H.csv": "ae99de90fd3bc09986ef72ebba0331589f8d78ffff11fcddf7122836b288ef89",
        "scan_V.csv": "01493232b400f66cf54c531bae238409d8c38cd75465f5f749dbe99937f60dc2",
        "scan_H.json": "00be23b8234e93dc40cc9172f6318e99b9c3763f87c562bca1ff55781f758468",
    }, id="inversion"),
    pytest.param(20, 1000, {
        "scan_H.csv": "ab63c842591dbc5b56ba1e8bef818fdc94e3bd558d288ab164c0a37a63927e7b",
        "scan_V.csv": "01efe5e2fcda09171d5f913f10fb131e78b9ba446e3ed964ca52b0941ac90be3",
        "scan_H.json": "a02179f78197e11f1992470858e445942cec78df789b059c884ea2bb5b9f2e6b",
    }, id="rejection"),
    pytest.param(20, 10 ** 6, {
        "scan_H.csv": "61d165f333c72f206e7f56be79bc519a3bdf8409ca62eff034577acbee32867d",
        "scan_V.csv": "a1236096897f8170cfcb7d727b4efeff8416ae49f1d0a9fbcafa7241dfa4b505",
        "scan_H.json": "e6ecd2c346cb04a194cd68ef090376aa204cf133383f61243e58bf4f24ff64f1",
    }, id="past_the_count_table"),
])
def test_simulate_output_golden(tmp_path, points, n, digests):
    for setting in "HV":
        assert run("simulate", "--setting", setting, "--points", points,
                   "--n", n, "--seed", 7, "--out", tmp_path) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests} == digests


@pytest.mark.parametrize("name", ["scan_H.csv", "scan_V.csv"])
def test_fixture_csv_round_trips_byte_for_byte(tmp_path, name):
    scan_to_csv(scan_from_csv(DATA / name), tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_noiseless_recovers_configured_maxima(tmp_path):
    assert run("calibrate", "--t-h", 0.85, "--t-v", 0.73, "--noiseless",
               "--n", 10 ** 8, "--out", tmp_path) == 0
    cal = json.loads((tmp_path / "calibration.json").read_text())
    assert abs(cal["t_h"] - 0.85) < 1e-6
    assert abs(cal["t_v"] - 0.73) < 1e-6


def test_calibrate_ideal_unity(tmp_path):
    assert run("calibrate", "--noiseless", "--n", 10 ** 8, "--out", tmp_path) == 0
    cal = json.loads((tmp_path / "calibration.json").read_text())
    assert abs(cal["t_h"] - 1.0) < 1e-6
    assert abs(cal["t_v"] - 1.0) < 1e-6


@pytest.mark.parametrize("n, points", [(1637, 5), (100, 25), (7, 5)])
def test_noiseless_calibration_is_accepted_by_reconstruct(tmp_path, n, points):
    # each of these wrote a t more than 5 stderr above 1, which
    # reconstruct then refused
    assert run("calibrate", "--noiseless", "--n", n, "--points", points,
               "--out", tmp_path / "cal") == 0
    cal = calibration_from_json(tmp_path / "cal" / "calibration.json")
    assert cal.t_h > 1.0
    assert run("reconstruct", "--scan-h", DATA / "scan_H.csv",
               "--scan-v", DATA / "scan_V.csv",
               "--calibration", tmp_path / "cal" / "calibration.json",
               "--out", tmp_path / "rec") == 0


@pytest.mark.parametrize("flags, setting", [(("--b1", 0), "H"),
                                            (("--t-h", 0, "--t-v", 0), "H"),
                                            (("--t-v", 0), "V")])
def test_calibrate_refuses_a_flat_fringe(tmp_path, capsys, flags, setting):
    # no fringe, no ceiling: the parent wrote t = 4.4e-17 and exited 0
    assert run("calibrate", *flags, "--noiseless", "--out", tmp_path) == 3
    assert f"error: setting {setting}: the calibration fringe is flat" in (
        capsys.readouterr().err)
    assert not (tmp_path / "calibration.json").exists()


def test_reconstruct_refuses_a_stored_flat_calibration(tmp_path, capsys):
    doc = json.loads((DATA / "calibration.json").read_text())
    doc.update(t_h=4.403826944810397e-17, t_h_stderr=3.7e-4)
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(doc))
    assert run("reconstruct", "--scan-h", DATA / "scan_H.csv",
               "--scan-v", DATA / "scan_V.csv", "--calibration", cal,
               "--out", tmp_path / "rec") == 3
    assert "t_h must lie in [1e-09, 1 + 5 t_h_stderr + 1e-6]" in (
        capsys.readouterr().err)


def test_calibrate_noisy_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("calibrate", "--t-h", 0.85, "--t-v", 0.73, "--seed", 11,
                   "--n", 1000, "--out", out) == 0
    assert ((a / "calibration.json").read_bytes()
            == (b / "calibration.json").read_bytes())


def test_calibrate_requires_seed_when_noisy(tmp_path):
    assert run("calibrate", "--out", tmp_path) == 2


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_bundled_fixture_round_trip(tmp_path):
    assert run("reconstruct", "--scan-h", DATA / "scan_H.json",
               "--scan-v", DATA / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--method", "fringe", "--out", tmp_path) == 0
    result = ReconstructionResult.from_json_dict(
        json.loads((tmp_path / "result.json").read_text()))
    reference = IdlerStateParams.from_json_dict(
        json.loads((DATA / "reference.json").read_text()))
    assert abs(result.fidelity_vs_reference - 1.0) < 1e-6
    assert abs(result.params.p_h - reference.p_h) < 1e-6
    assert (tmp_path / "report.txt").read_text().startswith("reconstructed")


def test_reconstruct_methods_agree_on_fixture(tmp_path):
    params = {}
    for method in ("fringe", "mle"):
        out = tmp_path / method
        assert run("reconstruct", "--scan-h", DATA / "scan_H.csv",
                   "--scan-v", DATA / "scan_V.csv",
                   "--calibration", DATA / "calibration.json",
                   "--method", method,
                   "--reference", DATA / "reference.json",
                   "--out", out) == 0
        result = json.loads((out / "result.json").read_text())
        params[method] = result["params"]
        assert result["fidelity_vs_reference"] > 1 - 1e-6
    for key in ("p_h", "purity"):
        assert abs(params["fringe"][key] - params["mle"][key]) < 1e-4
    assert wrap_distance(params["fringe"]["xi"], params["mle"]["xi"]) < 1e-4


def test_reconstruct_missing_calibration_file(tmp_path):
    assert run("reconstruct", "--scan-h", DATA / "scan_H.csv",
               "--scan-v", DATA / "scan_V.csv",
               "--calibration", tmp_path / "nope.json",
               "--out", tmp_path) == 3


@pytest.mark.parametrize("flag, name", [("--scan-h", "scan_H.csv"),
                                        ("--scan-h", "scan_H.json"),
                                        ("--calibration", "calibration.json")])
def test_reconstruct_names_a_file_that_is_not_utf8(tmp_path, capsys, flag, name):
    bad = tmp_path / name
    bad.write_bytes(b"\xff" + (DATA / name).read_bytes())
    args = {"--scan-h": DATA / "scan_H.csv", "--scan-v": DATA / "scan_V.csv",
            "--calibration": DATA / "calibration.json", flag: bad}
    assert run("reconstruct", *(x for kv in args.items() for x in kv),
               "--out", tmp_path / "rec") == 3
    assert (f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field, index, value", [
    ("phases", 3, float("nan")),
    ("counts_primary", 2, 1.5),
    ("counts_per_point", None, 0),
    ("seed", None, -1),
])
def test_reconstruct_rejects_bad_scan_field(tmp_path, capsys, field, index,
                                            value):
    scan = json.loads((DATA / "scan_H.json").read_text())
    owner = scan["plan"] if field in scan["plan"] else scan
    if index is None:
        owner[field] = value
    else:
        owner[field][index] = value
    bad = tmp_path / "scan_H.json"
    bad.write_text(json.dumps(scan))
    assert run("reconstruct", "--scan-h", bad,
               "--scan-v", DATA / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    name = field if index is None else f"{field}[{index}]"
    assert f"{bad}: {name} must " in capsys.readouterr().err


@pytest.mark.parametrize("line, edit, message", [
    pytest.param(5, lambda f: [f[0], "46894259.5", f[2]],
                 "counts_fringe must be an integer count, got '46894259.5'",
                 id="fractional_count"),
    pytest.param(4, lambda f: [f[0], f[1], "-3"],
                 "counts_const must be nonnegative", id="negative_count"),
    pytest.param(6, lambda f: ["nan", f[1], f[2]],
                 "phi_rad must be a finite number", id="nan_phase"),
    pytest.param(7, lambda f: ["0.9x", f[1], f[2]],
                 "phi_rad must be a finite number", id="garbled_phase"),
    pytest.param(8, lambda f: f[:2], "expected 3 columns, got 2",
                 id="missing_column"),
    pytest.param(1, lambda f: [f[0].replace(" n=100000000", "")],
                 "n is missing from the header", id="header_missing_n"),
    pytest.param(1, lambda f: [f[0].replace("n=100000000", "n=1e8")],
                 "n must be an integer, got '1e8'", id="header_float_n"),
    pytest.param(1, lambda f: [f[0].replace("setting=H", "setting=X")],
                 "setting must be H or V, got 'X'", id="header_bad_setting"),
    pytest.param(1, lambda f: [f[0].replace("seed=0", "seed0")],
                 "expected key=value, got 'seed0'", id="header_token_without_value"),
    pytest.param(1, lambda f: [f[0].replace("n=100000000", "n=0")],
                 "n must be positive, got 0", id="header_zero_n"),
    pytest.param(1, lambda f: [f[0].replace("seed=0", "seed=-1")],
                 "seed must fit in 64 bits, got -1", id="header_negative_seed"),
    pytest.param(5, lambda f: ["0.3141592653589793", f[1], f[2]],
                 "phi_rad must be strictly increasing, got '0.3141592653589793'",
                 id="repeated_phase"),
    pytest.param(8, lambda f: ["7.0", f[1], f[2]],
                 "phi_rad must stay within one period of 0.0, got '7.0'",
                 id="phase_past_one_period"),
    # int() and float() read digit-group underscores: '4_6' as 46
    pytest.param(5, lambda f: [f[0], "4_6", f[2]],
                 "counts_fringe must be an integer count, got '4_6'",
                 id="underscore_count"),
    pytest.param(6, lambda f: ["0.9_424777960769379", f[1], f[2]],
                 "phi_rad must be a finite number, got '0.9_424777960769379'",
                 id="underscore_phase"),
    pytest.param(1, lambda f: [f[0].replace("n=100000000", "n=100_000_000")],
                 "n must be an integer, got '100_000_000'", id="header_underscore_n"),
    pytest.param(1, lambda f: [f[0].replace("seed=0", "seed=0_0")],
                 "seed must be an integer, got '0_0'", id="header_underscore_seed"),
    # a repeated key once read as its last value: n = 7 here
    pytest.param(1, lambda f: [f[0] + " n=7"], "n appears twice in the header",
                 id="header_repeated_key"),
    # a misspelt key once loaded silently
    pytest.param(1, lambda f: [f[0] + " sed=5"], "unknown header key 'sed'",
                 id="header_unknown_key"),
    # a count past 64 bits once overflowed the fit's float sums (traceback)
    # or, below 1e308, returned a degenerate state with exit 0
    pytest.param(5, lambda f: [f[0], "1" + "0" * 400, f[2]],
                 "counts_fringe must fit in 64 bits, got '1" + "0" * 55 + "...\n",
                 id="huge_count"),
    pytest.param(6, lambda f: [f[0], f[1], str(2 ** 64)],
                 "counts_const must fit in 64 bits, got '18446744073709551616'",
                 id="count_of_2_64"),
    pytest.param(7, lambda f: [f[0], "1" + "0" * 20, f[2]],
                 "counts_fringe must fit in 64 bits, got '100000000000000000000'",
                 id="count_of_1e20"),
])
def test_reconstruct_names_file_and_line_of_bad_csv_row(tmp_path, capsys,
                                                        line, edit, message):
    lines = (DATA / "scan_H.csv").read_text().splitlines()
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    bad = tmp_path / "scan_H.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run("reconstruct", "--scan-h", bad,
               "--scan-v", DATA / "scan_V.csv",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    assert f"scan_H.csv:{line}: {message}" in capsys.readouterr().err


# Each bad entry: its id, the ScanPlan/ScanRecord key and index it breaks,
# the rule the message states, and the edit that puts it into tests/data's
# H scan.  The readers name it in their own forms (see below).
BAD_ENTRIES = [
    ("nan_phase", "phases", 5, "must be a finite number",
     lambda s: s["phases"].__setitem__(5, math.nan)),
    ("repeated_phase", "phases", 5, "must be strictly increasing",
     lambda s: s["phases"].__setitem__(5, s["phases"][4])),
    ("phase_a_period_past_the_first", "phases", 19,
     "must stay within one period of 0.0",
     lambda s: s["phases"].__setitem__(19, s["phases"][0] + 2 * math.pi)),
    ("four_points", "phases", None, "must hold at least 5 points, got 4",
     lambda s: s.update({k: s[k][:4] for k in ("phases", "counts_primary",
                                              "counts_constant")})),
    ("negative_fringe_count", "counts_primary", 7, "must be nonnegative",
     lambda s: s["counts_primary"].__setitem__(7, -1)),
    ("negative_constant_count", "counts_constant", 3, "must be nonnegative",
     lambda s: s["counts_constant"].__setitem__(3, -1)),
    ("fringe_count_past_64_bits", "counts_primary", 2, "must fit in 64 bits",
     lambda s: s["counts_primary"].__setitem__(2, 10 ** 400)),
    ("zero_n", "counts_per_point", None, "must be positive, got 0",
     lambda s: s.__setitem__("counts_per_point", 0)),
    ("n_past_2_53", "counts_per_point", None, "must be at most 2**53",
     lambda s: s.__setitem__("counts_per_point", 2 ** 53 + 1)),
    ("negative_seed", "seed", None, "must fit in 64 bits, got -1",
     lambda s: s.__setitem__("seed", -1)),
]
CSV_NAME = {"phases": "phi_rad", "counts_primary": "counts_fringe",
            "counts_constant": "counts_const", "counts_per_point": "n",
            "seed": "seed"}


def _bad_scan(edit):
    doc = json.loads((DATA / "scan_H.json").read_text())
    scan = {"phases": doc["plan"]["phases"],
            "counts_primary": doc["counts_primary"],
            "counts_constant": doc["counts_constant"],
            "counts_per_point": doc["plan"]["counts_per_point"],
            "seed": doc["plan"]["seed"]}
    edit(scan)
    return doc, scan


@pytest.mark.parametrize("reader, key, index, rule, edit", [
    pytest.param(reader, key, index, rule, edit, id=f"{case}-{reader}")
    for case, key, index, rule, edit in BAD_ENTRIES
    # --phases carries only the phase grid
    for reader in ("csv", "json") + (("phases_flag",) if key == "phases" else ())])
def test_every_reader_names_the_bad_scan_entry(tmp_path, capsys, reader,
                                               key, index, rule, edit):
    # every scan rule is written once, in ScanPlan/ScanRecord; each reader
    # names the entry that breaks it in its own form
    doc, scan = _bad_scan(edit)
    if reader == "phases_flag":
        spec = ",".join(map(repr, scan["phases"]))
        assert run("simulate", "--setting", "H", "--seed", 1, "--phases", spec,
                   "--out", tmp_path) == 3
        name = key if index is None else f"{key}[{index}]"
        assert f"error: {name} {rule}" in capsys.readouterr().err
        return
    path = tmp_path / f"scan_H.{reader}"
    if reader == "json":
        doc["plan"].update(phases=scan["phases"], seed=scan["seed"],
                           counts_per_point=scan["counts_per_point"])
        doc.update(counts_primary=scan["counts_primary"],
                   counts_constant=scan["counts_constant"])
        path.write_text(json.dumps(doc))
        where = f"{path}: {key if index is None else f'{key}[{index}]'}"
    else:
        rows = zip(scan["phases"], scan["counts_primary"],
                   scan["counts_constant"])
        path.write_text("\n".join(
            [f"# setting=H seed={scan['seed']} n={scan['counts_per_point']}",
             "phi_rad,counts_fringe,counts_const",
             *(f"{p!r},{a},{b}" for p, a, b in rows)]) + "\n")
        line = (3 + index if index is not None
                else 2 if key == "phases" else 1)
        where = f"{path}:{line}: {CSV_NAME[key]}"
    assert run("reconstruct", "--scan-h", path, "--scan-v", DATA / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    assert f"error: {where} {rule}" in capsys.readouterr().err


def test_reconstruct_refuses_singular_phase_grid(tmp_path, capsys):
    cfg = InterferometerConfig.balanced(IdlerStateParams(0.3, 1.2, 0.9))
    phases = tuple(1.0 + 0.001 * k for k in range(5))
    for setting in (SignalSetting.H, SignalSetting.V):
        scan_to_csv(run_scan(cfg, ScanPlan(phases, 1000, setting, 3)),
                    tmp_path / f"scan_{setting.value}.csv")
    assert run("reconstruct", "--scan-h", tmp_path / "scan_H.csv",
               "--scan-v", tmp_path / "scan_V.csv",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    assert "normal equations are singular" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


@pytest.mark.parametrize("key", ["coherence_l", "coherence_lp"])
def test_reconstruct_rejects_cross_coherence_off_purity(tmp_path, capsys, key):
    scan = json.loads((DATA / "scan_H.json").read_text())
    assert scan["truth"][key] == scan["truth"]["idler"]["purity"]
    scan["truth"][key] = 0.1
    bad = tmp_path / "scan_H.json"
    bad.write_text(json.dumps(scan))
    assert run("reconstruct", "--scan-h", bad,
               "--scan-v", DATA / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    assert key in capsys.readouterr().err


UNBALANCED = ("--b1", 0.8, "--p-h2", 0.3)


def _simulate_pair(out, *flags, v_flags=()):
    for setting, extra in (("H", ()), ("V", v_flags)):
        assert run("simulate", "--setting", setting, "--p-h", 0.3, "--xi", 1.0,
                   "--purity", 0.9, *flags, *extra, "--seed", 1, "--noiseless",
                   "--n", 10 ** 8, "--format", "json", "--out", out) == 0


def _reconstruct_pair(out, calibration, method="mle"):
    return run("reconstruct", "--scan-h", out / "scan_H.json",
               "--scan-v", out / "scan_V.json", "--calibration", calibration,
               "--method", method, "--out", out / method)


@pytest.mark.parametrize("method", ["mle", "fringe"])
def test_reconstruct_unbalanced_chain(tmp_path, method):
    # calibrated in the scans' own arrangement, both routes recover the truth
    _simulate_pair(tmp_path, *UNBALANCED)
    assert run("calibrate", *UNBALANCED, "--noiseless", "--n", 10 ** 8,
               "--out", tmp_path) == 0
    assert _reconstruct_pair(tmp_path, tmp_path / "calibration.json", method) == 0
    result = json.loads((tmp_path / method / "result.json").read_text())
    assert result["fidelity_vs_reference"] >= 0.999


@pytest.mark.parametrize("flags, offset", [(("--t-v-phase", 1.0), 1.0),
                                           (("--theta", 0.7), -0.7)],
                         ids=["t_v-phase", "theta"])
def test_reconstruct_refuses_a_truth_off_the_phase_reference(tmp_path, capsys,
                                                             flags, offset):
    # xi is read against arg t_v - arg t_h - theta; a truth that moves it
    # would be reconstructed with xi shifted by that much
    _simulate_pair(tmp_path, *flags)
    assert _reconstruct_pair(tmp_path, DATA / "calibration.json") == 3
    err = capsys.readouterr().err
    assert f"{tmp_path / 'scan_H.json'}: the embedded truth offsets" in err
    assert float(err.split("theta = ")[1].split(" rad")[0]) == pytest.approx(offset)
    assert not (tmp_path / "mle").exists()


@pytest.mark.parametrize("method", ["mle", "fringe"])
def test_reconstruct_accepts_a_common_transmission_phase(tmp_path, method):
    _simulate_pair(tmp_path, "--t-h-phase", 0.4, "--t-v-phase", 0.4)
    assert run("calibrate", "--noiseless", "--n", 10 ** 8, "--out", tmp_path) == 0
    assert _reconstruct_pair(tmp_path, tmp_path / "calibration.json", method) == 0
    if method == "fringe":  # only fringe differences enter this route
        result = json.loads((tmp_path / method / "result.json").read_text())
        assert result["fidelity_vs_reference"] >= 0.999


def test_reconstruct_refuses_scans_of_two_configurations(tmp_path, capsys):
    _simulate_pair(tmp_path, v_flags=("--p-h", 0.9, "--xi", 2.0))
    assert _reconstruct_pair(tmp_path, DATA / "calibration.json") == 3
    err = capsys.readouterr().err
    assert (f"{tmp_path / 'scan_H.json'} and {tmp_path / 'scan_V.json'} embed "
            "truths that differ") in err
    assert not (tmp_path / "mle").exists()


def _reads_calibration(command, calibration, out):
    if command == "reconstruct":
        return ("reconstruct", "--scan-h", DATA / "scan_H.csv",
                "--scan-v", DATA / "scan_V.csv",
                "--calibration", calibration, "--out", out)
    return ("sweep", "--plate", "hwp", "--angles", "0:45:45",
            "--t-h", 0.85, "--t-v", 0.73, "--noiseless", "--n", 10 ** 8,
            "--calibration", calibration, "--out", out)


@pytest.mark.parametrize("value", [0, -0.85, 1e300, math.nan, math.inf])
@pytest.mark.parametrize("field", ["t_h", "t_h_stderr", "t_v", "t_v_stderr"])
@pytest.mark.parametrize("command", ["reconstruct", "sweep"])
def test_calibration_file_range_is_checked_as_it_is_read(tmp_path, capsys,
                                                        command, field, value):
    doc = json.loads((DATA / "calibration.json").read_text())
    doc[field] = value
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(doc))  # NaN and Infinity as Python writes them
    code = run(*_reads_calibration(command, cal, tmp_path / "out"))
    if field.endswith("_stderr"):
        if 0.0 <= value < math.inf:
            assert code == 0
            return
        rule = "must be finite and >= 0"
    else:
        rule = f"must lie in [1e-09, 1 + 5 {field}_stderr + 1e-6]"
    assert code == 3
    assert f"error: {cal}: {field} {rule}, got {float(value)!r}\n" == (
        capsys.readouterr().err)


@pytest.mark.parametrize("t_v", [1e-300, 1e-170, 1e-9, 1e300])
@pytest.mark.parametrize("t_h", [1e-300, 1e-170, 1e-9, 1e300])
def test_reconstruct_exits_0_or_3_on_extreme_calibrations(tmp_path, capsys,
                                                          t_h, t_v):
    # the file loader accepts each t from 1e-9 up to 1 + 5 stderr; both
    # routes check the same fringe-scale bound before solving, so they agree
    doc = json.loads((DATA / "calibration.json").read_text())
    doc.update(t_h=t_h, t_v=t_v, t_h_stderr=max(t_h, doc["t_h_stderr"]),
               t_v_stderr=max(t_v, doc["t_v_stderr"]))
    cal = tmp_path / "calibration.json"
    cal.write_text(json.dumps(doc))
    codes = []
    for method in ("fringe", "mle"):
        codes.append(run("reconstruct", "--scan-h", DATA / "scan_H.csv",
                         "--scan-v", DATA / "scan_V.csv", "--calibration", cal,
                         "--method", method, "--out", tmp_path / method))
        assert codes[-1] in (0, 3)
        if codes[-1] == 3:
            err = capsys.readouterr().err
            if min(t_h, t_v) < 1e-9:
                assert "must lie in [1e-09, 1 + 5" in err
            else:
                assert "error: the calibrated transmission puts the fringe scale" in err
    assert codes[0] == codes[1]
    if min(t_h, t_v) < 1e-9:
        assert codes == [3, 3]


@pytest.mark.parametrize("seed", range(1, 21))
def test_simulate_calibrate_reconstruct_chain_at_default_flags(tmp_path, seed):
    # a calibration run estimates t above 1 about half the time; what
    # calibrate writes, reconstruct must read
    for setting in "HV":
        assert run("simulate", "--setting", setting, "--p-h", 0.4, "--xi", 0.8,
                   "--purity", 0.9, "--seed", seed, "--format", "json",
                   "--out", tmp_path) == 0
    assert run("calibrate", "--seed", seed, "--out", tmp_path) == 0
    for method in ("mle", "fringe"):
        assert run("reconstruct", "--scan-h", tmp_path / "scan_H.json",
                   "--scan-v", tmp_path / "scan_V.json",
                   "--calibration", tmp_path / "calibration.json",
                   "--method", method, "--out", tmp_path / method) == 0


# ---------------------------------------------------------------------------
# sweep


@pytest.mark.parametrize("seed", range(1, 21))
def test_default_sweep_completes(tmp_path, seed):
    # near the poles the noisy fits of this sweep often fall outside the
    # physical ball; the fringe route must still return a state for each
    assert run("sweep", "--plate", "hwp", "--angles", "0:90:5", "--seed", seed,
               "--out", tmp_path) == 0
    assert len(read_rows(tmp_path / "sweep.csv")) == 19


def test_hwp_sweep_matches_theory(tmp_path):
    assert run("sweep", "--plate", "hwp", "--angles", "0:45:5",
               "--noiseless", "--n", 10 ** 8, "--out", tmp_path) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 10
    for row in rows:
        alpha = math.radians(row["angle_deg"])
        assert abs(row["vis_h"] - abs(math.cos(2 * alpha))) < 1e-6
        assert abs(row["vis_v"] - abs(math.sin(2 * alpha))) < 1e-6
        assert abs(row["vis_h"] - row["vis_h_theory"]) < 1e-6
        assert row["fidelity"] >= 0.999


def test_qwp_sweep_circular_plateau(tmp_path):
    assert run("sweep", "--plate", "qwp", "--angles", "0,30,45,60,90",
               "--noiseless", "--n", 10 ** 8, "--out", tmp_path) == 0
    rows = {row["angle_deg"]: row for row in read_rows(tmp_path / "sweep.csv")}
    assert abs(rows[45.0]["vis_h"] - SQRT1_2) < 1e-6
    assert abs(rows[45.0]["vis_v"] - SQRT1_2) < 1e-6
    assert all(row["fidelity"] >= 0.999 for row in rows.values())


def test_sweep_scaled_transmissions(tmp_path):
    assert run("sweep", "--plate", "hwp", "--angles", "0:45:9",
               "--t-h", 0.85, "--t-v", 0.73,
               "--noiseless", "--n", 10 ** 8, "--out", tmp_path) == 0
    for row in read_rows(tmp_path / "sweep.csv"):
        alpha = math.radians(row["angle_deg"])
        assert abs(row["vis_h"] - 0.85 * abs(math.cos(2 * alpha))) < 1e-6
        assert abs(row["vis_v"] - 0.73 * abs(math.sin(2 * alpha))) < 1e-6


@pytest.mark.parametrize("method", ["mle", "fringe"])
def test_sweep_reconstructs_an_unbalanced_arrangement(tmp_path, method):
    # without --calibration the sweep divides by the true visibility ceilings
    assert run("sweep", "--plate", "hwp", "--angles", "0:45:22.5", *UNBALANCED,
               "--noiseless", "--n", 10 ** 8, "--method", method,
               "--out", tmp_path) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 3
    assert all(row["fidelity"] >= 0.999 for row in rows)


@pytest.mark.parametrize("method", ["mle", "fringe"])
def test_sweep_exits_3_on_an_arrangement_without_h_signal(tmp_path, capsys, method):
    # b1 = 0, p_h2 = 0: the H setting's fringe has offset 0, so its
    # visibility ceiling is 0, not a division by zero
    assert run("sweep", "--plate", "hwp", "--angles", "0", "--b1", 0,
               "--p-h2", 0, "--noiseless", "--method", method,
               "--out", tmp_path) == 3
    assert "is not positive; no usable signal" in capsys.readouterr().err


@pytest.mark.parametrize("method, code", [("mle", 0), ("fringe", 3)])
def test_sweep_needs_half_a_period_only_on_the_fringe_route(tmp_path, capsys,
                                                            method, code):
    # as in reconstruct: the least-squares route fits a short grid, the
    # fringe route refuses it
    assert run("sweep", "--method", method, "--phases", "0,0.3,0.6,0.9,1.2,1.5",
               "--noiseless", "--plate", "hwp", "--angles", "0:45:45",
               "--out", tmp_path) == code
    err = capsys.readouterr().err
    assert ("phase grid must span at least half a period" in err) == (code == 3)
    if code == 0:
        assert len(read_rows(tmp_path / "sweep.csv")) == 2


def test_sweep_refuses_a_configuration_off_the_phase_reference(tmp_path, capsys):
    assert run("sweep", "--plate", "hwp", "--angles", "0", "--t-v-phase", 1.0,
               "--noiseless", "--out", tmp_path) == 3
    assert "error: the sweep configuration offsets" in capsys.readouterr().err
    cfg = InterferometerConfig(b1=0.6, b2_mag=0.8, idler=IdlerStateParams(0.5, 0.0, 1.0),
                               q2=SourceQ2Params(0.5, 0.7))
    (tmp_path / "config.json").write_text(json.dumps(cfg.to_json_dict()))
    assert run("sweep", "--plate", "hwp", "--angles", "0", "--config",
               tmp_path / "config.json", "--noiseless", "--out", tmp_path) == 3
    assert (f"error: {tmp_path / 'config.json'}: the sweep configuration offsets"
            in capsys.readouterr().err)
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_deterministic_with_noise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("sweep", "--plate", "qwp", "--angles", "0:90:30",
                   "--seed", 17, "--n", 1000, "--method", "mle",
                   "--out", out) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("noise", [("--noiseless",), ("--n", 1000)])
def test_every_json_file_a_sweep_writes_is_json(tmp_path, noise):
    # an undefined xi and a pure state have infinite stderrs, which were
    # once written as the non-JSON token Infinity
    assert run("sweep", "--plate", "hwp", "--angles", "0:45:45", *noise,
               "--seed", 1, "--out", tmp_path) == 0
    names = sorted(p.name for p in tmp_path.glob("*.json"))
    assert names == ["manifest.json", "result_000.json", "result_001.json"]
    for name in names:
        json.loads((tmp_path / name).read_text(), parse_constant=_refuse_constant)
    if noise == ("--noiseless",):
        stderr = json.loads((tmp_path / "result_000.json").read_text())["param_stderr"]
        assert (stderr["xi"], stderr["purity"]) == (None, None)


def test_a_null_stderr_reads_as_inf(tmp_path, capsys):
    # report.txt is the same for the null a result.json now holds and for
    # the Infinity of a file written before
    assert run("sweep", "--plate", "hwp", "--angles", "0", "--noiseless",
               "--seed", 1, "--out", tmp_path) == 0
    new = tmp_path / "result_000.json"
    old = tmp_path / "old.json"
    old.write_text(new.read_text().replace("null", "Infinity"))
    assert "Infinity" in old.read_text()
    capsys.readouterr()
    reports = []
    for path in (new, old):
        assert run("report", "--result", path, "--out", tmp_path / path.stem) == 0
        reports.append((tmp_path / path.stem / "report.txt").read_text())
    assert reports[0] == reports[1]
    assert "xi inf   purity inf" in reports[0]
    result = ReconstructionResult.from_json_dict(json.loads(new.read_text()))
    assert (result.param_stderr["xi"], result.param_stderr["purity"]) == (
        math.inf, math.inf)


def test_a_missing_stderr_entry_is_an_error(tmp_path, capsys):
    doc = _stored_result()
    del doc["param_stderr"]["xi"]
    bad = tmp_path / "result.json"
    bad.write_text(json.dumps(doc))
    assert run("report", "--result", bad) == 3
    assert f"{bad}: missing field 'xi'" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("0:inf:5", "'inf' is not a finite number"),
    ("nan:90:5", "'nan' is not a finite number"),
    ("0:90:inf", "'inf' is not a finite number"),
    ("0:90", "expected start:stop:step, got '0:90'"),
    ("0,x", "expected a number, got 'x'"),
    ("0:90:0", "step must be positive"),
    ("90:0:5", "'90:0:5' is empty: stop lies below start"),
    ("0:90:1e-9", "'0:90:1e-9' gives more than 10000 angles"),
    ("0:1e308:1e-300", "'0:1e308:1e-300' gives more than 10000 angles"),
])
def test_sweep_refuses_bad_angle_spec(tmp_path, capsys, spec, message):
    # a non-finite bound once kept the angle loop growing without end
    assert run("sweep", "--plate", "hwp", "--angles", spec, "--noiseless",
               "--seed", 1, "--out", tmp_path) == 3
    assert f"error: --angles: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_refuses_seeds_past_the_top_of_the_range(tmp_path, capsys):
    # angle k runs at seed + k, so the last angle's seed must fit too; the
    # refusal comes before any output is written
    out = tmp_path / "top"
    assert run("sweep", "--plate", "hwp", "--angles", "0:90:45",
               "--seed", 2 ** 64 - 1, "--out", out) == 3
    err = capsys.readouterr().err
    assert f"error: --seed {2 ** 64 - 1} leaves no room for 3 angles" in err
    assert not out.exists()
    assert run("sweep", "--plate", "hwp", "--angles", "0:90:90", "--n", 1000,
               "--seed", 2 ** 64 - 2, "--out", out) == 0
    assert len(read_rows(out / "sweep.csv")) == 2


def test_angle_range_cap_is_inclusive():
    assert len(_parse_angles(f"0:{MAX_ANGLES - 1}:1")) == MAX_ANGLES
    with pytest.raises(ValueError, match="more than 10000 angles"):
        _parse_angles(f"0:{MAX_ANGLES}:1")
    assert _parse_angles("0:0:1") == [0.0]
    assert _parse_angles("0:90:5")[-1] == 90.0


@pytest.mark.parametrize("method", ["fringe", "mle"])
def test_sweep_fits_each_scan_once(tmp_path, monkeypatch, method):
    import pitomo.reconstruct
    calls = []
    fit_scan = pitomo.reconstruct._fit_scan

    def counted(*args):
        calls.append(1)
        return fit_scan(*args)

    monkeypatch.setattr(pitomo.reconstruct, "_fit_scan", counted)
    assert run("sweep", "--plate", "hwp", "--angles", "0:45:45", "--noiseless",
               "--method", method, "--out", tmp_path) == 0
    assert len(calls) == 4  # 2 angles x 2 scans


def test_sweep_reads_the_phase_grid(tmp_path):
    default = ",".join(repr(2 * math.pi * k / 20) for k in range(20))
    outputs = {}
    for name, extra in (("default", ()), ("explicit", ("--phases", default)),
                        ("grid", ("--phases", "0,0.7,1.4,2.1,2.8,3.5,4.2"))):
        assert run("sweep", "--plate", "hwp", "--angles", "0:45:22.5",
                   "--seed", 3, "--out", tmp_path / name, *extra) == 0
        outputs[name] = (tmp_path / name / "result_000.json").read_bytes()
    assert outputs["explicit"] == outputs["default"]
    assert outputs["grid"] != outputs["default"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(("simulate", "--setting", "H", "--seed", 1), "error: "
                 "counts_per_point must be at most 2**53", id="simulate"),
    pytest.param(("calibrate", "--noiseless"), "error: "
                 "counts_per_point must be at most 2**53", id="calibrate"),
])
def test_oversized_count_budget_flag_exits_3(tmp_path, capsys, argv, message):
    assert run(*argv, "--n", 10 ** 400, "--out", tmp_path) == 3
    assert message in capsys.readouterr().err
    assert run(*argv, "--n", 2 ** 53 + 1, "--out", tmp_path) == 3
    assert message in capsys.readouterr().err


def test_oversized_count_budget_in_a_scan_file_exits_3(tmp_path, capsys):
    lines = (DATA / "scan_H.csv").read_text().splitlines()
    lines[0] = lines[0].replace("n=100000000", f"n={10 ** 400}")
    (tmp_path / "scan_H.csv").write_text("\n".join(lines) + "\n")
    doc = json.loads((DATA / "scan_H.json").read_text())
    doc["plan"]["counts_per_point"] = 10 ** 400
    (tmp_path / "scan_H.json").write_text(json.dumps(doc))
    for name, message in (("scan_H.csv", "scan_H.csv:1: n must be at most 2**53"),
                          ("scan_H.json", "scan_H.json: counts_per_point "
                                          "must be at most 2**53")):
        assert run("reconstruct", "--scan-h", tmp_path / name,
                   "--scan-v", DATA / "scan_V.json",
                   "--calibration", DATA / "calibration.json",
                   "--out", tmp_path / "rec") == 3
        assert message in capsys.readouterr().err


def test_oversized_point_count_exits_3_before_building_the_grid(
        tmp_path, capsys, monkeypatch):
    # default_grid builds its phases over range(points); the refusal must
    # come first, so a range call in acquisition fails the test
    import pitomo.acquisition

    def no_grid(*args):
        raise AssertionError("the phase grid was built")

    monkeypatch.setattr(pitomo.acquisition, "range", no_grid, raising=False)
    for argv in (("simulate", "--setting", "H", "--seed", 1),
                 ("calibrate", "--noiseless"),
                 ("sweep", "--plate", "hwp", "--angles", "0", "--seed", 1)):
        assert run(*argv, "--points", 10 ** 9, "--out", tmp_path) == 3
        assert (f"error: points must be at most {MAX_POINTS}, got 1000000000\n"
                == capsys.readouterr().err)
    with pytest.raises(ValueError, match="points must be at most"):
        ScanPlan.default_grid(SignalSetting.H, 1, points=MAX_POINTS + 1)
    with pytest.raises(AssertionError, match="grid was built"):
        ScanPlan.default_grid(SignalSetting.H, 1, points=MAX_POINTS)


@pytest.mark.parametrize("points", [4, 0, -3])
def test_too_few_points_exit_3_by_name_before_building_the_grid(
        tmp_path, capsys, monkeypatch, points):
    # named as the flag the user passed, not as a phase grid the user
    # never wrote; a range call in acquisition fails the test
    import pitomo.acquisition

    def no_grid(*args):
        raise AssertionError("the phase grid was built")

    monkeypatch.setattr(pitomo.acquisition, "range", no_grid, raising=False)
    for argv in (("simulate", "--setting", "H", "--seed", 1),
                 ("calibrate", "--noiseless"),
                 ("sweep", "--plate", "hwp", "--angles", "0", "--seed", 1)):
        assert run(*argv, "--points", points, "--out", tmp_path) == 3
        assert (f"error: points must be at least 5, got {points}\n"
                == capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec, message", [
    ("0,x", "expected a number, got 'x'"),
    ("", "expected a number, got ''"),
])
def test_simulate_refuses_bad_phase_spec(tmp_path, capsys, spec, message):
    assert run("simulate", "--setting", "H", "--seed", 1, "--phases", spec,
               "--out", tmp_path) == 3
    assert f"error: --phases: {message}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify and report


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("verify", "--trials", 150, "--seed", 3, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "PASS  oracle equivalence" in stdout
    assert "positivity violation detected" in stdout
    ja = json.loads((a / "verify.json").read_text())
    jb = json.loads((b / "verify.json").read_text())
    assert ja == jb
    assert ja["all_passed"]


def test_verify_detects_stressed_violation_on_every_seed():
    # seed 3812039937 once drew a state whose violation at coherence 1.2
    # was only -2.95e-5, so verify failed on valid physics
    assert run("verify", "--trials", 10, "--seed", 3812039937) == 0
    for seed in range(300):
        assert run_verification(1, seed)["all_passed"], seed


# sha256 of run_verification(200, seed)'s JSON; a test is named by its seed
VERIFY_REPORT_GOLDEN = [
    pytest.param(5, "5d69ceb48c7ee8df4f4038ac0efa1a0923d8366417bfb1fa1b6f5186a9fefe79",
                 id="5"),
    pytest.param(77, "42adb03c4efbe84069dd5193e4d1d15b3ca4abfe1fc5bdfa5aa3614a0a56cb74",
                 id="77"),
    pytest.param(20260810,
                 "6338d71d1b4dcb5632e3d53daef641185f6596e03fd5e799b09bdff2d539c4ef",
                 id="20260810"),
]


@pytest.mark.parametrize("seed, expected", VERIFY_REPORT_GOLDEN)
def test_verification_report_golden(seed, expected):
    report = json.dumps(run_verification(200, seed), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == expected


def test_verification_op_golden():
    # the benchmark's verify op, run_verification(10, s), over 256 seeds;
    # pinned on the full-matrix Jacobi sweep
    h = hashlib.sha256()
    for seed in range(256):
        h.update(json.dumps(run_verification(10, seed), sort_keys=True).encode())
    assert h.hexdigest() == (
        "00310f7e02f759e41adc4ed0f10a5e6422de22fdecbfbb0b46f3362e5eb4e426")


# the stdout of verify --trials 1000 --seed 1; CI compares the installed
# console script's with it, on every Python it runs
VERIFY_STDOUT_GOLDEN = (
    "PASS  oracle equivalence (closed form vs matrix pipeline): "
    "max |closed - exact| = 3.331e-16 over 1000 configs\n"
    "PASS  trace of the joint state: max |tr - 1| = 2.220e-16 "
    "over 300 configs\n"
    "PASS  positivity at coherence 0 / 0.5 / 1: "
    "min eigenvalue = -2.019e-16\n"
    "PASS  positivity violation detected at coherence 1.2: "
    "min eigenvalue = -5.777e-02 (expected clearly negative)\n"
    "all 4 checks passed\n")


def test_verify_stdout_golden(capsys):
    assert run("verify", "--trials", 1000, "--seed", 1) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT_GOLDEN


def test_verify_reports_a_trace_defect(tmp_path, capsys, monkeypatch):
    # a state whose trace is off by 1e-9 must show up as a FAIL row in a
    # written report, not as an error raised before the check runs
    import pitomo.cli

    exact = pitomo.cli._total_state_raw

    def off_by_1e_9(cfg, coherence_override=None):
        modes, block = exact(cfg, coherence_override)
        block[0] += 1e-9
        return modes, block

    monkeypatch.setattr(pitomo.cli, "_total_state_raw", off_by_1e_9)
    assert run("verify", "--trials", 10, "--seed", 1, "--out", tmp_path) == 3
    captured = capsys.readouterr()
    assert "FAIL  trace of the joint state: max |tr - 1| = 1.000e-09" in captured.out
    assert "verification FAILED" in captured.err
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "trace of the joint state"]


def test_verify_reports_a_state_on_the_wrong_modes(tmp_path, capsys,
                                                  monkeypatch):
    # a V configuration's block placed on setting H's support puts source
    # 1's signal in the wrong polarization; the oracle row must FAIL
    import pitomo.interferometer

    exact = pitomo.interferometer._total_state_raw

    def on_h_modes(cfg, coherence_override=None):
        return (0, 1, 4, 7), exact(cfg, coherence_override)[1]

    monkeypatch.setattr(pitomo.interferometer, "_total_state_raw", on_h_modes)
    assert run("verify", "--trials", 10, "--seed", 1, "--out", tmp_path) == 3
    captured = capsys.readouterr()
    assert ("FAIL  oracle equivalence (closed form vs matrix pipeline): "
            "max |closed - exact| = 5.096e-01 over 10 configs" in captured.out)
    assert "verification FAILED" in captured.err
    report = json.loads((tmp_path / "verify.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "oracle equivalence (closed form vs matrix pipeline)"]


def test_manifest_records_the_parsed_argv(tmp_path):
    argv = ["verify", "--trials", "2", "--out", str(tmp_path / "main")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "main" / "manifest.json").read_text())
    assert manifest["argv"] == argv

    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    argv = ["verify", "--trials", "2", "--out", str(tmp_path / "dash_m")]
    proc = subprocess.run([sys.executable, "-m", "pitomo", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "dash_m" / "manifest.json").read_text())
    assert manifest["argv"] == argv


# the primary outputs of _grid_chain, one run of each command
_CHAIN_OUTPUTS = ("scan_H.csv", "scan_V.csv", "fringe/result.json",
                  "fringe/report.txt", "mle/result.json", "mle/report.txt")


def _grid_chain(command, out):
    """simulate H and V on a 40-point grid, then reconstruct them by both
    methods, each through ``command(*argv)``; the bytes of each output."""
    for setting in "HV":
        command("simulate", "--setting", setting, "--seed", 5, "--points", 40,
                "--n", 2000, "--format", "csv", "--out", out)
    for method in ("fringe", "mle"):
        command("reconstruct", "--scan-h", out / "scan_H.csv",
                "--scan-v", out / "scan_V.csv",
                "--calibration", DATA / "calibration.json",
                "--method", method, "--out", out / method)
    return [(out / name).read_bytes() for name in _CHAIN_OUTPUTS]


def _fresh_process(*argv):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pitomo", *map(str, argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def _in_process(*argv):
    assert run(*argv) == 0


def _prime(tmp_path, phases):
    """Hold ``phases`` with its check, its CSV text, the half-period test
    and the fit's grid pass (a default grid also with its default-grid
    test)."""
    plan = ScanPlan(phases, 2000, SignalSetting.H, 5)
    record = run_scan(InterferometerConfig.balanced(
        IdlerStateParams(0.3, 1.0, 0.9)), plan)
    scan_to_csv(record, tmp_path / "prime.csv")
    assert load_scan(tmp_path / "prime.csv").plan.phases is plan.phases
    fit_sinusoid(plan.phases, record.counts_primary)


@pytest.fixture(scope="module")
def fresh_chain(tmp_path_factory):
    return _grid_chain(_fresh_process, tmp_path_factory.mktemp("fresh"))


@pytest.mark.parametrize("held", ["same", "twin", "other_length"])
def test_the_grid_memo_never_reaches_the_output_bytes(tmp_path, fresh_chain, held):
    grid = ScanPlan.default_grid(SignalSetting.H, 0, points=40).phases
    phases = {"same": grid, "twin": (-0.0, *grid[1:]),
              "other_length": ScanPlan.default_grid(SignalSetting.H, 0,
                                                    points=41).phases}[held]
    _prime(tmp_path, phases)
    assert _grid_chain(_in_process, tmp_path / "chain") == fresh_chain


def _platform():
    return "-".join((platform.system(), platform.release(), platform.machine()))


def test_the_manifest_runs_no_subprocess(tmp_path):
    # platform.platform() runs `uname -p`; the manifest reads the platform
    # without it, so simulate --out exits 0 with every subprocess refused.
    # A fresh interpreter: no earlier platform call has cached the answer
    refuse = ("import subprocess, sys\n"
              "def refuse(*args, **kwargs):\n"
              "    raise RuntimeError('a subprocess was started')\n"
              "subprocess.Popen = refuse\n"
              "from pitomo.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(p for p in (str(root / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", refuse, "simulate", "--setting",
                           "H", "--points", "8", "--seed", "1", "--out",
                           str(tmp_path)], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["platform"] == _platform()


def test_every_manifest_lists_the_files_its_run_wrote(tmp_path):
    # each command into its own --out: the manifest lists every other file
    # there, in the order written
    grid = ("--points", 8, "--n", 1000)
    commands = [
        ("simulate", "--setting", "V", "--format", "both", "--seed", 1, *grid),
        ("calibrate", "--seed", 3, *grid),
        ("reconstruct", "--scan-h", DATA / "scan_H.csv", "--scan-v",
         DATA / "scan_V.csv", "--calibration", DATA / "calibration.json"),
        ("sweep", "--plate", "hwp", "--angles", "0:90:45", "--seed", 4, *grid),
        ("verify", "--trials", 2),
        ("report", "--result", tmp_path / "reconstruct" / "result.json"),
    ]
    listed = {}
    for argv in commands:
        out = tmp_path / argv[0]
        assert run(*argv, "--out", out) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json")
        listed[argv[0]] = outputs
    assert listed == {
        "simulate": ["scan_V.csv", "scan_V.json"],
        "calibrate": ["calibration.json"],
        "reconstruct": ["result.json", "report.txt"],
        "sweep": ["result_000.json", "result_001.json", "result_002.json",
                  "sweep.csv"],
        "verify": ["verify.json"],
        "report": ["report.txt"]}


# sha256 of result.json and report.txt of ``reconstruct`` on tests/data
RECONSTRUCT_GOLDEN = [
    ("mle", ("ef510f469ebc2a6bb0f8d36673588d8d0105746bb630dcd55b5b3801757741a1",
             "211aeca39fbc1a233eda16af2983217031a9cd91e42f4ccd3bef8e5050364ab5")),
    ("fringe", ("8f92a0beda262b1a9c1511a9baa639363083088ade4004c08393a5ddd5b655da",
                "ea14addad6bfa7eaebc0730a890514b5e0647cad755d97b096557f45109f85e7")),
]


@pytest.mark.parametrize("method, digests", RECONSTRUCT_GOLDEN)
def test_manifest_hashes_every_input_file(tmp_path, method, digests):
    names = ("scan_H.csv", "scan_V.csv", "calibration.json", "reference.json")
    assert run("reconstruct", "--scan-h", DATA / names[0],
               "--scan-v", DATA / names[1], "--calibration", DATA / names[2],
               "--reference", DATA / names[3], "--method", method,
               "--out", tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inputs"] == [
        {"path": str(DATA / name),
         "sha256": hashlib.sha256((DATA / name).read_bytes()).hexdigest()}
        for name in names]
    assert manifest["python"] == platform.python_version()
    assert manifest["platform"] == _platform()
    # provenance goes only into the manifest; the digests pin every byte
    # of the primary outputs
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("result.json", "report.txt")) == digests


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_refuses_fewer_than_one_trial(capsys, trials):
    assert run("verify", "--trials", trials) == 3
    assert f"trials must be at least 1, got {trials}" in capsys.readouterr().err


@pytest.mark.parametrize("seed, code", [
    (-1, 3), (1 << 64, 3), (0, 0), ((1 << 64) - 1, 0)])
def test_verify_takes_seeds_that_fit_in_64_bits(capsys, seed, code):
    # the noise stream of a seed outside [0, 2^64) would be another seed's
    assert run("verify", "--trials", 2, "--seed", seed) == code
    err = capsys.readouterr().err
    assert (f"seed must fit in 64 bits, got {seed}" in err) == (code == 3)


def test_report_renders_stored_result(tmp_path, capsys):
    out = tmp_path / "rec"
    assert run("reconstruct", "--scan-h", DATA / "scan_H.json",
               "--scan-v", DATA / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--out", out) == 0
    capsys.readouterr()
    assert run("report", "--result", out / "result.json",
               "--reference", DATA / "reference.json") == 0
    text = capsys.readouterr().out
    assert "fidelity vs ref" in text
    assert "density matrix" in text


@given(st.floats())
@example(-0.0)
@example(-4.9e-7)
@example(-5e-7)
@example(-5.0000001e-7)
@example(-math.inf)
def test_fixed_point_fields_print_no_negative_zero(x):
    for sign in ("", "+"):
        text = format(x, f"{sign}.6f")
        if text == "-0.000000":
            assert _fixed(x, sign) == format(0.0, f"{sign}.6f")
        else:
            assert _fixed(x, sign) == text
        if sys.version_info >= (3, 11):  # the "z" option where it exists
            assert _fixed(x, sign) == format(x, f"{sign}z.6f")


def test_a_report_at_xi_zero_prints_no_negative_zero(tmp_path, capsys):
    # Im rho_vh of a result at xi = 0 is -0.0; the solve puts this pure
    # state on the sphere, as purity_bound_active
    for setting in "HV":
        assert run("simulate", "--setting", setting, "--seed", 1, "--noiseless",
                   "--xi", 0, "--p-h", 0.5, "--purity", 1,
                   "--out", tmp_path / "scans") == 0
    assert run("reconstruct", "--scan-h", tmp_path / "scans" / "scan_H.csv",
               "--scan-v", tmp_path / "scans" / "scan_V.csv",
               "--calibration", DATA / "calibration.json", "--method", "fringe",
               "--out", tmp_path / "rec") == 0
    result = json.loads((tmp_path / "rec" / "result.json").read_text())
    assert result["flags"] == ["purity_bound_active"]
    assert math.copysign(1.0, result["rho"]["im"][1]) < 0.0
    report = (tmp_path / "rec" / "report.txt").read_text()
    assert "-0.000000" not in report
    assert "[+0.000000  +0.000000]" in report
    capsys.readouterr()
    assert run("report", "--result", tmp_path / "rec" / "result.json") == 0
    assert capsys.readouterr().out == report


def test_report_refuses_a_rho_that_is_not_a_qubit(tmp_path, capsys):
    doc = _stored_result()
    doc["rho"] = dict(doc["rho"], rows=3, cols=3,
                      re=[1 / 3, 0, 0, 0, 1 / 3, 0, 0, 0, 1 / 3], im=[0.0] * 9,
                      basis_labels=["a", "b", "c"])
    bad = tmp_path / "result.json"
    bad.write_text(json.dumps(doc))
    assert run("report", "--result", bad) == 3
    err = capsys.readouterr().err
    assert f"{bad}: a density matrix is a qubit's 2x2" in err
    assert "rows = 3 and cols = 3" in err


def test_readme_example_prints_what_the_readme_quotes(tmp_path, monkeypatch,
                                                      capsys):
    # the README's example chain, run as written; the values it quotes
    # must be what the chain prints
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Example", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    prefix = "PYTHONPATH=src python -m pitomo "
    commands = [line[len(prefix):].split() for line in block.splitlines()
                if line.startswith(prefix)]
    assert [c[0] for c in commands] == ["simulate", "simulate", "calibrate",
                                        "reconstruct", "report", "sweep",
                                        "verify"]
    monkeypatch.chdir(tmp_path)
    printed = []
    for argv in commands:
        assert main(argv) == 0, argv
        printed += [" ".join(line.split())
                    for line in capsys.readouterr().out.splitlines()]
    for quoted in ("p_h 0.301574", "xi [rad] 1.000726", "purity 0.897048",
                   "all 4 checks passed"):
        assert f"`{quoted}`" in " ".join(readme.split())
        assert quoted in printed


def test_dump_writes_the_bytes_of_json_dumps(tmp_path):
    # dump streams the encoder's chunks in batches; the file must hold the
    # bytes of the whole document built in one string, for every JSON
    # writer's output on the fixtures, for a document of many batches and
    # for a short document written over it
    out = tmp_path / "out"
    assert run("verify", "--trials", 2, "--seed", 1, "--out", out) == 0
    docs = [JSON_DOCS[name] for name in sorted(JSON_DOCS)]
    docs += [load_scan(DATA / "scan_H.csv").to_json_dict(),
             calibration_from_json(DATA / "calibration.json").to_json_dict(),
             run_verification(2, 1),
             json.loads((out / "manifest.json").read_text()),
             {"long": [k / 7 for k in range(100_000)], "edge": [
                 -0.0, math.inf, -math.inf, math.nan, 2 ** 70, "ψ", None]},
             {"short": "a rewrite over a longer file"}]
    for doc in docs:
        dump(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_bytes() == (
            json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _truncating_dump(path, obj):
    # the writer dump replaced: the same batches into a file opened with
    # O_TRUNC
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    with open(path, "w", encoding="utf-8") as f:
        while batch := list(islice(chunks, 65536)):
            f.write("".join(batch))
        f.write("\n")


@pytest.mark.parametrize("doc, written", [
    pytest.param([1, 2, object()], 0, id="in-the-first-batch"),
    pytest.param([k / 7 for k in range(100_000)] + [object()], 65536,
                 id="after-the-first-batch")])
def test_a_dump_that_raises_leaves_what_the_truncating_writer_left(
        tmp_path, doc, written):
    # a document the encoder refuses part way: the file is cut at what was
    # written, not left with the old file's tail
    first = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    prefix = "".join(islice(first, written)).encode("utf-8")
    left = []
    for writer in (dump, _truncating_dump):
        path = tmp_path / writer.__name__
        path.write_bytes(b"x" * (len(prefix) + 4096))
        with pytest.raises(TypeError, match="not JSON serializable"):
            writer(path, doc)
        left.append(path.read_bytes())
    assert left == [prefix, prefix]


def test_a_rewrite_keeps_the_file_and_follows_a_symlink(tmp_path):
    # the file is rewritten in place: same inode and mode, and a symlink
    # to it stays a symlink
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    dump(target, {"long": list(range(1000))})
    target.chmod(0o600)
    link.symlink_to(target)
    before = target.stat()
    dump(link, {"short": 1})
    after = target.stat()
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b'{\n  "short": 1\n}\n'
    assert (after.st_ino, after.st_dev) == (before.st_ino, before.st_dev)
    assert stat.S_IMODE(after.st_mode) == 0o600


def _chain(out, points, angles):
    """simulate (both formats), calibrate, reconstruct and sweep into out."""
    flags = ("--points", points, "--n", 1000, "--out", out)
    for setting, seed in (("H", 1), ("V", 2)):
        assert run("simulate", "--setting", setting, "--p-h", 0.3, "--xi", 1.0,
                   "--purity", 0.9, "--format", "both", "--seed", seed,
                   *flags) == 0
    assert run("calibrate", "--seed", 3, *flags) == 0
    assert run("reconstruct", "--scan-h", out / "scan_H.csv", "--scan-v",
               out / "scan_V.json", "--calibration", out / "calibration.json",
               "--method", "fringe", "--out", out) == 0
    assert run("sweep", "--plate", "hwp", "--angles", angles, "--seed", 4,
               *flags) == 0


def test_every_output_file_is_opened_without_o_trunc(tmp_path, monkeypatch):
    # every file a command writes goes through os.open, creating it or
    # rewriting it in place, and never truncated to empty on open
    opened = []
    os_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        if Path(path).parent == tmp_path:
            opened.append((Path(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for _ in range(2):
        _chain(tmp_path, 8, "0:90:45")
    assert {p for p, _ in opened} == set(tmp_path.iterdir())
    assert {flags & ~getattr(os, "O_BINARY", 0) for _, flags in opened} == {
        os.O_WRONLY | os.O_CREAT}


def test_a_rerun_into_a_used_out_writes_the_bytes_of_a_fresh_run(tmp_path):
    # rerun with fewer points and fewer angles into the same --out: each
    # primary file holds what a run into an empty directory writes
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    _chain(used, 40, "0:90:15")
    sizes = {p.name: p.stat().st_size for p in used.iterdir()}
    _chain(used, 20, "0:90:45")
    _chain(fresh, 20, "0:90:45")
    names = sorted(p.name for p in fresh.iterdir() if p.name != "manifest.json")
    assert [n for n in names if n.startswith("scan_")] == [
        "scan_H.csv", "scan_H.json", "scan_V.csv", "scan_V.json"]
    assert all((fresh / n).stat().st_size < sizes[n] for n in
               ("scan_H.csv", "scan_V.json", "sweep.csv"))
    for name in names:
        assert (used / name).read_bytes() == (fresh / name).read_bytes(), name
    # the first sweep's results 3 to 6 stay; the manifest lists only the
    # files of the last run
    assert json.loads((used / "manifest.json").read_text())["outputs"] == [
        "result_000.json", "result_001.json", "result_002.json", "sweep.csv"]
    assert (used / "result_006.json").exists()


# ---------------------------------------------------------------------------
# malformed JSON input


def _reconstruct_argv(out, scan_h=DATA / "scan_H.json",
                      scan_v=DATA / "scan_V.json",
                      calibration=DATA / "calibration.json",
                      reference=DATA / "reference.json"):
    return ("reconstruct", "--scan-h", scan_h, "--scan-v", scan_v,
            "--calibration", calibration, "--reference", reference,
            "--out", out)


def _stored_result():
    scans = [load_scan(DATA / f"scan_{s}.json") for s in "HV"]
    cal = calibration_from_json(DATA / "calibration.json")
    return extract_parameters(*scans, cal.t_h, cal.t_v).to_json_dict()


# every JSON input of the CLI: its document and the command that reads it
JSON_INPUTS = {
    "scan_H.json": lambda bad, out: _reconstruct_argv(out, scan_h=bad),
    "scan_V.json": lambda bad, out: _reconstruct_argv(out, scan_v=bad),
    "calibration.json": lambda bad, out: _reconstruct_argv(out, calibration=bad),
    "reference.json": lambda bad, out: _reconstruct_argv(out, reference=bad),
    "config.json": lambda bad, out: ("simulate", "--setting", "H", "--seed", 1,
                                     "--config", bad, "--out", out),
    "result.json": lambda bad, out: ("report", "--result", bad,
                                     "--reference", DATA / "reference.json"),
}
JSON_DOCS = {name: json.loads((DATA / name).read_text())
             for name in JSON_INPUTS if name != "result.json"}
JSON_DOCS["result.json"] = _stored_result()


def _replaced(doc, path, value):
    """Copy of a JSON document with the entry at ``path`` set to ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


@pytest.mark.parametrize("name, path, value, field", [
    pytest.param("scan_H.json", ("plan", "phases"), None, "phases",
                 id="phases_null"),
    pytest.param("scan_H.json", ("plan", "phases"), 3, "phases",
                 id="phases_number"),
    pytest.param("scan_H.json", ("plan", "phases", 2), [1], "phases[2]",
                 id="phase_list"),
    pytest.param("scan_H.json", ("counts_primary",), None, "counts_primary",
                 id="counts_null"),
    pytest.param("scan_H.json", ("plan", "counts_per_point"), None,
                 "counts_per_point", id="counts_per_point_null"),
    pytest.param("scan_H.json", ("plan", "seed"), [1], "seed", id="seed_list"),
    pytest.param("scan_H.json", ("plan",), None, "plan", id="plan_null"),
    pytest.param("scan_H.json", (), [1], "the document", id="scan_top_list"),
    pytest.param("scan_H.json", ("truth",), [1], "truth", id="truth_list"),
    pytest.param("scan_H.json", ("plan", "phases"), "012345", "phases",
                 id="phases_string"),
    pytest.param("scan_H.json", ("plan", "counts_per_point"), 10.7,
                 "counts_per_point", id="counts_per_point_fraction"),
    pytest.param("scan_H.json", ("plan", "seed"), True, "seed",
                 id="seed_bool"),
    pytest.param("scan_H.json", ("plan", "phases", 0), "x", "phases[0]",
                 id="phase_string"),
    pytest.param("calibration.json", ("t_h",), None, "t_h", id="t_h_null"),
    pytest.param("calibration.json", (), [1], "the document",
                 id="calibration_top_list"),
    pytest.param("reference.json", ("p_h",), None, "p_h", id="p_h_null"),
    pytest.param("config.json", ("idler",), None, "idler", id="idler_null"),
    pytest.param("config.json", ("q2",), [1], "q2", id="q2_list"),
    pytest.param("config.json", ("b1",), None, "b1", id="b1_null"),
    pytest.param("result.json", ("rho",), None, "rho", id="rho_null"),
    pytest.param("result.json", ("param_stderr", "xi"), "x", "xi",
                 id="stderr_string"),
])
def test_malformed_json_names_file_and_field(tmp_path, capsys, name, path,
                                             value, field):
    bad = tmp_path / name
    bad.write_text(json.dumps(_replaced(JSON_DOCS[name], path, value)))
    assert run(*JSON_INPUTS[name](bad, tmp_path / "out")) == 3
    assert f"{bad}: {field} must be " in capsys.readouterr().err


def _paths(doc, prefix=()):
    """Every location in a JSON document, the document itself included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
        for key in keys:
            yield from _paths(doc[key], prefix + (key,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=8)


@pytest.mark.parametrize("name", sorted(JSON_INPUTS))
@given(data=st.data())
def test_loaders_exit_0_or_3_on_any_field_value(name, data):
    doc = JSON_DOCS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(_json_values, label="value")
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / name
        bad.write_text(json.dumps(_replaced(doc, path, value)))
        assert run(*JSON_INPUTS[name](bad, Path(tmp) / "out")) in (0, 3)


@pytest.mark.parametrize("name, path, message", [
    pytest.param("config.json", ("b1",), "b1 and b2_mag must be >= 0, got nan",
                 id="b1"),
    pytest.param("config.json", ("phi",), "phi must be finite", id="phi"),
    pytest.param("config.json", ("t_h", "re"), "|t_h| and |t_v| must be <= 1",
                 id="t_h"),
    pytest.param("config.json", ("q2", "theta"), "theta must be finite",
                 id="theta"),
    pytest.param("reference.json", ("xi",), "xi must be finite", id="xi"),
    pytest.param("scan_H.json", ("truth", "idler", "xi"), "xi must be finite",
                 id="truth_xi"),
])
def test_nan_in_json_input_exits_3(tmp_path, capsys, name, path, message):
    # Python's json module reads NaN, which every range test must refuse
    bad = tmp_path / name
    bad.write_text(json.dumps(_replaced(JSON_DOCS[name], path, math.nan)))
    assert run(*JSON_INPUTS[name](bad, tmp_path / "out")) == 3
    assert f"{bad}: {message}" in capsys.readouterr().err
