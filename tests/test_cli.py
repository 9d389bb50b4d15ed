"""Command-line surface: determinism, formats, exit codes, bundled fixture."""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from pitomo import active_backend
from pitomo.cli import main, run_verification
from pitomo.acquisition import scan_from_csv
from pitomo.interferometer import (InterferometerConfig, SignalSetting,
                                   rates_closed_form)
from pitomo.reconstruct import ReconstructionResult
from pitomo.states import IdlerStateParams
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


@pytest.mark.parametrize("field, index, value", [
    ("phases", 3, float("nan")),
    ("counts_primary", 2, 1.5),
])
def test_reconstruct_rejects_bad_scan_field(tmp_path, capsys, field, index,
                                            value):
    scan = json.loads((DATA / "scan_H.json").read_text())
    (scan["plan"] if field == "phases" else scan)[field][index] = value
    bad = tmp_path / "scan_H.json"
    bad.write_text(json.dumps(scan))
    assert run("reconstruct", "--scan-h", bad,
               "--scan-v", DATA / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    assert f"{field}[{index}]" in capsys.readouterr().err


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


def test_reconstruct_rejects_unbalanced_truth(tmp_path, capsys):
    for setting in "HV":
        assert run("simulate", "--setting", setting, "--b1", 0.8, "--seed", 1,
                   "--noiseless", "--format", "json", "--out", tmp_path) == 0
    assert run("reconstruct", "--scan-h", tmp_path / "scan_H.json",
               "--scan-v", tmp_path / "scan_V.json",
               "--calibration", DATA / "calibration.json",
               "--out", tmp_path / "rec") == 3
    err = capsys.readouterr().err
    assert "scan_H.json: the embedded truth is not the balanced" in err
    assert not (tmp_path / "rec").exists()


# ---------------------------------------------------------------------------
# sweep


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


def test_sweep_rejects_unbalanced_arrangement(tmp_path, capsys):
    assert run("sweep", "--plate", "hwp", "--angles", "0:45:22.5",
               "--b1", 0.8, "--noiseless", "--seed", 1, "--out", tmp_path) == 3
    assert "not the balanced source arrangement" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_deterministic_with_noise(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("sweep", "--plate", "qwp", "--angles", "0:90:30",
                   "--seed", 17, "--n", 1000, "--method", "mle",
                   "--out", out) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


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


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_refuses_fewer_than_one_trial(capsys, trials):
    assert run("verify", "--trials", trials) == 3
    assert f"trials must be at least 1, got {trials}" in capsys.readouterr().err


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
