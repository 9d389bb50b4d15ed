"""Command-line surface: determinism, formats, exit codes, bundled fixture."""

import copy
import hashlib
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pitomo import active_backend
from pitomo.cli import main, run_verification
from pitomo.acquisition import (ScanPlan, calibration_from_json, load_scan,
                                run_scan, scan_from_csv, scan_to_csv)
from pitomo.interferometer import (InterferometerConfig, SignalSetting,
                                   rates_closed_form)
from pitomo.reconstruct import ReconstructionResult, extract_parameters
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


@pytest.mark.parametrize("seed, expected", [
    (5,
     "e8155e65e0d06e4443524bf0d61786d19ad497f417bf04c54cbb8bccc45a31ec"),
    (77,
     "e1bbb459dbe02b922a9d7ef543bc06424714d1c03b183a87e06bacfdac210550"),
    (20260810,
     "6e24669bb4ff6b895d864d671636f3a06cad3e7cf8b8668eb8ec24dbd3f87843"),
])
def test_verification_report_golden(seed, expected):
    report = json.dumps(run_verification(200, seed), sort_keys=True)
    assert hashlib.sha256(report.encode()).hexdigest() == expected


def test_verify_stdout_golden(capsys):
    assert run("verify", "--trials", 1000, "--seed", 1) == 0
    assert capsys.readouterr().out == (
        "PASS  oracle equivalence (closed form vs matrix pipeline): "
        "max |closed - exact| = 3.331e-16 over 1000 configs\n"
        "PASS  trace of the joint state: max |tr - 1| = 2.220e-16 "
        "over 300 configs\n"
        "PASS  positivity at coherence 0 / 0.5 / 1: "
        "min eigenvalue = -1.627e-16\n"
        "PASS  positivity violation detected at coherence 1.2: "
        "min eigenvalue = -5.777e-02 (expected clearly negative)\n"
        "all 4 checks passed\n")


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
    pytest.param("result.json", ("param_stderr", "xi"), None, "xi",
                 id="stderr_null"),
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
