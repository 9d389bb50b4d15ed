"""Command-line surface: simulate, calibrate, reconstruct, sweep, verify, report.

Reproducibility policy: noisy commands demand an explicit --seed; with
identical inputs and seed every command writes byte-identical primary
output files (the run manifest carries a timestamp and is metadata, not
a primary output).  Angles are taken in degrees on the command line and
stored in radians; phases are radians throughout.

Exit codes: 0 success, 2 usage error, 3 data/validation error,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import _kernels as _k
from ._fields import dump, load
from .acquisition import (ScanPlan, calibration_configs, calibration_from_json,
                          calibration_to_json, load_scan, run_calibration,
                          run_scan, scan_to_csv, scan_to_json)
from .interferometer import (InterferometerConfig, SignalSetting,
                             _total_state_raw, coherence_stressed_state,
                             fringe, random_valid_config, rates_closed_form,
                             rates_exact)
from .reconstruct import (ConvergenceError, ReconstructionResult,
                          _sweep_point, extract_parameters, mle_reconstruct,
                          report_fidelity)
from .states import (IdlerStateParams, SourceQ2Params, WaveplateSetting,
                     prepared_idler_params)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4

DEG = math.pi / 180.0

# the most angles one --angles range may ask for
MAX_ANGLES = 10_000


def _write_manifest(outdir: Path, command: str, args: argparse.Namespace) -> None:
    from hashlib import sha256  # imported here, so that importing the CLI skips them
    import platform
    inputs = [{"path": str(p), "sha256": sha256(Path(p).read_bytes()).hexdigest()}
              for p in map(vars(args).get, ("config", "scan_h", "scan_v", "calibration",
                                            "reference", "result")) if p is not None]
    manifest = {
        "command": command,
        "argv": args.argv,
        "seed": getattr(args, "seed", None),
        "output_dir": str(outdir),
        "version": __version__,
        "backend": _k.active_backend(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "inputs": inputs,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    dump(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="interferometer config JSON (flags below override it)")
    p.add_argument("--b1", type=float, default=None,
                   help="source-1 amplitude; source-2 magnitude follows from "
                        "normalization (default: balanced, 1/sqrt(3))")
    p.add_argument("--t-h", type=float, default=None, dest="t_h",
                   help="alignment transmission magnitude for H")
    p.add_argument("--t-v", type=float, default=None, dest="t_v",
                   help="alignment transmission magnitude for V")
    p.add_argument("--t-h-phase", type=float, default=None, dest="t_h_phase",
                   help="phase of the H transmission, rad")
    p.add_argument("--t-v-phase", type=float, default=None, dest="t_v_phase",
                   help="phase of the V transmission, rad")
    p.add_argument("--p-h", type=float, default=None, dest="p_h",
                   help="idler H population")
    p.add_argument("--xi", type=float, default=None, help="idler phase, rad")
    p.add_argument("--purity", type=float, default=None,
                   help="idler coherence magnitude (1 pure, 0 mixed)")
    p.add_argument("--p-h2", type=float, default=None, dest="p_h2",
                   help="reference-source H weight")
    p.add_argument("--theta", type=float, default=None,
                   help="reference-source phase, rad")


def _build_config(args, setting: SignalSetting = SignalSetting.H) -> InterferometerConfig:
    if args.config is not None:
        cfg = load(args.config, InterferometerConfig.from_json_dict)
    else:
        cfg = InterferometerConfig.balanced(IdlerStateParams.horizontal())
    idler = cfg.idler
    if args.p_h is not None or args.xi is not None or args.purity is not None:
        idler = IdlerStateParams(
            idler.p_h if args.p_h is None else args.p_h,
            idler.xi if args.xi is None else args.xi,
            idler.purity if args.purity is None else args.purity)
    q2 = cfg.q2
    if args.p_h2 is not None or args.theta is not None:
        q2 = SourceQ2Params(
            q2.p_h2 if args.p_h2 is None else args.p_h2,
            q2.theta if args.theta is None else args.theta)
    b1 = cfg.b1 if args.b1 is None else args.b1
    b2_mag = cfg.b2_mag if args.b1 is None else math.sqrt(max(0.0, 1.0 - args.b1 ** 2))
    t_h = cfg.t_h if args.t_h is None else complex(args.t_h)
    t_v = cfg.t_v if args.t_v is None else complex(args.t_v)
    if args.t_h_phase is not None:
        t_h = abs(t_h) * complex(math.cos(args.t_h_phase), math.sin(args.t_h_phase))
    if args.t_v_phase is not None:
        t_v = abs(t_v) * complex(math.cos(args.t_v_phase), math.sin(args.t_v_phase))
    return InterferometerConfig(
        b1=b1, b2_mag=b2_mag, phi=cfg.phi,
        t_h=t_h, t_v=t_v, idler=idler, q2=q2, signal_setting=setting)


def _require_phase_reference(cfg: InterferometerConfig, what: str) -> None:
    """The inversion reads xi against arg t_v - arg t_h - theta, taken as 0."""
    offset = cmath.phase(cfg.t_v) - cmath.phase(cfg.t_h) - cfg.q2.theta
    if abs(math.remainder(offset, 2.0 * math.pi)) > 1e-9:
        raise ValueError(f"{what} offsets the phase reference of xi: arg t_v - "
                         f"arg t_h - theta = {offset!r} rad, not 0 (mod 2 pi)")


def _require_seed(args) -> int | None:
    """Noisy runs must be seeded explicitly; returns exit code on failure."""
    if not getattr(args, "noiseless", False) and args.seed is None:
        print("error: an explicit --seed is required for noisy runs "
              "(reproducibility policy); pass --noiseless for deterministic "
              "rounded counts", file=sys.stderr)
        return EXIT_USAGE
    return None


def _plan(args, setting: SignalSetting) -> ScanPlan:
    seed = args.seed if args.seed is not None else 0
    if args.phases is not None:
        phases = tuple(_numbers(args.phases.split(","), "--phases"))
        return ScanPlan(phases, args.n, setting, seed, args.noiseless)
    return ScanPlan.default_grid(setting, seed, points=args.points,
                                 counts_per_point=args.n,
                                 noiseless=args.noiseless)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    # simulate always demands a seed, noiseless included: the plan embeds
    # it, and downstream files must not depend on an implicit default
    if args.seed is None:
        print("error: simulate requires an explicit --seed "
              "(reproducibility policy)", file=sys.stderr)
        return EXIT_USAGE
    setting = SignalSetting(args.setting)
    cfg = _build_config(args, setting)
    plan = _plan(args, setting)
    record = run_scan(cfg, plan)
    outdir = _outdir(args)
    stem = f"scan_{setting.value}"
    written = []
    if args.format in ("csv", "both"):
        written.append(f"{stem}.csv")
        scan_to_csv(record, outdir / written[-1])
    if args.format in ("json", "both"):
        written.append(f"{stem}.json")
        scan_to_json(record, outdir / written[-1])
    _write_manifest(outdir, "simulate", args)
    print(f"wrote {' and '.join(written)} to {outdir}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    fail = _require_seed(args)
    if fail is not None:
        return fail
    cfg = _build_config(args)
    plan = _plan(args, SignalSetting.H)
    result = run_calibration(cfg, plan)
    outdir = _outdir(args)
    calibration_to_json(result, outdir / "calibration.json")
    _write_manifest(outdir, "calibrate", args)
    print(f"t_h = {result.t_h:.6f} +- {result.t_h_stderr:.6f}")
    print(f"t_v = {result.t_v:.6f} +- {result.t_v_stderr:.6f}")
    return EXIT_OK


def _render_report(result: ReconstructionResult) -> str:
    p = result.params
    lines = [
        "reconstructed polarization state",
        f"  method            {result.method.value}",
        f"  p_h               {p.p_h:.6f}",
        f"  xi  [rad]         {p.xi:.6f}",
        f"  purity            {p.purity:.6f}",
        f"  residual cost     {result.cost:.6g}",
    ]
    if result.param_stderr:
        se = result.param_stderr
        lines.append(f"  stderr            p_h {se['p_h']:.2e}   "
                     f"xi {se['xi']:.2e}   purity {se['purity']:.2e}")
    if result.flags:
        lines.append(f"  flags             {', '.join(result.flags)}")
    if result.fidelity_vs_reference is not None:
        lines.append(f"  fidelity vs ref   {result.fidelity_vs_reference:.6f}")
    lines.append("  density matrix (re, im):")
    rho = result.rho
    for i in range(2):
        re_row = "  ".join(f"{rho.at(i, j).real:+.6f}" for j in range(2))
        im_row = "  ".join(f"{rho.at(i, j).imag:+.6f}" for j in range(2))
        lines.append(f"    [{re_row}]   [{im_row}]")
    return "\n".join(lines) + "\n"


def cmd_reconstruct(args) -> int:
    scan_h = load_scan(args.scan_h)
    scan_v = load_scan(args.scan_v)
    for scan, path in ((scan_h, args.scan_h), (scan_v, args.scan_v)):
        if scan.truth is not None:
            _require_phase_reference(scan.truth, f"{path}: the embedded truth")
    if (scan_h.truth is not None and scan_v.truth is not None
            and scan_v.truth.with_setting(SignalSetting.H) != scan_h.truth):
        raise ValueError(f"{args.scan_h} and {args.scan_v} embed truths that "
                         "differ in more than the signal setting")
    cal = calibration_from_json(args.calibration)
    solve = mle_reconstruct if args.method == "mle" else extract_parameters
    result = solve(scan_h, scan_v, cal.t_h, cal.t_v)
    reference = None
    if args.reference is not None:
        reference = load(args.reference, IdlerStateParams.from_json_dict)
    elif scan_h.truth is not None:
        reference = scan_h.truth.idler
    if reference is not None:
        report_fidelity(result, reference)
    outdir = _outdir(args)
    dump(outdir / "result.json", result.to_json_dict())
    report = _render_report(result)
    (outdir / "report.txt").write_text(report, encoding="utf-8")
    _write_manifest(outdir, "reconstruct", args)
    print(report, end="")
    return EXIT_OK


def cmd_sweep(args) -> int:
    fail = _require_seed(args)
    if fail is not None:
        return fail
    cfg = _build_config(args)
    _require_phase_reference(cfg, "the sweep configuration" if args.config is None
                             else f"{args.config}: the sweep configuration")
    angles = _parse_angles(args.angles)
    plate = (WaveplateSetting.hwp if args.plate == "hwp" else WaveplateSetting.qwp)
    if args.calibration is not None:
        cal = calibration_from_json(args.calibration)
        t_h, t_v = cal.t_h, cal.t_v
    else:
        # synthetic shortcut: the ceilings a noiseless calibration measures
        t_h, t_v = (fringe(c).visibility for c in calibration_configs(cfg))
    plan = _plan(args, SignalSetting.H)
    outdir = _outdir(args)
    rows = []
    for idx, angle_deg in enumerate(angles):
        prepared = prepared_idler_params([plate(angle_deg * DEG)])
        cfg_a = replace(cfg, idler=prepared)
        plan_h = replace(plan, seed=plan.seed + idx)
        plan_v = replace(plan_h, setting=SignalSetting.V)
        scan_h = run_scan(cfg_a, plan_h)
        scan_v = run_scan(cfg_a, plan_v)
        result, vis_h, vis_v = _sweep_point(scan_h, scan_v, t_h, t_v,
                                            args.method == "mle")
        report_fidelity(result, prepared)
        theory_h = fringe(scan_h.truth).visibility
        theory_v = fringe(scan_v.truth).visibility
        rows.append((angle_deg, vis_h, vis_v, result.params.p_h,
                     result.params.xi, result.params.purity,
                     result.fidelity_vs_reference, theory_h, theory_v))
        dump(outdir / f"result_{idx:03d}.json", result.to_json_dict())
    lines = ["angle_deg,vis_h,vis_v,p_h,xi,purity,fidelity,"
             "vis_h_theory,vis_v_theory"]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    (outdir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(outdir, "sweep", args)
    print(f"wrote sweep.csv ({len(rows)} angles) to {outdir}")
    return EXIT_OK


def _numbers(texts: list[str], flag: str) -> list[float]:
    """Floats, or a ValueError that names the flag."""
    out = []
    for text in texts:
        try:
            out.append(float(text))
        except ValueError:
            raise ValueError(f"{flag}: expected a number, got {text!r}") from None
    return out


def _parse_angles(spec: str) -> list[float]:
    """Either 'start:stop:step' (inclusive endpoints) or a comma list, degrees."""
    texts = spec.split(":" if ":" in spec else ",")
    if ":" in spec and len(texts) != 3:
        raise ValueError(f"--angles: expected start:stop:step, got {spec!r}")
    angles = _numbers(texts, "--angles")
    for text, x in zip(texts, angles):
        if not math.isfinite(x):
            raise ValueError(f"--angles: {text!r} is not a finite number")
    if ":" not in spec:
        return angles
    start, stop, step = angles
    if step <= 0:
        raise ValueError("--angles: step must be positive")
    # k runs while start + k * step <= stop + 1e-9, i.e. up to about span
    span = (stop + 1e-9 - start) / step
    if span < 0.0:
        raise ValueError(f"--angles: {spec!r} is empty: stop lies below start")
    if span >= MAX_ANGLES:
        raise ValueError(f"--angles: {spec!r} gives more than {MAX_ANGLES} "
                         "angles")
    out = []
    for k in range(int(span) + 2):
        a = start + k * step
        if a > stop + 1e-9:
            break
        out.append(a)
    return out


def run_verification(trials: int, seed: int) -> dict:
    """Oracle-equivalence and positivity property suites, deterministic."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = _k.Rng(seed, 0)
    checks = []

    worst = 0.0
    for _ in range(trials):
        cfg = random_valid_config(rng)
        exact = rates_exact(cfg)
        closed = rates_closed_form(cfg)
        worst = max(worst, abs(exact.rate_h - closed.rate_h),
                    abs(exact.rate_v - closed.rate_v))
    checks.append({
        "name": "oracle equivalence (closed form vs matrix pipeline)",
        "passed": worst <= 1e-10,
        "detail": f"max |closed - exact| = {worst:.3e} over {trials} configs",
    })

    worst_tr = 0.0
    worst_eig = 0.0
    spot = max(1, trials // 10)
    for _ in range(spot):
        for purity in (0.0, 0.5, 1.0):
            # raw: a DensityMatrix would refuse a bad trace unreported
            raw = _total_state_raw(random_valid_config(rng, purity=purity))
            tr = _k.plain_sum((raw[i * 9] for i in range(8)), 0j)
            worst_tr = max(worst_tr, abs(tr.real - 1.0), abs(tr.imag))
            worst_eig = min(worst_eig, _k.eigh(raw, 8)[0])
    checks.append({
        "name": "trace of the joint state",
        "passed": worst_tr <= 1e-12,
        "detail": f"max |tr - 1| = {worst_tr:.3e} over {3 * spot} configs",
    })
    checks.append({
        "name": "positivity at coherence 0 / 0.5 / 1",
        "passed": worst_eig >= -1e-10,
        "detail": f"min eigenvalue = {worst_eig:.3e}",
    })

    # A balanced source pair with an unbiased idler: its violation at
    # coherence 1.2 stays near -0.06 for every xi and phi, whereas a random
    # configuration's shrinks toward zero when w1 or p_h*p_v is small.
    cfg = InterferometerConfig.balanced(
        IdlerStateParams(0.5, 2.0 * math.pi * rng.random(), 0.5),
        phi=2.0 * math.pi * rng.random())
    stressed = coherence_stressed_state(cfg, 1.2)
    lo = stressed.min_eigenvalue()
    checks.append({
        "name": "positivity violation detected at coherence 1.2",
        "passed": lo <= -1e-4,
        "detail": f"min eigenvalue = {lo:.3e} (expected clearly negative)",
    })

    return {"seed": seed, "trials": trials,
            "all_passed": all(c["passed"] for c in checks), "checks": checks}


def cmd_verify(args) -> int:
    report = run_verification(args.trials, args.seed)
    for c in report["checks"]:
        print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}")
    if args.out:
        outdir = _outdir(args)
        dump(outdir / "verify.json", report)
        _write_manifest(outdir, "verify", args)
    if not report["all_passed"]:
        print("verification FAILED", file=sys.stderr)
        return EXIT_DATA
    print(f"all {len(report['checks'])} checks passed")
    return EXIT_OK


def cmd_report(args) -> int:
    result = load(args.result, ReconstructionResult.from_json_dict)
    if args.reference is not None:
        reference = load(args.reference, IdlerStateParams.from_json_dict)
        report_fidelity(result, reference)
    text = _render_report(result)
    if args.out:
        outdir = _outdir(args)
        (outdir / "report.txt").write_text(text, encoding="utf-8")
        _write_manifest(outdir, "report", args)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pitomo",
        description="simulate and invert two-source interference scans that "
                    "read out an undetected photon's polarization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def scan_flags(p):
        p.add_argument("--points", type=int, default=20,
                       help="phase points per scan (default 20 over one period)")
        p.add_argument("--n", type=int, default=1000,
                       help="expected counts per point at unit rate (default 1000)")
        p.add_argument("--seed", type=int, default=None, help="64-bit RNG seed")
        p.add_argument("--noiseless", action="store_true",
                       help="deterministic rounded counts instead of Poisson draws")
        p.add_argument("--phases", type=str, default=None,
                       help="explicit comma-separated phase grid in radians")

    p = sub.add_parser("simulate", help="synthesize one phase scan")
    _add_config_flags(p)
    scan_flags(p)
    p.add_argument("--setting", choices=["H", "V"], required=True,
                   help="signal polarization setting")
    p.add_argument("--format", choices=["csv", "json", "both"], default="both")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("calibrate",
                       help="estimate the transmission maxima from fringe scans")
    _add_config_flags(p)
    scan_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("reconstruct", help="invert a pair of scans into a state")
    p.add_argument("--scan-h", required=True, dest="scan_h",
                   help="H-setting scan file (.csv or .json)")
    p.add_argument("--scan-v", required=True, dest="scan_v",
                   help="V-setting scan file (.csv or .json)")
    p.add_argument("--calibration", required=True,
                   help="calibration JSON from the calibrate command")
    p.add_argument("--method", choices=["fringe", "mle"], default="mle",
                   help="mle (the default) fixes the H fringe phase at 0, so a "
                        "transmission phase common to H and V biases it; "
                        "fringe inverts that phase exactly")
    p.add_argument("--reference", default=None,
                   help="state-parameter JSON to report fidelity against "
                        "(defaults to the truth embedded in JSON scans)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("sweep",
                       help="rotate a preparation waveplate and reconstruct "
                            "each prepared state")
    _add_config_flags(p)
    scan_flags(p)
    p.add_argument("--plate", choices=["hwp", "qwp"], required=True)
    p.add_argument("--angles", required=True,
                   help="degrees, 'start:stop:step' or comma list")
    p.add_argument("--method", choices=["fringe", "mle"], default="fringe")
    p.add_argument("--calibration", default=None,
                   help="calibration JSON; defaults to the configuration's "
                        "true visibility ceilings (synthetic shortcut)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify",
                       help="run the oracle-equivalence and positivity suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="render a stored reconstruction result")
    p.add_argument("--result", required=True)
    p.add_argument("--reference", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    # FitError and JSON decode errors are ValueErrors
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
