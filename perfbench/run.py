"""pitomo benchmark: one seeded workload, end to end or traced per layer.

Usage, from the root of a pitomo checkout:

    python3 perfbench/run.py --workload mc_lsq --seed 1 --seconds 40 --trace 0

Workloads: mc_lsq, dim_fringe_csv, verify_oracle (see perfbench/README.md).
Ops run one after another in a closed loop, in this single process, for
``--seconds``.  Every op's output is checked, and the run goes on past
any op.  An op that pitomo declines (a refusal exception or a failed
verification report) lowers ok_frac; an op whose output is wrong, or that
raises anything else, counts in the result line's ``failed``.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` measures half the time untraced and half traced, and reports
the per-layer metrics of the traced half plus the tracing overhead.

Timings are scaled to a nominal host speed (see ``reference_time``).
Human-readable lines come first: the environment, then every metric by
name with its unit, scaled and raw.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Without a pitomo source tree under ``src/`` the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WARMUP_OPS = 5
# Timing metrics are the median over this many consecutive, equal parts of
# the run, so that one burst of load on the host moves at most one part.
SEGMENTS = 3
SETUP_REPEATS = 7
KEEP_SPANS_OF_OPS = 2

# The speed of a shared host changes by up to 1.7x from one second to the
# next as other tenants load it, and CPU time inflates with it.  A fixed
# pure-Python loop, timed every CALIBRATE_EVERY_S, measures the current
# speed; each op's wall and CPU time is multiplied by
# REFERENCE_NOMINAL_S / (latest loop time).  On a 2-vCPU x86-64 VM this
# cut the spread of the timings over seeds from 10-25% to 2-9%.  The
# nominal value is about the loop's time there on an idle core, under
# CPython 3.11.
REFERENCE_NOMINAL_S = 0.5e-3
CALIBRATE_EVERY_S = 0.25

# Per-layer metrics, computed from the traced half of a --trace 1 run.
CALL_COUNTS = (
    "reconstruct.mle_cost", "reconstruct.fit_sinusoid",
    "kernels.sinusoid_sq_residual", "kernels.eigh", "kernels.mat_mul",
    "interferometer.rates_closed_form", "interferometer.rates_exact",
)
SELF_TIMES = (
    "reconstruct.mle_reconstruct", "reconstruct.mle_cost",
    "reconstruct.extract_parameters", "reconstruct.fit_sinusoid",
    "reconstruct.report_fidelity",
    "kernels.sinusoid_sq_residual", "kernels.poisson", "kernels.eigh",
    "kernels.mat_mul",
    "interferometer.rates_closed_form", "interferometer.rates_exact",
    "interferometer.total_state", "interferometer.random_valid_config",
    "acquisition.run_scan", "acquisition.scan_to_csv",
    "acquisition.load_scan", "acquisition.scan_from_csv",
    "qcore.eigh_hermitian", "cli.run_verification",
)
LAYER_SHARES = ("reconstruct", "acquisition", "interferometer", "kernels",
                "qcore", "states", "cli")
FUNCTION_SHARES = ("interferometer.rates_exact",)


def _reference_loop() -> float:
    s = 0.0
    for k in range(5000):
        s += (k * 0.5) % 7.0
    return s


def reference_time() -> float:
    """Best of three timings of the reference loop, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


class PhaseStats:
    """Timings and outcomes of the ops of one measured phase."""

    def __init__(self):
        self.op_s: list[float] = []       # raw wall time per op
        self.op_cpu_s: list[float] = []   # raw process CPU time per op
        self.op_scale: list[float] = []   # nominal / current host speed
        self.reference_s: list[float] = []
        self.errors: list[float] = []
        self.refused = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}

    @property
    def ops(self) -> int:
        return len(self.op_s)

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def scaled(self, values: list[float]) -> list[float]:
        return [v * f for v, f in zip(values, self.op_scale)]

    def fail(self, reason: str, wrong: bool) -> None:
        if wrong:
            self.wrong += 1
        else:
            self.refused += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def measure(wl, refusals, first: int, seconds: float, tracer=None,
            max_ops: int | None = None) -> PhaseStats:
    """Run ops from input index ``first`` for ``seconds`` (at least one op,
    at most ``max_ops``), checking each op's output."""
    stats = PhaseStats()
    inputs = wl.inputs
    perf_counter, process_time = time.perf_counter, time.process_time
    gc.collect()
    deadline = perf_counter() + seconds
    next_calibration = 0.0
    i = first
    while True:
        if perf_counter() >= next_calibration:
            stats.reference_s.append(reference_time())
            scale = REFERENCE_NOMINAL_S / stats.reference_s[-1]
            next_calibration = perf_counter() + CALIBRATE_EVERY_S
        x = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.begin_op(stats.ops)
        c0 = process_time()
        t0 = perf_counter()
        try:
            out = wl.run(x)
        except refusals as exc:
            out, failure = None, (type(exc).__name__, False)
        except Exception as exc:  # any other exception is a program defect
            out, failure = None, (type(exc).__name__, True)
        else:
            failure = None
        t1 = perf_counter()
        c1 = process_time()
        if tracer is not None:
            tracer.end_op()
        stats.op_s.append(t1 - t0)
        stats.op_cpu_s.append(c1 - c0)
        stats.op_scale.append(scale)
        if failure is None:
            try:
                stats.errors.append(wl.check(x, out))
            except workloads.ReportedFailure as exc:
                failure = (str(exc), False)
            except workloads.CheckFailed as exc:
                failure = (f"check: {exc}", True)
        if failure is not None:
            stats.fail(*failure)
        i += 1
        if t1 >= deadline or stats.ops == max_ops:
            return stats


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def timing_metrics(op_s: list[float], cpu_s: list[float]) -> dict:
    times = sorted(op_s)
    return {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(times), "ms"),
        "cpu_ms_per_op": (1e3 * sum(cpu_s) / len(cpu_s), "ms"),
    }


def segmented_timing_metrics(op_s: list[float], cpu_s: list[float]) -> dict:
    """Median of :func:`timing_metrics` over SEGMENTS parts of the run."""
    bounds = [round(k * len(op_s) / SEGMENTS) for k in range(SEGMENTS + 1)]
    parts = [timing_metrics(op_s[a:b], cpu_s[a:b])
             for a, b in zip(bounds, bounds[1:]) if b > a]
    return {name: (statistics.median(p[name][0] for p in parts), unit)
            for name, (_, unit) in parts[0].items()}


def end_to_end_metrics(stats: PhaseStats, setup_s: float) -> dict:
    cpu_s = stats.scaled(stats.op_cpu_s)
    return {
        "setup_s": (setup_s, "s"),
        **segmented_timing_metrics(stats.scaled(stats.op_s), cpu_s),
        # The tail is taken of CPU time over the whole run: on a shared host
        # the tail of wall time is set by how often other tenants preempt
        # the process (see perfbench/README.md, "Timings").
        "op_cpu_ms_p99": (1e3 * percentile(sorted(cpu_s), 99.0), "ms"),
        "ok_frac": (1.0 - stats.failed / stats.ops, "frac"),
        "mean_error": (statistics.fmean(stats.errors) if stats.errors
                       else math.nan, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, traced: PhaseStats, untraced: PhaseStats,
                      bytes_written: int) -> dict:
    ops = traced.ops
    op_time = sum(traced.op_s)
    scale = sum(traced.scaled(traced.op_s)) / op_time
    out = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (tracer.calls[name] / ops, "1/op")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (scale * tracer.self_s[name] / ops, "s/op")
    for layer in LAYER_SHARES:
        out[f"{layer}.share"] = (tracer.layer_s[layer] / op_time, "frac")
    for name in FUNCTION_SHARES:
        out[f"{name}.share"] = (tracer.incl_s[name] / op_time, "frac")
    p = tracer.poisson
    out["kernels.poisson_draws"] = (p.draws / ops, "1/op")
    out["kernels.uniforms_per_draw"] = (
        p.uniforms_in_draws / p.draws if p.draws else 0.0, "1/draw")
    out["kernels.poisson_accept_frac"] = (
        p.rejection_draws / p.rejection_attempts
        if p.rejection_attempts else 0.0, "frac")
    out["acquisition.bytes_written"] = (bytes_written / ops, "B/op")
    traced_rate = ops / sum(traced.scaled(traced.op_s))
    untraced_rate = untraced.ops / sum(untraced.scaled(untraced.op_s))
    out["trace_overhead_frac"] = (1.0 - traced_rate / untraced_rate, "frac")
    return out


# -- environment --------------------------------------------------------


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_line_count(src: Path) -> int:
    """Lines of source under src/, leaving out the generated _fast.c."""
    return sum(len(p.read_text().splitlines())
               for p in sorted(src.rglob("*"))
               if p.suffix in (".py", ".pyx", ".pxd")
               and "__pycache__" not in p.parts)


def environment(workload: str, seed: int) -> dict:
    from pitomo import _kernels
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "backend": _kernels.active_backend(),
        "workload": workload,
        "workload_seed": seed,
        "src_lines": src_line_count(SRC),
    }


# -- set-up -------------------------------------------------------------

_SETUP_PROBE = """\
import sys, time
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import workloads
t0 = time.perf_counter()
workloads.setup({workload!r}, {seed!r}, Path({workdir!r}))
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Scaled times of pitomo's import plus input generation, each in a
    fresh interpreter (interpreter start-up is not included)."""
    code = _SETUP_PROBE.format(src=str(SRC), here=str(HERE),
                               workload=workload, seed=seed,
                               workdir=str(workdir))
    times = []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_NOMINAL_S / reference_time()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(scale * float(done.stdout.strip().splitlines()[-1]))
    return times


# -- main ---------------------------------------------------------------


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pitomo" / "__init__.py").is_file():
        print(f"error: no pitomo source tree at {SRC}; run from the root of "
              "a pitomo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        wl = workloads.setup(args.workload, args.seed, workdir)
        import pitomo
        if not Path(pitomo.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported pitomo from {pitomo.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        env = environment(args.workload, args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        setup_times = measure_setup(args.workload, args.seed, workdir)
        refusals = tuple(getattr(wl.m.reconstruct, name)
                         for name in workloads.REFUSALS
                         if hasattr(wl.m.reconstruct, name))

        # untimed warm-up: lets lazy set-up finish before timing
        phases = [measure(wl, refusals, 0, math.inf, max_ops=WARMUP_OPS)]
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, refusals, WARMUP_OPS, seconds)
        phases.append(untraced)
        e2e = end_to_end_metrics(untraced, statistics.median(setup_times))
        print_metrics(f"end to end, {untraced.ops} ops, tracing off, "
                      "scaled to nominal host speed", e2e)
        print_metrics("raw timings, not scaled",
                      segmented_timing_metrics(untraced.op_s,
                                               untraced.op_cpu_s))

        if args.trace:
            tracer = tracing.Tracer(keep_spans_of_ops=KEEP_SPANS_OF_OPS)
            tracer.install()
            bytes_before = getattr(wl, "bytes_written", 0)
            try:
                traced = measure(wl, refusals, WARMUP_OPS + untraced.ops,
                                 seconds, tracer)
            finally:
                tracer.restore()
            phases.append(traced)
            metrics = per_layer_metrics(
                tracer, traced, untraced,
                getattr(wl, "bytes_written", 0) - bytes_before)
            print_metrics(f"per layer, {traced.ops} traced ops", metrics)
            spans_path = HERE / "out" / (f"spans_{args.workload}"
                                         f"_seed{args.seed}.json")
            spans_path.parent.mkdir(exist_ok=True)
            spans_path.write_text(json.dumps(tracer.spans) + "\n")
        else:
            metrics = e2e

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    reasons: dict[str, int] = {}
    for p in phases:
        for k, v in p.reasons.items():
            reasons[k] = reasons.get(k, 0) + v
    print("# report " + json.dumps({
        "env": env,
        "setup_s_samples": setup_times,
        "reference_ms_median": 1e3 * statistics.median(untraced.reference_s),
        "fail_frac": failed / attempted,
        "failures": reasons,
        "op_ms_p99_wall": 1e3 * percentile(
            sorted(untraced.scaled(untraced.op_s)), 99.0),
        "p99_samples_beyond": untraced.ops - math.ceil(0.99 * untraced.ops),
    }, sort_keys=True))
    # The result line's "failed" counts the ops whose output was wrong.  An
    # op that pitomo declines is a measured outcome, not a failure of the
    # run: it lowers ok_frac, which is gated, and shows in fail_frac above.
    wrong = sum(p.wrong for p in phases)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
