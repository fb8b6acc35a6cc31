"""bracketlab benchmark: timed and traced runs of three workloads.

Run from the root of a checkout (no install step; the package is
imported from ./src):

    python3 bench/run.py --workload pipeline-15k --seed 0 --seconds 20 --trace 0

--trace 0 times passes with tracing off and reports the end-to-end
metrics; --trace 1 alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A sidecar with provenance, pass times, digests and failures goes to
bench/_run/, and a traced run also saves its spans there. See README.md.
"""
from __future__ import annotations

import os

# one process, one BLAS thread: set before numpy loads, unless the caller chose
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_run"
PINS = BENCH / "digests.json"
PIN_SEED = 0  # the default seed; its pipeline-15k outputs are pinned byte for byte
IMPORT_REPEATS = 3
SETUP_REPEATS = 3
CAL_LOOP = 60_000  # iterations of the calibration loop
REF_CAL_S = 0.005  # the loop's time at reference speed (near its median on a 2-core host)

# (metric, unit): per-pass values from the traced passes, medians over those passes
PER_LAYER = [
    ("experiment.simulate_dataset.s", "s"),
    ("experiment.simulate_dataset.self_s", "s"),
    ("experiment.subject_stream.s", "s"),
    ("experiment.subject_stream.calls", "count"),
    ("experiment.simulate_subject.s", "s"),
    ("agents.reservation_wage_exact.s", "s"),
    ("agents.reservation_wage_exact.calls", "count"),
    ("agents.snap_to_list.s", "s"),
    ("design.price_list.calls", "count"),
    ("experiment.censored_share", "share"),
    ("experiment.inconsistent_share", "share"),
    ("experiment.write_csv.s", "s"),
    ("experiment.write_csv.bytes", "bytes"),
    ("experiment.read_csv.s", "s"),
    ("experiment.read_csv.calls", "count"),
    ("experiment.read_csv.rows_per_s", "rows/s"),
    ("experiment.iter_observations.s", "s"),
    ("estimation.summarize_means.s", "s"),
    ("estimation.mwu_test.s", "s"),
    ("estimation.mwu_test.calls", "count"),
    ("estimation.mwu_exact.s", "s"),
    ("estimation.mwu_exact.calls", "count"),
    ("estimation.nls_kappa.s", "s"),
    ("estimation.nls_kappa.iterations", "count"),
    ("estimation.kappa_profile_oracle.s", "s"),
    ("estimation.tobit_right.s", "s"),
    ("estimation.tobit_right.iterations", "count"),
    ("estimation.rows_dropped", "count"),
    ("cli.verify_rows.s", "s"),
    ("theory.maximizer_choices.s", "s"),
    ("theory.warp_scan.s", "s"),
    ("theory.additivity_residual.s", "s"),
    ("preferences.money_metric.calls", "count"),
    ("verify.rows_failed", "count"),
    ("reports.render.s", "s"),
    ("config.parse_config.s", "s"),
    ("cli.main.simulate.s", "s"),
    ("cli.main.estimate.s", "s"),
    ("cli.main.power.s", "s"),
    ("cli.main.verify.s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_share", "share"),
]

# ROADMAP baseline (2-core host, Python 3.11): figure -> (workload it is read from, value)
BASELINE = {
    "simulate_s_per_1500_subjects": ("recovery-mc", 0.37),
    "nls_kappa_ms_per_call": ("recovery-mc", 6.5),
    "price_list_calls_per_1500_subjects": ("recovery-mc", 9005),
    "read_csv_ms_per_3000_rows": ("pipeline-15k", 63.0),
    "verify_all_s": ("pipeline-15k", 0.18),
}


def _calibrate() -> float:
    """Seconds the fixed pure-Python calibration loop takes right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - start


def _no_span(name):
    return contextlib.nullcontext()


class RefClock:
    """Times work in reference seconds; also the workload's per-pass hooks.

    The CPU speed of a shared host drifts (up to 2x within minutes on a
    2-core machine), so wall time alone does not repeat from run to run. The workload calls tick() between operations; each
    stretch of work between two ticks is divided by the speed that the
    calibration loop measured on either side of it. Loop time counts in
    neither total. span(name) opens a traced block (a no-op untraced).
    """

    def __init__(self, span=_no_span) -> None:
        self.span = span
        self.wall = 0.0
        self.ref = 0.0
        self._last = _calibrate()
        self._start = time.perf_counter()

    def tick(self) -> None:
        elapsed = time.perf_counter() - self._start
        loop = _calibrate()
        self.wall += elapsed
        self.ref += elapsed * 2.0 * REF_CAL_S / (self._last + loop)
        self._last = loop
        self._start = time.perf_counter()


def _time_import() -> tuple[float, float]:
    """(wall, reference) seconds of a fresh interpreter importing the CLI module."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import bracketlab.cli"
    clock = RefClock()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    clock.tick()
    return clock.wall, clock.ref


def _layer_values(summary: dict, counters: dict) -> dict[str, float]:
    """One traced pass's span summary and counters as PER_LAYER values."""
    values = {}
    for name, _unit in PER_LAYER:
        stem, _, key = name.rpartition(".")
        if key in ("s", "self_s", "calls") and stem in summary:
            values[name] = summary[stem][key]
        else:
            values[name] = float(counters.get(name, 0.0))
    rows = counters.get("experiment.simulated_rows", 0.0)
    values["experiment.censored_share"] = counters.get("experiment.censored_rows", 0.0) / rows if rows else 0.0
    values["experiment.inconsistent_share"] = (
        counters.get("experiment.inconsistent_rows", 0.0) / rows if rows else 0.0
    )
    read_s = values["experiment.read_csv.s"]
    values["experiment.read_csv.rows_per_s"] = (
        counters.get("experiment.read_csv.rows", 0.0) / read_s if read_s else 0.0
    )
    return values


def _baseline_check(workload: str, summary: dict, counters: dict) -> dict:
    """The ROADMAP baseline figures this workload measures, next to its traced ones."""
    subjects = counters.get("experiment.simulated_rows", 0.0) / 2  # two scenarios each

    def total(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def per(num, den, factor=1.0):
        return num / den * factor if den else None

    measured = {
        "simulate_s_per_1500_subjects": per(total("experiment.simulate_dataset"), subjects, 1500),
        "nls_kappa_ms_per_call": per(total("estimation.nls_kappa"), total("estimation.nls_kappa", "calls"), 1e3),
        "price_list_calls_per_1500_subjects": per(total("design.price_list", "calls"), subjects, 1500),
        "read_csv_ms_per_3000_rows": per(total("experiment.read_csv"),
                                         counters.get("experiment.read_csv.rows", 0.0), 3e6),
        "verify_all_s": per(total("cli.main.verify"), total("cli.main.verify", "calls")),
    }
    return {
        key: {"roadmap": value, "traced": measured[key],
              "ratio": None if measured[key] is None else measured[key] / value}
        for key, (source, value) in BASELINE.items() if source == workload
    }


def _provenance(bl, args, workload) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "bracketlab").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                     text=True, timeout=30, check=True).stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "argv": sys.argv,
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "bracketlab": bl.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": 1,
        **workload.provenance(),
    }


def run(bl, args, import_times: list[tuple[float, float]], workdir: Path) -> tuple[dict, dict]:
    from tracer import Tracer
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload](bl, args.seed, args.scale, str(workdir))
    ledger = Ledger()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        clock = RefClock()
        workload.setup(clock)
        clock.tick()
        setup_times.append((clock.wall, clock.ref))

    reference = None
    if args.scale == 1.0 and args.seed == PIN_SEED and PINS.exists():
        reference = json.loads(PINS.read_text()).get(args.workload)
    tracer = Tracer() if args.trace else None
    times: dict[str, list[float]] = {"untraced": [], "traced": []}  # reference seconds
    wall: dict[str, list[float]] = {"untraced": [], "traced": []}
    layers: list[dict[str, float]] = []
    baseline = None
    begin = time.perf_counter()
    pass_no = 0
    while True:
        traced = bool(args.trace) and pass_no % 2 == 1
        scope = tracer.active(pass_no) if traced else contextlib.nullcontext()
        with scope:
            clock = RefClock(tracer.span if traced else _no_span)
            outputs = workload.run_pass(ledger, clock)
            clock.tick()
        kind = "traced" if traced else "untraced"
        times[kind].append(clock.ref)
        wall[kind].append(clock.wall)
        digests = workload.check_pass(ledger, outputs)
        del outputs
        if reference is not None:
            label = "traced pass outputs == untraced" if traced else f"pass {pass_no} outputs == reference"
            ledger.check(label, digests == reference, json.dumps(digests))
        reference = reference or digests
        if traced:
            summary = tracer.pass_summary(pass_no)
            counters = tracer.counters[pass_no]
            layers.append(_layer_values(summary, counters))
            baseline = _baseline_check(args.workload, summary, counters)
        pass_no += 1
        if time.perf_counter() - begin >= args.seconds and (not args.trace or times["traced"]):
            break
    workload.final_checks(ledger)

    setup_s = statistics.median(r for _, r in import_times) + statistics.median(r for _, r in setup_times)
    setup_wall_s = statistics.median(w for w, _ in import_times) + statistics.median(w for w, _ in setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        untraced = statistics.median(times["untraced"])
        traced_s = statistics.median(times["traced"])
        for values in layers:
            values["trace.untraced_pass_s"] = untraced
            values["trace.traced_pass_s"] = traced_s
            values["trace.overhead_share"] = traced_s / untraced - 1.0
        metrics = {name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        rates = [workload.subjects / t for t in times["untraced"]]
        metrics = {
            "subjects_per_s": {"value": statistics.median(rates), "unit": "subjects/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    sidecar = {
        "provenance": _provenance(bl, args, workload),
        "subjects_per_pass": workload.subjects,
        "pass_seconds": times,
        "pass_wall_seconds": wall,
        "subjects_per_wall_s": statistics.median(workload.subjects / t for t in wall["untraced"]),
        "import_seconds_wall_ref": import_times,
        "setup_seconds_wall_ref": setup_times,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mb": rss_mb,
        "ops_failed_share": ledger.failed / ledger.attempted,
        "output_digests": reference,
        "failures": ledger.failures,
        "metrics": metrics,
    }
    if args.trace:
        stem = OUT / f"{args.workload}-seed{args.seed}-spans"
        tracer.write(str(stem) + ".npz")
        sidecar["spans_file"] = str(stem.relative_to(ROOT)) + ".npz"
        sidecar["per_pass_layers"] = layers
        sidecar["roadmap_baseline_check"] = baseline
    return result, sidecar


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline-15k", "recovery-mc", "estimate-150k"))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to run passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every subject count (smoke tests use 0.01)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.scale <= 0:
        parser.error("--seed must be nonnegative and --scale positive")

    if not (SRC / "bracketlab" / "__init__.py").is_file():
        print(f"error: no bracketlab source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        import_times = [_time_import() for _ in range(IMPORT_REPEATS)]
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"error: importing bracketlab failed: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bracketlab
    import bracketlab.cli

    if Path(bracketlab.__file__).resolve().parent != SRC / "bracketlab":
        print(f"error: imported bracketlab from {bracketlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, sidecar = run(bracketlab, args, import_times, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    side_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side_path.write_text(json.dumps(sidecar, indent=1, default=str) + "\n")
    shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()
                      if args.trace == 0 or k.startswith("trace."))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(sidecar['pass_seconds']['untraced']) + len(sidecar['pass_seconds']['traced'])}: "
          f"{shown}, ops_failed_share={sidecar['ops_failed_share']:.6g} share "
          f"({result['failed']}/{result['attempted']}); wall clock: "
          f"subjects_per_s={sidecar['subjects_per_wall_s']:.6g} subjects/s, setup_s={sidecar['setup_wall_s']:.6g} s")
    print(f"sidecar: {side_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
