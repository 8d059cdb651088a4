"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large_set --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  One
caller issues one op at a time (closed loop) for ``--seconds`` seconds, the
last op finishing past the mark.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs the traced pass and prints the per-layer ones.
Human-readable lines come first, each starting with ``#``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--tiny`` shrinks the inputs for the
self-test.  Without the package source the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RECORD = HERE / "record.json"
RECORD_SEED = 0
SETUP_ROUNDS = 5

UNITS = {
    # end to end, untraced
    "setup_s": "s",
    "op_s_p50": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
    "op_success_ratio": "ratio",
    "replicate_success_ratio": "ratio",
    # per layer, traced pass; figures per op
    "processes.generate_s": "s",
    "processes.generate_calls": "count",
    "processes.points": "count",
    "geometry.nn_distances_s": "s",
    "geometry.nn_distances_calls": "count",
    "geometry.pairwise_distances_s": "s",
    "geometry.distances": "count",
    "slide_stats.psi1_s": "s",
    "slide_stats.psi2_conjectured_s": "s",
    "slide_stats.level_derivatives_s": "s",
    "slide_stats.psi_numeric_s": "s",
    "slide_stats.psi_numeric_calls": "count",
    "slide_stats.self_s": "s",
    "corner_density.step_slide_function_s": "s",
    "corner_density.step_slide_function_calls": "count",
    "corner_density.calls_per_oracle": "ratio",
    "numerics.right_derivatives_self_s": "s",
    "harness.run_experiment_self_s": "s",
    "harness.attempts_per_replicate": "ratio",
    "harness.report_io_s": "s",
    "harness.load_points_s": "s",
    "harness.load_points_bytes": "bytes",
    "harness.parallel_speedup": "ratio",
    "cli.startup_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead_pct": "%",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def environment(workload) -> dict:
    """What the numbers depend on besides the code: machine and versions."""
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(cache.glob("index*")):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        level, size = max(levels)
        llc = f"L{level} {size}"
    cpus = os.cpu_count()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpus,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "last_level_cache": llc,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        # nn_distances queries its k-d tree with workers=-1: one thread per
        # CPU in every process, so a pool multiplies them.
        "kdtree_threads_per_process": cpus,
        "pool_workers": workload.pool_workers,
        "kdtree_threads_at_peak": workload.pool_workers * cpus,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def _run_op(workload, state, mode):
    from workloads import Outcome

    start = time.perf_counter()
    try:
        outcome = workload.op(state, mode)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        traceback.print_exc()
        outcome = Outcome(problems=[f"{type(exc).__name__}: {exc}"])
    return time.perf_counter() - start, outcome


def _setup(workload, seed, sizes, workdir, env):
    """Median over rounds of: a fresh interpreter importing the package,
    then building this workload's inputs in-process."""
    times = []
    for _ in range(SETUP_ROUNDS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import slidestats, slidestats.cli"],
                       cwd=ROOT, env=env, check=True, timeout=120)
        state = workload.setup(seed, sizes, workdir)
        times.append(time.perf_counter() - start)
    print("# setup rounds: " + ", ".join(f"{t:.4f}" for t in times) + " s")
    return statistics.median(times), state


def _layer_metrics(totals: dict, replicates: int) -> dict[str, float]:
    """Per-layer figures for one traced op from its span totals."""

    def get(name, key):
        return totals[name][key] if name in totals else 0

    oracles = get("slide_stats.psi_numeric", "calls")
    generated = get("processes.generate", "calls")
    entries = ("slide_stats.slide_numbers", "slide_stats.assembly_numbers",
               "slide_stats.level_numbers")
    return {
        "processes.generate_s": get("processes.generate", "s"),
        "processes.generate_calls": generated,
        "processes.points": get("processes.generate", "work"),
        "geometry.nn_distances_s": get("geometry.nn_distances", "s"),
        "geometry.nn_distances_calls": get("geometry.nn_distances", "calls"),
        "geometry.pairwise_distances_s": get("geometry.pairwise_distances", "s"),
        "geometry.distances": get("geometry.nn_distances", "work")
        + get("geometry.pairwise_distances", "work"),
        "slide_stats.psi1_s": get("slide_stats.psi1", "s"),
        "slide_stats.psi2_conjectured_s": get("slide_stats.psi2_conjectured", "s"),
        "slide_stats.level_derivatives_s": get("slide_stats.level_derivatives", "s"),
        "slide_stats.psi_numeric_s": get("slide_stats.psi_numeric", "s"),
        "slide_stats.psi_numeric_calls": oracles,
        "slide_stats.self_s": sum(get(name, "self_s") for name in entries),
        "corner_density.step_slide_function_s": get("corner_density.step_slide_function", "s"),
        "corner_density.step_slide_function_calls":
            get("corner_density.step_slide_function", "calls"),
        "corner_density.calls_per_oracle":
            get("corner_density.step_slide_function", "calls") / oracles if oracles else 0,
        "numerics.right_derivatives_self_s": get("numerics.right_derivatives", "self_s"),
        "harness.run_experiment_self_s": get("harness.run_experiment", "self_s"),
        "harness.attempts_per_replicate":
            generated / replicates if "harness.run_experiment" in totals else 0,
        "harness.report_io_s": get("harness.emit_report", "s") + get("harness.load_report", "s"),
        "harness.load_points_s": get("harness.load_points", "s"),
        "harness.load_points_bytes": get("harness.load_points", "work"),
        "cli.main_self_s": get("cli.main", "self_s"),
    }


def _targets():
    """Where the traced pass hooks in: the attribute each caller looks up."""
    from slidestats import cli, harness, slide_stats

    def size(args, result):
        return len(result)

    def file_bytes(args, result):
        return os.path.getsize(args[0])

    entry_points = ("slide_numbers", "assembly_numbers", "level_numbers")
    return [
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "emit_report", "harness.emit_report", None),
        (harness, "load_report", "harness.load_report", None),
        (harness, "generate", "processes.generate", size),
        *[(module, name, f"slide_stats.{name}", None)
          for module in (harness, cli, slide_stats) for name in entry_points],
        (cli, "main", "cli.main", None),
        (cli, "load_points", "harness.load_points", file_bytes),
        (slide_stats, "nn_distances", "geometry.nn_distances", size),
        (slide_stats, "pairwise_distances", "geometry.pairwise_distances", size),
        (slide_stats, "psi1", "slide_stats.psi1", None),
        (slide_stats, "psi2_conjectured", "slide_stats.psi2_conjectured", None),
        (slide_stats, "psi_numeric", "slide_stats.psi_numeric", None),
        (slide_stats, "level_derivatives", "slide_stats.level_derivatives", None),
        (slide_stats, "right_derivatives", "numerics.right_derivatives", None),
        (slide_stats, "step_slide_function", "corner_density.step_slide_function", None),
    ]


# Busy time that belongs to each layer, for naming the largest one.
_LAYER_SHARES = {
    "processes": ("processes.generate_s",),
    "geometry.nn": ("geometry.nn_distances_s",),
    "geometry.pairwise": ("geometry.pairwise_distances_s",),
    "slide_stats.closed_forms": ("slide_stats.psi1_s", "slide_stats.psi2_conjectured_s",
                                 "slide_stats.level_derivatives_s"),
    "oracle": ("slide_stats.psi_numeric_s",),
    "harness.io": ("harness.report_io_s", "harness.load_points_s"),
}


def _traced_pass(workload, state, seconds, out_path):
    from tracing import Tracer

    tracer = Tracer(_targets())
    extras, outcomes = workload.trace_extras(state)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        # Alternate which of the pair runs first, so warm-up and drift fall
        # on both sides of the overhead figure.
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for traced_op in order:
            if traced_op:
                with tracer.tracing(op=len(traced)):
                    elapsed, outcome = _run_op(workload, state, "trace")
                traced.append(elapsed)
            else:
                elapsed, outcome = _run_op(workload, state, "trace")
                untraced.append(elapsed)
            outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
    tracer.write(out_path)

    replicates = outcomes[-1].replicates
    per_op = tracer.per_op()
    samples = [_layer_metrics(per_op.get(op, {}), replicates) for op in range(len(traced))]
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    untraced_p50 = statistics.median(untraced)
    metrics["harness.parallel_speedup"] = (
        untraced_p50 / extras["workers2_op_s"] if "workers2_op_s" in extras else 0.0
    )
    metrics["cli.startup_s"] = extras.get("cli.startup_s", 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / untraced_p50 - 1.0)

    print(f"# traced {len(traced)} ops, untraced {len(untraced)}; "
          f"p50 {statistics.median(traced):.4f} s traced vs {untraced_p50:.4f} s untraced")
    busy = {layer: sum(metrics[m] for m in names) for layer, names in _LAYER_SHARES.items()}
    op_s = statistics.median(traced)
    shares = ", ".join(f"{layer} {100 * t / op_s:.1f}%" for layer, t in
                       sorted(busy.items(), key=lambda kv: -kv[1]) if t > 0)
    print(f"# busy share of a traced op: {shares}")
    print(f"# spans written to {out_path.relative_to(ROOT)}")
    return metrics, outcomes


def _main_pass(workload, state, seconds):
    times, outcomes = [], []
    for _ in range(workload.warmup_ops):
        elapsed, outcome = _run_op(workload, state, "main")
        outcomes.append(outcome)
        print(f"# warm-up op: {elapsed:.4f} s {'ok' if not outcome.problems else 'FAILED'}",
              flush=True)
    start = time.perf_counter()
    while True:
        elapsed, outcome = _run_op(workload, state, "main")
        times.append(elapsed)
        outcomes.append(outcome)
        print(f"# op {len(times)}: {elapsed:.4f} s {'ok' if not outcome.problems else 'FAILED'}",
              flush=True)
        if time.perf_counter() - start >= seconds:
            break
    return times, outcomes


def _report_digest(workload, outcome, seed, tiny):
    digest = workload.digest(outcome)
    print("# digest " + json.dumps(digest, sort_keys=True))
    if tiny or seed != RECORD_SEED or not RECORD.is_file():
        return
    recorded = json.loads(RECORD.read_text())["digests"].get(workload.name)
    if recorded is None:
        print(f"# digest: no record for {workload.name} in {RECORD.relative_to(ROOT)}")
    elif recorded == digest:
        print(f"# digest matches {RECORD.relative_to(ROOT)} (seed {RECORD_SEED})")
    else:
        changed = sorted(k for k in digest["values"]
                         if recorded["values"].get(k) != digest["values"][k])
        print(f"# digest DIFFERS from {RECORD.relative_to(ROOT)} (seed {RECORD_SEED}); "
              f"changed values: {changed or 'per-replicate only'}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "slidestats" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} sizes {sizes}")
    print("# env " + json.dumps(environment(workload), sort_keys=True))

    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = workloads.child_env(ROOT)
        setup_s, state = _setup(workload, args.seed, sizes, workdir, env)
        if args.trace:
            out_path = ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{args.seed}.json"
            metrics, outcomes = _traced_pass(workload, state, args.seconds, out_path)
            times = None
        else:
            times, outcomes = _main_pass(workload, state, args.seconds)
        workload.after(state, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    for index, outcome in enumerate(outcomes):
        for problem in outcome.problems:
            print(f"# op {index + 1} failed: {problem}")
    _report_digest(workload, outcomes[-1], args.seed, args.tiny)

    replicates = sum(o.replicates for o in outcomes)
    failed_replicates = sum(o.failed_replicates for o in outcomes)
    error_rate = len(failed) / len(outcomes)
    failed_replicate_ratio = failed_replicates / replicates
    print(f"# error_rate {error_rate!r} ({len(failed)} of {len(outcomes)} ops); "
          f"failed_replicate_ratio {failed_replicate_ratio!r} "
          f"({failed_replicates} of {replicates} replicates)")
    if times is not None:
        timed = outcomes[workload.warmup_ops:]
        good = sum(o.replicates - o.failed_replicates for o in timed if not o.problems)
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": statistics.median(times),
            "replicates_per_s": good / sum(times),
            "peak_rss_mb": _peak_rss_mb(),
            "op_success_ratio": 1.0 - error_rate,
            "replicate_success_ratio": 1.0 - failed_replicate_ratio,
        }
        print(f"# op_s_p50 over {len(times)} ops: " + ", ".join(f"{t:.4f}" for t in times))
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {UNITS[name]}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
