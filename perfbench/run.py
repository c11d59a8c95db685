"""ringswarm benchmark: end-to-end timings per workload, or a traced run.

    python3 perfbench/run.py --workload mono-n50 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Each run of the scenario happens in a fresh single-threaded interpreter
(``child.py``), one at a time; runs repeat until ``--seconds`` is used up,
and every reported value is the median over them, times divided by the
host-speed factor the run measured (``reference.py``).  ``--trace 0``
prints the end-to-end metrics of BENCHMARK.json, ``--trace 1`` alternates
untraced and traced runs and prints its per-layer metrics.  The last line
of standard output is the JSON result.  ``--smoke`` runs every workload on
tiny horizons in both modes and asserts that every named metric is emitted.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
MIN_RUNS = 3          # untraced runs per measurement, at least
MIN_TRACED_PAIRS = 1  # untraced + traced pairs per traced measurement, at least
TIME_LIMIT_S = 170.0  # the whole command ends within 180 s
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class ChildFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(job, deadline):
    """One scenario run in a fresh interpreter; returns its JSON result."""
    out = Path(tempfile.mkdtemp(dir=WORK_DIR))
    job = dict(job, out=str(out))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        job["spawned_at"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(job)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"run exceeded {timeout:.0f} s and was killed")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"run exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise ChildFailed("run printed no result")


def warm_up():
    """Import the package once untimed: byte-compiles it and fills the file cache."""
    subprocess.run([sys.executable, "-c", "import ringswarm"], cwd=ROOT,
                   env=child_env(), check=True, timeout=60)


def measure(workload, seed, seconds, trace, smoke, started):
    """Run children until the time is used; return (runs, failures, attempted).

    runs holds (traced, result) per child that completed.  A child that
    crashed or timed out, failed an output check, or wrote files that differ
    from the first untraced run's adds one entry to failures.
    """
    job = {"workload": workload, "seed": seed, "smoke": smoke}
    pattern = (False, True) if trace else (False,)
    min_runs = MIN_TRACED_PAIRS * 2 if trace else MIN_RUNS
    deadline = started + TIME_LIMIT_S
    measure_until = time.monotonic() + seconds
    runs, failures, durations = [], [], []
    attempted = 0
    while attempted < min_runs or (
            time.monotonic() + statistics.median(durations) <= measure_until):
        traced = pattern[attempted % len(pattern)]
        attempted += 1
        t0 = time.monotonic()
        try:
            result = run_child(dict(job, trace=traced), deadline)
        except ChildFailed as exc:
            failures.append(str(exc))
            break
        durations.append(time.monotonic() - t0)
        runs.append((traced, result))
        problems = list(result["problems"])
        reference = next(r for t, r in runs if not t)
        if result["hashes"] != reference["hashes"]:
            problems.append(f"{'traced' if traced else 'repeated'} run wrote different files")
        if result.get("missing_hooks"):
            message = f"trace hooks not found: {result['missing_hooks']}"
            print(f"warning: {message}", file=sys.stderr)
            if smoke:
                problems.append(message)
        if problems:
            failures.append("; ".join(problems))
        if time.monotonic() > deadline - 2 * statistics.median(durations):
            break
    return runs, failures, attempted


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(workload, runs, attempted, failed):
    """Medians over the runs; times are divided by each run's host-speed
    factor (reference.py): the workload's kernel for the run, ``grid`` for
    set-up.  The raw medians and the factors are printed alongside."""
    results = [r for _, r in runs]
    reference = WORKLOADS[workload]["reference"]
    raw = {
        "wall_s": [r["wall_s"] for r in results],
        "updates_per_s": [r["updates"] / r["runner_s"] for r in results],
        "setup_s": [r["setup_s"] for r in results],
    }
    factor = [r["host_factor"][reference] for r in results]
    setup_factor = [r["host_factor"]["grid"] for r in results]
    samples = {
        "wall_s": [v / f for v, f in zip(raw["wall_s"], factor)],
        "updates_per_s": [v * f for v, f in zip(raw["updates_per_s"], factor)],
        "setup_s": [v / f for v, f in zip(raw["setup_s"], setup_factor)],
        "peak_rss_mb": [r["peak_rss_mib"] for r in results],
        "final_kl": [r["final_kl"] for r in results],
    }
    print("per-run wall_s: " + " ".join(f"{v:.4g}" for v in samples["wall_s"]))
    for name, values in samples.items():
        q1, q2, q3 = quartiles(values)
        print(f"{name}: median {q2:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    for name, values in raw.items():
        print(f"raw {name}: median {statistics.median(values):.6g}")
    print(f"host factor ({reference}): median {statistics.median(factor):.4g}, "
          f"range {min(factor):.4g}-{max(factor):.4g}; "
          f"set-up (grid): median {statistics.median(setup_factor):.4g}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["pass_frac"] = (attempted - failed) / attempted
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    return metrics


def per_layer_metrics(workload, runs):
    """Span statistics of the median traced run, so its self times and
    unspanned time add up to its wall time exactly.  The tracing overhead
    compares host-speed corrected wall times (see end_to_end_metrics)."""
    reference = WORKLOADS[workload]["reference"]

    def corrected_wall(run):
        return run["wall_s"] / run["host_factor"][reference]

    plain_wall = statistics.median(corrected_wall(r) for traced, r in runs if not traced)
    traced = sorted((r for t, r in runs if t), key=lambda r: r["wall_s"])
    run = traced[(len(traced) - 1) // 2]
    metrics = {f"{name}.{stat}": value
               for name, stats in run["spans"].items() for stat, value in stats.items()}
    metrics["ring.GridFunction.constructions"] = run["constructions"]
    metrics["records.bytes_written"] = run["bytes_written"]
    metrics["unspanned_s"] = run["unspanned_s"]
    metrics["trace_wall_s"] = run["wall_s"]
    metrics["trace_overhead_frac"] = corrected_wall(run) / plain_wall - 1.0
    for name, value in metrics.items():
        print(f"{name}: {value:.6g}")
    return metrics


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def print_environment(workload, seed, first):
    seeding = ("feedback-noise draws" if WORKLOADS[workload]["seeded"]
               else "not consumed, the workload is seed-independent")
    print(f"workload: {workload}; seed: {seed} ({seeding})")
    print(f"python {first['python']}, numpy {first['numpy']}, nproc {os.cpu_count()} "
          f"(affinity {len(os.sched_getaffinity(0))}), cpu {cpu_model()}")


def benchmark(workload, seed, seconds, trace, smoke=False):
    """Measure one workload; returns the result object for the last line."""
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    WORK_DIR.mkdir(exist_ok=True)
    try:
        warm_up()
        runs, failures, attempted = measure(workload, seed, seconds, trace, smoke, started)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    for failure in failures:
        print(f"failed run: {failure}", file=sys.stderr)
    if not runs or (trace and not (any(t for t, _ in runs) and any(not t for t, _ in runs))):
        raise ChildFailed(f"{workload}: no complete run to report")
    print_environment(workload, seed, runs[0][1])
    values = (per_layer_metrics(workload, runs) if trace
              else end_to_end_metrics(workload, runs, attempted, len(failures)))
    if set(values) != {m["name"] for m in declared}:
        raise ChildFailed(f"emitted metrics differ from BENCHMARK.json: "
                          f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }


def smoke_test():
    """Self-test: every workload, untraced and traced, on tiny horizons."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = benchmark(workload, seed=0, seconds=0, trace=trace, smoke=True)
            if not result["correct"]:
                raise ChildFailed(f"{workload} (trace {trace}): output check failed")
            print(f"smoke {workload} trace={trace}: {len(result['metrics'])} metrics ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ringswarm" / "__init__.py").is_file():
        print(f"error: no ringswarm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke_test()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
