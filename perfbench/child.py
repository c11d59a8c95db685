"""One run of one workload in a fresh interpreter; started by run.py.

    python3 perfbench/child.py '<job json>'

The job names the workload, the seed, the output directory, whether to
trace, and ``spawned_at``: the parent's ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is shared by all processes on Linux,
so set-up time counts interpreter start and imports).

The run builds the config, calls the scenario runner and writes the record,
as the CLI does.  Just before and just after that it times the reference
kernels (``reference.py``): the workload's own, and ``grid`` for set-up.
After the timed part it checks the written files and prints one JSON line:
raw timings, host-speed factors, peak RSS, final KL, failed checks, file
hashes and, when traced, per-layer span statistics.

Tracing wraps the package's public functions at the module names the loop
looks them up by, so the package itself runs unmodified.  A span's self time
is its duration minus the time its child spans cover.
"""

import hashlib
import json
import math
import platform
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from ringswarm import control, density, dynamics, records, ring, scenarios
from reference import NOMINAL_S, time_kernels
from workloads import KL_LANDMARK, MASS_DRIFT_TOL, Q_INTEGRAL_TOL, WORKLOADS

# (span name, owner, attribute): the owner is where the calling code looks
# the name up, so one layer may need several entries.
SPAN_HOOKS = (
    ("density.estimate", density.WrappedGaussianEstimator, "estimate"),
    ("density.target_at", scenarios, "target_at"),
    ("density.kl_divergence", scenarios, "kl_divergence"),
    ("kernels.velocity_field", control, "velocity_field"),
    ("kernels.velocity_field", dynamics, "velocity_field"),
    ("control.compute_feedback", scenarios, "compute_feedback"),
    ("control.velocity_control", scenarios, "velocity_control"),
    ("control.sample_agent_inputs", scenarios, "sample_agent_inputs"),
    ("control.sample_agent_inputs", dynamics, "sample_agent_inputs"),
    ("dynamics.step_swarm", scenarios, "step_swarm"),
    ("dynamics.continuum_velocity", dynamics, "continuum_velocity"),
    ("dynamics.run_continuum", scenarios, "run_continuum"),
    ("scenarios.run_microscopic", scenarios, "run_microscopic"),
    ("scenarios.run_continuum_scenario", scenarios, "run_continuum_scenario"),
    ("records.RunRecord.write", records.RunRecord, "write"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPAN_HOOKS))


def wrap(owner, attr, make_wrapper):
    """Replace owner.attr by make_wrapper(original); False if it is gone."""
    original = getattr(owner, attr, None)
    if original is None:
        return False
    setattr(owner, attr, make_wrapper(original))
    return True


class Tracer:
    """Spans kept in memory: per name, each call's duration and self time."""

    def __init__(self):
        self.open_child_time = []  # per open span: time its children took
        self.spans = defaultdict(list)
        self.constructions = 0

    def span(self, name):
        def make_wrapper(fn):
            def traced(*args, **kwargs):
                self.open_child_time.append(0.0)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - t0
                    children = self.open_child_time.pop()
                    if self.open_child_time:
                        self.open_child_time[-1] += duration
                    self.spans[name].append((duration, duration - children))
            return traced
        return make_wrapper

    def install(self):
        missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for name, owner, attr in SPAN_HOOKS
                   if not wrap(owner, attr, self.span(name))]

        def count_construction(post_init):
            def counted(obj):
                self.constructions += 1
                post_init(obj)
            return counted

        if not wrap(ring.GridFunction, "__post_init__", count_construction):
            missing.append("ringswarm.ring.GridFunction.__post_init__")
        return missing

    def summary(self):
        out = {}
        for name in SPAN_NAMES:
            calls = self.spans.get(name, [])
            durations = sorted(d for d, _ in calls)
            out[name] = {
                "calls": len(calls),
                "self_s": sum(s for _, s in calls),
                "us_p50": 1e6 * nearest_rank(durations, 0.50),
                "us_p95": 1e6 * nearest_rank(durations, 0.95),
            }
        return out


def nearest_rank(sorted_values, p):
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def count_continuum_steps():
    """Count Rusanov steps: run_continuum evaluates the speed once per step."""
    counter = [0]

    def make_wrapper(fn):
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return counted

    wrap(dynamics, "continuum_velocity", make_wrapper)
    return counter


def build_config(spec, seed, smoke):
    overrides = dict(spec["overrides"])
    if spec["seeded"]:
        overrides["seed"] = seed
    if smoke:
        overrides["t_end"] = spec["smoke_t_end"]
    return getattr(scenarios, spec["factory"])(**overrides)


def read_metadata(path):
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def check_outputs(paths, spec, smoke):
    """The acceptance-gate checks, applied to the files the run wrote."""
    problems = []
    for key in ("metrics", "agents", "density"):
        lines = paths[key].read_text(encoding="utf-8").splitlines()[1:]
        if key == "metrics" and not lines:
            problems.append("metrics.csv has no rows")
        if lines and not np.all(np.isfinite(np.loadtxt(lines, delimiter=",", ndmin=2))):
            problems.append(f"{key}.csv holds a non-finite value")
    meta = read_metadata(paths["metadata"])
    try:
        final_kl = float(meta["final_kl"])
        q_worst = float(meta["q_integral_worst"])
    except (KeyError, ValueError) as exc:
        return problems + [f"metadata.txt lacks a run value: {exc}"], math.nan
    if not (math.isfinite(final_kl) and math.isfinite(q_worst)):
        problems.append("metadata.txt holds a non-finite value")
    if spec["noise_free"] and not q_worst <= Q_INTEGRAL_TOL:
        problems.append(f"q_integral_worst {q_worst:.3e} > {Q_INTEGRAL_TOL:g}")
    if spec["factory"] == "continuum_config":
        drift = float(meta.get("mass_drift", "nan"))
        if not drift <= MASS_DRIFT_TOL:
            problems.append(f"mass_drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    if spec["full_horizon"] and not smoke and not final_kl < KL_LANDMARK:
        problems.append(f"final_kl {final_kl:.4g} >= {KL_LANDMARK}")
    return problems, final_kl


def main(job):
    spec = WORKLOADS[job["workload"]]
    tracer = Tracer() if job["trace"] else None
    missing_hooks = tracer.install() if tracer else []
    steps = count_continuum_steps() if spec["factory"] == "continuum_config" else None
    kernels = tuple(dict.fromkeys(("grid", spec["reference"])))

    t_reference = time.monotonic()
    reference_before = time_kernels(kernels)
    t_config = time.monotonic()
    config = build_config(spec, job["seed"], job["smoke"])
    run = (scenarios.run_continuum_scenario if config.scenario == "continuum"
           else scenarios.run_microscopic)
    t_call = time.monotonic()
    record = run(config)
    t_returned = time.monotonic()
    paths = record.write(Path(job["out"]))
    t_written = time.monotonic()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_after = time_kernels(kernels)

    updates = steps[0] if steps is not None else int(round(config.t_end / config.dt))
    problems, final_kl = check_outputs(paths, spec, job["smoke"])
    result = {
        "setup_s": (t_reference - job["spawned_at"]) + (t_call - t_config),
        "wall_s": t_written - t_config,
        "runner_s": t_returned - t_call,
        "host_factor": {k: (reference_before[k] + reference_after[k]) / (2 * NOMINAL_S[k])
                        for k in kernels},
        "updates": updates,
        "peak_rss_mib": peak_rss_mib,
        "final_kl": final_kl,
        "problems": problems,
        "hashes": {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in paths.items()},
        "bytes_written": sum(p.stat().st_size for p in paths.values()),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if tracer:
        spans = tracer.summary()
        result["spans"] = spans
        result["constructions"] = tracer.constructions
        result["unspanned_s"] = result["wall_s"] - sum(s["self_s"] for s in spans.values())
        result["missing_hooks"] = missing_hooks
    print(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
