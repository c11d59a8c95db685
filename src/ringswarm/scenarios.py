"""Experiment harness: regulation, tracking, scalability and noise studies.

Each scenario is a ScenarioConfig with baseline defaults (N = 50 agents,
gain kp = 10, t_end = 3).  What no run varies is fixed: MorseKernel's own
G and L at strength 1/N, GRID_M, BANDWIDTH, BIMODAL_MEANS, and the open
loop's clumped start.  Runs are deterministic functions of the config and
seed and produce RunRecords ready for CSV serialization.
"""

import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .control import (
    compute_feedback,
    sample_agent_inputs,
    starvation_floor,
    velocity_control,
)
from .density import (
    WrappedGaussianEstimator,
    bimodal_density,
    kl_divergence,
    l2_norm,
    tracking_mean,
    von_mises_density,
)
from .dynamics import even_lattice, run_continuum, step_swarm
from .kernels import MorseKernel, velocity_field
from .records import RunRecord
from .ring import grid_nodes, integrate, wrap_angle

SCENARIOS = ("regulate-mono", "regulate-bimodal", "track", "open-loop", "continuum")
DEFAULT_SWEEP_N = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, "inf")
DEFAULT_NOISE_DBW = (0.0, 20.0, 40.0, 60.0, 80.0)
CLUMP_HALFWIDTH = 0.3  # the open loop's clumped start fills [-0.3, 0.3] evenly
GRID_M = 256  # grid nodes of the estimate, the target and the U field
BANDWIDTH = 0.2  # the estimator's Gaussian width
BIMODAL_MEANS = (math.pi / 2.0, -math.pi / 2.0)
_FIELD_KINDS = {bool: bool, int: (int, np.integer), float: numbers.Real, str: str}


def _has_field_type(value, annotation) -> bool:
    """Whether a config value fits its field's annotation: a bool field takes
    only a bool; an int field an integer, a float field a real number and a
    str field a str, none of them a bool; ``float | None`` also takes None."""
    if annotation == float | None:
        return value is None or _has_field_type(value, float)
    if isinstance(value, bool):
        return annotation is bool
    return isinstance(value, _FIELD_KINDS[annotation])


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment; defaults are the baseline setup.

    ``dt`` is the agents' RK4 step.  The continuum steps at its own bounds
    (Courant number CFL, 1/kp and the sampling instants), so for it ``dt``
    is only the sampling grid that ``t_end`` and ``sample_every`` must fit.
    """

    scenario: str = "regulate-mono"
    n_agents: int = 50
    kp: float = 10.0
    concentration: float = 4.0
    mu: float = 0.0
    dt: float = 1e-3
    t_end: float = 3.0
    noise_power_dbw: float | None = None
    seed: int = 0
    sample_every: float = 0.05
    record_agents: bool = True
    record_density: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_field_type(value, f.type):
                raise ValueError(f"{f.name} must be of type "
                                 f"{getattr(f.type, '__name__', f.type)}, got {value!r}")
            if isinstance(value, numbers.Integral) and f.type in (float, float | None):
                object.__setattr__(self, f.name, value := float(value))  # 10 echoes as 10.0
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("n_agents", "kp", "dt", "t_end", "sample_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("concentration", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        # Slack for the bound's own decimal value: 2.78/10 is 0.27799999999999997.
        if self.dt > self.dt_stability_bound * (1.0 + 1e-9):
            raise ValueError(f"dt={self.dt} exceeds the RK4 stability bound "
                             f"{self.dt_stability_bound!r} for kp={self.kp}")
        if self.noise_power_dbw is not None:
            if self.scenario in ("continuum", "open-loop"):
                raise ValueError(f"the {self.scenario} scenario takes no feedback noise")
            try:
                _noise_std(self.noise_power_dbw)
            except OverflowError:
                raise ValueError(f"noise_power_dbw={self.noise_power_dbw} overflows its "
                                 f"variance 10^(P/10)") from None
        # The agent loop takes round(t_end / dt) steps and samples every
        # round(sample_every / dt) of them, while the continuum lands on the
        # exact instants; off the dt grid the two would disagree silently.
        for name in ("t_end", "sample_every"):
            steps = getattr(self, name) / self.dt
            if round(steps) < 1 or abs(steps - round(steps)) > 1e-6:
                raise ValueError(f"{name}={getattr(self, name)} is not a whole multiple "
                                 f"of dt={self.dt}")
        # Refused as in the run, without numpy's warnings: a target that
        # overflows (none peaks above its t = 0).
        with np.errstate(over="ignore", invalid="ignore"):
            target_at(self, 0.0, grid_nodes(GRID_M))

    @property
    def dt_stability_bound(self) -> float:
        """RK4 stability limit of the dominant feedback eigenvalue (~kp on
        the error): its real-axis stability interval is 2.78."""
        return 2.78 / self.kp


def monomodal_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(scenario="regulate-mono", **overrides)


def bimodal_config(**overrides) -> ScenarioConfig:
    overrides.setdefault("concentration", 8.0)
    return ScenarioConfig(scenario="regulate-bimodal", **overrides)


def tracking_config(**overrides) -> ScenarioConfig:
    # Long enough for the full waypoint cycle (~3.35 s) plus settle.
    overrides.setdefault("t_end", 4.0)
    return ScenarioConfig(scenario="track", **overrides)


def open_loop_config(**overrides) -> ScenarioConfig:
    # The mean-field-scaled repulsion spreads a clump on a ~10 s timescale.
    overrides.setdefault("t_end", 20.0)
    return ScenarioConfig(scenario="open-loop", **overrides)


def continuum_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(scenario="continuum", **overrides)


def build_kernel(config: ScenarioConfig) -> MorseKernel:
    return MorseKernel(strength=1.0 / config.n_agents)


def target_at(config: ScenarioConfig, t: float, x: np.ndarray):
    """The scenario's desired density rho_d of mass N and its time derivative
    at time t, sampled at the angles x.

    Static targets have a zero derivative.  The tracking target's is
    analytic: d/dt rho_d = mu_dot * k * sin(x - mu) * rho_d.
    """
    mass = float(config.n_agents)
    if config.scenario == "track":
        mu, mu_dot = tracking_mean(t)
        k = config.concentration
        rho_d = von_mises_density(mu, k, mass, x)
        return rho_d, mu_dot * k * np.sin(x - mu) * rho_d
    if config.scenario == "regulate-bimodal":
        rho_d = bimodal_density(*BIMODAL_MEANS, config.concentration, mass, x)
    elif config.scenario == "open-loop":
        rho_d = von_mises_density(0.0, 0.0, mass, x)  # uniform reference for the KL metric
    else:  # regulate-mono and continuum
        rho_d = von_mises_density(config.mu, config.concentration, mass, x)
    return rho_d, np.zeros(x.size)


def initial_positions(config: ScenarioConfig) -> np.ndarray:
    """An even lattice, or a clump for the open loop."""
    if config.scenario != "open-loop":
        return even_lattice(config.n_agents)
    h = CLUMP_HALFWIDTH
    return wrap_angle(-h + 2.0 * h * (np.arange(config.n_agents) + 0.5) / config.n_agents)


def _noise_std(power_dbw: float) -> float:
    return math.sqrt(10.0 ** (power_dbw / 10.0))


def _base_metadata(config: ScenarioConfig) -> dict:
    meta = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "interaction_strength": 1.0 / config.n_agents,
        "dt_stability_bound": config.dt_stability_bound,
    }
    if config.noise_power_dbw is not None:
        meta["noise_model"] = (
            "zero-mean gaussian added to q, variance 10^(P/10), "
            "i.i.d. per grid node per control update"
        )
        meta["noise_std"] = _noise_std(config.noise_power_dbw)
    return meta


def _record_sample(record: RunRecord, config: ScenarioConfig, t: float, rho: np.ndarray,
                   rho_d: np.ndarray, u: np.ndarray, positions=None):
    """Append one sample: the metrics row, then the agent and density arrays
    the config asks for, the fields taken at the record's node angles.
    ``u`` is the control at the agents, or the U field without
    ``positions``."""
    record.metrics.append((t, kl_divergence(rho, rho_d), l2_norm(rho_d - rho),
                           float(np.abs(u).max())))
    if positions is not None and config.record_agents:
        record.agents.append((t, positions, u))
    if config.record_density:
        record.density.append((t, rho, rho_d))


class _Controller:
    """One controller evaluation on plain arrays, shared by both runners:
    target, feedback q plus the configured noise, the worst |integral of q|
    so far, then the U field (none in the open loop).  A node below the
    starvation floor refuses the update when ``refuse_starved`` is set (the
    continuum runner); otherwise (the agent runner) U is 0 there and
    ``starved_updates`` counts the evaluations that had any.  A non-finite
    q refuses as well.
    The node angles, the kernel's samples, a static target with its
    velocity field, and the noise generator are built once per run."""

    def __init__(self, config: ScenarioConfig, refuse_starved: bool):
        self.config = config
        self.refuse_starved = refuse_starved
        self.nodes = grid_nodes(GRID_M)
        self.kernel = build_kernel(config)
        self.samples = self.kernel.sample_on_grid(GRID_M)
        self.target = (None if config.scenario == "track"
                       else target_at(config, 0.0, self.nodes)[0])
        self.target_v = (None if self.target is None
                         else velocity_field(self.samples, self.target))
        self.rng = None if config.noise_power_dbw is None else np.random.default_rng(config.seed)
        self.q_integral_worst = 0.0
        self.starved_updates = 0

    def desired(self, t: float) -> np.ndarray:
        """The target density rho_d at time ``t``."""
        return self.target if self.target is not None else target_at(self.config, t, self.nodes)[0]

    def __call__(self, rho: np.ndarray, v: np.ndarray, t: float):
        """The U field (an array) for the density samples ``rho`` with
        velocity field ``v`` at time ``t``, or None in the open loop."""
        if self.config.scenario == "open-loop":
            return None
        rho_d = self.desired(t)
        v_d = self.target_v if self.target is not None else velocity_field(self.samples, rho_d)
        q = compute_feedback(rho, v, rho_d, v_d, self.config.kp)
        if self.rng is not None:
            q += self.rng.normal(0.0, _noise_std(self.config.noise_power_dbw), q.size)
        q_integral = abs(integrate(q))
        if not math.isfinite(q_integral):
            raise RuntimeError(f"non-finite feedback q at t={t:.6f}; run aborted")
        self.q_integral_worst = max(self.q_integral_worst, q_integral)
        floor = starvation_floor(rho)
        starved = rho < floor
        if starved.any():
            if self.refuse_starved:
                j = int(np.argmax(starved))
                raise ValueError(
                    f"density {rho[j]:.3e} below floor {floor:.3e} at node {j} "
                    f"(x={self.nodes[j]:+.4f}); the control would act as a source/sink")
            self.starved_updates += 1
        return velocity_control(rho, q, starved)


def run_microscopic(config: ScenarioConfig) -> RunRecord:
    """Closed-loop (or open-loop) agent simulation producing a full RunRecord."""
    # Far from every agent the estimate decays below the floor for small
    # swarms; those nodes are never sampled, so the control is zero there.
    controller = _Controller(config, refuse_starved=False)
    estimator = WrappedGaussianEstimator(BANDWIDTH, GRID_M)
    x, t = initial_positions(config), 0.0
    record = RunRecord(config=asdict(config), metadata=_base_metadata(config),
                       node_angles=controller.nodes)
    n_steps = int(round(config.t_end / config.dt))
    stride = int(round(config.sample_every / config.dt))
    for i in range(n_steps + 1):
        rho_hat = estimator.estimate(x)
        u_field = controller(rho_hat, velocity_field(controller.samples, rho_hat), t)
        if i % stride == 0 or i == n_steps:
            u = np.zeros(x.size) if u_field is None else sample_agent_inputs(u_field, x)
            _record_sample(record, config, t, rho_hat, controller.desired(t), u, x)
        if i < n_steps:
            x = step_swarm(x, controller.kernel, u_field, config.dt)
            t += config.dt
    record.metadata["q_integral_worst"] = controller.q_integral_worst
    record.metadata["final_kl"] = record.final_kl()
    record.metadata["starved_updates"] = controller.starved_updates
    return record


def run_continuum_scenario(config: ScenarioConfig) -> RunRecord:
    """Finite-difference run of the controlled conservation law (N = infinity)."""
    controller = _Controller(config, refuse_starved=True)
    mass = float(config.n_agents)
    rho0 = von_mises_density(0.0, 0.0, mass, controller.nodes)  # uniform start, mass N
    # Forward Euler damps the gain mode by 1 - kp*dt: at dt <= 1/kp, half
    # its stability bound 2/kp, the error decays without flipping sign.
    # config.dt only sets the sampling grid here.
    dt_cap = 1.0 / config.kp
    run = run_continuum(rho0, 0.0, controller.samples, controller, config.t_end,
                        dt_max=dt_cap, sample_every=config.sample_every)
    record = RunRecord(config=asdict(config), metadata=_base_metadata(config),
                       node_angles=controller.nodes)
    record.metadata["q_integral_worst"] = controller.q_integral_worst
    for t, rho, u in zip(run.times, run.densities, run.u_fields):
        u = np.zeros(rho.size) if u is None else u
        _record_sample(record, config, t, rho, controller.desired(t), u)
    record.metadata["final_kl"] = record.final_kl()
    record.metadata["mass_drift"] = abs(integrate(run.densities[-1]) - mass)
    record.metadata["continuum_steps"] = run.steps
    record.metadata["continuum_dt_min"] = run.dt_min
    record.metadata["continuum_dt_max"] = run.dt_max
    record.metadata["continuum_dt_bound_min"] = run.dt_bound_min
    record.metadata["continuum_dt_cap"] = dt_cap
    return record


def _sweep_member(args):
    """Final KL and status of one sweep member, the config with its
    overrides; module-level so process pools can pickle it."""
    config, overrides = args
    try:
        config = replace(config, **overrides)
        run = run_continuum_scenario if config.scenario == "continuum" else run_microscopic
        return run(config).final_kl(), "ok"
    except Exception as exc:  # keep sweep tables exhaustive, no silent skips
        return math.nan, f"error: {exc}"


def _run_jobs(fn, jobs, workers, labels):
    """``fn``'s (final KL, status) of each job, in request order, with one
    stderr line per finished job under its label."""
    # A pool forks all its workers at the first submit, so it gets no more
    # than there are jobs.
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers or os.cpu_count() or 1, len(jobs))

    def collect(outcomes):  # map yields in request order
        done = []
        for label, (kl, status) in zip(labels, outcomes):
            done.append((kl, status))
            print(f"{label} ({len(done)}/{len(jobs)}): d_kl={kl:.6g} [{status}]", file=sys.stderr)
        return done

    if workers <= 1:
        return collect(map(fn, jobs))
    from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return collect(pool.map(fn, jobs))


def run_scalability_sweep(config: ScenarioConfig | None = None, n_list=None,
                          workers=None) -> list:
    """Final KL of the monomodal scenario per swarm size; 'inf' runs the continuum."""
    config = config or monomodal_config()
    n_list = list(DEFAULT_SWEEP_N if n_list is None else n_list)
    # The continuum limit is noise-free.
    members = [dict(scenario="continuum", noise_power_dbw=None) if n == "inf"
               else dict(scenario="regulate-mono", n_agents=int(n), record_agents=False,
                         record_density=False) for n in n_list]
    outcomes = _run_jobs(_sweep_member, [(config, m) for m in members], workers,
                         [f"sweep-n N={n}" for n in n_list])
    return [(str(n), *outcome) for n, outcome in zip(n_list, outcomes)]


def run_noise_sweep(config: ScenarioConfig | None = None, p_list=None,
                    n_seeds: int = 5, workers=None) -> list:
    """Mean final KL per noise power (dBW), averaged over ``n_seeds`` seeds."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    config = config or monomodal_config()
    p_list = list(DEFAULT_NOISE_DBW if p_list is None else p_list)
    members = [dict(scenario="regulate-mono", noise_power_dbw=float(power),
                    seed=config.seed + 1000 * i, record_agents=False, record_density=False)
               for power in p_list for i in range(n_seeds)]
    outcomes = _run_jobs(_sweep_member, [(config, m) for m in members], workers,
                         [f"sweep-noise P={m['noise_power_dbw']} dBW seed={m['seed']}"
                          for m in members])
    rows = []
    for i, power in enumerate(p_list):  # by position: == never holds for nan
        mine = outcomes[i * n_seeds:(i + 1) * n_seeds]
        errors = [status for _, status in mine if status != "ok"]
        if errors:
            rows.append((power, math.nan, errors[0]))
        else:
            rows.append((power, float(np.mean([kl for kl, _ in mine])), "ok"))
    return rows
