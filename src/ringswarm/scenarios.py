"""Experiment harness: regulation, tracking, scalability and noise studies.

Each scenario is a ScenarioConfig with baseline defaults (N = 50 agents,
Morse kernel G = L = 0.5, gain kp = 10, t_end = 3); runs are deterministic
functions of the config and seed and produce RunRecords ready for CSV
serialization.

Interaction scaling: by default the kernel strength is 1/N
(``mean_field_scaling``), which keeps the crowd's effective dynamics
size-independent and the loop stable at the default gain.  The literal
unscaled sum is available but drives itself to blow-up against
concentrated targets.
"""

import math
import numbers
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .control import (
    ControllerGains,
    compute_feedback,
    sample_agent_inputs,
    starvation_floor,
    velocity_control,
)
from .density import (
    BimodalTarget,
    MonomodalTarget,
    TrackingTarget,
    WrappedGaussianEstimator,
    kl_divergence,
    l2_norm,
    target_at,
    von_mises_density,
)
from .dynamics import (
    SCHEMES,
    ContinuumState,
    IntegratorSpec,
    SwarmState,
    even_lattice,
    run_continuum,
    step_swarm,
)
from .kernels import MorseKernel
from .records import RunRecord
from .ring import GridFunction, RingGrid, integrate, wrap_angle

DEFAULT_SWEEP_N = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, "inf")
DEFAULT_NOISE_DBW = (0.0, 20.0, 40.0, 60.0, 80.0)
INITIAL_LAYOUTS = ("even", "clumped")
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
    """Full description of one experiment; defaults are the baseline setup."""

    scenario: str = "regulate-mono"
    n_agents: int = 50
    attraction_strength: float = 0.5
    attraction_length: float = 0.5
    kp: float = 10.0
    concentration: float = 4.0
    mu: float = 0.0
    mu1: float = math.pi / 2.0
    mu2: float = -math.pi / 2.0
    grid_m: int = 256
    scheme: str = "rk4"
    dt: float = 1e-3
    t_end: float = 3.0
    bandwidth: float = 0.2
    noise_power_dbw: float | None = None
    seed: int = 0
    sample_every: float = 0.05
    mean_field_scaling: bool = True
    cfl: float = 0.4
    initial: str = "even"
    clump_halfwidth: float = 0.3
    record_agents: bool = True
    record_density: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_field_type(value, f.type):
                raise ValueError(f"{f.name} must be of type "
                                 f"{getattr(f.type, '__name__', f.type)}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("n_agents", "attraction_strength", "attraction_length", "kp", "grid_m",
                     "dt", "t_end", "bandwidth", "sample_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("concentration", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")
        if self.grid_m < 4 or self.grid_m % 2:
            raise ValueError(f"grid_m must be even and at least 4, got {self.grid_m}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.bandwidth >= math.pi:
            raise ValueError(f"bandwidth must be below pi, got {self.bandwidth}")
        if self.bandwidth < 2.0 * math.pi / self.grid_m:
            raise ValueError(f"bandwidth={self.bandwidth} is below the grid spacing "
                             f"2*pi/{self.grid_m}")
        for name, allowed in (("scheme", SCHEMES), ("initial", INITIAL_LAYOUTS)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        # Slack for the bound's own decimal value: 2.78/10 is 0.27799999999999997.
        if self.dt > self.dt_stability_bound * (1.0 + 1e-9):
            raise ValueError(f"dt={self.dt} exceeds the {self.scheme} stability bound "
                             f"{self.dt_stability_bound!r} for kp={self.kp}")
        if self.noise_power_dbw is not None and self.scenario in ("continuum", "open-loop"):
            raise ValueError(f"the {self.scenario} scenario takes no feedback noise")
        # The agent loop takes round(t_end / dt) steps and samples every
        # round(sample_every / dt) of them, while the continuum lands on the
        # exact instants; off the dt grid the two would disagree silently.
        for name in ("t_end", "sample_every"):
            steps = getattr(self, name) / self.dt
            if round(steps) < 1 or abs(steps - round(steps)) > 1e-6:
                raise ValueError(f"{name}={getattr(self, name)} is not a whole multiple "
                                 f"of dt={self.dt}")

    @property
    def dt_stability_bound(self) -> float:
        """Explicit-scheme stability limit of the dominant feedback eigenvalue
        (~kp on the error): real-axis stability interval 2.78 for RK4, 2 for
        Euler."""
        return (2.78 if self.scheme == "rk4" else 2.0) / self.kp


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
    overrides.setdefault("initial", "clumped")
    return ScenarioConfig(scenario="open-loop", **overrides)


def continuum_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(scenario="continuum", **overrides)


def build_kernel(config: ScenarioConfig) -> MorseKernel:
    strength = 1.0 / config.n_agents if config.mean_field_scaling else 1.0
    return MorseKernel(config.attraction_strength, config.attraction_length, strength)


def build_target(config: ScenarioConfig):
    mass = float(config.n_agents)
    if config.scenario in ("regulate-mono", "continuum"):
        return MonomodalTarget(config.mu, config.concentration, mass)
    if config.scenario == "regulate-bimodal":
        return BimodalTarget(config.mu1, config.mu2, config.concentration, mass)
    if config.scenario == "track":
        return TrackingTarget(config.concentration, mass)
    if config.scenario == "open-loop":
        return MonomodalTarget(0.0, 0.0, mass)  # uniform reference for the KL metric
    raise ValueError(f"unknown scenario {config.scenario!r}")


def initial_positions(config: ScenarioConfig) -> np.ndarray:
    if config.initial == "even":
        return even_lattice(config.n_agents)
    h = config.clump_halfwidth
    return wrap_angle(-h + 2.0 * h * (np.arange(config.n_agents) + 0.5) / config.n_agents)


def _noise_std(power_dbw: float) -> float:
    return math.sqrt(10.0 ** (power_dbw / 10.0))


def _base_metadata(config: ScenarioConfig) -> dict:
    meta = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "interaction_strength": 1.0 / config.n_agents if config.mean_field_scaling else 1.0,
        "dt_stability_bound": config.dt_stability_bound,
    }
    if config.noise_power_dbw is not None:
        meta["noise_model"] = (
            "zero-mean gaussian added to q, variance 10^(P/10), "
            "i.i.d. per grid node per control update"
        )
        meta["noise_std"] = _noise_std(config.noise_power_dbw)
    return meta


def _record_sample(record: RunRecord, config: ScenarioConfig, t: float, rho: GridFunction,
                   rho_d: GridFunction, u: np.ndarray, positions=None):
    """Append one sample: the metrics row, then the agent and density rows
    the config asks for.  ``u`` is the control at the agents, or the U field
    on the grid when there are no ``positions`` (the continuum)."""
    grid = rho.grid
    e = GridFunction(grid, rho_d.values - rho.values)
    record.metrics.append((t, kl_divergence(rho, rho_d), l2_norm(e), float(np.abs(u).max())))
    if positions is not None and config.record_agents:
        record.agents.extend(zip([t] * positions.size, range(positions.size),
                                 positions.tolist(), u.tolist()))
    if config.record_density:
        record.density.extend(zip([t] * grid.m, grid.nodes.tolist(), rho.values.tolist(),
                                  rho_d.values.tolist()))


class _Controller:
    """One controller evaluation, shared by both runners: target, feedback q
    plus the configured noise, the worst |integral of q| so far, then the U
    field (none in the open loop; starved nodes as ``on_starved`` says,
    and under "zero" ``starved_updates`` counts the evaluations that had
    any).
    The grid, kernel, a static target and the noise generator are built
    once per run."""

    def __init__(self, config: ScenarioConfig, on_starved: str):
        self.config, self.on_starved = config, on_starved
        self.grid = RingGrid(config.grid_m)
        self.kernel = build_kernel(config)
        self.program = build_target(config)
        self.target = (None if isinstance(self.program, TrackingTarget)
                       else target_at(self.program, 0.0, self.grid)[0])
        self.gains = ControllerGains(config.kp)
        self.rng = None if config.noise_power_dbw is None else np.random.default_rng(config.seed)
        self.q_integral_worst = 0.0
        self.starved_updates = 0

    def desired(self, t: float) -> GridFunction:
        """The target density rho_d at time ``t``."""
        return self.target if self.target is not None else target_at(self.program, t, self.grid)[0]

    def __call__(self, rho: GridFunction, t: float):
        """The U field for the density ``rho`` at time ``t``, or None in the
        open loop."""
        if self.config.scenario == "open-loop":
            return None
        q = compute_feedback(rho, self.desired(t), self.kernel, self.gains)
        if self.rng is not None:
            noise = self.rng.normal(0.0, _noise_std(self.config.noise_power_dbw), self.grid.m)
            q = GridFunction(self.grid, q.values + noise)
        self.q_integral_worst = max(self.q_integral_worst, abs(integrate(q)))
        if self.on_starved == "zero":
            self.starved_updates += bool((rho.values < starvation_floor(rho)).any())
        return velocity_control(rho, q, on_starved=self.on_starved)


def run_microscopic(config: ScenarioConfig) -> RunRecord:
    """Closed-loop (or open-loop) agent simulation producing a full RunRecord."""
    # Far from every agent the estimate decays below the floor for small
    # swarms; those nodes are never sampled, so the control is zero there.
    controller = _Controller(config, on_starved="zero")
    estimator = WrappedGaussianEstimator(config.bandwidth, controller.grid)
    integrator = IntegratorSpec(dt=config.dt, scheme=config.scheme)
    state = SwarmState(initial_positions(config), 0.0)
    record = RunRecord(config=asdict(config), metadata=_base_metadata(config))
    n_steps = int(round(config.t_end / config.dt))
    stride = int(round(config.sample_every / config.dt))
    for i in range(n_steps + 1):
        rho_hat = estimator.estimate(state.positions)
        u_field = controller(rho_hat, state.t)
        if i % stride == 0 or i == n_steps:
            u = (np.zeros(state.n_agents) if u_field is None
                 else sample_agent_inputs(u_field, state.positions))
            _record_sample(record, config, state.t, rho_hat, controller.desired(state.t), u,
                           state.positions)
        if i < n_steps:
            state = step_swarm(state, controller.kernel, u_field, integrator)
    record.metadata["q_integral_worst"] = controller.q_integral_worst
    record.metadata["final_kl"] = record.final_kl()
    record.metadata["starved_updates"] = controller.starved_updates
    return record


def run_continuum_scenario(config: ScenarioConfig) -> RunRecord:
    """Finite-difference run of the controlled conservation law (N = infinity)."""
    controller = _Controller(config, on_starved="raise")
    mass = float(config.n_agents)
    rho0 = von_mises_density(0.0, 0.0, mass, controller.grid)  # uniform start, mass N
    run = run_continuum(ContinuumState(rho0, 0.0), controller.kernel,
                        lambda s: controller(s.rho, s.t), config.t_end,
                        cfl=config.cfl, dt_max=config.dt, sample_every=config.sample_every)
    record = RunRecord(config=asdict(config), metadata=_base_metadata(config))
    record.metadata["q_integral_worst"] = controller.q_integral_worst
    for s, u_field in zip(run, run.u_fields):
        u = np.zeros(s.rho.grid.m) if u_field is None else u_field.values
        _record_sample(record, config, s.t, s.rho, controller.desired(s.t), u)
    record.metadata["final_kl"] = record.final_kl()
    record.metadata["mass_drift"] = abs(integrate(run[-1].rho) - mass)
    record.metadata["continuum_steps"] = run.steps
    record.metadata["continuum_dt_min"] = run.dt_min
    record.metadata["continuum_dt_max"] = run.dt_max
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


def _run_jobs(fn, jobs, workers):
    # A pool forks all its workers at the first submit, so it gets no more
    # than there are jobs.
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers or os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))  # map preserves request order


def run_scalability_sweep(config: ScenarioConfig | None = None, n_list=None,
                          workers=None) -> list:
    """Final KL of the monomodal scenario per swarm size; 'inf' runs the continuum."""
    config = config or monomodal_config()
    n_list = list(DEFAULT_SWEEP_N if n_list is None else n_list)
    # The continuum limit is noise-free.
    members = [dict(scenario="continuum", noise_power_dbw=None) if n == "inf"
               else dict(scenario="regulate-mono", n_agents=int(n), record_agents=False,
                         record_density=False) for n in n_list]
    outcomes = _run_jobs(_sweep_member, [(config, m) for m in members], workers)
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
    outcomes = _run_jobs(_sweep_member, [(config, m) for m in members], workers)
    rows = []
    for i, power in enumerate(p_list):  # by position: == never holds for nan
        mine = outcomes[i * n_seeds:(i + 1) * n_seeds]
        errors = [status for _, status in mine if status != "ok"]
        if errors:
            rows.append((power, math.nan, errors[0]))
        else:
            rows.append((power, float(np.mean([kl for kl, _ in mine])), "ok"))
    return rows
