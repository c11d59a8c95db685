import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ringswarm import (
    GridFunction,
    MorseKernel,
    WrappedGaussianEstimator,
    compute_feedback,
    even_lattice,
    grid_nodes,
    run_continuum,
    step_swarm,
    velocity_control,
    velocity_field,
    von_mises_density,
)
import ringswarm
from ringswarm import dynamics, scenarios
from ringswarm.control import starvation_floor
from ringswarm.cli import main as cli_main
from ringswarm.records import AGENTS_HEADER, DENSITY_HEADER, METRICS_HEADER, SWEEP_HEADER
from ringswarm.scenarios import (
    ScenarioConfig,
    bimodal_config,
    continuum_config,
    monomodal_config,
    open_loop_config,
    run_continuum_scenario,
    run_microscopic,
    run_noise_sweep,
    run_scalability_sweep,
    tracking_config,
)


# One invalid config per validation rule of ScenarioConfig.
INVALID_CONFIGS = {
    "n-agents-fractional": {"n_agents": 12.5},
    "t-end-off-dt-grid": {"t_end": 0.0125},
    "sample-every-off-dt-grid": {"t_end": 0.01, "sample_every": 0.0035},
    "sample-every-below-dt": {"sample_every": 5e-4},
    "dt-above-rk4-stability-bound": {"dt": 0.4, "t_end": 0.4, "sample_every": 0.4},
    "noise-on-continuum": {"scenario": "continuum", "noise_power_dbw": 20.0},
    "noise-on-open-loop": {"scenario": "open-loop", "noise_power_dbw": 20.0},
    "kp-nan": {"kp": math.nan},
    "t-end-inf": {"t_end": math.inf},
    "sample-every-inf": {"sample_every": math.inf},
    "concentration-negative": {"concentration": -1.0},
    "concentration-overflow": {"concentration": 800.0},
    "seed-negative": {"seed": -1},
    "seed-fractional": {"seed": 1.5},
    "n-agents-bool": {"n_agents": True},
    "record-agents-string": {"record_agents": "no"},
    "mu-string": {"mu": "0"},
    "noise-power-string": {"noise_power_dbw": "20"},
    "noise-power-overflow": {"scenario": "regulate-mono", "noise_power_dbw": 4000.0},
    "kp-zero": {"kp": 0.0},
    "dt-zero": {"dt": 0.0},
}


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def replay_direct_steps(cfg):
    """Replay the continuum of ``cfg`` as the plain per-step loop written
    out here (the Rusanov step as its np.roll formula, the step capped at
    1/kp) against run_continuum driven by the scenario's controller and
    against the scenario run's counters; assert that the sampled states, U
    fields, step count, step extremes and smallest step bound are bitwise
    equal, and return the steps and their bounds."""
    controller = scenarios._Controller(cfg, refuse_starved=True)
    x, kernel = controller.nodes, controller.kernel
    spacing, mass = 2.0 * np.pi / scenarios.GRID_M, float(cfg.n_agents)
    start = von_mises_density(0.0, 0.0, mass, x)
    run = run_continuum(start, 0.0, controller.samples, controller, cfg.t_end,
                        dt_max=1.0 / cfg.kp, sample_every=cfg.sample_every)

    samples = kernel.sample_on_grid(scenarios.GRID_M)
    rho_d = von_mises_density(cfg.mu, cfg.concentration, mass, x)
    v_d = velocity_field(samples, rho_d)

    def control(rho):
        v = velocity_field(samples, rho)
        q = compute_feedback(rho, v, rho_d, v_d, cfg.kp)
        starved = rho < starvation_floor(rho)
        assert not starved.any()
        return v, velocity_control(rho, q, starved)

    rho, t, k = start, 0.0, 1
    states, u_fields, steps, bounds = [(t, rho)], [], [], []
    while t < cfg.t_end - 1e-12:
        target = min(k * cfg.sample_every, cfg.t_end)
        v, u = control(rho)
        if len(u_fields) < len(states):
            u_fields.append(u)
        w = v + u
        bounds.append(min(dynamics.CFL * spacing / float(np.abs(w).max()), 1.0 / cfg.kp))
        dt = min(bounds[-1], target - t)
        flux = rho * w
        a = np.maximum(np.abs(w), np.abs(np.roll(w, -1)))
        face = 0.5 * (flux + np.roll(flux, -1)) - 0.5 * a * (np.roll(rho, -1) - rho)
        rho = np.maximum(rho - (dt / spacing) * (face - np.roll(face, 1)), 0.0)
        t += dt
        steps.append(dt)
        if t >= target - 1e-12:
            states.append((t, rho))
            k += 1
    u_fields.append(control(rho)[1])

    assert list(run.times) == [t for t, _ in states]
    assert all(np.array_equal(a, b)
               for a, (_, b) in zip(run.densities, states, strict=True))
    assert all(np.array_equal(a, b) for a, b in zip(run.u_fields, u_fields, strict=True))
    expected = (len(steps), min(steps), max(steps), min(bounds))
    assert (run.steps, run.dt_min, run.dt_max, run.dt_bound_min) == expected
    meta = run_continuum_scenario(cfg).metadata
    assert (meta["continuum_steps"], meta["continuum_dt_min"], meta["continuum_dt_max"],
            meta["continuum_dt_bound_min"]) == expected
    return steps, bounds


class TestConfigDefaults:
    def test_monomodal_defaults(self):
        cfg = monomodal_config()
        assert cfg.n_agents == 50
        assert scenarios.build_kernel(cfg) == MorseKernel(0.5, 0.5, strength=1.0 / 50)
        assert cfg.kp == 10.0
        assert cfg.concentration == 4.0
        assert cfg.mu == 0.0
        assert cfg.t_end == 3.0

    def test_bimodal_defaults(self):
        cfg = bimodal_config()
        assert cfg.concentration == 8.0
        assert scenarios.BIMODAL_MEANS == pytest.approx((math.pi / 2, -math.pi / 2))

    def test_tracking_defaults(self):
        cfg = tracking_config()
        assert cfg.concentration == 4.0
        assert cfg.t_end == 4.0

    def test_open_loop_defaults(self):
        cfg = open_loop_config()
        assert cfg.t_end == 20.0
        # the clumped starts lie inside [-pi, pi), so wrapping moves none
        h, n = scenarios.CLUMP_HALFWIDTH, cfg.n_agents
        expected = -h + 2.0 * h * (np.arange(n) + 0.5) / n
        assert np.array_equal(scenarios.initial_positions(cfg), expected)

    @pytest.mark.parametrize("factory, overrides", [
        (monomodal_config, {"mu": 1.0}), (monomodal_config, {"concentration": 2.0}),
        (continuum_config, {"mu": 1.0}), (continuum_config, {"concentration": 2.0}),
        (bimodal_config, {"concentration": 4.0}), (tracking_config, {"concentration": 2.0})])
    def test_factories_take_overrides_of_their_fields(self, factory, overrides):
        cfg = factory(**overrides)
        assert all(getattr(cfg, name) == value for name, value in overrides.items())

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=0)
        with pytest.raises(ValueError):
            ScenarioConfig(t_end=-1.0)
        with pytest.raises(ValueError, match="scenario must be one of"):
            ScenarioConfig(scenario="bogus")

    @pytest.mark.parametrize("overrides", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS.keys())
    def test_validation_rule(self, overrides):
        with pytest.raises(ValueError):
            ScenarioConfig(**overrides)

    def test_integer_in_a_float_field_is_stored_as_a_float(self):
        cfg = ScenarioConfig(kp=10, t_end=1, noise_power_dbw=20)
        assert [type(v) for v in (cfg.kp, cfg.t_end, cfg.noise_power_dbw)] == [float] * 3
        assert cfg == ScenarioConfig(kp=10.0, t_end=1.0, noise_power_dbw=20.0)
        with pytest.raises(ValueError, match="kp must be of type float"):
            ScenarioConfig(kp=True)
        with pytest.raises(OverflowError):
            ScenarioConfig(kp=10 ** 400)


@pytest.fixture(scope="module")
def short_record():
    return run_microscopic(monomodal_config(n_agents=12, t_end=0.3, seed=3))


class TestRunRecords:
    def test_metric_rows_sorted_and_sane(self, short_record):
        times = [row[0] for row in short_record.metrics]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(0.3)
        for _, d_kl, e_l2, u_max in short_record.metrics:
            assert d_kl >= 0.0 and e_l2 >= 0.0 and u_max >= 0.0

    def test_q_integral_tracked(self, short_record):
        assert short_record.metadata["q_integral_worst"] < 1e-9

    def test_row_counts(self, short_record):
        n_samples = len(short_record.metrics)
        assert n_samples == 7  # 0.0, 0.05, ..., 0.25 plus the final state
        assert sum(x.size for _, x, _ in short_record.agents) == 12 * n_samples
        assert sum(rho.size for _, rho, _ in short_record.density) == 256 * n_samples

    def test_written_files_and_headers(self, short_record, tmp_path):
        paths = short_record.write(tmp_path / "run")
        header, rows = read_rows(paths["metrics"])
        assert tuple(header) == METRICS_HEADER
        assert len(rows) == len(short_record.metrics)
        header, _ = read_rows(paths["agents"])
        assert tuple(header) == AGENTS_HEADER
        header, _ = read_rows(paths["density"])
        assert tuple(header) == DENSITY_HEADER
        text = paths["metadata"].read_text()
        assert "n_agents = 12" in text
        assert "seed = 3" in text

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = monomodal_config(n_agents=10, t_end=0.2, seed=11)
        a = run_microscopic(cfg).write(tmp_path / "a")
        b = run_microscopic(cfg).write(tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_noise_changes_with_seed_only(self):
        base = monomodal_config(n_agents=10, t_end=0.1, noise_power_dbw=30.0,
                                record_agents=False, record_density=False)
        from dataclasses import replace
        k1 = run_microscopic(base).final_kl()
        k2 = run_microscopic(replace(base, seed=base.seed)).final_kl()
        k3 = run_microscopic(replace(base, seed=base.seed + 1)).final_kl()
        assert k1 == k2
        assert k1 != k3

    def test_library_loop_is_the_harness_loop(self):
        # the README's estimator -> feedback -> U -> step_swarm loop,
        # composed by hand, must replay run_microscopic exactly
        cfg = monomodal_config(n_agents=10, t_end=0.1)
        rec = run_microscopic(cfg)
        t_final, final, _ = rec.agents[-1]
        assert t_final == rec.metrics[-1][0]

        kernel = MorseKernel(strength=1.0 / cfg.n_agents)
        target = von_mises_density(cfg.mu, cfg.concentration, float(cfg.n_agents),
                                   grid_nodes(scenarios.GRID_M))
        estimator = WrappedGaussianEstimator(scenarios.BANDWIDTH, scenarios.GRID_M)
        samples = kernel.sample_on_grid(scenarios.GRID_M)
        v_target = velocity_field(samples, target)

        def control(x):
            rho = estimator.estimate(x)
            q = compute_feedback(rho, velocity_field(samples, rho), target, v_target, cfg.kp)
            starved = rho < starvation_floor(rho)
            return velocity_control(rho, q, starved)

        x = even_lattice(cfg.n_agents)
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            x = step_swarm(x, kernel, control(x), cfg.dt)
        assert np.array_equal(x, final)

    def test_readme_example_runs(self):
        # the README's Library example, as written there, against this package
        root = Path(__file__).resolve().parent.parent
        blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
        assert len(blocks) == 1
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr

    def test_library_loop_is_the_continuum_harness_loop(self):
        # target -> feedback -> U composed by hand and handed to
        # run_continuum must replay run_continuum_scenario exactly
        cfg = continuum_config(t_end=0.1)
        rec = run_continuum_scenario(cfg)

        x = grid_nodes(scenarios.GRID_M)
        mass = float(cfg.n_agents)
        kernel = MorseKernel(strength=1.0 / cfg.n_agents)
        samples = kernel.sample_on_grid(scenarios.GRID_M)
        q_integral_worst = 0.0

        def control(rho, v, t):
            nonlocal q_integral_worst
            rho_d = von_mises_density(cfg.mu, cfg.concentration, mass, x)
            q = compute_feedback(rho, v, rho_d, velocity_field(samples, rho_d), cfg.kp)
            q_integral_worst = max(q_integral_worst,
                                   abs(float((2.0 * np.pi / scenarios.GRID_M) * q.sum())))
            starved = rho < starvation_floor(rho)
            assert not starved.any()
            return velocity_control(rho, q, starved)

        run = run_continuum(von_mises_density(0.0, 0.0, mass, x), 0.0, samples, control,
                            cfg.t_end, dt_max=1.0 / cfg.kp, sample_every=cfg.sample_every)
        rho_rows = np.concatenate([rho for _, rho, _ in rec.density])
        assert np.array_equal(rho_rows, np.concatenate(run.densities))
        assert rec.metadata["q_integral_worst"] == q_integral_worst

    def test_continuum_replays_with_warm_caches(self, tmp_path):
        # two runs of one config in one process write the same bytes:
        # nothing a run builds (the kernel samples, their spectrum, the
        # target) outlives it
        cfg = continuum_config(t_end=0.2)
        first = run_continuum_scenario(cfg).write(tmp_path / "first")
        second = run_continuum_scenario(cfg).write(tmp_path / "second")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes(), key

    @pytest.mark.parametrize("cfg", [continuum_config(t_end=0.1),
                                     monomodal_config(n_agents=10, t_end=0.1)],
                             ids=["continuum", "regulate-mono"])
    def test_static_target_is_convolved_once_per_run(self, cfg, monkeypatch):
        # the target's velocity field is a constant of the run: convolved
        # when the controller is built, then handed to every feedback
        targets, convolved = [], []

        def feedback(rho, v, rho_d, *args):
            targets.append(rho_d)
            return compute_feedback(rho, v, rho_d, *args)

        def convolve(samples, density):
            convolved.append(density)
            return velocity_field(samples, density)

        monkeypatch.setattr(scenarios, "compute_feedback", feedback)
        for module in (scenarios, dynamics):
            monkeypatch.setattr(module, "velocity_field", convolve)
        (run_continuum_scenario if cfg.scenario == "continuum" else run_microscopic)(cfg)
        assert len(targets) > 1 and all(t is targets[0] for t in targets)
        assert sum(d is targets[0] for d in convolved) == 1

    @pytest.mark.parametrize("cfg", [continuum_config(t_end=0.1),
                                     monomodal_config(n_agents=10, t_end=0.1)],
                             ids=["continuum", "regulate-mono"])
    def test_one_convolution_per_update(self, cfg, monkeypatch):
        # the target once, then V(rho) per update: the feedback forms
        # V(e) = Vd - V(rho), and in the continuum it reuses the V(rho)
        # that the step convolved; the continuum's final sample is the one
        # update that no step shares
        calls = []

        def convolve(*args):
            calls.append(args)
            return velocity_field(*args)

        for module in (scenarios, dynamics):
            monkeypatch.setattr(module, "velocity_field", convolve)
        if cfg.scenario == "continuum":
            rec = run_continuum_scenario(cfg)
            assert len(calls) == rec.metadata["continuum_steps"] + 2
        else:
            run_microscopic(cfg)
            updates = round(cfg.t_end / cfg.dt) + 1
            assert len(calls) == updates + 1

    def test_continuum_run_rolls_with_its_target(self):
        # a target shifted by whole grid steps gives the same run, rolled:
        # the velocity solve's gauge does not depend on the seam -pi
        shift, m = 40, 256
        base = run_continuum_scenario(continuum_config(t_end=0.5))
        moved = run_continuum_scenario(continuum_config(mu=shift * 2 * math.pi / m, t_end=0.5))
        assert moved.metadata["continuum_steps"] == base.metadata["continuum_steps"]
        rho, rho_moved = (np.array([r for _, r, _ in rec.density]) for rec in (base, moved))
        assert np.abs(np.roll(rho, shift, axis=1) - rho_moved).max() <= 1e-12 * rho.max()

    def test_continuum_record(self):
        rec = run_continuum_scenario(monomodal_config(t_end=0.3, record_density=False))
        assert rec.metadata["mass_drift"] < 1e-9
        assert rec.metadata["q_integral_worst"] < 1e-9
        assert rec.metrics[-1][0] == pytest.approx(0.3)
        assert len(rec.agents) == 0
        assert "starved_updates" not in rec.metadata  # a starved node raises there

    def test_continuum_runner_refuses_a_starved_node_whatever_the_scenario(self):
        # the runner, not the config's scenario name, sets the policy: the
        # k = 8 target's antipodal tail starves the regulated density
        with pytest.raises(ValueError, match="below floor"):
            run_continuum_scenario(monomodal_config(concentration=8.0, t_end=2.0,
                                                    record_density=False))

    def test_two_agents_starve_every_update(self):
        rec = run_microscopic(monomodal_config(n_agents=2, t_end=0.2, record_agents=False,
                                               record_density=False))
        assert rec.metadata["starved_updates"] == 201  # t = 0, 0.001, ..., 0.2

    def test_starved_updates_count_the_zeroed_controls(self, monkeypatch):
        # an update counts when the U it applies was zeroed at some node:
        # rho below 1e-6 of its mean there
        zeroed = []

        def spy(rho, q, starved):
            floor = 1e-6 * rho.mean()
            zeroed.append(bool((rho < floor).any()))
            return velocity_control(rho, q, starved)

        monkeypatch.setattr(scenarios, "velocity_control", spy)
        rec = run_microscopic(monomodal_config(n_agents=5, t_end=0.3, record_agents=False,
                                               record_density=False))
        assert 0 < sum(zeroed) < len(zeroed) == 301
        assert rec.metadata["starved_updates"] == sum(zeroed)
        open_loop = run_microscopic(open_loop_config(n_agents=12, t_end=0.1))
        assert open_loop.metadata["starved_updates"] == 0

    def test_recorded_controls_are_the_applied_ones(self):
        # run_continuum hands back the U of each sampled state, the last one
        # included; each is bitwise a fresh controller evaluation of that state, and
        # the record's u_max column and step counters come from the same run
        cfg = continuum_config(t_end=0.2)
        rec = run_continuum_scenario(cfg)
        controller = scenarios._Controller(cfg, refuse_starved=True)
        start = von_mises_density(0.0, 0.0, 50.0, controller.nodes)
        run = run_continuum(start, 0.0, controller.samples, controller, cfg.t_end,
                            dt_max=1.0 / cfg.kp, sample_every=cfg.sample_every)
        fresh = [scenarios._Controller(cfg, refuse_starved=True)(
                     rho, velocity_field(controller.samples, rho), t)
                 for t, rho in zip(run.times, run.densities)]
        assert len(run.times) == len(rec.metrics) == 5
        assert all(np.array_equal(applied, u)
                   for applied, u in zip(run.u_fields, fresh, strict=True))
        assert [row[3] for row in rec.metrics] == [float(np.abs(u).max()) for u in fresh]
        meta = rec.metadata
        assert (meta["continuum_steps"], meta["continuum_dt_min"], meta["continuum_dt_max"]) \
            == (run.steps, run.dt_min, run.dt_max)
        assert 0.0 < run.dt_min < run.dt_max <= 1.0 / cfg.kp

    def test_feedback_runs_once_per_step_and_for_the_final_sample(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return compute_feedback(*args)

        monkeypatch.setattr(scenarios, "compute_feedback", counted)
        rec = run_continuum_scenario(continuum_config(t_end=0.2))
        assert len(calls) == rec.metadata["continuum_steps"] + 1

    def test_each_step_calls_continuum_velocity_by_its_module_name(self, monkeypatch):
        # perfbench counts the continuum's updates by wrapping
        # dynamics.continuum_velocity; a rename or a local alias in the loop
        # would read 0 updates there and fails here instead
        calls = []
        original = dynamics.continuum_velocity

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dynamics, "continuum_velocity", counted)
        rec = run_continuum_scenario(continuum_config(t_end=0.2))
        assert len(calls) == rec.metadata["continuum_steps"] > 100

    def test_grid_functions_are_built_per_sample_not_per_step(self, monkeypatch):
        built = []
        post_init = GridFunction.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GridFunction, "__post_init__", counted)
        # every field is a plain array: a run builds the kernel samples only
        rec = run_continuum_scenario(continuum_config(t_end=0.2))
        assert rec.metadata["continuum_steps"] > 100
        assert len(built) == 1
        built.clear()
        rec = run_microscopic(monomodal_config(n_agents=10, t_end=0.1))
        assert len(rec.metrics) > 1
        assert len(built) == 1

    def test_run_replays_the_direct_step_oracle(self):
        # over 0.2 s the CFL bound sets every step; the sampling instants cut
        # some steps below the smallest bound, which dt_bound_min ignores
        steps, bounds = replay_direct_steps(continuum_config(t_end=0.2))
        assert max(steps) < 1.0 / 10.0
        assert min(steps) < min(bounds)

    def test_run_replays_the_direct_step_oracle_where_the_cap_binds(self):
        # at kp = 100 the step cap 1/kp = 0.01 sets the longest steps
        steps, bounds = replay_direct_steps(continuum_config(kp=100.0, t_end=0.5))
        assert max(steps) == max(bounds) == 1.0 / 100.0

    def test_default_run_steps_at_the_courant_bound(self):
        # at a Courant number of 0.9 the default run takes 297 steps (611
        # at 0.4), so a quiet return to the old number fails here
        meta = run_continuum_scenario(continuum_config(record_density=False)).metadata
        assert meta["continuum_steps"] <= 300

    def test_sampled_error_does_not_depend_on_the_courant_number(self, monkeypatch):
        # against a run at an eighth of the Courant number, every sampled
        # e_l2 agrees within 1% of the initial error (0.22% measured) and
        # within 2% of its own value (1.2% mid-transient, where the m = 256
        # grid's own error is about 2%); the steady-state final_kl agrees in
        # its late digits
        cfg = continuum_config(record_density=False)
        base = run_continuum_scenario(cfg)
        monkeypatch.setattr(dynamics, "CFL", dynamics.CFL / 8.0)
        fine = run_continuum_scenario(cfg)
        assert fine.metadata["continuum_steps"] > 4 * base.metadata["continuum_steps"]
        assert [row[0] for row in base.metrics] == [row[0] for row in fine.metrics]
        e_base, e_fine = ([row[2] for row in rec.metrics] for rec in (base, fine))
        assert e_base == pytest.approx(e_fine, rel=0.0, abs=1e-2 * e_fine[0])
        assert e_base == pytest.approx(e_fine, rel=2e-2, abs=0.0)
        assert base.final_kl() == pytest.approx(fine.final_kl(), rel=1e-8, abs=0.0)

    def test_continuum_result_does_not_depend_on_dt(self):
        # the continuum steps at its own bounds: config.dt only sets the
        # sampling grid, which t_end and sample_every must fit
        final = [run_continuum_scenario(continuum_config(record_density=False, **kw))
                 .final_kl() for kw in ({}, {"dt": 0.05},
                                        {"dt": 0.25, "sample_every": 0.25})]
        assert final[1:] == pytest.approx([final[0]] * 2, rel=1e-9, abs=0.0)

    def test_continuum_steps_stay_within_the_gain_bound(self):
        # forward Euler needs dt < 2/kp on the gain mode; every step stays at
        # or below 1/kp, here below the default dt of 1e-3
        meta = run_continuum_scenario(continuum_config(kp=2500.0, t_end=0.2,
                                                       record_density=False)).metadata
        assert 0.0 < meta["continuum_dt_min"] <= meta["continuum_dt_max"] <= 1.0 / 2500.0
        assert meta["continuum_dt_cap"] == 1.0 / 2500.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cfg", [continuum_config(t_end=0.1),
                                     monomodal_config(n_agents=10, t_end=0.1)],
                             ids=["continuum", "regulate-mono"])
    def test_non_finite_feedback_stops_the_run(self, cfg, bad, monkeypatch):
        # the loop runs on plain arrays, so nothing else checks q: a
        # non-finite entry injected at the fifth update must stop the run
        # with a message instead of returning a record
        calls = []

        def poisoned(*args):
            q = compute_feedback(*args)
            calls.append(q)
            if len(calls) == 5:
                q[17] = bad
            return q

        monkeypatch.setattr(scenarios, "compute_feedback", poisoned)
        run = run_continuum_scenario if cfg.scenario == "continuum" else run_microscopic
        with pytest.raises((RuntimeError, ValueError), match="non-finite feedback q"):
            run(cfg)
        assert len(calls) == 5


class TestSweeps:
    def test_scalability_rows_in_request_order(self):
        cfg = monomodal_config(t_end=0.2, record_agents=False, record_density=False)
        rows = run_scalability_sweep(cfg, n_list=[1, 5, "inf"], workers=1)
        assert [r[0] for r in rows] == ["1", "5", "inf"]
        assert all(r[2] == "ok" for r in rows)
        assert all(np.isfinite(r[1]) for r in rows)

    def test_failures_become_error_rows(self):
        cfg = monomodal_config(t_end=0.2, record_agents=False, record_density=False)
        rows = run_scalability_sweep(cfg, n_list=[0, 5], workers=1)
        assert rows[0][0] == "0"
        assert rows[0][2].startswith("error:")
        assert math.isnan(rows[0][1])
        assert rows[1][2] == "ok"

    def test_parallel_matches_serial(self):
        cfg = monomodal_config(t_end=0.2, record_agents=False, record_density=False)
        serial = run_scalability_sweep(cfg, n_list=[5, 10], workers=1)
        parallel = run_scalability_sweep(cfg, n_list=[5, 10], workers=2)
        assert serial == parallel
        cfg = monomodal_config(t_end=0.1, n_agents=10)
        serial = run_noise_sweep(cfg, p_list=[0.0, 40.0], n_seeds=1, workers=1)
        parallel = run_noise_sweep(cfg, p_list=[0.0, 40.0], n_seeds=1, workers=2)
        assert serial == parallel and [r[2] for r in serial] == ["ok", "ok"]

    def test_unconvertible_entries_fail_before_any_member_runs(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_sweep_member", lambda job: pytest.fail("a member ran"))
        cfg = monomodal_config(t_end=0.01)
        with pytest.raises(ValueError):
            run_scalability_sweep(cfg, n_list=[5, "five"], workers=1)
        with pytest.raises(ValueError):
            run_noise_sweep(cfg, p_list=[0.0, "loud"], n_seeds=1, workers=1)

    def test_pool_is_capped_at_the_job_count(self, monkeypatch):
        # a pool forks all its workers at once, so none are started here
        class Recorder:
            def __init__(self, max_workers):
                assert max_workers == 2
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        seen = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = monomodal_config(t_end=0.01, record_agents=False, record_density=False)
        rows = run_scalability_sweep(cfg, n_list=[1, 5], workers=10**6)
        assert seen == [2]
        assert [r[2] for r in rows] == ["ok", "ok"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        cfg = monomodal_config(t_end=0.01)
        with pytest.raises(ValueError, match="workers"):
            run_scalability_sweep(cfg, n_list=[1], workers=workers)
        with pytest.raises(ValueError, match="workers"):
            run_noise_sweep(cfg, p_list=[0.0], n_seeds=1, workers=workers)

    def test_import_leaves_the_process_pool_unloaded(self):
        # only a sweep with workers > 1 imports the pool, so runs do not pay for it
        code = ("import sys, ringswarm, ringswarm.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        src = str(Path(ringswarm.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_continuum_member_of_a_noisy_sweep_is_noise_free(self):
        cfg = monomodal_config(t_end=0.1, noise_power_dbw=20.0, record_agents=False,
                               record_density=False)
        rows = run_scalability_sweep(cfg, n_list=["inf"], workers=1)
        clean = run_continuum_scenario(continuum_config(t_end=0.1, record_agents=False,
                                                        record_density=False))
        assert rows == [("inf", clean.final_kl(), "ok")]

    def test_noise_sweep_needs_a_seed(self):
        with pytest.raises(ValueError, match="n_seeds"):
            run_noise_sweep(monomodal_config(t_end=0.1), p_list=[0.0], n_seeds=0, workers=1)

    def test_noise_sweep_rows(self):
        cfg = monomodal_config(t_end=0.2, record_agents=False, record_density=False)
        rows = run_noise_sweep(cfg, p_list=[0.0, 60.0], n_seeds=2, workers=1)
        assert [r[0] for r in rows] == [0.0, 60.0]
        assert all(r[2] == "ok" for r in rows)
        rows2 = run_noise_sweep(cfg, p_list=[0.0, 60.0], n_seeds=2, workers=1)
        assert rows == rows2  # seeded noise replays exactly

    def test_noise_sweep_reports_a_nan_power_as_an_error(self):
        cfg = monomodal_config(t_end=0.01, n_agents=5, record_agents=False,
                               record_density=False)
        rows = run_noise_sweep(cfg, p_list=[0.0, math.nan], n_seeds=2, workers=1)
        assert rows[0][2] == "ok"
        assert math.isnan(rows[1][0]) and math.isnan(rows[1][1])
        assert rows[1][2].startswith("error: noise_power_dbw must be finite")


@pytest.fixture(scope="module")
def full_mono():
    return run_microscopic(monomodal_config(record_density=False))


@pytest.fixture(scope="module")
def full_tracking():
    return run_microscopic(tracking_config(record_agents=False, record_density=False))


class TestFullScenarios:
    """Behavioural checks on the full default scenarios."""

    def test_monomodal_error_norm_shrinks(self, full_mono):
        assert full_mono.final_kl() < 0.2
        assert full_mono.metrics[-1][2] < full_mono.metrics[0][2]

    def test_monomodal_inputs_settle(self, full_mono):
        by_time = {round(t, 6): u for t, _, u in full_mono.agents}  # u by agent id
        u_end, u_mid = by_time[3.0], by_time[2.5]
        assert np.abs(u_end - u_mid).max() < 0.05 * np.abs(u_end).max()

    def test_bimodal_final_density_mirror_symmetric(self):
        record = run_microscopic(bimodal_config(record_agents=False))
        t_final, rho, _ = record.density[-1]
        assert t_final == record.metrics[-1][0]
        from ringswarm import kl_divergence
        mirrored = np.roll(rho[::-1], 1)
        assert kl_divergence(rho, mirrored) < 0.05
        assert record.final_kl() < 0.2

    def test_tracking_divergence_bounded(self, full_tracking):
        late = [row[1] for row in full_tracking.metrics if row[0] > 1.0]
        assert max(late) < 0.5

    def test_tracking_mode_follows_schedule(self):
        record = run_microscopic(tracking_config(record_agents=False))
        from ringswarm import wrap_angle
        from ringswarm.density import tracking_mean
        angles = record.node_angles
        worst = 0.0
        for t, rho, _ in record.density:
            if t <= 1.0:
                continue
            peak = angles[int(np.argmax(rho))]
            mu = tracking_mean(t)[0]
            worst = max(worst, abs(float(wrap_angle(peak - mu))))
        assert worst < 0.2

    def test_tracking_matches_regulation_during_hold(self, full_mono, full_tracking):
        # identical configurations until the mean starts moving at t = 0.5
        mono_rows = [r for r in full_mono.metrics if r[0] < 0.5]
        track_rows = [r for r in full_tracking.metrics if r[0] < 0.5]
        assert mono_rows == track_rows

    def test_low_noise_stays_near_noiseless(self, full_mono):
        noisy = run_microscopic(monomodal_config(noise_power_dbw=0.0, seed=5,
                                                 record_agents=False,
                                                 record_density=False))
        assert abs(noisy.final_kl() - full_mono.final_kl()) < 0.05


class TestCli:
    def test_regulate_mono_deterministic_outputs(self, tmp_path, capsys):
        args = ["regulate-mono", "--seed", "7", "--t-end", "0.2", "--n", "10"]
        assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("metrics.csv", "agents.csv", "density.csv", "metadata.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_output_directory_created(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        code = cli_main(["regulate-mono", "--t-end", "0.1", "--n", "5",
                         "--out", str(out)])
        assert code == 0
        assert (out / "metrics.csv").exists()

    def test_sweep_n_table(self, tmp_path):
        out = tmp_path / "sweep"
        code = cli_main(["sweep-n", "--n-list", "1,5,50,inf", "--t-end", "0.2",
                         "--out", str(out)])
        assert code == 0
        header, rows = read_rows(out / "sweep.csv")
        assert tuple(header) == SWEEP_HEADER
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["1", "5", "50", "inf"]

    def test_sweep_noise_table(self, tmp_path):
        out = tmp_path / "noise"
        code = cli_main(["sweep-noise", "--p-list", "0,40", "--seeds", "2",
                         "--t-end", "0.1", "--n", "10", "--out", str(out)])
        assert code == 0
        _, rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sweeps_report_each_member_on_stderr(self, tmp_path, capsys, workers):
        # one line per finished member in request order, serial or pooled;
        # stdout keeps only the table
        sweeps = [(["sweep-n", "--n-list", "5,1,inf", "--t-end", "0.05"],
                   ["N=5", "N=1", "N=inf"]),
                  (["sweep-noise", "--p-list", "40,0", "--seeds", "2", "--t-end", "0.05",
                    "--n", "5"],
                   ["P=40.0 dBW seed=0", "P=40.0 dBW seed=1000", "P=0.0 dBW seed=0",
                    "P=0.0 dBW seed=1000"])]
        for args, labels in sweeps:
            out = tmp_path / args[0]
            assert cli_main(args + ["--workers", workers, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert [line.split(" d_kl=")[0] for line in lines] == [
                f"{args[0]} {label} ({i}/{len(labels)}):" for i, label in enumerate(labels, 1)]
            assert all(line.endswith(" [ok]") for line in lines)
            assert "d_kl" in captured.out and args[0] not in captured.out

    def test_continuum_subcommand(self, tmp_path):
        out = tmp_path / "cont"
        assert cli_main(["continuum", "--t-end", "0.2", "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        counters = (out / "metadata.txt").read_text().splitlines()[-5:]
        assert [line.split(" = ")[0] for line in counters] == [
            "continuum_steps", "continuum_dt_min", "continuum_dt_max", "continuum_dt_bound_min",
            "continuum_dt_cap"]

    def test_track_subcommand(self, tmp_path):
        out = tmp_path / "tr"
        assert cli_main(["track", "--t-end", "0.1", "--n", "8", "--out", str(out)]) == 0

    def test_open_loop_subcommand(self, tmp_path):
        out = tmp_path / "ol"
        assert cli_main(["open-loop", "--t-end", "0.1", "--n", "8", "--out", str(out)]) == 0

    def test_unknown_flag_is_usage_error(self):
        assert cli_main(["regulate-mono", "--no-such-flag"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert cli_main(["no-such-command"]) == 2

    def test_malformed_n_list_is_usage_error(self):
        assert cli_main(["sweep-n", "--n-list", "1,abc"]) == 2

    @pytest.mark.parametrize("n_list", ["0,-3,2", "5,0"])
    def test_n_list_below_one_is_usage_error(self, tmp_path, n_list):
        out = tmp_path / "sweep"
        assert cli_main(["sweep-n", "--n-list", n_list, "--out", str(out)]) == 2
        assert not out.exists()

    def test_zero_seeds_is_usage_error(self, tmp_path):
        out = tmp_path / "noise"
        assert cli_main(["sweep-noise", "--seeds", "0", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-n", "sweep-noise"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, tmp_path, command, workers):
        out = tmp_path / "sweep"
        assert cli_main([command, "--workers", workers, "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_p_list_is_usage_error(self):
        assert cli_main(["sweep-noise", "--p-list", "0,x"]) == 2

    @pytest.mark.parametrize("p_list", ["0,nan", "0,inf", "0,-inf"])
    def test_non_finite_p_list_is_usage_error(self, tmp_path, p_list):
        out = tmp_path / "noise"
        assert cli_main(["sweep-noise", "--p-list", p_list, "--out", str(out)]) == 2
        assert not out.exists()

    def test_p_list_power_whose_variance_overflows_is_usage_error(self, tmp_path, capsys):
        # 10^(4000/10) overflows a float: refused before any member runs
        out = tmp_path / "noise"
        assert cli_main(["sweep-noise", "--p-list", "0,4000", "--seeds", "1", "--t-end", "0.01",
                         "--n", "5", "--out", str(out)]) == 2
        assert not out.exists()
        assert "noise_power_dbw=4000.0 overflows" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"n_agents": 12, "t_end": 0.1}))
        out = tmp_path / "run"
        code = cli_main(["regulate-mono", "--config", str(cfg_file),
                         "--n", "6", "--out", str(out)])
        assert code == 0
        text = (out / "metadata.txt").read_text()
        assert "n_agents = 6" in text       # flag wins
        assert "t_end = 0.1" in text        # file value survives

    def test_bad_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        for overrides in ({"bogus": 1}, {"integration_constant": "zero"},
                          {"mean_field_scaling": True}, {"scheme": "euler"}, {"cfl": 0.4},
                          {"clump_halfwidth": 0.3}, {"grid_m": 256}, {"bandwidth": 0.2},
                          {"initial": "even"}, {"mu1": 1.0}, {"mu2": -1.0},
                          {"attraction_strength": 0.5}, {"attraction_length": 0.5}):
            cfg_file.write_text(json.dumps(overrides))
            assert cli_main(["regulate-mono", "--config", str(cfg_file)]) == 2

    def test_scheme_flag_is_usage_error(self, tmp_path):
        # the agents always step RK4 on a fixed grid with a fixed estimator:
        # a flag for the integrator, the grid or the bandwidth is a usage error
        out = tmp_path / "run"
        for flag in (["--scheme", "euler"], ["--grid-m", "128"], ["--bandwidth", "0.3"]):
            assert cli_main(["regulate-mono", *flag, "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("command, scenario", [("regulate-mono", "track"),
                                                   ("open-loop", "continuum"),
                                                   ("sweep-n", "continuum")])
    def test_config_scenario_must_match_the_command(self, tmp_path, command, scenario):
        # the subcommand picks the scenario: a config file naming another one
        # is a usage error, not a run of the subcommand's scenario
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": scenario, "t_end": 0.1}))
        out = tmp_path / "run"
        assert cli_main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "null", "[]"])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, text):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        out = tmp_path / "run"
        assert cli_main(["continuum", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_invalid_config_value_is_runtime_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"t_end": -1.0}))
        assert cli_main(["regulate-mono", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("overrides", INVALID_CONFIGS.values(), ids=INVALID_CONFIGS.keys())
    def test_invalid_config_exits_before_the_run(self, tmp_path, overrides):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(overrides))
        out = tmp_path / "run"
        command = overrides.get("scenario", "continuum")
        assert cli_main([command, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_dt_at_the_decimal_stability_bound_runs(self, tmp_path):
        # 2.78 / kp rounds to 0.27799999999999997 at kp = 10
        out = tmp_path / "run"
        assert cli_main(["regulate-mono", "--dt", "0.278", "--t-end", "0.278",
                         "--sample-every", "0.278", "--out", str(out)]) == 0

    def test_config_file_is_checked_with_the_flags_on_top(self, tmp_path):
        # t_end = 0.0105 is off the default dt grid but on the flag's
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"t_end": 0.0105}))
        out = tmp_path / "run"
        assert cli_main(["regulate-mono", "--config", str(cfg_file), "--dt", "0.0005",
                         "--n", "5", "--out", str(out)]) == 0
        lines = (out / "metadata.txt").read_text().splitlines()
        assert "t_end = 0.0105" in lines and "dt = 0.0005" in lines

    def test_integer_in_a_config_file_echoes_as_the_flag_value(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kp": 10}))
        common = ["regulate-mono", "--t-end", "0.01", "--n", "5", "--out"]
        assert cli_main(common + [str(tmp_path / "file"), "--config", str(cfg_file)]) == 0
        assert cli_main(common + [str(tmp_path / "flag"), "--kp", "10"]) == 0
        assert ((tmp_path / "file" / "metadata.txt").read_bytes()
                == (tmp_path / "flag" / "metadata.txt").read_bytes())

    def test_integer_too_large_for_a_float_field_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"kp": 10 ** 400}))
        out = tmp_path / "run"
        assert cli_main(["regulate-mono", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not out.exists()

    def test_p_list_skips_empty_entries(self, tmp_path):
        common = ["sweep-noise", "--seeds", "1", "--t-end", "0.01", "--n", "5",
                  "--workers", "1", "--out"]
        assert cli_main(common + [str(tmp_path / "a"), "--p-list", "0,,20"]) == 0
        assert cli_main(common + [str(tmp_path / "b"), "--p-list", "0,20"]) == 0
        assert read_rows(tmp_path / "a" / "sweep.csv") == read_rows(tmp_path / "b" / "sweep.csv")

    @pytest.mark.parametrize("command, flag", [("sweep-n", "--n-list"),
                                               ("sweep-noise", "--p-list")])
    @pytest.mark.parametrize("text", [",", ""], ids=["comma", "blank"])
    def test_empty_list_is_usage_error(self, tmp_path, command, flag, text):
        out = tmp_path / "sweep"
        assert cli_main([command, flag, text, "--t-end", "0.01", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, args, config", [
        ("sweep-n", ["--n", "100"], {}),
        ("sweep-noise", ["--noise-dbw", "70"], {}),
        ("sweep-n", [], {"record_agents": False}),
        ("sweep-noise", [], {"record_density": False}),
        ("sweep-noise", [], {"noise_power_dbw": 70.0})],
        ids=["n-flag", "noise-flag", "record-agents-file", "record-density-file", "noise-file"])
    def test_sweep_refuses_a_field_it_sets(self, tmp_path, command, args, config):
        # the sweep sets these for every member: a value for them would be
        # ignored by the run yet echoed in metadata.txt
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(config))
        out = tmp_path / "sweep"
        assert cli_main([command, *args, "--config", str(cfg_file), "--t-end", "0.01",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_sweep_n_takes_the_noise_of_its_agent_members(self, tmp_path):
        out = tmp_path / "sweep"
        assert cli_main(["sweep-n", "--n-list", "5", "--noise-dbw", "20", "--t-end", "0.01",
                         "--workers", "1", "--out", str(out)]) == 0
        assert "noise_power_dbw = 20.0" in (out / "metadata.txt").read_text().splitlines()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_through_a_file_is_usage_error(self, tmp_path, monkeypatch, out):
        # refused before the run, not after it when the directory is made
        (tmp_path / "afile").write_text("kept")
        monkeypatch.setattr(scenarios, "run_microscopic", None)
        assert cli_main(["regulate-mono", "--t-end", "0.01", "--out",
                         str(tmp_path / out)]) == 2
        assert (tmp_path / "afile").read_text() == "kept"

    def test_write_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def fail(self, outdir):
            raise OSError("disk full")
        monkeypatch.setattr(ringswarm.records.RunRecord, "write", fail)
        assert cli_main(["regulate-mono", "--t-end", "0.01", "--n", "5",
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "ringswarm: disk full\n"

    def test_env_var_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGSWARM_OUT", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        code = cli_main(["regulate-mono", "--t-end", "0.1", "--n", "5",
                         "--out", "rel/run"])
        assert code == 0
        assert (tmp_path / "rel" / "run" / "metrics.csv").exists()
