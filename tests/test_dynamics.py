import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringswarm import (
    MorseKernel,
    even_lattice,
    grid_nodes,
    integrate,
    kl_divergence,
    l2_norm,
    microscopic_rhs,
    run_continuum,
    sample_agent_inputs,
    step_swarm,
    velocity_field,
    von_mises_density,
    wrap_angle,
)
from ringswarm import dynamics
from ringswarm.density import WrappedGaussianEstimator
from ringswarm.dynamics import _interaction_sum

from kernel_norms import derivative_l2_norm
from loop_parts import continuum_control, feedback, solve

EPS = np.finfo(float).eps


def below(c):
    """The cut under c: f > below(c) is f >= c."""
    return np.nextafter(c, -np.inf)


# Per row of dynamics._count_table, the cut c whose count of f > c it
# holds: searched, and unsearched (valid when the spread is below pi).
SEARCHED_CUTS = [2 * np.pi, below(-2 * np.pi), 0.0, np.pi, below(np.pi), below(2 * np.pi),
                 below(0.0), below(-np.pi), -np.pi, -2 * np.pi]
UNSEARCHED_CUTS = [below(np.pi), -np.pi, 0.0, below(0.0)]


def direct_interaction_sum(positions, kernel):
    """O(N^2) oracle: the positions wrapped into [-pi, pi), then the kernel
    at every ordered pair's raw difference, wrapped once per side into
    [-pi, pi); exactly antipodal pairs take the two-sided mean 0."""
    positions = wrap_angle(positions)
    d = positions[:, None] - positions[None, :]
    antipodal = np.abs(d) == np.pi
    d[d >= np.pi] -= 2.0 * np.pi
    d[d < -np.pi] += 2.0 * np.pi
    a = np.abs(d)
    g, length = kernel.attraction_strength, kernel.attraction_length
    f = np.sign(d) * (np.exp(-a) - g * np.exp(-a / length))
    f[antipodal] = 0.0
    return kernel.strength * f.sum(axis=1)


def reference_exp_prefix(y, rates, block_exponent=300.0):
    """The prefix sums of exp(+-rate * x) summed one side and one block at a
    time: sums (rates, 2n + 2) and anchors (2n + 2), the mirrored side held
    from entry 2n + 1 down to n + 1 (see dynamics._exp_prefix)."""
    n = y.size
    a = rates[:, None]
    width = block_exponent / max(rates)
    sums = np.zeros((rates.size, 2 * n + 2))
    anchors = np.empty(2 * n + 2)
    for x, side_sums, side_anchors in ((y, sums[:, :n + 1], anchors[:n + 1]),
                                       (-y[::-1], sums[:, :n:-1], anchors[:n:-1])):
        side_anchors[0] = x[0]
        start = 0
        while start < n:
            anchor = x[start]
            end = anchor + width
            stop = n if x[-1] <= end else int(np.searchsorted(x, end, "right"))
            block = side_sums[:, start + 1:stop + 1]
            np.subtract(x[start:stop], anchor, out=block)
            block *= a
            np.exp(block, out=block)
            np.cumsum(block, axis=1, out=block)
            if start:  # the first block carries nothing
                block += side_sums[:, start:start + 1] * np.exp(a * (side_anchors[start] - anchor))
            side_anchors[start + 1:stop + 1] = anchor
            start = stop
    return sums, anchors


def assert_prefix_sums_match_reference(y, rates):
    """dynamics._exp_prefix against the reference, bit for bit; returns its
    anchors."""
    n = y.size
    sums, anchors = dynamics._exp_prefix(y, rates)
    ref_sums, ref_anchors = reference_exp_prefix(y, rates)
    assert sums.shape == (rates.size, 2, n + 1)
    assert np.array_equal(sums[:, 0], ref_sums[:, :n + 1])
    assert np.array_equal(sums[:, 1], ref_sums[:, :n:-1])
    full = np.broadcast_to(anchors, (2, n + 1))
    assert np.array_equal(full[0], ref_anchors[:n + 1])
    assert np.array_equal(full[1], ref_anchors[:n:-1])
    return anchors


def one_block_on_one_side(rng):
    """Sorted positions and rates whose spread is within an ulp of a block's
    width 300 / max(rates), such that the y side fits in one block and the
    mirrored side -y[::-1] needs two, or the other way round.  The ends lie
    in different binades, so y[0] + width and width - y[-1] round apart."""
    for _ in range(200):
        y = np.sort(rng.uniform(-1.9, 3.1, 20))
        rate = 300.0 / (y[-1] - y[0]) * (1 - 8 * EPS)
        for _ in range(32):
            width = 300.0 / rate
            if (y[-1] <= y[0] + width) != (-y[0] <= -y[-1] + width):
                return y, np.array([1.0, rate])
            rate = np.nextafter(rate, np.inf)
    raise AssertionError("no spread found where the two sides round differently")


def staged_positions(rng, n):
    """Staged RK4 positions: unwrapped, straddling the seam."""
    pos = rng.choice([-np.pi, np.pi], n) + rng.uniform(-0.02, 0.02, n)
    pos[: n // 2] = rng.uniform(-np.pi - 0.01, np.pi + 0.01, n // 2)
    return pos


@st.composite
def interaction_cases(draw):
    """Swarms of 1-300 agents in six layouts, with random G and 1/L up to 200."""
    n = draw(st.integers(1, 300))
    layout = draw(st.sampled_from(("uniform", "coincident", "antipodal", "lattice", "staged",
                                   "seam")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "uniform":
        pos = rng.uniform(-np.pi, np.pi, n)
    elif layout == "coincident":  # groups of equal positions, sgn(0) = 0
        pos = rng.choice(rng.uniform(-np.pi, np.pi, max(1, n // 4)), n)
    elif layout == "antipodal":
        # |x| >= pi/2 makes x -+ pi exact, so each pair differs by exactly pi
        half = rng.uniform(np.pi / 2, np.pi, (n + 1) // 2) * rng.choice([-1.0, 1.0], (n + 1) // 2)
        pos = np.concatenate((half, half - np.pi * np.sign(half)))[:n]
    elif layout == "lattice":
        pos = even_lattice(n)
    elif layout == "staged":
        pos = staged_positions(rng, n)
    else:  # agents on both ends of the domain, whose difference rounds to 2*pi
        pos = rng.uniform(-np.pi, np.pi, n)
        pos[rng.random(n) < 0.3] = -np.pi
        pos[rng.random(n) < 0.3] = below(np.pi)
    g = draw(st.floats(0.05, 3.0))
    inv_l = draw(st.floats(0.05, 200.0))
    return pos, MorseKernel(g, 1.0 / inv_l, strength=0.01)


def rk4_positions(pos0, kernel, t_end, dt):
    x = pos0
    for _ in range(int(round(t_end / dt))):
        x = step_swarm(x, kernel, None, dt)
    return x


def open_loop_samples(x, kernel, dt, t_end, sample_every):
    """Open-loop RK4 positions at t = 0 and every ``sample_every`` up to t_end."""
    samples = [x]
    stride = int(round(sample_every / dt))
    for i in range(1, int(round(t_end / dt)) + 1):
        x = step_swarm(x, kernel, None, dt)
        if i % stride == 0:
            samples.append(x)
    return samples


class TestMicroscopicRhs:
    def test_two_agents_single_pair(self):
        kernel = MorseKernel(0.5, 0.5)
        rates = microscopic_rhs(np.array([0.5, -0.5]), kernel, None)
        expected = -0.5 * math.exp(-2.0) + math.exp(-1.0)  # f(1)
        assert rates[0] == pytest.approx(expected, rel=1e-12)
        assert rates[1] == pytest.approx(-expected, rel=1e-12)

    def test_coincident_agents_are_stationary(self):
        kernel = MorseKernel(0.5, 0.5)
        assert np.all(microscopic_rhs(np.full(7, 0.3), kernel, None) == 0.0)

    def test_inputs_cancel_interactions(self):
        # agents on grid nodes sample U there exactly, so a U field holding
        # minus the interaction sums at those nodes cancels them
        rng = np.random.default_rng(60)
        kernel = MorseKernel(0.5, 0.5)
        nodes = rng.choice(128, 30, replace=False)
        pos = grid_nodes(128)[nodes]
        sums = microscopic_rhs(pos, kernel, None)
        values = np.zeros(128)
        values[nodes] = -sums
        assert np.array_equal(sample_agent_inputs(values, pos), -sums)
        assert np.abs(microscopic_rhs(pos, kernel, values)).max() == 0.0

    def test_interaction_sum_is_momentum_free(self):
        rng = np.random.default_rng(61)
        kernel = MorseKernel(0.5, 0.5)
        for _ in range(100):
            rates = microscopic_rhs(rng.uniform(-np.pi, np.pi, 50), kernel, None)
            assert abs(rates.sum()) < 1e-10

    @pytest.mark.parametrize("n", [2, 50, 1000])
    def test_lattice_is_momentum_free(self, n):
        # even n puts every agent exactly antipodal to another; those pairs
        # take the two-sided mean 0 instead of pushing both the same way
        rates = microscopic_rhs(even_lattice(n), MorseKernel(0.5, 0.5, strength=1.0 / n), None)
        assert abs(rates.sum()) < 1e-10
        if n == 2:
            assert np.all(rates == 0.0)

    @pytest.mark.parametrize("g,length", [(0.5, 0.5), (0.8, 1.7), (2.0, 2.0)])
    def test_fast_sum_matches_plain_formula(self, g, length):
        rng = np.random.default_rng(65)
        kernel = MorseKernel(g, length, strength=0.01)
        pos = rng.uniform(-np.pi, np.pi, 60)
        d = (pos[:, None] - pos[None, :] + np.pi) % (2 * np.pi) - np.pi
        ref = (0.01 * np.sign(d) * (-g * np.exp(-np.abs(d) / length)
                                    + np.exp(-np.abs(d)))).sum(axis=1)
        got = microscopic_rhs(pos, kernel, None)
        assert np.abs(got - ref).max() < 1e-13

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(interaction_cases())
    def test_fast_sum_matches_direct_oracle(self, case):
        pos, kernel = case
        got = _interaction_sum(pos, kernel)
        ref = direct_interaction_sum(pos, kernel)
        # each of the N terms per agent is off by a few ulps of its size
        # s (1 + G), times 1 + 1/L from rounding in its exponent
        tol = (16 * EPS * kernel.strength * (1 + kernel.attraction_strength) * pos.size
               * (1 + 1 / kernel.attraction_length))
        assert np.abs(got - ref).max() <= tol
        assert abs(got.sum()) < 1e-10

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(interaction_cases())
    def test_class_counts_match_pairwise_counts(self, case):
        # every count the classes read, on the wrapped positions, against
        # the O(N^2) count of the raw differences: ties, exact antipodes and
        # differences that round to +-2*pi
        pos, _ = case
        y = np.sort(wrap_angle(pos))
        f = y[:, None] - y[None, :]
        layouts = [(True, SEARCHED_CUTS)] + [(False, UNSEARCHED_CUTS)] * int(y[-1] - y[0] < np.pi)
        for search, cuts in layouts:
            table = dynamics._count_table(y, search)
            for row, c in zip(table, cuts, strict=True):
                assert np.array_equal(row, (f > c).sum(axis=1)), (search, c)

    @pytest.mark.parametrize("layout", ["lattice", "duplicated", "seam"])
    def test_class_counts_at_a_thousand_agents(self, layout):
        # the benchmark's swarm size, past the oracle strategy's 300 agents:
        # a tie-free lattice with a spread below 2*pi takes every shortcut of
        # the table, duplicated agents and a spread that rounds to 2*pi none
        rng = np.random.default_rng(67)
        if layout == "lattice":
            pos = even_lattice(1000) + rng.uniform(-1e-4, 1e-4, 1000)
        elif layout == "duplicated":
            pos = np.repeat(even_lattice(500) + rng.uniform(-1e-4, 1e-4, 500), 2)
        else:
            pos = rng.uniform(-np.pi, np.pi, 1000)
            pos[:2] = -np.pi, below(np.pi)
        y = np.sort(wrap_angle(pos))
        ties, spread = bool((y[1:] == y[:-1]).any()), y[-1] - y[0]
        assert (ties, spread >= 2 * np.pi) == {"lattice": (False, False),
                                               "duplicated": (True, False),
                                               "seam": (False, True)}[layout]
        f = y[:, None] - y[None, :]
        table = dynamics._count_table(y, True)
        for row, c in zip(table, SEARCHED_CUTS, strict=True):
            assert np.array_equal(row, (f > c).sum(axis=1)), c

    def test_prefix_sums_with_one_block_a_side(self):
        rng = np.random.default_rng(68)
        y = np.sort(rng.uniform(-np.pi, np.pi, 50))
        anchors = assert_prefix_sums_match_reference(y, np.array([1.0, 2.0]))
        assert anchors.shape == (2, 1)

    def test_prefix_sums_with_one_block_on_one_side_and_two_on_the_other(self):
        y, rates = one_block_on_one_side(np.random.default_rng(69))
        anchors = assert_prefix_sums_match_reference(y, rates)
        # one side's anchors are all its first x, the other's change once
        assert sorted(np.unique(side).size for side in anchors) == [1, 2]

    @pytest.mark.parametrize("inv_l", [100.0, 200.0])
    def test_prefix_sums_with_many_blocks(self, inv_l):
        rng = np.random.default_rng(70)
        y = np.sort(rng.uniform(-np.pi, np.pi, 300))
        anchors = assert_prefix_sums_match_reference(y, np.array([1.0, inv_l]))
        assert min(np.unique(side).size for side in anchors) >= 3

    @pytest.mark.parametrize("y", [[0.5], [-1.0, 2.0], [-np.pi, below(np.pi)]])
    def test_prefix_sums_of_one_and_two_agents(self, y):
        for rates in ([1.0, 2.0], [1.0, 200.0]):
            assert_prefix_sums_match_reference(np.array(y), np.array(rates))

    def test_out_of_domain_swarm_sums_like_its_wrapped_copy(self):
        rng = np.random.default_rng(66)
        kernel = MorseKernel(0.5, 0.5, strength=0.01)
        for _ in range(200):
            pos = staged_positions(rng, int(rng.integers(2, 300)))
            assert np.array_equal(_interaction_sum(pos, kernel),
                                  _interaction_sum(wrap_angle(pos), kernel))


class TestStepSwarm:
    def test_single_agent_is_stationary(self):
        kernel = MorseKernel(0.5, 0.5)
        assert step_swarm(np.array([0.4]), kernel, None, 1e-2).tolist() == [0.4]

    def test_positions_stay_wrapped(self):
        kernel = MorseKernel(0.5, 0.5, strength=5.0)
        x = np.array([-3.1, 3.1])
        for _ in range(200):
            x = step_swarm(x, kernel, None, 5e-3)
        assert np.all(x >= -np.pi) and np.all(x < np.pi)

    def test_rotational_equivariance(self):
        kernel = MorseKernel(0.5, 0.5)
        rng = np.random.default_rng(62)
        pos0 = rng.uniform(-2.0, 2.0, 12)
        delta = 0.7
        a = rk4_positions(pos0, kernel, 0.05, 1e-3)
        b = rk4_positions(wrap_angle(pos0 + delta), kernel, 0.05, 1e-3)
        assert np.abs(wrap_angle(b - a - delta)).max() < 1e-9

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(1, 300), st.integers(-300, 300), st.integers(0, 2**32 - 1))
    def test_grid_aligned_rotation_property(self, n, shift, seed):
        # Shifting the swarm and the target by whole grid steps rolls the
        # estimate and the feedback q, and the RK4 step under the U solved
        # from them is the shifted step: the zero-sum gauge of U does not
        # depend on where the seam -pi lies.
        spacing = 2.0 * np.pi / 256
        x = np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
        shifted = wrap_angle(x + shift * spacing)
        estimator = WrappedGaussianEstimator(0.2, 256)
        rho, rho_shifted = estimator.estimate(x), estimator.estimate(shifted)
        peak = rho.max()
        assert np.abs(np.roll(rho, shift) - rho_shifted).max() <= 1e-12 * peak
        kernel = MorseKernel(0.5, 0.5, strength=1.0 / n)
        target = von_mises_density(0.3, 4.0, float(n), grid_nodes(256))
        kp = 10.0
        q = feedback(rho, target, kernel, kp)
        q_shifted = feedback(rho_shifted, np.roll(target, shift), kernel, kp)
        assert np.abs(np.roll(q, shift) - q_shifted).max() <= 1e-12 * kp * peak
        stepped = step_swarm(x, kernel, solve(rho, q), 1e-3)
        stepped_shifted = step_swarm(shifted, kernel, solve(rho_shifted, q_shifted), 1e-3)
        assert np.abs(wrap_angle(stepped_shifted - stepped - shift * spacing)).max() <= 1e-9

    def test_rk4_fourth_order_on_frozen_input_problem(self):
        # two attracting agents; separation stays inside the smooth range
        kernel = MorseKernel(2.0, 2.0, strength=2.0)
        pos0 = np.array([-1.0, 1.0])
        ref = rk4_positions(pos0, kernel, 0.35, 0.35 / 2800)
        dts = [1.4e-2, 7e-3, 3.5e-3]
        errs = [np.abs(rk4_positions(pos0, kernel, 0.35, dt) - ref).max() for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.8

    def test_deterministic_replay(self):
        kernel = MorseKernel(0.5, 0.5, strength=1 / 20)
        estimator = WrappedGaussianEstimator(0.2, 128)
        target = von_mises_density(0.0, 4.0, 20.0, grid_nodes(128))

        def control(x):
            rho = estimator.estimate(x)
            return solve(rho, feedback(rho, target, kernel, 10.0))

        runs = []
        for _ in range(2):
            x = even_lattice(20)
            for _ in range(100):
                x = step_swarm(x, kernel, control(x), 1e-3)
            runs.append(x)
        assert np.array_equal(runs[0], runs[1])

    def test_rk4_step_is_four_rhs_stages(self):
        # step_swarm has no velocity code of its own: a step is the
        # classical four-stage combination of microscopic_rhs(., kernel, U),
        # with U frozen across the stages, to the last bit
        kernel = MorseKernel(0.5, 0.5, strength=1 / 20)
        x = np.random.default_rng(66).uniform(-2.0, 2.0, 20)
        rho = WrappedGaussianEstimator(0.2, 128).estimate(x)
        q = feedback(rho, von_mises_density(0.0, 4.0, 20.0, grid_nodes(128)), kernel, 10.0)
        u_field = solve(rho, q)
        dt = 1e-3
        for field in (u_field, None):
            k1 = microscopic_rhs(x, kernel, field)
            k2 = microscopic_rhs(x + 0.5 * dt * k1, kernel, field)
            k3 = microscopic_rhs(x + 0.5 * dt * k2, kernel, field)
            k4 = microscopic_rhs(x + dt * k3, kernel, field)
            expected = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert np.array_equal(step_swarm(x, kernel, field, dt), expected)

    def test_nonfinite_positions_abort(self):
        kernel = MorseKernel(0.5, 0.5)
        huge = np.full(64, 1e308)
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="non-finite"):
            step_swarm(np.array([0.0, 1.0]), kernel, huge, 1e-3)


class TestOpenLoop:
    def test_single_agent_trajectory(self):
        kernel = MorseKernel(0.5, 0.5)
        samples = open_loop_samples(np.array([1.1]), kernel, 1e-2, t_end=0.5, sample_every=0.05)
        assert len(samples) == 11
        assert all(x[0] == 1.1 for x in samples)

    def test_attraction_dominant_kernel_clusters(self):
        # exploratory regime: attraction beats repulsion, one cluster forms
        rng = np.random.default_rng(63)
        kernel = MorseKernel(2.0, 2.0, strength=1 / 30)
        samples = open_loop_samples(rng.uniform(-np.pi, np.pi, 30), kernel, 2e-3, t_end=30.0,
                                    sample_every=3.0)
        circ_var = [1.0 - np.abs(np.mean(np.exp(1j * x))) for x in samples]
        late = circ_var[len(circ_var) // 2:]
        assert late[-1] < 0.05
        assert all(b <= a + 1e-3 for a, b in zip(late, late[1:]))


@st.composite
def continuum_cases(draw):
    """A smooth positive density of mass 1-1000 on an even grid of 32-256
    nodes, a mean-field Morse kernel, and either no control (the open loop)
    or the feedback toward a smooth positive target of the same mass."""
    nodes = grid_nodes(2 * draw(st.integers(16, 128)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = draw(st.floats(1.0, 1000.0))

    def smooth_positive():
        k = np.arange(1, 6)[:, None]
        values = 1.0 + ((0.5 / k) * (rng.normal(size=(5, 1)) * np.cos(k * nodes)
                                     + rng.normal(size=(5, 1)) * np.sin(k * nodes))).sum(0)
        values = np.abs(values) + 0.05
        return values * (mass / ((2.0 * np.pi / nodes.size) * values.sum()))

    rho0 = smooth_positive()
    kernel = MorseKernel(draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0)), 1.0 / mass)
    control = None
    if draw(st.booleans()):
        control = continuum_control(smooth_positive(), kernel, draw(st.floats(0.1, 100.0)))
    return rho0, kernel, control


def one_step(rho, kernel, dt):
    """The density after one open-loop Rusanov step of run_continuum from
    t = 0, at a dt below the CFL bound."""
    run = run_continuum(rho, 0.0, kernel.sample_on_grid(rho.size), None, dt,
                        dt_max=dt, sample_every=dt)
    assert run.times == (0.0, dt)
    return run.densities[-1]


class TestContinuum:
    def test_uniform_density_is_a_fixed_point(self):
        rho = von_mises_density(0.0, 0.0, 50.0, grid_nodes(256))
        out = one_step(rho, MorseKernel(0.5, 0.5, strength=0.02), 1e-3)
        assert np.allclose(out, rho, atol=1e-14)

    def test_mass_conserved_over_many_steps(self):
        nodes = grid_nodes(256)
        rng = np.random.default_rng(64)
        values = 50.0 / (2 * np.pi) * (1.0 + 0.5 * np.sin(nodes)
                                       + 0.2 * rng.normal() * np.cos(2 * nodes))
        kernel = MorseKernel(0.5, 0.5, strength=0.02)
        mass0 = integrate(values)
        rho = run_continuum(values, 0.0, kernel.sample_on_grid(256), None, 1.0, dt_max=1e-3,
                            sample_every=1.0).densities[-1]
        assert abs(integrate(rho) - mass0) < 1e-9
        assert rho.min() >= 0.0

    def test_every_step_within_the_cfl_bound(self, monkeypatch):
        # a concentrated density under the unscaled kernel moves fast enough
        # that the CFL bound, not dt_max, sets the steps
        rho = von_mises_density(0.0, 4.0, 50.0, grid_nodes(256))
        steps = []

        def advance(rho, w, speed, dt):
            steps.append((dt, float(np.abs(w).max())))
            return rusanov_advance(rho, w, speed, dt)

        rusanov_advance = dynamics._rusanov_advance
        monkeypatch.setattr(dynamics, "_rusanov_advance", advance)
        run_continuum(rho, 0.0, MorseKernel(0.5, 0.5).sample_on_grid(256), None, 0.05,
                      dt_max=1.0, sample_every=0.05)
        assert len(steps) > 1
        bound = dynamics.CFL * (2.0 * np.pi / 256)
        assert all(dt * top <= bound * (1 + 1e-12) for dt, top in steps)
        assert sum(dt for dt, _ in steps) == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_max_stable_dt_rejects_a_non_finite_speed(self, bad):
        # an infinite speed would give dt = 0 and the run would never end
        w = np.linspace(-1.0, 1.0, 16)
        w[5] = bad
        with pytest.raises(RuntimeError, match="non-finite advection speed"):
            dynamics.max_stable_dt(np.abs(w))

    @pytest.mark.parametrize("t0,t_end,every,times", [
        (0.5, 0.6, 0.05, [0.5, 0.55, 0.6]),
        (0.001, 0.003, 0.001, [0.001, 0.002, 0.003]),
        (0.52, 0.6, 0.05, [0.52, 0.55, 0.6]),
    ])
    def test_sampling_starts_after_a_late_start(self, monkeypatch, t0, t_end, every, times):
        rho = von_mises_density(0.0, 1.0, 10.0, grid_nodes(64))
        steps = []

        def advance(rho, w, speed, dt):
            steps.append(dt)
            return rusanov_advance(rho, w, speed, dt)

        rusanov_advance = dynamics._rusanov_advance
        monkeypatch.setattr(dynamics, "_rusanov_advance", advance)
        run = run_continuum(rho, t0, MorseKernel(0.5, 0.5, strength=0.1).sample_on_grid(64),
                            None, t_end, dt_max=every, sample_every=every)
        assert list(run.times) == pytest.approx(times, abs=1e-12)
        assert min(steps) > 0.0
        assert sum(steps) == pytest.approx(t_end - t0)

    def test_closed_loop_error_decay_rate(self):
        # regulation toward the concentrated profile from the uniform start;
        # the decay of ||e||^2 must beat the guaranteed rate computed with
        # the unscaled kernel norm (the static target satisfies the
        # reference dynamics only approximately, which costs decay margin)
        nodes = grid_nodes(256)
        n = 50.0
        kp = 10.0
        kernel = MorseKernel(0.5, 0.5, strength=1.0 / n)
        rho_d = von_mises_density(0.0, 4.0, n, nodes)
        control = continuum_control(rho_d, kernel, kp)

        rho0 = von_mises_density(0.0, 0.0, n, nodes)
        e0 = l2_norm(rho_d - rho0)
        run = run_continuum(rho0, 0.0, kernel.sample_on_grid(256), control, 0.1,
                            dt_max=1e-3, sample_every=0.005)
        ts = np.array(run.times)
        els = np.array([l2_norm(rho_d - rho) for rho in run.densities])
        slope = np.polyfit(ts, np.log(els**2), 1)[0]
        guaranteed = 2.0 * kp - derivative_l2_norm(MorseKernel(0.5, 0.5), 256) * e0
        assert els[-1] < els[0]
        assert -slope >= guaranteed

    def test_run_continuum_sampling_and_conservation(self):
        n = 50.0
        kernel = MorseKernel(0.5, 0.5, strength=1.0 / n)
        run = run_continuum(von_mises_density(0.2, 2.0, n, grid_nodes(256)), 0.0,
                            kernel.sample_on_grid(256), None, 1.0, sample_every=0.25)
        assert list(run.times) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert abs(integrate(run.densities[-1]) - n) < 1e-9

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(continuum_cases())
    def test_mass_conserved_and_density_nonnegative_property(self, case):
        rho0, kernel, control = case
        mass = integrate(rho0)
        samples = kernel.sample_on_grid(rho0.size)
        run = run_continuum(rho0, 0.0, samples, control, 0.05, dt_max=1e-3, sample_every=0.05)
        assert run.steps >= 50
        for rho in run.densities:
            assert abs(integrate(rho) - mass) <= 1e-9 * mass
            assert rho.min() >= 0.0

    def test_run_hands_back_applied_controls_and_steps(self, monkeypatch):
        nodes = grid_nodes(64)
        n = 10.0
        kernel = MorseKernel(0.5, 0.5, strength=1.0 / n)
        rho_d = von_mises_density(0.0, 4.0, n, nodes)
        regulate = continuum_control(rho_d, kernel, 10.0)
        applied = {}
        steps = []

        def control(rho, v, t):
            applied[t] = regulate(rho, v, t)
            return applied[t]

        def advance(rho, w, speed, dt):
            steps.append(dt)
            return rusanov_advance(rho, w, speed, dt)

        rusanov_advance = dynamics._rusanov_advance
        monkeypatch.setattr(dynamics, "_rusanov_advance", advance)
        samples = kernel.sample_on_grid(64)
        run = run_continuum(von_mises_density(0.0, 0.0, n, nodes), 0.0, samples, control, 0.1,
                            dt_max=0.02, sample_every=0.03)
        assert list(run.times) == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1])
        assert len(run.u_fields) == len(run.densities) == len(run.times)
        assert all(u is applied[t] for t, u in zip(run.times, run.u_fields))
        # the last sample starts no step; its U is evaluated once after the run
        last = run.densities[-1]
        fresh = regulate(last, velocity_field(samples, last), run.times[-1])
        assert np.array_equal(run.u_fields[-1], fresh)
        assert len(applied) - 1 == run.steps == len(steps)
        assert (run.dt_min, run.dt_max) == (min(steps), max(steps))
        assert 0.0 < run.dt_min < run.dt_max <= 0.02
        # the step with the smallest bound takes at most that bound
        assert run.dt_min <= run.dt_bound_min <= 0.02

    def test_open_loop_and_stepless_runs(self):
        kernel = MorseKernel(0.5, 0.5, strength=0.1)
        rho = von_mises_density(0.0, 1.0, 10.0, grid_nodes(64))
        run = run_continuum(rho, 0.2, kernel.sample_on_grid(64), None, 0.2)
        assert run.times == (0.2,) and run.densities[0] is rho
        assert run.u_fields == (None,) and run.steps == 0
        assert math.isnan(run.dt_min) and math.isnan(run.dt_max) and math.isnan(run.dt_bound_min)
        run = run_continuum(rho, 0.2, kernel.sample_on_grid(64), None, 0.3, sample_every=0.05)
        assert len(run.times) == len(run.densities) == 3
        assert run.u_fields == (None,) * 3 and run.steps >= 100

    def test_negative_density_guard(self):
        kernel = MorseKernel(0.5, 0.5, strength=0.1)
        out = one_step(von_mises_density(0.0, 1.0, 10.0, grid_nodes(64)), kernel, 1e-3)
        assert out.min() >= 0.0


@pytest.mark.slow
class TestScaleConsistency:
    def test_particle_and_continuum_spreading_agree(self):
        # both scales started from the same smooth clumped profile
        nodes = grid_nodes(256)
        n = 1000
        kernel = MorseKernel(0.5, 0.5, strength=1.0 / n)
        rho0 = von_mises_density(0.0, 2.0, float(n), nodes)

        # deterministic particle sampling of rho0 by inverse-CDF quantiles
        cdf = np.concatenate(([0.0], np.cumsum(rho0))) * (2.0 * np.pi / 256) / n
        edges = np.concatenate((nodes, [np.pi]))
        quantiles = (np.arange(n) + 0.5) / n
        pos0 = np.interp(quantiles, cdf, edges)

        x = pos0
        for _ in range(3000):
            x = step_swarm(x, kernel, None, 1e-3)
        kde = WrappedGaussianEstimator(0.2, 256).estimate(x)

        cont = run_continuum(rho0, 0.0, kernel.sample_on_grid(256), None, 3.0,
                             sample_every=3.0).densities[-1]
        assert kl_divergence(kde, cont) < 0.05
