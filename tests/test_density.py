import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringswarm import (
    RingGrid,
    WrappedGaussianEstimator,
    bimodal_density,
    even_lattice,
    integrate,
    kl_divergence,
    l2_norm,
    von_mises_density,
    wrap_angle,
)
from ringswarm.density import (
    BimodalTarget,
    MonomodalTarget,
    TrackingSchedule,
    TrackingTarget,
    target_at,
)

EPS = np.finfo(float).eps


def bessel_i0_series(k, terms=80):
    """Independent power series sum_m (k/2)^(2m) / (m!)^2."""
    total, term = 0.0, 1.0
    for m in range(terms):
        if m > 0:
            term *= (k / 2.0) ** 2 / m**2
        total += term
    return total


def bessel_i1_series(k, terms=80):
    total, term = 0.0, k / 2.0
    for m in range(terms):
        if m > 0:
            term *= (k / 2.0) ** 2 / (m * (m + 1))
        total += term
    return total


def direct_estimate(positions, bandwidth, grid, images=1):
    """Oracle: every bump at its wrapped offset from each node, plus its
    periodic images at 2*pi*k for 0 < |k| <= images."""
    d = wrap_angle(grid.nodes[:, None] - positions[None, :])
    acc = np.zeros(grid.m)
    for k in range(-images, images + 1):
        u = (d + 2.0 * np.pi * k) / bandwidth
        acc += np.exp(-0.5 * u * u).sum(axis=1)
    return acc / (bandwidth * math.sqrt(2.0 * math.pi))


def three_image_estimate(positions, bandwidth, grid):
    """Oracle: every bump with its periodic images at 0 and +-2*pi."""
    return direct_estimate(positions, bandwidth, grid, images=1)


def assert_matches_oracle(got, ref, positions, bandwidth, grid):
    """The estimator's accuracy contract against a direct-sum oracle.

    The absolute bound is set by conditioning: the nodes and the oracle's
    wrapped offsets sit up to an ulp of pi off the exact lattice, which
    moves a bump by up to ~eps * pi / h of its peak; the FFT adds
    ~eps log2(m), and the in-order moment sums up to ~eps N / 2 (N equal
    terms summed in order drift by ~eps N / 8).  The grid mass of a bump
    differs from 1 by the aliasing term 2 exp(-2 pi^2 h^2 / Delta^2) of the
    Poisson summation formula.
    """
    n, top = positions.size, ref.max()
    assert np.all(got >= 0.0)
    tol = EPS * (4.0 * np.pi / bandwidth + 4.0 * math.log2(grid.m) + 0.5 * n)
    assert np.abs(got - ref).max() <= tol * top
    big = ref >= 1e-3 * top
    assert np.max(np.abs(got - ref)[big] / ref[big]) <= 1e-12
    aliasing = 3.0 * math.exp(-2.0 * (np.pi * bandwidth / grid.spacing) ** 2)
    assert abs(grid.spacing * got.sum() - n) <= (1e-12 + aliasing) * n


LAYOUTS = ("uniform", "coincident", "nodes", "half-nodes", "edges", "lattice")


@st.composite
def estimator_cases(draw):
    """Even grids of 4-1024 nodes, bandwidths in [Delta, pi), 1-2000 agents
    in six layouts."""
    grid = RingGrid(2 * draw(st.integers(2, 512)))
    bandwidth = draw(st.floats(grid.spacing, np.pi, exclude_max=True))
    n = draw(st.integers(1, 2000))
    layout = draw(st.sampled_from(LAYOUTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "uniform":
        pos = rng.uniform(-np.pi, np.pi, n)
    elif layout == "coincident":
        pos = np.full(n, rng.uniform(-np.pi, np.pi))
    elif layout == "nodes":
        pos = grid.nodes[rng.integers(0, grid.m, n)]
    elif layout == "half-nodes":  # ties of the nearest-node rounding
        pos = grid.nodes[rng.integers(0, grid.m, n)] + 0.5 * grid.spacing
    elif layout == "edges":  # within 1e-9 of -pi or of the largest angle below pi
        near = rng.uniform(0.0, 1e-9, n)
        pos = np.where(rng.random(n) < 0.5, -np.pi + near, np.nextafter(np.pi, 0.0) - near)
        pos[0] = -np.pi
    else:
        pos = even_lattice(n)
    return pos, bandwidth, grid


@pytest.fixture
def grid():
    return RingGrid(256)


class TestWrappedGaussianEstimator:
    def test_single_agent_bump(self, grid):
        est = WrappedGaussianEstimator(0.2, grid)
        field = est.estimate(np.array([0.0]))
        assert integrate(field) == pytest.approx(1.0, abs=1e-12)
        assert grid.nodes[np.argmax(field)] == 0.0
        j = np.arange(1, grid.m)
        assert np.abs(field[j] - field[grid.m - j]).max() < 1e-12
        # the far tails are roundoff around exp(-(pi/h)^2 / 2) ~ 1e-54, clipped at 0
        assert field.min() >= 0.0
        assert field[np.abs(grid.nodes) <= 6 * 0.2].min() > 0.0

    def test_equispaced_agents_give_flat_field(self, grid):
        n = 50
        positions = -np.pi + (np.arange(n) + 0.5) * 2 * np.pi / n
        field = WrappedGaussianEstimator(0.2, grid).estimate(positions)
        ripple = (field.max() - field.min()) / field.mean()
        assert ripple < 1e-6

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_total_mass(self, grid, n):
        rng = np.random.default_rng(40 + n)
        positions = rng.uniform(-np.pi, np.pi, n)
        for bw in (0.1, 0.2, 0.5):
            field = WrappedGaussianEstimator(bw, grid).estimate(positions)
            assert integrate(field) == pytest.approx(n, abs=1e-8)

    def test_rotation_equivariance_on_grid_multiples(self, grid):
        rng = np.random.default_rng(41)
        positions = rng.uniform(-np.pi, np.pi, 30)
        est = WrappedGaussianEstimator(0.2, grid)
        base = est.estimate(positions)
        shift = 17
        rotated = est.estimate(wrap_angle(positions + shift * grid.spacing))
        assert np.allclose(rotated, np.roll(base, shift), atol=1e-12)

    @pytest.mark.parametrize("bandwidth", [0.05, 0.2, 0.36, 0.37, 0.5, 1.0])
    def test_matches_three_image_oracle(self, grid, bandwidth):
        rng = np.random.default_rng(43)
        swarms = (rng.uniform(-np.pi, np.pi, 50), rng.uniform(-np.pi, np.pi, 1000),
                  even_lattice(50), even_lattice(64))
        est = WrappedGaussianEstimator(bandwidth, grid)
        for positions in swarms:
            ref = three_image_estimate(positions, bandwidth, grid)
            got = est.estimate(positions)
            assert_matches_oracle(got, ref, positions, bandwidth, grid)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(estimator_cases())
    def test_matches_direct_oracle(self, case):
        positions, bandwidth, grid = case
        # images beyond these sit at least 9h from every node: below e^-40
        images = max(1, math.ceil((9.0 * bandwidth / np.pi - 1.0) / 2.0))
        ref = direct_estimate(positions, bandwidth, grid, images)
        got = WrappedGaussianEstimator(bandwidth, grid).estimate(positions)
        assert_matches_oracle(got, ref, positions, bandwidth, grid)

    def test_empty_swarm_rejected(self, grid):
        with pytest.raises(ValueError):
            WrappedGaussianEstimator(0.2, grid).estimate(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, grid, bad):
        positions = np.array([0.1, bad, -2.0])
        with pytest.raises(ValueError, match="finite"):
            WrappedGaussianEstimator(0.2, grid).estimate(positions)

    def test_bandwidth_validation(self, grid):
        with pytest.raises(ValueError):
            WrappedGaussianEstimator(0.0, grid)
        with pytest.raises(ValueError):
            WrappedGaussianEstimator(np.pi, grid)
        WrappedGaussianEstimator(grid.spacing, grid)
        with pytest.raises(ValueError, match="grid spacing"):
            WrappedGaussianEstimator(np.nextafter(grid.spacing, 0.0), grid)


class TestVonMises:
    def test_zero_concentration_is_uniform(self, grid):
        field = von_mises_density(0.7, 0.0, 50.0, grid)
        assert np.allclose(field, 50.0 / (2 * np.pi), rtol=1e-14)

    def test_peak_value_against_bessel_series(self, grid):
        field = von_mises_density(0.0, 4.0, 50.0, grid)
        expected_peak = 50.0 * math.exp(4.0) / (2 * np.pi * bessel_i0_series(4.0))
        assert field[grid.m // 2] == pytest.approx(expected_peak, rel=1e-12)
        assert bessel_i0_series(4.0) == pytest.approx(11.3019, abs=1e-4)

    def test_mass(self, grid):
        assert integrate(von_mises_density(0.0, 4.0, 50.0, grid)) == pytest.approx(50.0, abs=1e-8)

    def test_argmax_tracks_mean(self, grid):
        rng = np.random.default_rng(42)
        for mu in rng.uniform(-np.pi, np.pi, 20):
            field = von_mises_density(mu, 6.0, 10.0, grid)
            peak = grid.nodes[np.argmax(field)]
            assert abs(wrap_angle(peak - mu)) <= grid.spacing / 2 + 1e-12

    def test_parity_about_the_mean(self, grid):
        field = von_mises_density(0.0, 4.0, 50.0, grid)
        j = np.arange(1, grid.m)
        assert np.abs(field[j] - field[grid.m - j]).max() < 1e-12

    def test_strictly_positive(self, grid):
        assert von_mises_density(0.0, 8.0, 50.0, grid).min() > 0.0

    @pytest.mark.parametrize("mass, last_finite", [(1.0, 709.75), (50.0, 705.75),
                                                   (1000.0, 702.75)])
    def test_overflow_rejected(self, grid, mass, last_finite):
        # mass * exp(k) passes the largest double from k ~ 709.78 - log(mass)
        assert np.isfinite(von_mises_density(0.0, last_finite, mass, grid)).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError,
                                                                        match="overflows"):
            von_mises_density(0.0, last_finite + 0.25, mass, grid)

    def test_negative_concentration_rejected(self, grid):
        with pytest.raises(ValueError, match="nonnegative"):
            von_mises_density(0.0, -1.0, 50.0, grid)


class TestBimodal:
    def test_coincident_means_reduce_to_monomodal(self, grid):
        lhs = bimodal_density(0.4, 0.4, 8.0, 50.0, grid)
        rhs = von_mises_density(0.4, 8.0, 50.0, grid)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_mirror_symmetry(self, grid):
        field = bimodal_density(np.pi / 2, -np.pi / 2, 8.0, 50.0, grid)
        j = np.arange(1, grid.m)
        assert np.abs(field[j] - field[grid.m - j]).max() < 1e-12

    def test_mass(self, grid):
        field = bimodal_density(np.pi / 2, -np.pi / 2, 8.0, 50.0, grid)
        assert integrate(field) == pytest.approx(50.0, abs=1e-8)

    def test_overflow_rejected(self, grid):
        # the sum of the two exponentials overflows before mass scales it
        assert np.isfinite(bimodal_density(np.pi / 2, -np.pi / 2, 709.75, 50.0, grid)).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError,
                                                                        match="overflows"):
            bimodal_density(np.pi / 2, -np.pi / 2, 710.0, 50.0, grid)


class TestTargetPrograms:
    def test_static_target_time_invariant(self, grid):
        program = MonomodalTarget(0.0, 4.0, 50.0)
        rho0, dt0 = target_at(program, 0.0, grid)
        rho1, dt1 = target_at(program, 2.7, grid)
        assert np.array_equal(rho0, rho1)
        assert np.all(dt0 == 0.0) and np.all(dt1 == 0.0)

    def test_bimodal_target(self, grid):
        rho, _ = target_at(BimodalTarget(), 1.0, grid)
        assert np.allclose(rho,
                           bimodal_density(np.pi / 2, -np.pi / 2, 8.0, 50.0, grid))

    def test_tracking_holds_then_reaches_waypoints(self, grid):
        program = TrackingTarget(concentration=4.0, mass=50.0)
        rho, rho_t = target_at(program, 0.25, grid)
        assert np.allclose(rho, von_mises_density(0.0, 4.0, 50.0, grid))
        assert np.all(rho_t == 0.0)
        leg = (np.pi / 3) / 1.47
        rho, _ = target_at(program, 0.5 + leg, grid)
        assert np.allclose(rho,
                           von_mises_density(np.pi / 3, 4.0, 50.0, grid), atol=1e-9)

    def test_schedule_waypoints_and_rates(self):
        sched = TrackingSchedule()
        leg = (np.pi / 3) / 1.47
        assert sched.mean_at(0.0) == (0.0, 0.0)
        assert sched.mean_at(0.5 + leg)[0] == pytest.approx(np.pi / 3, abs=1e-12)
        assert sched.mean_at(0.5 + 2 * leg)[0] == pytest.approx(0.0, abs=1e-12)
        assert sched.mean_at(0.5 + 3 * leg)[0] == pytest.approx(-np.pi / 3, abs=1e-12)
        assert sched.mean_at(0.5 + 4 * leg)[0] == pytest.approx(0.0, abs=1e-12)
        assert sched.mean_at(10.0) == (0.0, 0.0)
        for t in np.linspace(0.0, 4.5, 200):
            assert abs(sched.mean_at(t)[1]) in (0.0, 1.47)

    def test_tracking_time_continuity(self, grid):
        program = TrackingTarget(concentration=4.0, mass=50.0)
        for t in np.linspace(0.0, 4.0, 81):
            a, _ = target_at(program, t, grid)
            b, _ = target_at(program, t + 1e-6, grid)
            assert np.abs(a - b).max() < 1e-4

    def test_tracking_derivative_matches_finite_difference(self, grid):
        program = TrackingTarget(concentration=4.0, mass=50.0)
        t = 0.9  # mid-slew
        h = 1e-6
        rho_p, _ = target_at(program, t + h, grid)
        rho_m, _ = target_at(program, t - h, grid)
        _, rho_t = target_at(program, t, grid)
        fd = (rho_p - rho_m) / (2 * h)
        assert np.abs(fd - rho_t).max() < 1e-4 * np.abs(rho_t).max() + 1e-6


class TestMetrics:
    def test_kl_of_identical_fields_is_zero(self, grid):
        field = von_mises_density(0.0, 4.0, 50.0, grid)
        assert kl_divergence(field, field) == 0.0

    def test_kl_uniform_vs_von_mises_against_analytic_value(self, grid):
        # D(uniform || vM(k)) = log I0(k); the grid-sum normalisation is
        # spectrally close to the continuum value for smooth fields.
        uniform = von_mises_density(0.0, 0.0, 50.0, grid)
        target = von_mises_density(0.0, 4.0, 50.0, grid)
        expected = math.log(bessel_i0_series(4.0))
        assert kl_divergence(uniform, target) == pytest.approx(expected, rel=1e-10)

    def test_kl_von_mises_vs_uniform_against_analytic_value(self, grid):
        # D(vM(k) || uniform) = k I1(k)/I0(k) - log I0(k)
        vm = von_mises_density(0.0, 4.0, 50.0, grid)
        uniform = von_mises_density(0.0, 0.0, 50.0, grid)
        i0, i1 = bessel_i0_series(4.0), bessel_i1_series(4.0)
        expected = 4.0 * i1 / i0 - math.log(i0)
        assert kl_divergence(vm, uniform) == pytest.approx(expected, rel=1e-10)

    def test_kl_nonnegative(self, grid):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = rng.uniform(0.1, 2.0, grid.m)
            b = rng.uniform(0.1, 2.0, grid.m)
            assert kl_divergence(a, b) >= 0.0

    def test_kl_total_mass_invariance(self, grid):
        a = von_mises_density(0.3, 3.0, 50.0, grid)
        b = von_mises_density(-0.2, 5.0, 50.0, grid)
        a2 = 7.0 * a
        assert kl_divergence(a2, b) == pytest.approx(kl_divergence(a, b), rel=1e-14)

    def test_l2_norm(self, grid):
        assert l2_norm(np.zeros(grid.m)) == 0.0
        c = -2.2
        assert l2_norm(np.full(grid.m, c)) == pytest.approx(
            abs(c) * math.sqrt(2 * np.pi), rel=1e-14)
        assert l2_norm(np.sin(grid.nodes)) == pytest.approx(
            math.sqrt(np.pi), rel=1e-12)
