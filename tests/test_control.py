import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringswarm import (
    ControllerGains,
    GridFunction,
    MorseKernel,
    RingGrid,
    circular_convolve,
    compute_feedback,
    integrate,
    l2_norm,
    sample_agent_inputs,
    velocity_control,
    velocity_field,
    von_mises_density,
    wrap_angle,
)
from ringswarm.ring import central_difference


@pytest.fixture
def grid():
    return RingGrid(256)


@pytest.fixture
def kernel():
    return MorseKernel(0.5, 0.5)


@pytest.fixture
def gains():
    return ControllerGains(kp=10.0)


def positive_random_field(grid, rng, mass=50.0, modes=5):
    values = np.ones(grid.m)
    for k in range(1, modes + 1):
        values += 0.5 / k * (rng.normal() * np.cos(k * grid.nodes)
                             + rng.normal() * np.sin(k * grid.nodes))
    values = np.abs(values) + 0.05
    field = GridFunction(grid, values)
    return GridFunction(grid, values * (mass / integrate(field)))


@st.composite
def feedback_cases(draw):
    """Positive rho and rho_d of one mass in [1, 1000] on an even grid of
    4-1024 nodes, a Morse kernel (mean-field or unit strength) and a gain."""
    grid = RingGrid(2 * draw(st.integers(2, 512)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = draw(st.floats(1.0, 1000.0))
    rho, rho_d = positive_random_field(grid, rng, mass), positive_random_field(grid, rng, mass)
    strength = draw(st.sampled_from((1.0 / mass, 1.0)))
    kernel = MorseKernel(draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0)), strength)
    return rho, rho_d, kernel, ControllerGains(draw(st.floats(0.1, 100.0)))


def two_convolution_feedback(rho, rho_d, kernel, gains):
    """The feedback with Ve convolved from e = rho_d - rho itself, as it was
    assembled before Ve = Vd - V(rho): the oracle for compute_feedback."""
    grid = rho.grid
    samples = kernel.sample_on_grid(grid)
    e = GridFunction(grid, rho_d.values - rho.values)
    v_desired, v_error = circular_convolve(samples, rho_d), circular_convolve(samples, e)
    flux_d = central_difference(e.values * v_desired.values, grid.spacing)
    flux_e = central_difference(rho_d.values * v_error.values, grid.spacing)
    return gains.kp * e.values - flux_d - flux_e


class TestComputeFeedback:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(feedback_cases())
    def test_q_integral_vanishes_property(self, case):
        rho, rho_d, kernel, gains = case
        error_size = integrate(GridFunction(rho.grid, np.abs(rho_d.values - rho.values)))
        q = compute_feedback(rho, rho_d, kernel, gains)
        assert abs(integrate(q)) <= 1e-12 * (gains.kp * error_size + 1.0)
        u = velocity_control(rho, q).values
        assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(feedback_cases())
    def test_matches_the_two_convolution_oracle(self, case):
        rho, rho_d, kernel, gains = case
        expected = two_convolution_feedback(rho, rho_d, kernel, gains)
        q = compute_feedback(rho, rho_d, kernel, gains).values
        assert np.abs(q - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_matched_densities_give_zero_feedback(self, grid, kernel, gains):
        rho_d = von_mises_density(0.0, 4.0, 50.0, grid)
        assert np.all(compute_feedback(rho_d, rho_d, kernel, gains).values == 0.0)

    def test_q_has_zero_integral_for_matched_mass(self, grid, kernel, gains):
        rho = von_mises_density(0.0, 0.0, 50.0, grid)  # uniform, mass 50
        rho_d = von_mises_density(0.0, 4.0, 50.0, grid)
        assert abs(integrate(compute_feedback(rho, rho_d, kernel, gains))) < 1e-9

    def test_q_integral_vanishes_on_random_pairs(self, grid, kernel, gains):
        rng = np.random.default_rng(50)
        for _ in range(100):
            rho = positive_random_field(grid, rng)
            rho_d = positive_random_field(grid, rng)
            q = compute_feedback(rho, rho_d, kernel, gains)
            assert abs(integrate(q)) < 1e-9 * (l2_norm(q) + 1.0)

    def test_q_linear_in_error_at_fixed_target(self, grid, kernel, gains):
        rng = np.random.default_rng(51)
        rho_d = von_mises_density(0.0, 4.0, 50.0, grid)

        def zero_mass_error(scale):
            v = np.zeros(grid.m)
            for k in range(1, 5):
                v += rng.normal() * np.cos(k * grid.nodes) + rng.normal() * np.sin(k * grid.nodes)
            return scale * v

        e1 = zero_mass_error(0.6)
        e2 = zero_mass_error(0.9)
        q1 = compute_feedback(GridFunction(grid, rho_d.values - e1), rho_d, kernel, gains)
        q2 = compute_feedback(GridFunction(grid, rho_d.values - e2), rho_d, kernel, gains)
        q12 = compute_feedback(GridFunction(grid, rho_d.values - e1 - e2), rho_d, kernel, gains)
        assert np.abs(q12.values - q1.values - q2.values).max() < 1e-10

    def test_error_equation_algebra(self, grid, kernel, gains):
        # Substituting q into the controlled law must reproduce the error
        # dynamics: [rho_d Vd]_x - [rho V]_x + q - kp*e + [e Ve]_x = 0 up to
        # roundoff (all terms share stencils), far below the O(dx^2) budget.
        rng = np.random.default_rng(52)
        for _ in range(10):
            rho = positive_random_field(grid, rng)
            rho_d = positive_random_field(grid, rng)
            q = compute_feedback(rho, rho_d, kernel, gains)
            e = GridFunction(grid, rho_d.values - rho.values)
            v, v_desired, v_error = (velocity_field(kernel, f) for f in (rho, rho_d, e))
            flux_dd = central_difference(rho_d.values * v_desired.values, grid.spacing)
            flux = central_difference(rho.values * v.values, grid.spacing)
            flux_ee = central_difference(e.values * v_error.values, grid.spacing)
            residual = flux_dd - flux + q.values - gains.kp * e.values + flux_ee
            assert l2_norm(GridFunction(grid, residual)) < 1e-8

    def test_grid_mismatch_rejected(self, kernel, gains):
        rho = von_mises_density(0.0, 0.0, 50.0, RingGrid(128))
        rho_d = von_mises_density(0.0, 4.0, 50.0, RingGrid(256))
        with pytest.raises(ValueError):
            compute_feedback(rho, rho_d, kernel, gains)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            ControllerGains(kp=0.0)


class TestVelocityControl:
    def test_zero_q_gives_zero_field(self, grid):
        rho = von_mises_density(0.0, 0.0, 50.0, grid)
        u = velocity_control(rho, GridFunction(grid, np.zeros(grid.m)))
        assert np.all(u.values == 0.0)

    def test_uniform_density_sine_source_antiderivative(self, grid):
        # [rho U]_x = -sin  =>  rho U = cos x + C; the zero-sum member of
        # that family on the uniform density N / (2*pi) is U = (2*pi/N) cos x.
        n = 50.0
        rho = von_mises_density(0.0, 0.0, n, grid)
        q = GridFunction(grid, np.sin(grid.nodes))
        u = velocity_control(rho, q)
        expected = (2 * np.pi / n) * np.cos(grid.nodes)
        assert np.abs(u.values - expected).max() < 1e-3

    def test_flux_steps_are_trapezoid_steps(self, grid):
        # rho * U = -(Q + C), so between neighbouring nodes the flux falls by
        # the trapezoid step spacing * (q_j + q_{j+1}) / 2; only the seam
        # step closes the loop, by the integral of q
        rng = np.random.default_rng(58)
        rho = positive_random_field(grid, rng)
        q = GridFunction(grid, rng.normal(size=grid.m))
        flux = rho.values * velocity_control(rho, q).values
        steps = grid.spacing * 0.5 * (q.values[1:] + q.values[:-1])
        assert np.abs(np.diff(flux) + steps).max() <= 1e-12 * np.abs(flux).max()
        seam = flux[0] - flux[-1] + grid.spacing * 0.5 * (q.values[-1] + q.values[0])
        assert seam == pytest.approx(integrate(q), abs=1e-12 * np.abs(flux).max())

    @pytest.mark.parametrize("m", [64, 128, 256])
    def test_discrete_consistency_order(self, m):
        grid = RingGrid(m)
        rho = von_mises_density(0.0, 2.0, 50.0, grid)
        q = GridFunction(grid, np.sin(grid.nodes) + 0.4 * np.cos(2 * grid.nodes))
        u = velocity_control(rho, q)
        residual = central_difference(rho.values * u.values, grid.spacing)
        err = l2_norm(GridFunction(grid, residual + q.values))
        # second-order scheme: error tracks dx^2
        assert err < 2.0 * grid.spacing**2 * l2_norm(q)

    def test_starved_node_raises_with_location(self, grid):
        values = np.full(grid.m, 50.0 / (2 * np.pi))
        values[37] = 1e-12
        rho = GridFunction(grid, values)
        q = GridFunction(grid, np.sin(grid.nodes))
        with pytest.raises(ValueError, match="node 37"):
            velocity_control(rho, q)

    def test_starved_node_zeroed_on_request(self, grid):
        values = np.full(grid.m, 50.0 / (2 * np.pi))
        values[37] = 1e-12
        rho = GridFunction(grid, values)
        q = GridFunction(grid, np.sin(grid.nodes))
        u = velocity_control(rho, q, on_starved="zero")
        assert u.values[37] == 0.0
        assert np.all(np.isfinite(u.values))
        assert np.abs(u.values).max() > 0.0

    def test_bad_modes_rejected(self, grid):
        rho = von_mises_density(0.0, 0.0, 50.0, grid)
        q = GridFunction(grid, np.zeros(grid.m))
        with pytest.raises(ValueError):
            velocity_control(rho, q, on_starved="clip")


class TestSampleAgentInputs:
    def test_zero_field(self, grid):
        u = GridFunction(grid, np.zeros(grid.m))
        assert np.all(sample_agent_inputs(u, np.array([0.0, 1.0, -2.0])) == 0.0)

    def test_exact_on_nodes(self, grid):
        rng = np.random.default_rng(53)
        u = GridFunction(grid, rng.normal(size=grid.m))
        idx = np.array([0, 5, 100, 255])
        sampled = sample_agent_inputs(u, grid.nodes[idx])
        assert np.array_equal(sampled, u.values[idx])

    def test_midpoint_is_mean_of_neighbours(self, grid):
        rng = np.random.default_rng(54)
        u = GridFunction(grid, rng.normal(size=grid.m))
        j = 12
        mid = grid.nodes[j] + 0.5 * grid.spacing
        expected = 0.5 * (u.values[j] + u.values[j + 1])
        assert sample_agent_inputs(u, np.array([mid]))[0] == pytest.approx(expected, rel=1e-12)

    def test_periodic_across_the_seam(self, grid):
        rng = np.random.default_rng(55)
        u = GridFunction(grid, rng.normal(size=grid.m))
        near_pi = grid.nodes[-1] + 0.5 * grid.spacing  # halfway between x_{m-1} and -pi
        expected = 0.5 * (u.values[-1] + u.values[0])
        assert sample_agent_inputs(u, np.array([near_pi]))[0] == pytest.approx(expected, rel=1e-12)

    def test_commutes_with_grid_aligned_rotation(self, grid):
        rng = np.random.default_rng(56)
        u = GridFunction(grid, rng.normal(size=grid.m))
        positions = rng.uniform(-np.pi, np.pi, 40)
        shift = 31
        u_rot = GridFunction(grid, np.roll(u.values, shift))
        rotated = sample_agent_inputs(u_rot, wrap_angle(positions + shift * grid.spacing))
        assert np.allclose(rotated, sample_agent_inputs(u, positions), atol=1e-12)

    @pytest.mark.parametrize("m", [4, 6, 64, 256, 1000])
    def test_matches_modulo_formula(self, m):
        # the shifted-copy read of node j + 1 against the two-modulo formula,
        # bit for bit, off and on nodes and at the seam
        grid = RingGrid(m)
        rng = np.random.default_rng(57 + m)
        u = GridFunction(grid, rng.normal(size=m))
        positions = np.concatenate((
            rng.uniform(-np.pi - 0.05, np.pi + 0.05, 5000), grid.nodes,
            [-np.pi, np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)]))
        wrapped = wrap_angle(positions)
        s = (wrapped + np.pi) / grid.spacing
        s = np.where(np.abs(s - np.round(s)) < 1e-9, np.round(s), s)
        j = np.floor(s).astype(int) % m
        frac = s - np.floor(s)
        expected = u.values[j] * (1.0 - frac) + u.values[(j + 1) % m] * frac
        assert np.array_equal(sample_agent_inputs(u, positions), expected)
