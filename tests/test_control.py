import numpy as np
import pytest

from ringswarm import (
    ControllerGains,
    GridFunction,
    MorseKernel,
    RingGrid,
    compute_feedback,
    integrate,
    l2_norm,
    sample_agent_inputs,
    spatial_derivative,
    velocity_control,
    velocity_field,
    von_mises_density,
)


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


class TestComputeFeedback:
    def test_matched_densities_give_zero_feedback(self, grid, kernel, gains):
        rho_d = von_mises_density(0.0, 4.0, 50.0, grid)
        fields = compute_feedback(rho_d, rho_d, kernel, gains)
        assert np.all(fields.e.values == 0.0)
        assert np.all(fields.q.values == 0.0)
        assert np.all(fields.v_error.values == 0.0)

    def test_q_has_zero_integral_for_matched_mass(self, grid, kernel, gains):
        rho = von_mises_density(0.0, 0.0, 50.0, grid)  # uniform, mass 50
        rho_d = von_mises_density(0.0, 4.0, 50.0, grid)
        fields = compute_feedback(rho, rho_d, kernel, gains)
        assert abs(integrate(fields.q)) < 1e-9

    def test_q_integral_vanishes_on_random_pairs(self, grid, kernel, gains):
        rng = np.random.default_rng(50)
        for _ in range(100):
            rho = positive_random_field(grid, rng)
            rho_d = positive_random_field(grid, rng)
            fields = compute_feedback(rho, rho_d, kernel, gains)
            assert abs(integrate(fields.q)) < 1e-9 * (l2_norm(fields.q) + 1.0)

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
        q1 = compute_feedback(GridFunction(grid, rho_d.values - e1), rho_d, kernel, gains).q
        q2 = compute_feedback(GridFunction(grid, rho_d.values - e2), rho_d, kernel, gains).q
        q12 = compute_feedback(GridFunction(grid, rho_d.values - e1 - e2), rho_d, kernel, gains).q
        assert np.abs(q12.values - q1.values - q2.values).max() < 1e-10

    def test_error_equation_algebra(self, grid, kernel, gains):
        # Substituting q into the controlled law must reproduce the error
        # dynamics: [rho_d Vd]_x - [rho V]_x + q - kp*e + [e Ve]_x = 0 up to
        # roundoff (all terms share stencils), far below the O(dx^2) budget.
        rng = np.random.default_rng(52)
        for _ in range(10):
            rho = positive_random_field(grid, rng)
            rho_d = positive_random_field(grid, rng)
            fields = compute_feedback(rho, rho_d, kernel, gains)
            v = velocity_field(kernel, rho)
            flux_dd = spatial_derivative(GridFunction(grid, rho_d.values * fields.v_desired.values))
            flux = spatial_derivative(GridFunction(grid, rho.values * v.values))
            flux_ee = spatial_derivative(GridFunction(grid, fields.e.values * fields.v_error.values))
            residual = (flux_dd.values - flux.values + fields.q.values
                        - gains.kp * fields.e.values + flux_ee.values)
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
        # [rho U]_x = -sin  =>  U = -(1 - (-cos x - 1) ... ) worked out:
        # integral of sin from -pi to x is -(1 + cos x), so U = (2*pi/N)(1 + cos x).
        n = 50.0
        rho = von_mises_density(0.0, 0.0, n, grid)
        q = GridFunction(grid, np.sin(grid.nodes))
        u = velocity_control(rho, q)
        expected = (2 * np.pi / n) * (1.0 + np.cos(grid.nodes))
        assert np.abs(u.values - expected).max() < 1e-3

    @pytest.mark.parametrize("m", [64, 128, 256])
    def test_discrete_consistency_order(self, m):
        grid = RingGrid(m)
        rho = von_mises_density(0.0, 2.0, 50.0, grid)
        q = GridFunction(grid, np.sin(grid.nodes) + 0.4 * np.cos(2 * grid.nodes))
        u = velocity_control(rho, q)
        residual = spatial_derivative(GridFunction(grid, rho.values * u.values))
        err = l2_norm(GridFunction(grid, residual.values + q.values))
        # second-order scheme: error tracks dx^2
        assert err < 2.0 * grid.spacing**2 * l2_norm(q)

    def test_integration_constant_offset(self, grid):
        rho = von_mises_density(0.0, 3.0, 50.0, grid)
        q = GridFunction(grid, np.sin(grid.nodes) + 0.2 * np.sin(3 * grid.nodes))
        u0 = velocity_control(rho, q, constant_mode="zero")
        u1 = velocity_control(rho, q, constant_mode="boundary")
        expected = -q.values[0] / rho.values
        assert np.allclose(u1.values - u0.values, expected, rtol=1e-12, atol=1e-15)

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
            velocity_control(rho, q, constant_mode="other")
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
        from ringswarm import wrap_angle
        rotated = sample_agent_inputs(u_rot, wrap_angle(positions + shift * grid.spacing))
        assert np.allclose(rotated, sample_agent_inputs(u, positions), atol=1e-12)
