import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringswarm import (
    MorseKernel,
    compute_feedback,
    continuum_config,
    grid_nodes,
    integrate,
    l2_norm,
    sample_agent_inputs,
    velocity_control,
    velocity_field,
    von_mises_density,
    wrap_angle,
)
from ringswarm import scenarios
from ringswarm.ring import central_difference

from ringswarm.control import starvation_floor

from loop_parts import feedback, solve


@pytest.fixture
def x():
    return grid_nodes(256)


@pytest.fixture
def kernel():
    return MorseKernel(0.5, 0.5)


@pytest.fixture
def kp():
    return 10.0


def positive_random_field(x, rng, mass=50.0, modes=5):
    values = np.ones(x.size)
    for k in range(1, modes + 1):
        values += 0.5 / k * (rng.normal() * np.cos(k * x)
                             + rng.normal() * np.sin(k * x))
    values = np.abs(values) + 0.05
    return values * (mass / integrate(values))


@st.composite
def feedback_cases(draw):
    """Positive rho and rho_d of one mass in [1, 1000] on an even grid of
    4-1024 nodes, a Morse kernel (mean-field or unit strength) and a gain."""
    x = grid_nodes(2 * draw(st.integers(2, 512)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = draw(st.floats(1.0, 1000.0))
    rho, rho_d = positive_random_field(x, rng, mass), positive_random_field(x, rng, mass)
    strength = draw(st.sampled_from((1.0 / mass, 1.0)))
    kernel = MorseKernel(draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0)), strength)
    return rho, rho_d, kernel, draw(st.floats(0.1, 100.0))


def two_convolution_feedback(rho, rho_d, kernel, kp):
    """The feedback with Ve convolved from e = rho_d - rho itself, as it was
    assembled before Ve = Vd - V(rho): the oracle for compute_feedback."""
    samples = kernel.sample_on_grid(rho.size)
    e = rho_d - rho
    v_desired, v_error = velocity_field(samples, rho_d), velocity_field(samples, e)
    flux_d = central_difference(e * v_desired)
    flux_e = central_difference(rho_d * v_error)
    return kp * e - flux_d - flux_e


class TestComputeFeedback:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(feedback_cases())
    def test_q_integral_vanishes_property(self, case):
        rho, rho_d, kernel, kp = case
        error_size = integrate(np.abs(rho_d - rho))
        q = feedback(rho, rho_d, kernel, kp)
        assert abs(integrate(q)) <= 1e-12 * (kp * error_size + 1.0)
        u = solve(rho, q)
        assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(feedback_cases())
    def test_matches_the_two_convolution_oracle(self, case):
        rho, rho_d, kernel, kp = case
        expected = two_convolution_feedback(rho, rho_d, kernel, kp)
        q = feedback(rho, rho_d, kernel, kp)
        assert np.abs(q - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_matched_densities_give_zero_feedback(self, x, kernel, kp):
        rho_d = von_mises_density(0.0, 4.0, 50.0, x)
        assert np.all(feedback(rho_d, rho_d, kernel, kp) == 0.0)

    def test_q_has_zero_integral_for_matched_mass(self, x, kernel, kp):
        rho = von_mises_density(0.0, 0.0, 50.0, x)  # uniform, mass 50
        rho_d = von_mises_density(0.0, 4.0, 50.0, x)
        assert abs(integrate(feedback(rho, rho_d, kernel, kp))) < 1e-9

    def test_q_integral_vanishes_on_random_pairs(self, x, kernel, kp):
        rng = np.random.default_rng(50)
        for _ in range(100):
            rho = positive_random_field(x, rng)
            rho_d = positive_random_field(x, rng)
            q = feedback(rho, rho_d, kernel, kp)
            assert abs(integrate(q)) < 1e-9 * (l2_norm(q) + 1.0)

    def test_q_linear_in_error_at_fixed_target(self, x, kernel, kp):
        rng = np.random.default_rng(51)
        rho_d = von_mises_density(0.0, 4.0, 50.0, x)

        def zero_mass_error(scale):
            v = np.zeros(x.size)
            for k in range(1, 5):
                v += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
            return scale * v

        e1 = zero_mass_error(0.6)
        e2 = zero_mass_error(0.9)
        q1 = feedback(rho_d - e1, rho_d, kernel, kp)
        q2 = feedback(rho_d - e2, rho_d, kernel, kp)
        q12 = feedback(rho_d - e1 - e2, rho_d, kernel, kp)
        assert np.abs(q12 - q1 - q2).max() < 1e-10

    def test_error_equation_algebra(self, x, kernel, kp):
        # Substituting q into the controlled law must reproduce the error
        # dynamics: [rho_d Vd]_x - [rho V]_x + q - kp*e + [e Ve]_x = 0 up to
        # roundoff (all terms share stencils), far below the O(dx^2) budget.
        rng = np.random.default_rng(52)
        for _ in range(10):
            rho = positive_random_field(x, rng)
            rho_d = positive_random_field(x, rng)
            q = feedback(rho, rho_d, kernel, kp)
            e = rho_d - rho
            samples = kernel.sample_on_grid(x.size)
            v, v_desired, v_error = (velocity_field(samples, f) for f in (rho, rho_d, e))
            flux_dd = central_difference(rho_d * v_desired)
            flux = central_difference(rho * v)
            flux_ee = central_difference(e * v_error)
            residual = flux_dd - flux + q - kp * e + flux_ee
            assert l2_norm(residual) < 1e-8

    def test_grid_mismatch_rejected(self, kp):
        rho = von_mises_density(0.0, 0.0, 50.0, grid_nodes(128))
        rho_d = von_mises_density(0.0, 4.0, 50.0, grid_nodes(256))
        with pytest.raises(ValueError):
            compute_feedback(rho, np.zeros(128), rho_d, np.zeros(256), kp)

class TestVelocityControl:
    def test_zero_q_gives_zero_field(self, x):
        rho = von_mises_density(0.0, 0.0, 50.0, x)
        u = solve(rho, np.zeros(x.size))
        assert np.all(u == 0.0)

    def test_uniform_density_sine_source_antiderivative(self, x):
        # [rho U]_x = -sin  =>  rho U = cos x + C; the zero-sum member of
        # that family on the uniform density N / (2*pi) is U = (2*pi/N) cos x.
        n = 50.0
        rho = von_mises_density(0.0, 0.0, n, x)
        q = np.sin(x)
        u = solve(rho, q)
        expected = (2 * np.pi / n) * np.cos(x)
        assert np.abs(u - expected).max() < 1e-3

    def test_flux_steps_are_trapezoid_steps(self, x):
        # rho * U = -(Q + C), so between neighbouring nodes the flux falls by
        # the trapezoid step spacing * (q_j + q_{j+1}) / 2; only the seam
        # step closes the loop, by the integral of q
        rng = np.random.default_rng(58)
        rho = positive_random_field(x, rng)
        q = rng.normal(size=x.size)
        flux = rho * solve(rho, q)
        spacing = 2.0 * np.pi / x.size
        steps = spacing * 0.5 * (q[1:] + q[:-1])
        assert np.abs(np.diff(flux) + steps).max() <= 1e-12 * np.abs(flux).max()
        seam = flux[0] - flux[-1] + spacing * 0.5 * (q[-1] + q[0])
        assert seam == pytest.approx(integrate(q), abs=1e-12 * np.abs(flux).max())

    @pytest.mark.parametrize("m", [64, 128, 256])
    def test_discrete_consistency_order(self, m):
        x = grid_nodes(m)
        rho = von_mises_density(0.0, 2.0, 50.0, x)
        q = np.sin(x) + 0.4 * np.cos(2 * x)
        u = solve(rho, q)
        residual = central_difference(rho * u)
        err = l2_norm(residual + q)
        # second-order scheme: error tracks dx^2
        assert err < 2.0 * (2.0 * np.pi / m)**2 * l2_norm(q)

    def test_starved_node_raises_with_location(self, x):
        # the continuum runner's controller refuses an update with a starved node
        values = np.full(x.size, 50.0 / (2 * np.pi))
        values[37] = 1e-12
        controller = scenarios._Controller(continuum_config(), refuse_starved=True)
        with pytest.raises(ValueError, match="node 37"):
            controller(values, np.zeros(x.size), 0.0)

    def test_starved_node_zeroed_on_request(self, x):
        values = np.full(x.size, 50.0 / (2 * np.pi))
        values[37] = 1e-12
        q = np.sin(x)
        assert np.flatnonzero(values < starvation_floor(values)).tolist() == [37]
        u = solve(values, q)
        assert u[37] == 0.0
        assert np.all(np.isfinite(u))
        assert np.abs(u).max() > 0.0
        # the starved node is left out of the constant: U sums to 0 elsewhere
        assert abs(u.sum()) <= 1e-12 * np.abs(u).sum()


class TestSampleAgentInputs:
    def test_zero_field(self, x):
        u = np.zeros(x.size)
        assert np.all(sample_agent_inputs(u, np.array([0.0, 1.0, -2.0])) == 0.0)

    def test_exact_on_nodes(self, x):
        rng = np.random.default_rng(53)
        u = rng.normal(size=x.size)
        idx = np.array([0, 5, 100, 255])
        sampled = sample_agent_inputs(u, x[idx])
        assert np.array_equal(sampled, u[idx])

    def test_midpoint_is_mean_of_neighbours(self, x):
        rng = np.random.default_rng(54)
        u = rng.normal(size=x.size)
        j = 12
        mid = x[j] + 0.5 * (2.0 * np.pi / x.size)
        expected = 0.5 * (u[j] + u[j + 1])
        assert sample_agent_inputs(u, np.array([mid]))[0] == pytest.approx(expected, rel=1e-12)

    def test_periodic_across_the_seam(self, x):
        rng = np.random.default_rng(55)
        u = rng.normal(size=x.size)
        near_pi = x[-1] + 0.5 * (2.0 * np.pi / x.size)  # halfway between x_{m-1} and -pi
        expected = 0.5 * (u[-1] + u[0])
        assert sample_agent_inputs(u, np.array([near_pi]))[0] == pytest.approx(expected, rel=1e-12)

    def test_commutes_with_grid_aligned_rotation(self, x):
        rng = np.random.default_rng(56)
        u = rng.normal(size=x.size)
        positions = rng.uniform(-np.pi, np.pi, 40)
        shift = 31
        u_rot = np.roll(u, shift)
        rotated = sample_agent_inputs(u_rot, wrap_angle(positions + shift * (2.0 * np.pi / x.size)))
        assert np.allclose(rotated, sample_agent_inputs(u, positions), atol=1e-12)

    @pytest.mark.parametrize("m", [4, 6, 64, 256, 1000])
    def test_matches_modulo_formula(self, m):
        # the shifted-copy read of node j + 1 against the two-modulo formula,
        # bit for bit, off and on nodes and at the seam
        x = grid_nodes(m)
        rng = np.random.default_rng(57 + m)
        u = rng.normal(size=m)
        positions = np.concatenate((
            rng.uniform(-np.pi - 0.05, np.pi + 0.05, 5000), x,
            [-np.pi, np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0)]))
        wrapped = wrap_angle(positions)
        s = (wrapped + np.pi) / (2.0 * np.pi / m)
        s = np.where(np.abs(s - np.round(s)) < 1e-9, np.round(s), s)
        j = np.floor(s).astype(int) % m
        frac = s - np.floor(s)
        expected = u[j] * (1.0 - frac) + u[(j + 1) % m] * frac
        assert np.array_equal(sample_agent_inputs(u, positions), expected)
