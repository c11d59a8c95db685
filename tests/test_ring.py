import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringswarm.density import von_mises_density
from ringswarm.dynamics import MorseKernel, _rusanov_advance
from ringswarm.ring import (
    GridFunction,
    central_difference,
    grid_nodes,
    integrate,
    velocity_field,
    wrap_angle,
)


def direct_convolve(kernel_fn, density: np.ndarray) -> np.ndarray:
    """O(m^2) reference: Delta * sum_j f(wrap(x_i - x_j)) rho_j, no FFT."""
    x = grid_nodes(density.size)
    d = x[:, None] - x[None, :]
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    return (2.0 * np.pi / density.size) * (kernel_fn(d) @ density)


def direct_convolve_samples(kernel_samples: GridFunction, density: np.ndarray) -> np.ndarray:
    """O(m^2) circulant reference on the sampled kernel, integer indexing only."""
    m = kernel_samples.values.size
    i = np.arange(m)
    lookup = (i[:, None] - i[None, :] + m // 2) % m  # offset (i-j)*Delta -> node
    return (2.0 * np.pi / m) * (kernel_samples.values[lookup] @ density)


def roll_central_difference(v, spacing):
    """The central difference written with np.roll."""
    return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * spacing)


def roll_rusanov_advance(r, wv, dt, spacing):
    """One Rusanov step written with np.roll."""
    flux = r * wv
    a = np.maximum(np.abs(wv), np.abs(np.roll(wv, -1)))
    face = 0.5 * (flux + np.roll(flux, -1)) - 0.5 * a * (np.roll(r, -1) - r)
    return np.clip(r - (dt / spacing) * (face - np.roll(face, 1)), 0.0, None)


@st.composite
def stencil_cases(draw):
    """Even m from 4 to 1024; finite samples v of any scale from 1e-300 to
    1e300; a density r >= 0 (exact zeros included) under a speed w, and a
    dt up to the CFL bound dt * max|w| <= Delta."""
    m = 2 * draw(st.integers(2, 512))
    spacing = 2.0 * np.pi / m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=m) * 10.0 ** draw(st.integers(-300, 300))
    r = rng.uniform(0.0, 100.0, m) * (rng.uniform(size=m) < 0.8)
    w = rng.normal(size=m) * 10.0 ** draw(st.integers(-3, 3))
    dt = draw(st.floats(0.0, 1.0, exclude_min=True)) * spacing / np.abs(w).max()
    return spacing, v, r, w, dt


class TestStencilOracles:
    """The slicing stencils against their np.roll forms: the same IEEE
    operations per element, so bitwise equal."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(stencil_cases())
    def test_slicing_stencils_match_roll_forms(self, case):
        spacing, v, r, w, dt = case
        assert np.array_equal(central_difference(v), roll_central_difference(v, spacing))
        advanced = _rusanov_advance(r, w, np.abs(w), dt)
        assert np.array_equal(advanced, roll_rusanov_advance(r, w, dt, spacing))


class TestWrapDistance:
    """Signed shortest-path distance a - b, as wrap_angle(a - b)."""

    def test_no_wrap_needed(self):
        assert wrap_angle(0.1 - -0.1) == pytest.approx(0.2, abs=1e-15)
        assert wrap_angle(0.1) == 0.1  # an in-range angle keeps its exact value

    def test_antipodal_maps_to_minus_pi(self):
        assert wrap_angle(np.pi / 2 - -np.pi / 2) == -np.pi

    def test_wraparound_case(self):
        # independent evaluation of the mod formula
        expected = math.fmod(3.0 - (-3.0) + math.pi, 2.0 * math.pi) - math.pi
        assert wrap_angle(3.0 - -3.0) == pytest.approx(expected, abs=1e-14)
        assert wrap_angle(3.0 - -3.0) == pytest.approx(-0.28319, abs=1e-5)

    def test_antisymmetry_off_the_antipode(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-np.pi, np.pi, 200)
        b = rng.uniform(-np.pi, np.pi, 200)
        d_ab = wrap_angle(a - b)
        keep = d_ab != -np.pi
        assert np.allclose(d_ab[keep] + wrap_angle(b - a)[keep], 0.0, atol=1e-12)

    def test_two_pi_periodicity(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-np.pi, np.pi, 100)
        b = rng.uniform(-np.pi, np.pi, 100)
        for k in (-3, -1, 1, 2):
            assert np.allclose(
                wrap_angle(a + 2.0 * np.pi * k - b), wrap_angle(a - b), atol=1e-12
            )

    def test_result_range(self):
        rng = np.random.default_rng(9)
        d = wrap_angle(rng.uniform(-10, 10, 500) - rng.uniform(-10, 10, 500))
        assert np.all(d >= -np.pi) and np.all(d < np.pi)

    def test_half_open_at_the_seam(self):
        # just below -pi the modulo rounds up to 2*pi, which must not give pi
        below = np.nextafter(-np.pi, -np.inf)
        a = np.array([np.nextafter(below, -np.inf), below, -np.pi,
                      np.nextafter(-np.pi, np.inf), np.nextafter(np.pi, -np.inf), np.pi,
                      np.nextafter(np.pi, np.inf), np.nextafter(-3 * np.pi, -np.inf)])
        wrapped = wrap_angle(a)
        assert np.all(wrapped >= -np.pi) and np.all(wrapped < np.pi)
        assert wrap_angle(below) == -np.pi
        inside = (a >= -np.pi) & (a < np.pi)
        assert np.array_equal(wrapped[inside], a[inside])


class TestWrapIntoDomain:
    def test_inside_values_pass_through_untouched(self):
        inside = np.array([-np.pi, -1.0, 0.0, 0.1, np.nextafter(np.pi, 0.0)])
        assert wrap_angle(inside) is inside

    def test_only_outside_values_move(self):
        a = np.array([-np.pi - 0.01, -1.0, np.pi, 0.3])
        wrapped = wrap_angle(a)
        assert not np.shares_memory(wrapped, a)
        assert np.array_equal(wrapped[[1, 3]], a[[1, 3]])
        assert np.array_equal(wrapped[[0, 2]], [np.pi - 0.01, -np.pi])
        assert np.all(wrapped >= -np.pi) and np.all(wrapped < np.pi)


class TestRingGrid:
    def test_nodes_structure(self):
        x = grid_nodes(8)
        assert x[0] == -np.pi
        assert np.all(np.diff(x) > 0)
        assert np.allclose(np.diff(x), 2.0 * np.pi / 8, atol=1e-15)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            GridFunction(np.zeros(3))

    @pytest.mark.parametrize("m", [0, -4, 3])
    def test_fewer_than_4_nodes_rejected(self, m):
        for build in (grid_nodes, MorseKernel().sample_on_grid):
            with pytest.raises(ValueError, match=f"at least 4 nodes, got m={m}"):
                build(m)

    def test_grid_function_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            GridFunction(np.full(8, np.nan))

    def test_grid_function_immutable(self):
        f = GridFunction(np.arange(8.0))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_grid_function_equality_is_identity(self):
        f, g = GridFunction(np.arange(8.0)), GridFunction(np.arange(8.0))
        assert f == f and f != g
        assert len({f: 1, g: 2}) == 2 and hash(f) == hash(f)


class TestCircularConvolve:
    def test_odd_kernel_times_constant_density(self):
        kernel = MorseKernel(0.5, 0.5).sample_on_grid(128)
        out = velocity_field(kernel, np.full(128, 3.7))
        assert np.abs(out).max() < 1e-12

    def test_zero_density(self):
        kernel = MorseKernel(0.5, 0.5).sample_on_grid(64)
        out = velocity_field(kernel, np.zeros(64))
        assert np.abs(out).max() == 0.0

    def test_morse_times_von_mises_matches_direct_sum(self):
        kernel = MorseKernel(0.5, 0.5)
        density = von_mises_density(0.0, 4.0, 50.0, grid_nodes(256))
        samples = kernel.sample_on_grid(256)
        fast = velocity_field(samples, density)
        ref = direct_convolve_samples(samples, density)
        scale = np.abs(ref).max()
        assert np.abs(fast - ref).max() < 1e-10 * scale

    @pytest.mark.parametrize("m", [16, 64, 256])
    def test_matches_direct_sum_on_random_fields(self, m):
        rng = np.random.default_rng(100 + m)

        def trig_kernel(z):
            return 0.8 * np.sin(z) - 0.3 * np.sin(2 * z) + 0.1 * np.cos(3 * z)

        kernel = GridFunction(trig_kernel(grid_nodes(m)))
        density = rng.normal(0.0, 1.0, m)
        fast = velocity_field(kernel, density)
        ref = direct_convolve(trig_kernel, density)
        scale = max(np.abs(ref).max(), 1e-30)
        assert np.abs(fast - ref).max() < 1e-10 * scale

    def test_linearity_in_density(self):
        rng = np.random.default_rng(5)
        kernel = MorseKernel(0.7, 0.9).sample_on_grid(128)
        rho1 = rng.normal(size=128)
        rho2 = rng.normal(size=128)
        alpha, beta = 1.7, -0.4
        lhs = velocity_field(kernel, alpha * rho1 + beta * rho2)
        rhs = alpha * velocity_field(kernel, rho1) + beta * velocity_field(kernel, rho2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_grid_mismatch_rejected(self):
        kernel = MorseKernel().sample_on_grid(64)
        with pytest.raises(ValueError, match="mismatch"):
            velocity_field(kernel, np.zeros(128))

    def test_odd_node_count_rejected(self):
        f = GridFunction(np.zeros(65))
        with pytest.raises(ValueError, match="even"):
            velocity_field(f, f.values)


class TestSpatialDerivative:
    def test_constant_field(self):
        out = central_difference(np.full(64, 2.5))
        assert np.abs(out).max() == 0.0

    def test_sine(self):
        x = grid_nodes(256)
        out = central_difference(np.sin(x))
        assert np.abs(out - np.cos(x)).max() < 1e-3

    def test_cos_three_x(self):
        x = grid_nodes(256)
        out = central_difference(np.cos(3 * x))
        # central differences: error <= |f'''| * Delta^2 / 6 = 27 * Delta^2 / 6
        bound = 27.0 * (2.0 * np.pi / 256)**2 / 6.0
        assert np.abs(out + 3.0 * np.sin(3 * x)).max() < 1.1 * bound


class TestIntegrate:
    def test_uniform_mass(self):
        n = 50.0
        assert integrate(np.full(64, n / (2 * np.pi))) == pytest.approx(n, rel=1e-14)

    def test_sine_integrates_to_zero(self):
        assert abs(integrate(np.sin(grid_nodes(256)))) < 1e-12

    def test_von_mises_mass(self):
        assert integrate(von_mises_density(0.0, 4.0, 50.0, grid_nodes(256))) == pytest.approx(
            50.0, abs=1e-8)

    def test_derivative_integrates_to_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = central_difference(rng.normal(size=128))
            assert abs(integrate(d)) < 1e-12

