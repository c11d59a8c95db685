import math

import numpy as np
import pytest

from ringswarm import RingGrid, MorseKernel, velocity_field
from ringswarm.density import von_mises_density

from kernel_norms import kernel_derivative, young_bound_check


def random_smooth_field(grid, rng, modes=6, zero_mean=True):
    values = np.zeros(grid.m)
    for k in range(1, modes + 1):
        values += rng.normal() * np.cos(k * grid.nodes) + rng.normal() * np.sin(k * grid.nodes)
    if not zero_mean:
        values += rng.normal()
    return values


class TestKernelEval:
    def test_zero_at_origin(self):
        assert MorseKernel(0.5, 0.5).evaluate(0.0) == 0.0

    def test_right_limit_at_origin(self):
        # -G + 1 as z -> 0+ for G = 0.5
        assert MorseKernel(0.5, 0.5).evaluate(1e-9) == pytest.approx(0.5, abs=1e-8)

    def test_value_at_one(self):
        expected = -0.5 * math.exp(-2.0) + math.exp(-1.0)
        assert MorseKernel(0.5, 0.5).evaluate(1.0) == pytest.approx(expected, rel=1e-13)
        assert MorseKernel(0.5, 0.5).evaluate(1.0) == pytest.approx(0.30021, abs=1e-5)

    def test_matches_reference_for_generic_parameters(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            g, length = rng.uniform(0.2, 3.0, 2)
            z = rng.uniform(-3.5, 3.5)
            kernel = MorseKernel(g, length)
            expected = (1.0 if z > 0 else -1.0) * (-g * math.exp(-abs(z) / length)
                                                   + math.exp(-abs(z)))
            if z == 0.0:
                expected = 0.0
            assert kernel.evaluate(z) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_oddness(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            g, length = rng.uniform(0.2, 3.0, 2)
            z = rng.uniform(-4.0, 4.0)
            kernel = MorseKernel(g, length)
            assert kernel.evaluate(z) + kernel.evaluate(-z) == 0.0

    def test_strength_scales_linearly(self):
        base = MorseKernel(0.5, 0.5)
        scaled = MorseKernel(0.5, 0.5, strength=0.02)
        z = np.linspace(-3, 3, 41)
        assert np.allclose(scaled.evaluate(z), 0.02 * base.evaluate(z), rtol=1e-14)

    def test_envelope_bound(self):
        rng = np.random.default_rng(23)
        g, length = 0.8, 1.3
        kernel = MorseKernel(g, length)
        z = rng.uniform(-4, 4, 200)
        bound = g * np.exp(-np.abs(z) / length) + np.exp(-np.abs(z))
        assert np.all(np.abs(kernel.evaluate(z)) <= bound + 1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MorseKernel(0.0, 0.5)
        with pytest.raises(ValueError):
            MorseKernel(0.5, -1.0)


class TestKernelDerivative:
    def test_zero_at_origin_when_g_equals_l(self):
        assert kernel_derivative(MorseKernel(0.5, 0.5), 0.0) == 0.0

    def test_value_at_one(self):
        expected = (0.5 / 0.5) * math.exp(-2.0) - math.exp(-1.0)
        assert kernel_derivative(MorseKernel(0.5, 0.5), 1.0) == pytest.approx(expected, rel=1e-13)
        assert kernel_derivative(MorseKernel(0.5, 0.5), 1.0) == pytest.approx(-0.23254, abs=1e-5)

    def test_evenness(self):
        rng = np.random.default_rng(24)
        z = rng.uniform(0.0, 4.0, 100)
        kernel = MorseKernel(1.2, 0.7)
        assert np.all(kernel_derivative(kernel, z) - kernel_derivative(kernel, -z) == 0.0)

    def test_finite_difference_consistency(self):
        rng = np.random.default_rng(25)
        h = 1e-5
        for _ in range(50):
            g, length = rng.uniform(0.3, 3.0, 2)
            z = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
            kernel = MorseKernel(g, length)
            fd = (kernel.evaluate(z + h) - kernel.evaluate(z - h)) / (2.0 * h)
            assert fd == pytest.approx(float(kernel_derivative(kernel, z)), abs=1e-7)


class TestGridSampling:
    def test_zero_at_the_origin_node(self):
        grid = RingGrid(256)
        samples = MorseKernel(0.5, 0.5).sample_on_grid(grid)
        assert samples.values[grid.m // 2] == 0.0  # node at x = 0

    def test_antipodal_node_takes_jump_mean(self):
        grid = RingGrid(256)
        samples = MorseKernel(0.5, 0.5).sample_on_grid(grid)
        assert samples.values[0] == 0.0  # node at x = -pi

    def test_opposite_nodes_cancel(self):
        grid = RingGrid(128)
        samples = MorseKernel(0.5, 0.5).sample_on_grid(grid)
        j = np.arange(1, grid.m)
        assert np.abs(samples.values[j] + samples.values[grid.m - j]).max() < 1e-12

    def test_peak_at_smallest_nonzero_offset(self):
        # dense-evaluation check first: |f| decreases monotonically in |z| > 0
        kernel = MorseKernel(0.5, 0.5)
        z = np.linspace(1e-4, np.pi, 4000)
        assert np.all(np.diff(kernel.evaluate(z)) < 0.0)
        grid = RingGrid(256)
        samples = MorseKernel(0.5, 0.5).sample_on_grid(grid)
        peak = np.argmax(np.abs(samples.values))
        assert abs(abs(grid.nodes[peak]) - grid.spacing) < 1e-12

    def test_cached_samples_and_spectrum_are_read_only(self):
        grid = RingGrid(64)
        samples = MorseKernel(0.5, 0.5, 0.1).sample_on_grid(grid)
        assert samples.offset_spectrum is samples.offset_spectrum
        for array in (samples.values, samples.offset_spectrum):
            with pytest.raises(ValueError):
                array[1] = 7.0


class TestVelocityField:
    def test_uniform_density_is_equilibrium(self):
        grid = RingGrid(256)
        uniform = np.full(grid.m, 50.0 / (2 * np.pi))
        v = velocity_field(MorseKernel(0.5, 0.5).sample_on_grid(grid), uniform)
        assert np.abs(v).max() < 1e-10

    def test_zero_error_gives_zero_velocity(self):
        grid = RingGrid(128)
        v = velocity_field(MorseKernel(0.5, 0.5).sample_on_grid(grid), np.zeros(grid.m))
        assert np.abs(v).max() == 0.0

    def test_symmetric_density_gives_antisymmetric_velocity(self):
        grid = RingGrid(256)
        k = 6.0
        bumps = (np.exp(k * np.cos(grid.nodes - 1.0)) + np.exp(k * np.cos(grid.nodes + 1.0)))
        kernel = MorseKernel(0.5, 0.5)
        v = velocity_field(kernel.sample_on_grid(grid), bumps)
        mirrored = np.roll(v[::-1], 1)  # value at -x_j for each node j
        assert np.abs(v + mirrored).max() < 1e-10 * np.abs(v).max()
        # direct O(m^2) circulant sum on the same kernel samples
        m = grid.m
        i = np.arange(m)
        lookup = (i[:, None] - i[None, :] + m // 2) % m
        samples = kernel.sample_on_grid(grid).values
        direct = grid.spacing * (samples[lookup] @ bumps)
        assert np.abs(v - direct).max() < 1e-10 * np.abs(direct).max()


class TestYoungBound:
    def test_zero_error(self):
        grid = RingGrid(128)
        lhs, rhs = young_bound_check(MorseKernel(0.5, 0.5), np.zeros(grid.m))
        assert lhs == 0.0 and rhs == 0.0

    def test_holds_on_random_smooth_fields(self):
        rng = np.random.default_rng(26)
        grid = RingGrid(256)
        kernel = MorseKernel(0.5, 0.5)
        for _ in range(100):
            e = random_smooth_field(grid, rng)
            lhs, rhs = young_bound_check(kernel, e)
            assert lhs <= rhs + 1e-12

    def test_strict_for_a_narrow_bump(self):
        grid = RingGrid(256)
        bump = von_mises_density(0.3, 40.0, 1.0, grid)
        lhs, rhs = young_bound_check(MorseKernel(0.5, 0.5), bump)
        assert lhs < rhs
