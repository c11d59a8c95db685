import math

import numpy as np
import pytest

from ringswarm.density import von_mises_density
from ringswarm.dynamics import MIN_ATTRACTION_LENGTH, MorseKernel
from ringswarm.ring import grid_nodes, velocity_field

from kernel_norms import kernel_derivative, young_bound_check


def random_smooth_field(x, rng, modes=6, zero_mean=True):
    values = np.zeros(x.size)
    for k in range(1, modes + 1):
        values += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
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
        # L below 2*pi/300 would let the exact sum's prefix terms pass e^300
        shortest = MIN_ATTRACTION_LENGTH
        assert MorseKernel(0.5, shortest).attraction_length == 2 * math.pi / 300
        bad = [(0.0, 0.5), (0.5, -1.0), (0.5, np.nextafter(shortest, 0))]
        for value in (math.nan, math.inf, -math.inf):
            bad += [(value, 0.5), (0.5, value), (0.5, 0.5, value)]
        for args in bad:
            with pytest.raises(ValueError):
                MorseKernel(*args)


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
        samples = MorseKernel(0.5, 0.5).sample_on_grid(256)
        assert samples.values[256 // 2] == 0.0  # node at x = 0

    def test_antipodal_node_takes_jump_mean(self):
        samples = MorseKernel(0.5, 0.5).sample_on_grid(256)
        assert samples.values[0] == 0.0  # node at x = -pi

    def test_opposite_nodes_cancel(self):
        samples = MorseKernel(0.5, 0.5).sample_on_grid(128)
        j = np.arange(1, 128)
        assert np.abs(samples.values[j] + samples.values[128 - j]).max() < 1e-12

    def test_peak_at_smallest_nonzero_offset(self):
        # dense-evaluation check first: |f| decreases monotonically in |z| > 0
        kernel = MorseKernel(0.5, 0.5)
        z = np.linspace(1e-4, np.pi, 4000)
        assert np.all(np.diff(kernel.evaluate(z)) < 0.0)
        samples = MorseKernel(0.5, 0.5).sample_on_grid(256)
        peak = np.argmax(np.abs(samples.values))
        assert abs(abs(grid_nodes(256)[peak]) - 2.0 * np.pi / 256) < 1e-12

    def test_cached_samples_and_spectrum_are_read_only(self):
        samples = MorseKernel(0.5, 0.5, 0.1).sample_on_grid(64)
        assert samples.offset_spectrum is samples.offset_spectrum
        for array in (samples.values, samples.offset_spectrum):
            with pytest.raises(ValueError):
                array[1] = 7.0


class TestVelocityField:
    def test_uniform_density_is_equilibrium(self):
        uniform = np.full(256, 50.0 / (2 * np.pi))
        v = velocity_field(MorseKernel(0.5, 0.5).sample_on_grid(256), uniform)
        assert np.abs(v).max() < 1e-10

    def test_zero_error_gives_zero_velocity(self):
        v = velocity_field(MorseKernel(0.5, 0.5).sample_on_grid(128), np.zeros(128))
        assert np.abs(v).max() == 0.0

    def test_odd_node_count_rejected(self):
        # offsets between the nodes of an odd grid miss the kernel's samples
        with pytest.raises(ValueError, match="even node count"):
            velocity_field(MorseKernel().sample_on_grid(255), np.ones(255))

    def test_symmetric_density_gives_antisymmetric_velocity(self):
        x = grid_nodes(256)
        k = 6.0
        bumps = (np.exp(k * np.cos(x - 1.0)) + np.exp(k * np.cos(x + 1.0)))
        kernel = MorseKernel(0.5, 0.5)
        v = velocity_field(kernel.sample_on_grid(x.size), bumps)
        mirrored = np.roll(v[::-1], 1)  # value at -x_j for each node j
        assert np.abs(v + mirrored).max() < 1e-10 * np.abs(v).max()
        # direct O(m^2) circulant sum on the same kernel samples
        m = x.size
        i = np.arange(m)
        lookup = (i[:, None] - i[None, :] + m // 2) % m
        samples = kernel.sample_on_grid(m).values
        direct = (2.0 * np.pi / m) * (samples[lookup] @ bumps)
        assert np.abs(v - direct).max() < 1e-10 * np.abs(direct).max()


class TestYoungBound:
    def test_zero_error(self):
        lhs, rhs = young_bound_check(MorseKernel(0.5, 0.5), np.zeros(128))
        assert lhs == 0.0 and rhs == 0.0

    def test_holds_on_random_smooth_fields(self):
        rng = np.random.default_rng(26)
        x = grid_nodes(256)
        kernel = MorseKernel(0.5, 0.5)
        for _ in range(100):
            e = random_smooth_field(x, rng)
            lhs, rhs = young_bound_check(kernel, e)
            assert lhs <= rhs + 1e-12

    def test_strict_for_a_narrow_bump(self):
        bump = von_mises_density(0.3, 40.0, 1.0, grid_nodes(256))
        lhs, rhs = young_bound_check(MorseKernel(0.5, 0.5), bump)
        assert lhs < rhs
