"""Kernel-derivative norms for the error-decay bounds the tests check."""

import numpy as np

from ringswarm import GridFunction, MorseKernel, RingGrid, circular_convolve, integrate


def kernel_derivative(kernel: MorseKernel, z):
    """Even, continuous derivative (G/L) exp(-|z|/L) - exp(-|z|) of the
    Morse kernel.

    The classical derivative away from 0, extended at the origin by its
    two-sided limit G/L - 1.
    """
    a = np.abs(np.asarray(z, dtype=float))
    g_over_l = kernel.attraction_strength / kernel.attraction_length
    return kernel.strength * (g_over_l * np.exp(-a / kernel.attraction_length) - np.exp(-a))


def sample_derivative_on_grid(kernel: MorseKernel, grid: RingGrid) -> GridFunction:
    return GridFunction(grid, kernel_derivative(kernel, grid.nodes))


def derivative_l2_norm(kernel: MorseKernel, grid: RingGrid) -> float:
    """||f_x||_2 over one period, by grid quadrature."""
    fx = sample_derivative_on_grid(kernel, grid)
    return float(np.sqrt(integrate(GridFunction(grid, fx.values**2))))


def young_bound_check(kernel: MorseKernel, error_field: GridFunction):
    """Return (||f_x * e||_inf, ||f_x||_2 ||e||_2); Young's inequality says lhs <= rhs."""
    grid = error_field.grid
    ve_x = circular_convolve(sample_derivative_on_grid(kernel, grid), error_field)
    lhs = float(np.abs(ve_x.values).max())
    e_l2 = float(np.sqrt(integrate(GridFunction(grid, error_field.values**2))))
    return lhs, derivative_l2_norm(kernel, grid) * e_l2
