"""Kernel-derivative norms for the error-decay bounds the tests check."""

import numpy as np

from ringswarm.density import l2_norm
from ringswarm.dynamics import MorseKernel
from ringswarm.ring import GridFunction, grid_nodes, integrate, velocity_field


def kernel_derivative(kernel: MorseKernel, z):
    """Even, continuous derivative (G/L) exp(-|z|/L) - exp(-|z|) of the
    Morse kernel.

    The classical derivative away from 0, extended at the origin by its
    two-sided limit G/L - 1.  The kernel itself jumps by 2s(1 - G) at 0
    (1/N at s = 1/N, G = 1/2); that jump's delta is not in this function, so
    ``derivative_l2_norm`` leaves it out.
    """
    a = np.abs(np.asarray(z, dtype=float))
    g_over_l = kernel.attraction_strength / kernel.attraction_length
    return kernel.strength * (g_over_l * np.exp(-a / kernel.attraction_length) - np.exp(-a))


def derivative_l2_norm(kernel: MorseKernel, m: int) -> float:
    """||f_x||_2 over one period, by quadrature on the grid of m nodes."""
    return float(np.sqrt(integrate(kernel_derivative(kernel, grid_nodes(m))**2)))


def young_bound_check(kernel: MorseKernel, error: np.ndarray):
    """Return (||f_x * e||_inf, ||f_x||_2 ||e||_2) for the error samples
    ``error``; Young's inequality says lhs <= rhs."""
    fx = GridFunction(kernel_derivative(kernel, grid_nodes(error.size)))  # a kernel's samples
    lhs = float(np.abs(velocity_field(fx, error)).max())
    return lhs, derivative_l2_norm(kernel, error.size) * l2_norm(error)
