"""Pairwise interaction kernels and the velocity fields they induce.

The Morse kernel maps a wrapped angular offset to a velocity contribution:
odd, zero at the origin, exponentially vanishing, with unit-strength
repulsion and a tunable attractive term.  Convolving it against a density
gives the advection velocity of the crowd.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ring import GridFunction, RingGrid, circular_convolve


@dataclass(frozen=True)
class MorseKernel:
    """Velocity kernel f(z) = s * sgn(z) * (-G exp(-|z|/L) + exp(-|z|)).

    attraction_strength -- G > 0, weight of the attractive term
    attraction_length   -- L > 0, range of the attractive term
    strength            -- overall multiplier s; set to 1/N for mean-field
                           normalised swarms (see scenarios)
    """

    attraction_strength: float = 0.5
    attraction_length: float = 0.5
    strength: float = 1.0

    def __post_init__(self):
        if self.attraction_strength <= 0 or self.attraction_length <= 0:
            raise ValueError("Morse parameters G and L must be positive")
        if self.strength <= 0:
            raise ValueError("kernel strength must be positive")

    def evaluate(self, z):
        """Kernel value at offset z; sgn(0) = 0 makes f(0) = 0 exactly."""
        z = np.asarray(z, dtype=float)
        a = np.abs(z)
        e_att = np.exp(-a / self.attraction_length)
        return self.strength * np.sign(z) * (np.exp(-a) - self.attraction_strength * e_att)

    def derivative(self, z):
        """Even, continuous derivative (G/L) exp(-|z|/L) - exp(-|z|).

        The classical derivative away from 0, extended at the origin by its
        two-sided limit G/L - 1.
        """
        a = np.abs(np.asarray(z, dtype=float))
        g_over_l = self.attraction_strength / self.attraction_length
        return self.strength * (g_over_l * np.exp(-a / self.attraction_length) - np.exp(-a))

    @lru_cache(maxsize=64)  # bounded, since each entry keeps its kernel alive
    def sample_on_grid(self, grid: RingGrid) -> GridFunction:
        """Kernel sampled at the node angles (wrapped offsets), cached per grid.

        The kernel does not vanish at +-pi, so the circle sees a jump at the
        antipode where only the -pi side is representable.  That node takes
        the two-sided mean (zero for an odd kernel), the trapezoid treatment
        of a jump; it keeps the sample set odd and makes the uniform density
        an exact equilibrium of the discrete convolution.
        """
        values = self.evaluate(grid.nodes)
        values[0] = 0.5 * (self.evaluate(np.pi) + self.evaluate(-np.pi))
        return GridFunction(grid, values)


# A static target hits, and so does the continuum feedback's V(rho), which
# continuum_velocity has just convolved for the same state.
@lru_cache(maxsize=8)
def velocity_field(kernel: MorseKernel, density: GridFunction) -> GridFunction:
    """Advection velocity induced by a density: the circular convolution f * rho,
    cached per (kernel, density object)."""
    return circular_convolve(kernel.sample_on_grid(density.grid), density)
