"""Pairwise interaction kernels and the velocity fields they induce.

The Morse kernel maps a wrapped angular offset to a velocity contribution:
odd, zero at the origin, exponentially vanishing, with unit-strength
repulsion and a tunable attractive term.  Convolving it against a density
gives the advection velocity of the crowd, a circular convolution on the
grid.
"""

from dataclasses import dataclass

import numpy as np

from .ring import GridFunction, grid_nodes


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

    def sample_on_grid(self, m: int) -> GridFunction:
        """Kernel sampled at the m node angles (wrapped offsets); a run builds
        them once and keeps them.

        The kernel does not vanish at +-pi, so the circle sees a jump at the
        antipode where only the -pi side is representable.  That node takes
        the two-sided mean (zero for an odd kernel), the trapezoid treatment
        of a jump; it keeps the sample set odd and makes the uniform density
        an exact equilibrium of the discrete convolution.
        """
        values = self.evaluate(grid_nodes(m))
        values[0] = 0.5 * (self.evaluate(np.pi) + self.evaluate(-np.pi))
        return GridFunction(values)


def velocity_field(kernel_samples: GridFunction, density: np.ndarray) -> np.ndarray:
    """Advection velocity induced by density samples: the discrete circular
    convolution V(x) = Delta * sum_j f(x - y_j) density(y_j) on the grid of
    ``kernel_samples`` (f at the node angles read as wrapped offsets, as
    ``MorseKernel.sample_on_grid`` gives them).

    Real FFTs against the samples' cached offset spectrum; agrees with the
    direct O(m^2) sum to roundoff.  Needs an even node count.
    """
    m = kernel_samples.values.size
    if density.shape != (m,):
        raise ValueError(f"grid mismatch: {m} kernel samples, density of shape "
                         f"{density.shape}")
    return np.fft.irfft(kernel_samples.offset_spectrum * np.fft.rfft(density), n=m)
