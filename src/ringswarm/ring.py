"""Geometry and circular numerics on the periodic domain [-pi, pi).

Everything downstream (interaction velocities, density estimation, the
feedback law, both solvers) builds on the uniform grid and the periodic
primitives defined here: angle wrapping, circular convolution,
central differences and the trapezoid quadrature.  The periodic stencils
are plain-array functions sliced without np.roll.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Map angles (scalar or array) to the half-open interval [-pi, pi).

    Entries already inside keep their exact floating-point value, and an
    array with every entry inside is returned as the same object."""
    a = np.asarray(a, dtype=float)
    inside = (a >= -np.pi) & (a < np.pi)
    if not inside.all():
        w = (a + np.pi) % TWO_PI - np.pi
        # Just below an odd multiple of pi the modulo rounds up to 2*pi; the
        # pi that gives is the seam, -pi.
        a = np.where(inside, a, w - TWO_PI * (w >= np.pi))
    return a if a.ndim else a[()]


@dataclass(frozen=True)
class RingGrid:
    """Uniform periodic grid of m nodes x_j = -pi + j * (2*pi/m)."""

    m: int

    def __post_init__(self):
        if self.m < 4:
            raise ValueError(f"grid needs at least 4 nodes, got m={self.m}")

    @cached_property
    def spacing(self):
        return TWO_PI / self.m

    @cached_property
    def nodes(self):
        x = -np.pi + self.spacing * np.arange(self.m)
        x.setflags(write=False)
        return x


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued samples on a RingGrid, value j taken at node x_j; equality
    and hashing go by identity, so caches can key on an instance."""

    grid: RingGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.m,):
            raise ValueError(
                f"expected {self.grid.m} samples, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("grid function samples must all be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @cached_property
    def offset_spectrum(self):
        """Read-only rfft of the samples reindexed by offset (offset n*Delta
        sits at node (n + m/2) % m): the kernel side of circular_convolve,
        computed once per sample set."""
        spectrum = np.fft.rfft(np.roll(self.values, -(self.grid.m // 2)))
        spectrum.setflags(write=False)
        return spectrum


def _check_same_grid(a: GridFunction, b: GridFunction):
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: m={a.grid.m} vs m={b.grid.m}")


def circular_convolve(kernel_samples: GridFunction, density: GridFunction) -> GridFunction:
    """Discrete circular convolution Delta * sum_j kernel(x - y_j) density(y_j).

    ``kernel_samples`` holds the kernel evaluated at the grid nodes (node
    angles read as wrapped offsets).  Implemented with real FFTs; agrees
    with the direct O(m^2) sum to roundoff.  Requires an even node count so
    node-to-node offsets land exactly on grid angles.
    """
    _check_same_grid(kernel_samples, density)
    m = density.grid.m
    if m % 2 != 0:
        raise ValueError("circular convolution needs an even node count")
    out = np.fft.irfft(kernel_samples.offset_spectrum * np.fft.rfft(density.values), n=m)
    return GridFunction(density.grid, density.grid.spacing * out)


def central_difference(v: np.ndarray, spacing: float) -> np.ndarray:
    """(v_{j+1} - v_{j-1}) / (2*spacing) of periodic samples, by slicing."""
    d = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=d[1:-1])
    d[0] = v[1] - v[-1]
    d[-1] = v[0] - v[-2]
    d /= 2.0 * spacing
    return d


def integrate(field: GridFunction) -> float:
    """Periodic trapezoid rule (equals the rectangle rule on a closed ring)."""
    return float(field.grid.spacing * field.values.sum())


def next_neighbour(v: np.ndarray) -> np.ndarray:
    """v_{j+1} of periodic samples (np.roll(v, -1), by slicing)."""
    return np.concatenate((v[1:], v[:1]))


def backward_difference(v: np.ndarray) -> np.ndarray:
    """v_j - v_{j-1} of periodic samples, by slicing."""
    d = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=d[1:])
    d[0] = v[0] - v[-1]
    return d
