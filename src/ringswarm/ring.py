"""Geometry and circular numerics on the periodic domain [-pi, pi).

Everything downstream (interaction velocities, density estimation, the
feedback law, both solvers) builds on the uniform grid and the periodic
primitives defined here: wrapped angular distance, circular convolution,
central differences and the trapezoid quadratures.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(a):
    """Map angles (scalar or array) to the half-open interval [-pi, pi)."""
    return (np.asarray(a) + np.pi) % TWO_PI - np.pi


def wrap_distance(a, b):
    """Signed shortest-path angular distance a - b, wrapped to [-pi, pi).

    The antipodal separation maps to -pi (half-open convention), so the
    result is always a unique representative.
    """
    return wrap_angle(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))


def wrap_into_domain(a):
    """Wrap into [-pi, pi) touching only out-of-range entries, so values
    already in the domain keep their exact floating-point representation."""
    a = np.asarray(a, dtype=float)
    inside = (a >= -np.pi) & (a < np.pi)
    return np.where(inside, a, wrap_angle(a))


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
        if not np.all(np.isfinite(values)):
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


def spatial_derivative(field: GridFunction) -> GridFunction:
    """Second-order periodic central difference (v_{j+1} - v_{j-1}) / (2*Delta)."""
    v = field.values
    d = (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * field.grid.spacing)
    return GridFunction(field.grid, d)


def integrate(field: GridFunction) -> float:
    """Periodic trapezoid rule (equals the rectangle rule on a closed ring)."""
    return float(field.grid.spacing * field.values.sum())


def cumulative_trapezoid(field: GridFunction) -> GridFunction:
    """Trapezoid running integral from -pi: value j = Delta * sum_{i<j} (v_i + v_{i+1})/2."""
    v = field.values
    steps = 0.5 * (v[1:] + v[:-1]) * field.grid.spacing
    cum = np.concatenate(([0.0], np.cumsum(steps)))
    return GridFunction(field.grid, cum)
