"""Geometry and circular numerics on the periodic domain [-pi, pi).

Everything downstream (interaction velocities, density estimation, the
feedback law, both solvers) builds on the uniform grid of m nodes and the
periodic primitives defined here: angle wrapping, the node angles, the
circular convolution with kernel samples, central differences and the
trapezoid quadrature.  A grid is its node count m.  A field is the plain
array of its m node samples, so its spacing 2*pi/m follows from its
length; the stencils slice it without np.roll.  Only kernel samples are a
``GridFunction``, with their cached spectrum.
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
    if a.size and not (a.min() >= -np.pi and a.max() < np.pi):  # some entry outside, or nan
        inside = (a >= -np.pi) & (a < np.pi)
        w = (a + np.pi) % TWO_PI - np.pi
        # Just below an odd multiple of pi the modulo rounds up to 2*pi; the
        # pi that gives is the seam, -pi.
        a = np.where(inside, a, w - TWO_PI * (w >= np.pi))
    return a if a.ndim else a[()]


def grid_nodes(m: int) -> np.ndarray:
    """The m node angles x_j = -pi + j * (2*pi/m) of the uniform grid."""
    if m < 4:
        raise ValueError(f"the grid needs at least 4 nodes, got m={m}")
    return -np.pi + (TWO_PI / m) * np.arange(m)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A convolution kernel's finite, read-only samples on the grid of their
    length (value j at node x_j read as a wrapped offset) with their cached
    spectrum; equality and hashing go by identity (a sample array has no
    single truth value)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)  # a copy
        if values.ndim != 1 or values.size < 4:
            raise ValueError(f"expected at least 4 samples, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("grid function samples must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @cached_property
    def offset_spectrum(self):
        """Read-only rfft of the samples reindexed by offset (offset n*Delta
        sits at node (n + m/2) % m) times the quadrature weight Delta: the
        kernel side of a circular convolution, computed once per sample set.
        Needs an even node count, so that node-to-node offsets land exactly
        on grid angles."""
        m = self.values.size
        if m % 2:
            raise ValueError("circular convolution needs an even node count")
        spectrum = np.fft.rfft(np.roll(self.values, -(m // 2)))
        spectrum *= TWO_PI / m
        spectrum.setflags(write=False)
        return spectrum


def velocity_field(kernel_samples: GridFunction, density: np.ndarray) -> np.ndarray:
    """Advection velocity induced by density samples: the discrete circular
    convolution V(x) = Delta * sum_j f(x - y_j) density(y_j) on the grid of
    ``kernel_samples`` (f at the node angles read as wrapped offsets, as
    ``dynamics.MorseKernel.sample_on_grid`` gives them).

    Real FFTs against the samples' cached offset spectrum; agrees with the
    direct O(m^2) sum to roundoff.  Needs an even node count.
    """
    m = kernel_samples.values.size
    if density.shape != (m,):
        raise ValueError(f"grid mismatch: {m} kernel samples, density of shape "
                         f"{density.shape}")
    return np.fft.irfft(kernel_samples.offset_spectrum * np.fft.rfft(density), n=m)


def central_difference(v: np.ndarray) -> np.ndarray:
    """(v_{j+1} - v_{j-1}) / (2*spacing) of periodic samples, by slicing."""
    d = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=d[1:-1])
    d[0] = v[1] - v[-1]
    d[-1] = v[0] - v[-2]
    d /= 2.0 * (TWO_PI / v.size)
    return d


def integrate(values: np.ndarray) -> float:
    """Periodic trapezoid rule (equals the rectangle rule on a closed ring)."""
    return float((TWO_PI / values.size) * values.sum())
