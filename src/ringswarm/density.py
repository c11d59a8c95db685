"""Density estimation on the circle, reference density programs, metrics.

The swarm's density is estimated from agent positions with a wrapped
Gaussian kernel estimator.  Reference densities are von Mises profiles
(monomodal, bimodal, or a monomodal profile whose mean follows a
piecewise-linear schedule).  Scalar metrics: L2 norm and KL divergence
between grid-normalised densities.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .ring import GridFunction, RingGrid, integrate, wrap_angle

KL_FLOOR = 1e-12
# After the offset wrap every node is at least pi from a bump's images at
# +-2*pi, which add at most exp(-0.5 (pi / h)^2).  Below this bandwidth
# (about 0.3665 rad) that is under half an ulp of the bump's unit peak, so
# only the central image is evaluated.
_ONE_IMAGE_BANDWIDTH = math.pi / math.sqrt(-2.0 * math.log(np.finfo(float).eps / 2.0))


@dataclass(frozen=True)
class WrappedGaussianEstimator:
    """Kernel density estimator with periodically wrapped Gaussian bumps.

    Each agent contributes one bump of width ``bandwidth`` that integrates
    to exactly 1 on the circle (periodic images at 0, +-2*pi, the outer two
    only for bandwidths above about 0.3665 rad; for bandwidths below ~1 rad
    further images are below 1e-12).  The estimate of N agents therefore
    integrates to N and is strictly positive.
    """

    bandwidth: float
    grid: RingGrid

    def __post_init__(self):
        if not 0.0 < self.bandwidth < np.pi:
            raise ValueError(f"bandwidth must lie in (0, pi), got {self.bandwidth}")

    def estimate(self, positions) -> GridFunction:
        positions = np.asarray(positions, dtype=float)
        if positions.size == 0:
            raise ValueError("density of an empty swarm is undefined")
        # Wrapping the node/agent offsets first keeps the estimate exactly
        # equivariant under grid-aligned rotations of the swarm.
        d = wrap_angle(self.grid.nodes[:, None] - positions[None, :])
        if self.bandwidth < _ONE_IMAGE_BANDWIDTH:
            shifts = (0.0,)
        else:
            shifts = (-2.0 * np.pi, 0.0, 2.0 * np.pi)
        acc = 0.0
        for shift in shifts:
            u = (d + shift) / self.bandwidth
            acc += np.exp(-0.5 * u * u)
        values = acc.sum(axis=1) / (self.bandwidth * math.sqrt(2.0 * math.pi))
        return GridFunction(self.grid, values)


def von_mises_density(mu: float, concentration: float, mass: float, grid: RingGrid) -> GridFunction:
    """von Mises profile mass * exp(k cos(x - mu)) / (2*pi*I0(k)).

    Strictly positive and integrates to ``mass``; k = 0 degenerates to the
    uniform density mass / (2*pi).
    """
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    values = mass * np.exp(concentration * np.cos(grid.nodes - mu))
    values /= 2.0 * np.pi * np.i0(concentration)
    return GridFunction(grid, values)


def bimodal_density(mu1: float, mu2: float, concentration: float, mass: float,
                    grid: RingGrid) -> GridFunction:
    """Equal-weight combination of two von Mises profiles of total ``mass``."""
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    k = concentration
    values = np.exp(k * np.cos(grid.nodes - mu1)) + np.exp(k * np.cos(grid.nodes - mu2))
    values *= mass / (4.0 * np.pi * np.i0(k))
    return GridFunction(grid, values)


@dataclass(frozen=True)
class TrackingSchedule:
    """Piecewise-linear mean schedule: hold at 0, slew 0 -> amp -> -amp -> 0, hold.

    Defaults: still for the first 0.5 s, then constant-rate moves at
    1.47 rad/s between the +-pi/3 waypoints, holding at 0 afterwards.
    """

    hold_until: float = 0.5
    slew_rate: float = 1.47
    amplitude: float = math.pi / 3.0

    def mean_at(self, t: float):
        """Return (mu, dmu/dt) at time t."""
        leg = self.amplitude / self.slew_rate
        s = t - self.hold_until
        if s <= 0.0:
            return 0.0, 0.0
        if s <= leg:
            return self.slew_rate * s, self.slew_rate
        s -= leg
        if s <= 2.0 * leg:
            return self.amplitude - self.slew_rate * s, -self.slew_rate
        s -= 2.0 * leg
        if s <= leg:
            return -self.amplitude + self.slew_rate * s, self.slew_rate
        return 0.0, 0.0


@dataclass(frozen=True)
class MonomodalTarget:
    mu: float = 0.0
    concentration: float = 4.0
    mass: float = 50.0


@dataclass(frozen=True)
class BimodalTarget:
    mu1: float = math.pi / 2.0
    mu2: float = -math.pi / 2.0
    concentration: float = 8.0
    mass: float = 50.0


@dataclass(frozen=True)
class TrackingTarget:
    concentration: float = 4.0
    mass: float = 50.0
    schedule: TrackingSchedule = field(default_factory=TrackingSchedule)


TargetProgram = MonomodalTarget | BimodalTarget | TrackingTarget


def target_at(program: TargetProgram, t: float, grid: RingGrid):
    """Desired density and its time derivative at time t.

    Static programs return a zero time-derivative field.  For the tracking
    program the derivative is analytic: d/dt rho_d = mu_dot * k * sin(x - mu) * rho_d.
    """
    if isinstance(program, MonomodalTarget):
        rho_d = von_mises_density(program.mu, program.concentration, program.mass, grid)
        return rho_d, GridFunction(grid, np.zeros(grid.m))
    if isinstance(program, BimodalTarget):
        rho_d = bimodal_density(program.mu1, program.mu2, program.concentration,
                                program.mass, grid)
        return rho_d, GridFunction(grid, np.zeros(grid.m))
    if isinstance(program, TrackingTarget):
        mu, mu_dot = program.schedule.mean_at(t)
        k = program.concentration
        rho_d = von_mises_density(mu, k, program.mass, grid)
        dt_values = mu_dot * k * np.sin(grid.nodes - mu) * rho_d.values
        return rho_d, GridFunction(grid, dt_values)
    raise TypeError(f"unknown target program {type(program).__name__}")


def l2_norm(f: GridFunction) -> float:
    """L2 norm over one period, sqrt(integral of f^2)."""
    return float(np.sqrt(integrate(GridFunction(f.grid, f.values**2))))


def kl_divergence(rho: GridFunction, rho_d: GridFunction) -> float:
    """KL divergence D(rho_hat || rho_d_hat) between grid-normalised densities.

    Both sample vectors are floored at 1e-12 and rescaled so their sums are
    1 before taking sum p * log(p/q); always nonnegative, zero iff the
    normalised fields coincide.
    """
    if not (np.all(np.isfinite(rho.values)) and np.all(np.isfinite(rho_d.values))):
        raise ValueError("KL divergence needs finite density samples")
    p = np.maximum(rho.values, KL_FLOOR)
    q = np.maximum(rho_d.values, KL_FLOOR)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))
