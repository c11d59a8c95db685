"""Density estimation on the circle, reference density programs, metrics.

The swarm's density is estimated from agent positions with a wrapped
Gaussian kernel estimator, evaluated on the grid by a moment-expanded FFT
convolution that matches the direct sum to roundoff.  Reference densities
are von Mises profiles (monomodal, bimodal, or a monomodal profile whose
mean follows a piecewise-linear schedule).  Scalar metrics: L2 norm and KL
divergence between grid-normalised densities.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ring import TWO_PI, GridFunction, RingGrid, integrate

KL_FLOOR = 1e-12
# A Gaussian factor exp(-t^2 / 2) underflows to 0 beyond this |t|.
_GAUSS_UNDERFLOW = math.sqrt(-2.0 * math.log(np.finfo(float).tiny))


def _term_count(s: float) -> int:
    """Smallest P with max_t exp(-t^2/2 + t*s) (t*s)^P / P! below eps/4: the
    dropped terms of the moment expansion for offsets |delta| <= s.  The
    maximum sits at t = (s + sqrt(s^2 + 4P)) / 2."""
    log_target = math.log(np.finfo(float).eps / 4)
    p = 1
    while True:
        t = 0.5 * (s + math.sqrt(s * s + 4.0 * p))
        if -0.5 * t * t + t * s + p * math.log(t * s) - math.lgamma(p + 1) < log_target:
            return p
        p += 1


@dataclass(frozen=True)
class WrappedGaussianEstimator:
    """Kernel density estimator with periodically wrapped Gaussian bumps.

    Each agent contributes one bump of width ``bandwidth``, summed over all
    its periodic images, so it integrates to 1 on the circle; the estimate
    of N agents integrates to N and is nonnegative.

    The estimate is a grid convolution that is exact to roundoff (about
    1e-14 of its peak).  Agent i sits at its nearest node j_i, off by
    delta_i = (x_i - x_{j_i}) / h with |delta_i| <= Delta / (2h), and
    exp(-(w/h - delta)^2 / 2) = exp(-w^2 / 2h^2) exp(-delta^2 / 2)
    sum_p (w/h)^p delta^p / p!  for node offsets w.  So the estimate is
    sum_p K_p (*) c_p: the moments c_p = bincount(j, exp(-delta^2/2) delta^p)
    convolved with the kernels K_p(w) = exp(-w^2 / 2h^2) (w/h)^p / p!, whose
    spectra are built once per estimator.  That costs O(P (N + m log m))
    per call, with P terms chosen so the dropped ones stay below eps/4 (11 at
    the defaults, 22 at the smallest admissible bandwidth h = Delta).
    """

    bandwidth: float
    grid: RingGrid

    def __post_init__(self):
        if not 0.0 < self.bandwidth < np.pi:
            raise ValueError(f"bandwidth must lie in (0, pi), got {self.bandwidth}")
        if self.bandwidth < self.grid.spacing:
            raise ValueError(f"bandwidth {self.bandwidth} is below the grid spacing "
                             f"{self.grid.spacing} (2*pi/{self.grid.m})")

    @cached_property
    def _moment_spectra(self) -> np.ndarray:
        """Read-only rfft of K_p / (h sqrt(2 pi)) for p = 0..P-1, by offset index,
        each summed over the images whose Gaussian factor does not underflow.
        The offsets n * Delta, n in [-m/2, m/2), are formed from integers:
        wrapping them instead would round each to an ulp of pi."""
        h, m = self.bandwidth, self.grid.m
        n_terms = _term_count(0.5 * self.grid.spacing / h)
        n_images = math.ceil((_GAUSS_UNDERFLOW * h + np.pi) / (2.0 * np.pi))
        offsets = self.grid.spacing * (np.arange(m) - m * (np.arange(m) >= m // 2))
        t = (offsets + 2.0 * np.pi * np.arange(-n_images, n_images + 1)[:, None]) / h
        term = np.exp(-0.5 * t * t) / (h * math.sqrt(2.0 * math.pi))
        kernels = np.empty((n_terms, m))
        for p in range(n_terms):
            kernels[p] = term.sum(axis=0)
            term = term * t / (p + 1)
        spectra = np.fft.rfft(kernels, axis=1)
        spectra.setflags(write=False)
        return spectra

    def estimate(self, positions) -> GridFunction:
        positions = np.asarray(positions, dtype=float)
        if positions.size == 0:
            raise ValueError("density of an empty swarm is undefined")
        spectra = self._moment_spectra
        n_terms, m = spectra.shape[0], self.grid.m
        # delta from the exact difference to the nearest node (past the last
        # node that is x - 2*pi to node 0), not from the rounded (x + pi) / Delta.
        nearest = np.rint((positions + np.pi) / self.grid.spacing).astype(int)
        node = nearest % m
        offset = (positions - TWO_PI * (nearest // m)) - self.grid.nodes[node]
        delta = offset / self.bandwidth
        moments = np.empty((n_terms, m))
        weights = np.exp(-0.5 * delta * delta)
        for p in range(n_terms):
            moments[p] = np.bincount(node, weights, m)
            weights *= delta
        spectrum = np.einsum("pk,pk->k", spectra, np.fft.rfft(moments, axis=1))
        values = np.fft.irfft(spectrum, n=m)
        np.clip(values, 0.0, None, out=values)  # roundoff negatives in the far tails
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
    p = np.maximum(rho.values, KL_FLOOR)
    q = np.maximum(rho_d.values, KL_FLOOR)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))
