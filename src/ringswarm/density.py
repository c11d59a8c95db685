"""Density estimation on the circle, reference density profiles, metrics.

The swarm's density is estimated from agent positions with a wrapped
Gaussian kernel estimator, evaluated on the grid by a moment-expanded FFT
convolution that matches the direct sum to roundoff.  Reference densities
are von Mises profiles at given angles: monomodal, bimodal, or monomodal
with the tracking mean, a piecewise-linear function of time.  Scalar
metrics: L2 norm and KL divergence between grid-normalised densities.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ring import TWO_PI, integrate, wrap_angle

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
    of N agents integrates to N and is nonnegative.  Any finite position
    counts at its angle wrapped into [-pi, pi); a non-finite one raises.

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
    m: int

    def __post_init__(self):
        if self.m < 4:
            raise ValueError(f"the grid needs at least 4 nodes, got m={self.m}")
        if not 0.0 < self.bandwidth < np.pi:
            raise ValueError(f"bandwidth must lie in (0, pi), got {self.bandwidth}")
        if self.bandwidth < TWO_PI / self.m:
            raise ValueError(f"bandwidth {self.bandwidth} is below the grid spacing "
                             f"{TWO_PI / self.m} (2*pi/{self.m})")

    @cached_property
    def _moment_spectra(self) -> np.ndarray:
        """Read-only rfft of K_p / (h sqrt(2 pi)) for p = 0..P-1, by offset index,
        each summed over the images whose Gaussian factor does not underflow.
        The offsets n * Delta, n in [-m/2, m/2), are formed from integers:
        wrapping them instead would round each to an ulp of pi."""
        h, m = self.bandwidth, self.m
        spacing = TWO_PI / m
        n_terms = _term_count(0.5 * spacing / h)
        n_images = math.ceil((_GAUSS_UNDERFLOW * h + np.pi) / (2.0 * np.pi))
        offsets = spacing * (np.arange(m) - m * (np.arange(m) >= m // 2))
        t = (offsets + 2.0 * np.pi * np.arange(-n_images, n_images + 1)[:, None]) / h
        term = np.exp(-0.5 * t * t) / (h * math.sqrt(2.0 * math.pi))
        kernels = np.empty((n_terms, m))
        for p in range(n_terms):
            kernels[p] = term.sum(axis=0)
            term = term * t / (p + 1)
        spectra = np.fft.rfft(kernels, axis=1)
        spectra.setflags(write=False)
        return spectra

    def estimate(self, positions) -> np.ndarray:
        positions = np.asarray(positions, dtype=float)
        if positions.size == 0:
            raise ValueError("density of an empty swarm is undefined")
        if not np.isfinite(positions).all():
            raise ValueError("agent positions must all be finite")
        positions = wrap_angle(positions)  # after the check: wrap_angle(inf) warns
        spectra = self._moment_spectra
        n_terms, m = spectra.shape[0], self.m
        spacing = TWO_PI / m
        # delta from the exact difference to the nearest node (past the last
        # node that is x - 2*pi to node 0), not from the rounded (x + pi) / Delta.
        nearest = np.rint((positions + np.pi) / spacing).astype(int)
        node = nearest % m
        offset = (positions - TWO_PI * (nearest // m)) - (-np.pi + spacing * node)
        delta = offset / self.bandwidth
        moments = np.empty((n_terms, m))
        weights = np.exp(-0.5 * delta * delta)
        for p in range(n_terms):
            moments[p] = np.bincount(node, weights, m)
            weights *= delta
        spectrum = np.einsum("pk,pk->k", spectra, np.fft.rfft(moments, axis=1))
        values = np.fft.irfft(spectrum, n=m)
        np.clip(values, 0.0, None, out=values)  # roundoff negatives in the far tails
        return values


def _checked_profile(values: np.ndarray, concentration: float) -> np.ndarray:
    """Profile samples, refused for a negative concentration or an overflow."""
    if concentration < 0:
        raise ValueError("concentration must be nonnegative")
    if not np.isfinite(values).all():
        raise ValueError(f"the target density overflows at concentration {concentration}")
    return values


@lru_cache(maxsize=16)
def _i0(concentration: float) -> float:
    """The normaliser I0(k), once per concentration: a tracking run takes
    its target's at every control update, and numpy's i0 of one scalar
    costs tens of microseconds."""
    return float(np.i0(concentration))


def von_mises_density(mu: float, concentration: float, mass: float, x: np.ndarray) -> np.ndarray:
    """von Mises profile mass * exp(k cos(x - mu)) / (2*pi*I0(k)) at the angles x.

    Strictly positive and integrates to ``mass``; k = 0 degenerates to the
    uniform density mass / (2*pi).  Overflow raises.
    """
    values = mass * np.exp(concentration * np.cos(x - mu))
    values /= 2.0 * np.pi * _i0(concentration)
    return _checked_profile(values, concentration)


def bimodal_density(mu1: float, mu2: float, concentration: float, mass: float,
                    x: np.ndarray) -> np.ndarray:
    """Two equal-weight von Mises profiles of total ``mass`` at the angles x;
    overflow raises."""
    k = concentration
    values = np.exp(k * np.cos(x - mu1)) + np.exp(k * np.cos(x - mu2))
    values *= mass / (4.0 * np.pi * _i0(k))
    return _checked_profile(values, k)


# The tracking mean's schedule: still for the first 0.5 s, then
# constant-rate moves at 1.47 rad/s between the +-pi/3 waypoints, holding at
# 0 afterwards.
TRACK_HOLD_UNTIL = 0.5
TRACK_SLEW_RATE = 1.47
TRACK_AMPLITUDE = math.pi / 3.0


def tracking_mean(t: float):
    """(mu, dmu/dt) of the piecewise-linear tracking mean at time t: hold at
    0, slew 0 -> amplitude -> -amplitude -> 0, hold."""
    leg = TRACK_AMPLITUDE / TRACK_SLEW_RATE
    s = t - TRACK_HOLD_UNTIL
    if s <= 0.0:
        return 0.0, 0.0
    if s <= leg:
        return TRACK_SLEW_RATE * s, TRACK_SLEW_RATE
    s -= leg
    if s <= 2.0 * leg:
        return TRACK_AMPLITUDE - TRACK_SLEW_RATE * s, -TRACK_SLEW_RATE
    s -= 2.0 * leg
    if s <= leg:
        return -TRACK_AMPLITUDE + TRACK_SLEW_RATE * s, TRACK_SLEW_RATE
    return 0.0, 0.0


def l2_norm(f: np.ndarray) -> float:
    """L2 norm over one period, sqrt(integral of f^2)."""
    return float(np.sqrt(integrate(f**2)))


def kl_divergence(rho: np.ndarray, rho_d: np.ndarray) -> float:
    """KL divergence D(rho_hat || rho_d_hat) between grid-normalised densities.

    Both sample vectors are floored at 1e-12 and rescaled so their sums are
    1 before taking sum p * log(p/q); always nonnegative, zero iff the
    normalised fields coincide.
    """
    p = np.maximum(rho, KL_FLOOR)
    q = np.maximum(rho_d, KL_FLOOR)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))
