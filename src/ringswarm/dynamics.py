"""Time integration of the swarm at both scales.

Microscopic: the N-agent ODE dx_i/dt = sum_j f(wrap(x_i - x_j)) + u_i,
stepped with explicit Euler or RK4; the control field is refreshed once per
step and frozen across RK4 stages (sampled-data actuation).

Continuum: the mass-conservation law rho_t + [rho (V + U)]_x = 0 on the
ring, advanced with a conservative local Lax-Friedrichs (Rusanov) flux so
mass is exact and the density stays nonnegative under the CFL bound.
"""

from dataclasses import dataclass

import numpy as np

from .control import sample_agent_inputs
from .kernels import MorseKernel, velocity_field
from .ring import GridFunction, wrap_into_domain

SCHEMES = ("euler", "rk4")


@dataclass(frozen=True)
class SwarmState:
    """Agent angles (wrapped into [-pi, pi)) and the simulation clock."""

    positions: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pos = wrap_into_domain(np.asarray(self.positions, dtype=float)).copy()
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_agents(self):
        return self.positions.size


@dataclass(frozen=True)
class IntegratorSpec:
    dt: float = 1e-3
    scheme: str = "rk4"

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")


def even_lattice(n: int) -> np.ndarray:
    """Deterministic evenly distributed start x_i = -pi + (i - 1/2) * 2*pi/n."""
    return -np.pi + (np.arange(n) + 0.5) * 2.0 * np.pi / n


# The direct sum wraps a raw difference f = fl(x_i - x_j) >= pi down and
# f < -pi up by 2*pi, so the pair's class is set by where f lies among 0,
# +-pi and +-2*pi.  Per class (+1 behind or -1 ahead, shift 2*pi*k of the
# image x_j + 2*pi*k, upper and lower bound of f): agent j is in it when
# lower < f < upper.  f = 0 (coincident) and f = +-pi (antipodal) are in
# none, and neither are f = +-2*pi, where the wrapped offset is 0.
_TWO_PI = 2.0 * np.pi
_CLASSES = ((1.0, _TWO_PI, np.inf, _TWO_PI), (1.0, 0.0, np.pi, 0.0),
            (1.0, -_TWO_PI, -np.pi, -_TWO_PI), (-1.0, _TWO_PI, _TWO_PI, np.pi),
            (-1.0, 0.0, 0.0, -np.pi), (-1.0, -_TWO_PI, -_TWO_PI, -np.inf))
_BELOW_ZERO = np.nextafter(0.0, -np.inf)
# Largest rate-scaled width a * (x - anchor) of one block of the prefix sums;
# with it no term or partial sum overflows (e^300 * N stays finite).
_BLOCK_EXPONENT = 300.0


def _count_above(y, cuts):
    """Per agent i and cut c (a column), the number of sorted y_j with
    fl(y_i - y_j) > c.  That difference falls as j rises, so the count is a
    boundary in y: searchsorted on y_i - c guesses it, and the raw predicate
    moves the guess one group of equal positions at a time."""
    padded = np.concatenate(([-np.inf], y, [np.inf]))
    k = np.searchsorted(y, y - cuts)
    while True:
        back = ~(y - padded[k] > cuts)  # y[k - 1] fails: move left
        ahead = y - padded[k + 1] > cuts  # y[k] holds: move right
        if not (back.any() or ahead.any()):
            return k
        k = np.where(back, np.searchsorted(y, padded[k], "left"), k)
        k = np.where(ahead, np.searchsorted(y, padded[k + 1], "right"), k)


def _exp_prefix(x, rates):
    """Prefix sums P[r, j] = sum_{l < j} exp(rates[r] * (x_l - A[j])) of sorted x.

    The anchor A[j] <= x_{j-1} restarts every _BLOCK_EXPONENT / max(rates)
    of x, and earlier blocks are carried over rescaled, so every sum stays
    finite and well conditioned however large the rates are.  P[:, 0] = 0.
    """
    n = x.size
    a = rates[:, None]
    sums = np.zeros((rates.size, n + 1))
    anchors = np.full(n + 1, x[0])
    width = _BLOCK_EXPONENT / rates.max()
    carry = 0.0
    start = 0
    while start < n:
        anchor = x[start]
        stop = int(np.searchsorted(x, anchor + width, "right"))
        block = np.cumsum(np.exp(a * (x[start:stop] - anchor)), axis=1)
        if start:  # the first block carries nothing
            block += carry * np.exp(a * (anchors[start] - anchor))
        sums[:, start + 1:stop + 1] = block
        anchors[start + 1:stop + 1] = anchor
        carry = block[:, -1:]
        start = stop
    return sums, anchors


def _interaction_sum(positions: np.ndarray, kernel: MorseKernel) -> np.ndarray:
    """Exact O(N log N) sum of kernel velocities over all ordered pairs.

    The pair (i, j) has the wrapped offset w = x_i - x_j - 2*pi*k of the
    direct sum, with the image k in {-1, 0, 1} picked from the raw
    difference fl(x_i - x_j); agent j lies behind i (w > 0) or ahead of it
    (w < 0).  Coincident agents add nothing (sgn 0 = 0), and so do exactly
    antipodal ones (fl(x_i - x_j) = +-pi): the half-open convention would
    give them w = -pi from both sides, and the two-sided mean of the odd
    kernel there is 0, as in ``MorseKernel.sample_on_grid``.

    Because exp(-a|w|) separates into exp(-a x_i) exp(a (x_j + 2*pi*k)),
    each class (behind or ahead, one image) is a contiguous range of the
    sorted positions, summed in O(1) per agent from prefix sums of
    exp(+-a x) for a = 1 and a = 1/L.  Positions may lie slightly outside
    [-pi, pi), as the staged RK4 positions do.
    """
    n = positions.size
    order = np.argsort(positions, kind="stable")
    y = positions[order]
    spread = y[-1] - y[0] if n else 0.0
    if spread == 0.0:  # no pairs apart: at most one agent, or all coincident
        return np.zeros(n)
    # |f| <= spread, so a class can hold agents only where its bounds
    # straddle [-spread, spread], and a count of f > c beyond the spread is
    # 0 or n.  The class of j is [count of f >= upper, count of f > lower),
    # and f >= c is f > nextafter(c, -inf).
    classes = [(sign, shift, np.nextafter(upper, -np.inf), lower)
               for sign, shift, upper, lower in _CLASSES if lower < spread and upper > -spread]
    # f > 0 and f >= 0 are exactly y_j < y_i and y_j <= y_i
    counts = {0.0: np.searchsorted(y, y, "left"), _BELOW_ZERO: np.searchsorted(y, y, "right")}
    cuts = sorted({c for cls in classes for c in cls[2:] if abs(c) <= spread} - counts.keys())
    if cuts:
        counts.update(zip(cuts, _count_above(y, np.array(cuts)[:, None])))

    def count(c):
        return counts[c] if c in counts else np.full(n, 0 if c > 0 else n)

    rows = [(sign, shift, count(at_least), count(above))
            for sign, shift, at_least, above in classes]
    signs, shifts, lo, hi = (np.array(part) for part in zip(*rows))

    # sum_{j in [lo, hi)} exp(-a (q - y_j)) is T(hi) - T(lo) with
    # T(j) = P[j] exp(a (A[j] - q)).  A range ahead is a range behind of the
    # mirrored positions -y[::-1], whose sums follow at offset n + 1.  The
    # exponent is <= 0 up to rounding wherever P[j] > 0; capping it at 0
    # keeps P[j] = 0 from meeting an overflowed factor.
    rates = np.array([1.0, 1.0 / kernel.attraction_length])
    sums_behind, anchors_behind = _exp_prefix(y, rates)
    sums_ahead, anchors_ahead = _exp_prefix(-y[::-1], rates)
    sums = np.concatenate((sums_behind, sums_ahead), axis=1)
    anchors = np.concatenate((anchors_behind, anchors_ahead))
    ahead = (signs < 0)[:, None]
    idx = np.concatenate((np.where(ahead, 2 * n + 1 - lo, hi),
                          np.where(ahead, 2 * n + 1 - hi, lo))).ravel()
    q = np.tile((signs[:, None] * (y - shifts[:, None])).ravel(), 2)
    exponents = np.minimum(rates[:, None] * (anchors[idx] - q), 0.0)
    terms = np.take(sums, idx, axis=1) * np.exp(exponents)
    terms = terms.reshape(2, 2, len(classes), n)
    weights = np.array([1.0, -kernel.attraction_strength])[:, None] * signs
    out = np.empty(n)
    out[order] = kernel.strength * np.einsum("rk,rkn->n", weights, terms[:, 0] - terms[:, 1])
    return out


def microscopic_rhs(positions: np.ndarray, kernel: MorseKernel,
                    u_field: GridFunction | None) -> np.ndarray:
    """Agent velocities: the interaction sums plus, unless ``u_field`` is
    None (the open loop), the control U sampled at the positions."""
    du = _interaction_sum(positions, kernel)
    if u_field is not None:
        du += sample_agent_inputs(u_field, positions)
    return du


def step_swarm(state: SwarmState, kernel: MorseKernel, u_field: GridFunction | None,
               integrator: IntegratorSpec) -> SwarmState:
    """Advance one dt.

    ``u_field`` is the velocity control U evaluated at the pre-step state
    (None for the open loop); it stays frozen across the step and is
    re-sampled at the staged agent positions.
    """
    x = state.positions
    dt = integrator.dt
    if integrator.scheme == "euler":
        x_new = x + dt * microscopic_rhs(x, kernel, u_field)
    else:
        k1 = microscopic_rhs(x, kernel, u_field)
        k2 = microscopic_rhs(x + 0.5 * dt * k1, kernel, u_field)
        k3 = microscopic_rhs(x + 0.5 * dt * k2, kernel, u_field)
        k4 = microscopic_rhs(x + dt * k3, kernel, u_field)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(x_new)):
        raise RuntimeError(f"non-finite agent position at t={state.t + dt:.6f}; run aborted")
    return SwarmState(positions=x_new, t=state.t + dt)


@dataclass(frozen=True)
class ContinuumState:
    """Grid-sampled density (the N = infinity description) and the clock."""

    rho: GridFunction
    t: float = 0.0


def continuum_velocity(state: ContinuumState, kernel: MorseKernel, control) -> GridFunction:
    """Total advection speed V + U for the controlled conservation law."""
    v = velocity_field(kernel, state.rho)
    u = control(state) if control is not None else None
    if u is None:
        return v
    return GridFunction(v.grid, v.values + u.values)


def _rusanov_advance(rho: GridFunction, w: GridFunction, dt: float) -> GridFunction:
    """Conservative update of rho under the frozen speed field w."""
    grid = rho.grid
    r = rho.values
    wv = w.values
    flux = r * wv
    a = np.maximum(np.abs(wv), np.abs(np.roll(wv, -1)))  # face j+1/2 wave speed
    face = 0.5 * (flux + np.roll(flux, -1)) - 0.5 * a * (np.roll(r, -1) - r)
    r_new = r - (dt / grid.spacing) * (face - np.roll(face, 1))
    if r_new.min() < -1e-12:
        raise RuntimeError(f"density fell to {r_new.min():.3e}; scheme positivity violated")
    np.clip(r_new, 0.0, None, out=r_new)
    return GridFunction(grid, r_new)


def max_stable_dt(w: GridFunction, cfl: float) -> float:
    """Largest admissible step cfl * Delta / max|w| for the speed field w."""
    top = float(np.abs(w.values).max())
    if top == 0.0:
        return np.inf
    return cfl * w.grid.spacing / top


def run_continuum(state: ContinuumState, kernel: MorseKernel, control, t_end: float, *,
                  cfl: float = 0.4, dt_max: float = 1e-3, sample_every: float = 0.05):
    """Advance to t_end with adaptive CFL-limited steps; returns sampled states.

    Steps land exactly on the sampling instants, the multiples of
    ``sample_every`` after the start ``state.t``, so trajectories are
    reproducible regardless of the adaptive step history in between.
    """
    samples = [state]
    k = int(state.t // sample_every) + 1
    if k * sample_every <= state.t + 1e-12:  # the start sits on an instant
        k += 1
    while state.t < t_end - 1e-12:
        target = min(k * sample_every, t_end)
        w = continuum_velocity(state, kernel, control)
        dt = min(max_stable_dt(w, cfl), dt_max, target - state.t)
        state = ContinuumState(rho=_rusanov_advance(state.rho, w, dt), t=state.t + dt)
        if state.t >= target - 1e-12:
            samples.append(state)
            k += 1
    return samples
