"""Time integration of the swarm at both scales.

Microscopic: the N-agent ODE dx_i/dt = sum_j f(wrap(x_i - x_j)) + u_i,
stepped with explicit Euler or RK4; the control field is refreshed once per
step and frozen across RK4 stages (sampled-data actuation).

Continuum: the mass-conservation law rho_t + [rho (V + U)]_x = 0 on the
ring, advanced with a conservative local Lax-Friedrichs (Rusanov) flux so
mass is exact and the density stays nonnegative under the CFL bound.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .control import sample_agent_inputs
from .kernels import MorseKernel, velocity_field
from .ring import GridFunction, backward_difference, next_neighbour, wrap_angle

SCHEMES = ("euler", "rk4")


@dataclass(frozen=True)
class SwarmState:
    """Agent angles (wrapped into [-pi, pi)) and the simulation clock."""

    positions: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pos = wrap_angle(self.positions).copy()
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


# With the positions in [-pi, pi) (the sum wraps them first), the raw
# difference f = fl(x_i - x_j) has |f| <= 2*pi, and the direct sum wraps it
# once: f >= pi down and f < -pi up by 2*pi.  So agent j is in one of four
# classes (sign +1 behind or -1 ahead, image x_j + shift): behind with f in
# (0, pi), shift 0, or in (-2*pi, -pi), shift -2*pi; ahead with f in
# (pi, 2*pi), shift 2*pi, or in (-pi, 0), shift 0.  f = 0 (coincident),
# f = +-pi (antipodal) and f = +-2*pi (wrapped offset 0, which a difference
# just short of 2*pi can round to) are in none.  Per layout: the rows
# (hi, lo) of _count_table, agent j being in a class when lo <= j < hi,
# then the signs and shifts as columns, the classes behind first.  Below a
# spread of pi only the own-image classes can hold agents, and they read
# the unsearched table.
_TWO_PI = 2.0 * np.pi
_FOUR_CLASSES = (np.array([[2, 9, 3, 8], [4, 7, 5, 6]]), np.array([[1.0], [1.0], [-1.0], [-1.0]]),
                 np.array([[0.0], [-_TWO_PI], [_TWO_PI], [0.0]]))
_OWN_IMAGE_CLASSES = (np.array([[2, 1], [0, 3]]), np.array([[1.0], [-1.0]]), np.zeros((2, 1)))
# The cut pair _count_above searches: pi and its neighbour towards -inf.
_PI_PAIR = np.array([[np.pi], [np.nextafter(np.pi, -np.inf)]])
# Largest rate-scaled width a * (x - anchor) of one block of the prefix sums;
# with it no term or partial sum overflows (e^300 * N stays finite).
_BLOCK_EXPONENT = 300.0


def _count_above(y, cuts):
    """Per agent i and cut c of ``cuts`` (a (k, 1) array of neighbouring
    cuts), the number of sorted y_j with fl(y_i - y_j) > c, broadcastable
    to (k, n).  That difference falls as j rises, so each count is a
    boundary in y: searchsorted on y_i - cuts[0] guesses it for every cut
    (they round y_i - c alike), and the raw predicate moves the guess one
    group of equal positions at a time."""
    padded = np.concatenate(([-np.inf], y, [np.inf]))
    k = np.searchsorted(y, y - cuts[0])  # one row for all cuts until a row moves
    while True:
        back = y - padded[k] <= cuts  # y[k - 1] fails: move left
        ahead = y - padded[k + 1] > cuts  # y[k] holds: move right
        if not (back.any() or ahead.any()):
            return k
        k = np.where(back, np.searchsorted(y, padded[k], "left"), k)
        k = np.where(ahead, np.searchsorted(y, padded[k + 1], "right"), k)


def _count_table(y, search):
    """Counts of sorted y_j with f = fl(y_i - y_j) > c, one row per cut c.

    Rows 0 and 1 are 0 and n, and row 2 is f > 0 (y_j < y_i: the start of
    y_i's run of equal positions).  With ``search``, rows 3 to 5 are f > pi,
    f >= pi (f > nextafter(pi, -inf)) and f >= 2*pi, which only a spread of
    2*pi can reach.  The cuts below 0 follow by transposing: f > -c fails
    for (i, j) exactly when fl(y_j - y_i) = -f >= c, and the j where that
    holds are those whose own count of f >= c exceeds i.  So one bincount
    and one cumsum of the rows from 2 give, after them, f >= 0, then with
    ``search`` f >= -pi, f > -pi and f > -2*pi.
    """
    n = y.size
    known = 4 if search else 1
    table = np.empty((2 + 2 * known, n), dtype=np.intp)
    table[0], table[1] = 0, n
    new = np.concatenate(([True], y[1:] != y[:-1]))  # y_i opens a run
    np.maximum.accumulate(np.where(new, np.arange(n), 0), out=table[2])
    if search:
        table[3:5] = _count_above(y, _PI_PAIR)
        table[5] = 0 if y[-1] - y[0] < _TWO_PI else _count_above(y, np.nextafter([[_TWO_PI]], 0))
    flat = (table[2:2 + known] + (n + 1) * np.arange(known)[:, None]).ravel()
    tally = np.bincount(flat, minlength=known * (n + 1))
    table[2 + known:] = tally.reshape(-1, n + 1).cumsum(axis=1)[:, :n]
    return table


def _exp_prefix(y, rates):
    """Sums of exp(rate * x) over the sorted y below and above each index.

    Row r holds P[j] = sum_{l < j} exp(rates[r] * (y_l - A[j])) at entry j
    for j in 0..n.  The entries from 2n + 1 down to n + 1 hold the same
    sums over the mirrored positions x = -y[::-1], so entry n + 1 + c is
    S[c] = sum_{l >= c} exp(rates[r] * (A - y_l)) with A its anchor.
    Entries 0 and 2n + 1 are empty sums.  Along either direction the anchor
    is the first x of its block, a new block starts every
    _BLOCK_EXPONENT / max(rates) of x, and earlier blocks are carried over
    rescaled, so every sum stays finite and well conditioned however large
    the rates are.
    """
    n = y.size
    a = rates[:, None]
    width = _BLOCK_EXPONENT / max(rates)
    sums = np.zeros((rates.size, 2 * n + 2))
    anchors = np.empty(2 * n + 2)
    for x, side_sums, side_anchors in ((y, sums[:, :n + 1], anchors[:n + 1]),
                                       (-y[::-1], sums[:, :n:-1], anchors[:n:-1])):
        side_anchors[0] = x[0]
        start = 0
        while start < n:
            anchor = x[start]
            end = anchor + width
            stop = n if x[-1] <= end else int(np.searchsorted(x, end, "right"))
            block = side_sums[:, start + 1:stop + 1]
            np.subtract(x[start:stop], anchor, out=block)
            block *= a
            np.exp(block, out=block)
            np.cumsum(block, axis=1, out=block)
            if start:  # the first block carries nothing
                block += side_sums[:, start:start + 1] * np.exp(a * (side_anchors[start] - anchor))
            side_anchors[start + 1:stop + 1] = anchor
            start = stop
    return sums, anchors


def _interaction_sum(positions: np.ndarray, kernel: MorseKernel) -> np.ndarray:
    """Exact O(N log N) sum of kernel velocities over all ordered pairs.

    Positions outside [-pi, pi), such as staged RK4 positions, are wrapped
    first, as ``sample_agent_inputs`` does.  The pair (i, j) then has the
    wrapped offset w = x_i - x_j - 2*pi*k of the direct sum, with the image
    k in {-1, 0, 1} picked from the raw difference fl(x_i - x_j); agent j
    lies behind i (w > 0) or ahead of it (w < 0).  Coincident agents add
    nothing (sgn 0 = 0), and so do exactly antipodal ones (fl(x_i - x_j) =
    +-pi): the half-open convention would give them w = -pi from both
    sides, and the two-sided mean of the odd kernel there is 0, as in
    ``MorseKernel.sample_on_grid``.

    Because exp(-a|w|) separates into exp(-a x_i) exp(a (x_j + 2*pi*k)),
    each of the four classes (behind or ahead, one image) is a contiguous
    range of the sorted positions, summed in O(1) per agent from prefix
    sums of exp(+-a x) for a = 1 and a = 1/L.
    """
    n = positions.size
    order = np.argsort(positions, kind="stable")
    y = positions[order]
    if n and (y[0] < -np.pi or y[-1] >= np.pi):
        return _interaction_sum(wrap_angle(positions), kernel)
    spread = y[-1] - y[0] if n else 0.0
    if spread == 0.0:  # no pairs apart: at most one agent, or all coincident
        return np.zeros(n)
    search = spread >= np.pi  # |f| <= spread: below pi no f reaches +-pi
    rows, signs, shifts = _FOUR_CLASSES if search else _OWN_IMAGE_CLASSES
    # Behind, the range lo <= j < hi sums to T(hi) - T(lo) with
    # T(j) = P[j] exp(a (A[j] - q)) and q = y_i - shift; ahead it sums to
    # S[lo] - S[hi] (entries n + 1 + lo and n + 1 + hi, see _exp_prefix)
    # with q = shift - y_i, and the kernel's sign there makes that
    # T(n + 1 + hi) - T(n + 1 + lo).  The exponent is <= 0 up to rounding
    # wherever the sum is > 0; capping it at 0 keeps an empty sum from
    # meeting an overflowed factor.
    idx = _count_table(y, search)[rows]  # (hi, lo) per class
    idx[:, signs.size // 2:] += n + 1
    rates = np.array([1.0, 1.0 / kernel.attraction_length])
    sums, anchors = _exp_prefix(y, rates)
    base = anchors[idx]
    base -= signs * (y - shifts)
    np.minimum(base, 0.0, out=base)
    diff = np.empty((rates.size, signs.size, n))
    terms = np.empty_like(base)
    for rate, sums_at, out in zip(rates, sums, diff):
        np.multiply(base, rate, out=terms)
        np.exp(terms, out=terms)
        terms *= sums_at[idx]
        np.subtract(terms[0], terms[1], out=out)
    weights = np.array([1.0] * signs.size + [-kernel.attraction_strength] * signs.size)
    out = np.empty(n)
    out[order] = kernel.strength * (weights @ diff.reshape(-1, n))
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


def continuum_velocity(state: ContinuumState, kernel: MorseKernel, control):
    """Total advection speed w = V + U of the controlled conservation law as
    an array, and the control U it added (None when ``control`` is None or
    returns None)."""
    v = velocity_field(kernel, state.rho).values
    u = control(state) if control is not None else None
    return (v, None) if u is None else (v + u.values, u)


def _rusanov_advance(rho: GridFunction, w: np.ndarray, dt: float) -> GridFunction:
    """Conservative update of rho under the frozen speed field w."""
    grid = rho.grid
    r = rho.values
    flux = r * w
    speed = np.abs(w)
    a = np.maximum(speed, next_neighbour(speed))  # face j+1/2 wave speed
    face = 0.5 * (flux + next_neighbour(flux)) - 0.5 * a * (next_neighbour(r) - r)
    r_new = r - (dt / grid.spacing) * backward_difference(face)
    if r_new.min() < -1e-12:
        raise RuntimeError(f"density fell to {r_new.min():.3e}; scheme positivity violated")
    np.maximum(r_new, 0.0, out=r_new)
    return GridFunction(grid, r_new)


def max_stable_dt(w: np.ndarray, spacing: float, cfl: float) -> float:
    """Largest admissible step cfl * spacing / max|w| for the speed field w;
    a non-finite speed raises, since it would give a zero step."""
    top = float(np.abs(w).max())
    if not math.isfinite(top):
        raise RuntimeError("non-finite advection speed; run aborted")
    if top == 0.0:
        return np.inf
    return cfl * spacing / top


@dataclass(frozen=True)
class ContinuumRun(Sequence):
    """What ``run_continuum`` evaluated.  As a sequence it is the sampled
    states.  ``u_fields[k]`` is the control U of ``states[k]``: the one its
    step applied, or for the last state, from which no step starts, its
    evaluation after the run; None in the open loop.  ``steps`` counts the
    Rusanov steps, and ``dt_min``/``dt_max`` are their extremes (nan when
    there was none)."""

    states: tuple
    u_fields: tuple
    steps: int
    dt_min: float
    dt_max: float

    def __len__(self):
        return len(self.states)

    def __getitem__(self, index):
        return self.states[index]


def run_continuum(state: ContinuumState, kernel: MorseKernel, control, t_end: float, *,
                  cfl: float = 0.4, dt_max: float = 1e-3,
                  sample_every: float = 0.05) -> ContinuumRun:
    """Advance to t_end with adaptive CFL-limited steps; returns the sampled
    states with the control of each (see ``ContinuumRun``).

    Steps land exactly on the sampling instants, the multiples of
    ``sample_every`` after the start ``state.t``, so trajectories are
    reproducible regardless of the adaptive step history in between.
    """
    states, u_fields = [state], []
    steps, shortest, longest = 0, math.inf, 0.0
    k = int(state.t // sample_every) + 1
    if k * sample_every <= state.t + 1e-12:  # the start sits on an instant
        k += 1
    while state.t < t_end - 1e-12:
        target = min(k * sample_every, t_end)
        w, u = continuum_velocity(state, kernel, control)
        if len(u_fields) < len(states):  # the step from a sampled state
            u_fields.append(u)
        dt = min(max_stable_dt(w, state.rho.grid.spacing, cfl), dt_max, target - state.t)
        state = ContinuumState(rho=_rusanov_advance(state.rho, w, dt), t=state.t + dt)
        steps += 1
        shortest, longest = min(shortest, dt), max(longest, dt)
        if state.t >= target - 1e-12:
            states.append(state)
            k += 1
    u_fields.append(control(state) if control is not None else None)
    if not steps:
        shortest = longest = math.nan
    return ContinuumRun(tuple(states), tuple(u_fields), steps, shortest, longest)
