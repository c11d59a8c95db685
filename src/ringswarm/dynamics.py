"""Time integration of the swarm at both scales.

Microscopic: the N-agent ODE dx_i/dt = sum_j f(wrap(x_i - x_j)) + u_i,
stepped with classical RK4; the control field is refreshed once per step
and frozen across its stages (sampled-data actuation).

Continuum: the mass-conservation law rho_t + [rho (V + U)]_x = 0 on the
ring, advanced with a conservative local Lax-Friedrichs (Rusanov) flux so
mass is exact and the density stays nonnegative under the CFL bound.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .control import sample_agent_inputs
from .kernels import MorseKernel, velocity_field
from .ring import TWO_PI, GridFunction, wrap_angle

# Courant number nu = dt * max|w| / spacing of the adaptive continuum step.
# With the face speeds a = max(|w_j|, |w_j+1|) of _rusanov_advance, node j's
# new value weighs its old one by 1 - lam * (a_j-1/2 + a_j+1/2) / 2 >= 1 - nu
# (lam = dt / spacing), node j-1's by lam * (a_j-1/2 + w_j-1) / 2 >= 0 and
# node j+1's by lam * (a_j+1/2 - w_j+1) / 2 >= 0, so the density stays
# nonnegative for any nu <= 1; 0.9 leaves rounding in the bound a 10% margin
# before the -1e-12 refusal.
CFL = 0.9


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
# then the shifts as a column; the first half of the classes lie behind
# and the second ahead.  Below a spread of pi only the own-image classes
# can hold agents, and they read the unsearched table.
_FOUR_CLASSES = (np.array([[2, 9, 3, 8], [4, 7, 5, 6]]), np.array([[0.0], [-TWO_PI], [TWO_PI], [0.0]]))
_OWN_IMAGE_CLASSES = (np.array([[2, 1], [0, 3]]), np.zeros((2, 1)))
# Without ties, y_i's run of equal positions is i alone: it starts at i
# and ends before i + 1.
_RUN_BOUNDS = np.array([[0], [1]])
# The cut pair _count_above searches: pi and its neighbour towards -inf.
_PI_PAIR = np.array([[np.pi], [np.nextafter(np.pi, -np.inf)]])
# Largest rate-scaled width a * (x - anchor) of one block of the prefix sums;
# with it no term or partial sum overflows (e^300 * N stays finite).
_BLOCK_EXPONENT = 300.0


def _count_above(y, cuts):
    """Per agent i and cut c of ``cuts`` (a (k, 1) array of neighbouring
    cuts), the number of sorted y_j with fl(y_i - y_j) > c, broadcastable
    to (k, n): one row when the guess holds for every cut.  That
    difference falls as j rises, so each count is a boundary in y:
    searchsorted on y_i - cuts[0] guesses it for every cut (they round
    y_i - c alike), and the raw predicate moves the guess one group of
    equal positions at a time."""
    padded = np.concatenate(([-np.inf], y, [np.inf]))
    guess = y - cuts[0]
    k = np.zeros(y.size, dtype=np.intp)  # one row for all cuts until a row moves
    low = guess.searchsorted(y[0], "right")  # guesses at or below y[0] count nothing
    k[low:] = y.searchsorted(guess[low:])
    while True:
        back = y - padded[k] <= cuts  # y[k - 1] fails: move left
        ahead = y - padded[k + 1] > cuts  # y[k] holds: move right
        if not (back.any() or ahead.any()):
            return k
        k = np.where(back, np.searchsorted(y, padded[k], "left"), k)
        k = np.where(ahead, np.searchsorted(y, padded[k + 1], "right"), k)


def _transposed(counts):
    """For a row of counts rising from 0 to n: per i < n, the number of j
    with counts[j] <= i."""
    return np.bincount(counts, minlength=counts.size + 1)[:-1].cumsum()


def _count_table(y, search):
    """Counts of sorted y_j with f = fl(y_i - y_j) > c, one row per cut c.

    Rows 0 and 1 are 0 and n, and row 2 is f > 0 (y_j < y_i: the start of
    y_i's run of equal positions).  With ``search``, rows 3 to 5 are f > pi,
    f >= pi (f > nextafter(pi, -inf)) and f >= 2*pi, which only a spread of
    2*pi can reach.  The cuts below 0 follow by transposing: f > -c fails
    for (i, j) exactly when fl(y_j - y_i) = -f >= c, and the j where that
    holds are those whose own count of f >= c exceeds i.  So the rows from
    2 give, after them, f >= 0, then with ``search`` f >= -pi, f > -pi and
    f > -2*pi.  Most need no transposing of their own: without ties row 2
    is i and f >= 0 is i + 1; where no f is exactly pi, f > pi and f >= pi
    agree, and so do their transposes; and where no f reaches 2*pi,
    f > -2*pi is n.
    """
    n = y.size
    known = 4 if search else 1
    table = np.empty((2 + 2 * known, n), dtype=np.intp)
    table[0], table[1] = 0, n
    new = y[1:] != y[:-1]  # y[i + 1] opens a run
    if new.all():
        np.add(np.arange(n), _RUN_BOUNDS, out=table[2::known])
    else:
        np.maximum.accumulate(np.where(np.concatenate(([True], new)), np.arange(n), 0),
                              out=table[2])
        table[2 + known] = _transposed(table[2])
    if search:
        table[3:5] = above = _count_above(y, _PI_PAIR)
        table[7:9] = [_transposed(row) for row in above] if above.ndim > 1 else _transposed(above)
        if y[-1] - y[0] < TWO_PI:
            table[5], table[9] = 0, n
        else:
            table[5] = _count_above(y, np.nextafter([[TWO_PI]], 0))
            table[9] = _transposed(table[5])
    return table


def _exp_prefix(y, rates):
    """Sums of exp(rate * x) over the sorted y below and above each index.

    ``sums[r, 0, j]`` is P[j] = sum_{l < j} exp(rates[r] * (y_l - A)) for j
    in 0..n, and ``sums[r, 1]`` holds the same sums over the mirrored
    positions x = -y[::-1], so that its entry n - c is S[c] = sum_{l >= c}
    exp(rates[r] * (A - y_l)); entry 0 of each side is the empty sum.  A is
    the entry's anchor in ``anchors``, which broadcasts to (2, n + 1).
    Along either direction the anchor is the first x of its block, a new
    block starts every _BLOCK_EXPONENT / max(rates) of x, and earlier
    blocks are carried over rescaled, so every sum stays finite and well
    conditioned however large the rates are.

    Both sides and both rates take one subtract, multiply, exp and cumsum
    over a (rates, 2, n) buffer.  With one block a side, the usual case,
    ``anchors`` is (2, 1) and that cumsum is the only one; otherwise each
    later block restarts its cumsum and adds its carry.
    """
    n = y.size
    a = rates[:, None, None]
    x = np.empty((2, n))
    x[0] = y
    np.negative(y[::-1], out=x[1])
    width = _BLOCK_EXPONENT / max(rates)
    segments = []  # (sides, start, stop) of each block
    for side, xs in enumerate(x):
        start = 0
        while start < n:
            end = xs[start] + width
            stop = n if xs[-1] <= end else int(xs.searchsorted(end, "right"))
            segments.append((slice(side, side + 1), start, stop))
            start = stop
    if len(segments) == 2:  # one block a side: one anchor each, one cumsum for both
        anchors = lead = x[:, :1]
        segments = [(slice(None), 0, n)]
    else:
        anchors = np.empty((2, n + 1))
        anchors[:, 0] = x[:, 0]
        lead = anchors[:, 1:]  # the anchor of each term
        for sides, start, stop in segments:
            lead[sides, start:stop] = x[sides, start:start + 1]
    sums = np.empty((rates.size, 2, n + 1))
    sums[:, :, 0] = 0.0
    terms = sums[:, :, 1:]
    np.multiply(a, x - lead, out=terms)
    np.exp(terms, out=terms)
    for sides, start, stop in segments:
        block = sums[:, sides, start + 1:stop + 1]
        block.cumsum(axis=2, out=block)
        if start:  # the first block carries nothing
            carried, anchor = anchors[sides, start:start + 1], anchors[sides, start + 1:start + 2]
            block += sums[:, sides, start:start + 1] * np.exp(a * (carried - anchor))
    return sums, anchors


@lru_cache(maxsize=16)
def _rates_and_weights(kernel: MorseKernel, classes: int):
    """The rates 1 and 1/L of ``kernel``'s two exponentials, and the weights
    of their per-class sums: 1 for the repulsion's, -G for the attraction's."""
    rates = np.array([1.0, 1.0 / kernel.attraction_length])
    weights = np.array([1.0] * classes + [-kernel.attraction_strength] * classes)
    return rates, weights


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
    sums of exp(+-a x) for a = 1 and a = 1/L.  When both ends of a range
    lie in one block of the prefix sums, as they do whenever each side is
    one block, they share its anchor and so one exponential per class,
    agent and rate.
    """
    n = positions.size
    order = positions.argsort(kind="stable")
    y = positions[order]
    if n and (y[0] < -np.pi or y[-1] >= np.pi):
        return _interaction_sum(wrap_angle(positions), kernel)
    spread = y[-1] - y[0] if n else 0.0
    if spread == 0.0:  # no pairs apart: at most one agent, or all coincident
        return np.zeros(n)
    search = spread >= np.pi  # |f| <= spread: below pi no f reaches +-pi
    rows, shifts = _FOUR_CLASSES if search else _OWN_IMAGE_CLASSES
    classes, half = shifts.size, shifts.size // 2
    # Behind, the range lo <= j < hi sums to T(hi) - T(lo) with
    # T(j) = P[j] exp(a (A[j] - q)) and q = y_i - shift; ahead it sums to
    # S[lo] - S[hi] (flat entries 2n + 1 - lo and 2n + 1 - hi of the
    # (2, n + 1) sides, see _exp_prefix) with q = shift - y_i, and the
    # kernel's sign there makes that T(2n + 1 - hi) - T(2n + 1 - lo).  The
    # exponent is <= 0 up to rounding wherever the sum is > 0; capping it
    # at 0 keeps an empty sum from meeting an overflowed factor.
    idx = _count_table(y, search)[rows]  # (hi, lo) per class
    np.subtract(2 * n + 1, idx[:, half:], out=idx[:, half:])
    rates, weights = _rates_and_weights(kernel, classes)
    sums, anchors = _exp_prefix(y, rates)
    if anchors.shape[1] == 1:  # one block a side: both ends share the exponent
        behind, ahead = anchors
        base = np.empty((1, classes, n))
    else:
        ends = anchors.ravel()[idx]
        behind, ahead = ends[:, :half], ends[:, half:]
        base = np.empty((2, classes, n))
    y_shifted = y - shifts  # the exponent A - q: q is this behind, minus this ahead
    np.subtract(behind, y_shifted[:half], out=base[:, :half])
    np.add(ahead, y_shifted[half:], out=base[:, half:])
    np.minimum(base, 0.0, out=base)
    factors = rates[:, None, None, None] * base
    np.exp(factors, out=factors)
    terms = sums.reshape(rates.size, -1).take(idx, axis=1)  # (rates, ends, classes, agents)
    terms *= factors
    diff = terms[:, 0] - terms[:, 1]
    out = np.empty(n)
    out[order] = kernel.strength * (weights @ diff.reshape(-1, n))
    return out


def microscopic_rhs(positions: np.ndarray, kernel: MorseKernel,
                    u: np.ndarray | None) -> np.ndarray:
    """Agent velocities: the interaction sums plus, unless the U samples
    ``u`` are None (the open loop), the control sampled at the positions."""
    du = _interaction_sum(positions, kernel)
    if u is not None:
        du += sample_agent_inputs(u, positions)
    return du


def step_swarm(positions: np.ndarray, kernel: MorseKernel, u: np.ndarray | None,
               dt: float) -> np.ndarray:
    """The agent positions one classical RK4 step of ``dt`` later, wrapped
    into [-pi, pi).

    ``u`` holds the velocity control U at the grid nodes, evaluated at the
    pre-step positions (None for the open loop); it stays frozen across the
    step and is re-sampled at the staged agent positions.
    """
    x = positions
    k1 = microscopic_rhs(x, kernel, u)
    k2 = microscopic_rhs(x + 0.5 * dt * k1, kernel, u)
    k3 = microscopic_rhs(x + 0.5 * dt * k2, kernel, u)
    k4 = microscopic_rhs(x + dt * k3, kernel, u)
    x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(x_new).all():
        raise RuntimeError("non-finite agent position; run aborted")
    return wrap_angle(x_new)


def continuum_velocity(rho: np.ndarray, t: float, kernel_samples: GridFunction, control):
    """Total advection speed w = V + U of the controlled conservation law for
    the density samples ``rho`` at time ``t``, and the control U it added.

    V = f * rho is convolved once and handed to ``control(rho, V, t)``,
    which returns U as an array, or None (the open loop); U is None also
    when ``control`` is None."""
    v = velocity_field(kernel_samples, rho)
    u = control(rho, v, t) if control is not None else None
    return (v, None) if u is None else (v + u, u)


def _rusanov_advance(r: np.ndarray, w: np.ndarray, speed: np.ndarray, dt: float) -> np.ndarray:
    """Conservative update of the density samples r under the frozen speed
    field w, whose magnitudes |w| are ``speed``; a negative or non-finite
    result raises."""
    m = r.size
    ext = np.empty((3, m + 1))  # flux, speed, r, each with node 0 again at m
    np.multiply(r, w, out=ext[0, :m])
    ext[1, :m] = speed
    ext[2, :m] = r
    ext[:, m] = ext[:, 0]
    flux, wrapped_speed, dens = ext
    a = np.maximum(wrapped_speed[:-1], wrapped_speed[1:])  # face j+1/2 wave speed
    a *= 0.5
    a *= dens[1:] - dens[:-1]
    face = flux[:-1] + flux[1:]
    face *= 0.5
    face -= a
    r_new = np.empty(m)  # the backward difference of the faces, then the update
    np.subtract(face[1:], face[:-1], out=r_new[1:])
    r_new[0] = face[0] - face[-1]
    r_new *= dt / (TWO_PI / m)
    np.subtract(r, r_new, out=r_new)
    low = r_new.min()
    if not low >= -1e-12:
        raise RuntimeError(f"density fell to {low:.3e}; scheme positivity violated")
    if low <= 0.0:
        np.maximum(r_new, 0.0, out=r_new)
    return r_new


def max_stable_dt(speed: np.ndarray) -> float:
    """Largest admissible step CFL * spacing / max|w| for the magnitudes
    ``speed`` = |w| of the speed field w; a non-finite speed raises, since
    it would give a zero step."""
    top = float(speed.max())
    if not math.isfinite(top):
        raise RuntimeError("non-finite advection speed; run aborted")
    if top == 0.0:
        return np.inf
    return CFL * (TWO_PI / speed.size) / top


@dataclass(frozen=True)
class ContinuumRun:
    """What ``run_continuum`` evaluated: the sampled ``times`` and their
    ``densities``, and ``u_fields[k]``, the control U of ``densities[k]``
    as an array: the one its step applied, or for the last sample, from
    which no step starts, its evaluation after the run; None in the open
    loop.  ``steps`` counts the Rusanov steps, and ``dt_min``/``dt_max``
    are their extremes; ``dt_bound_min`` is the smallest bound a step met,
    min(``max_stable_dt``, the cap ``dt_max``), whatever a sampling instant
    cut it to (each nan when there was no step)."""

    times: tuple
    densities: tuple
    u_fields: tuple
    steps: int
    dt_min: float
    dt_max: float
    dt_bound_min: float


def run_continuum(rho: np.ndarray, t: float, kernel_samples: GridFunction, control, t_end: float,
                  *, dt_max: float = 1e-3, sample_every: float = 0.05) -> ContinuumRun:
    """Advance the density samples ``rho`` from time ``t`` to t_end with
    adaptive CFL-limited steps; returns the sampled densities with the
    control of each (see ``ContinuumRun``).

    ``kernel_samples`` come from ``MorseKernel.sample_on_grid``.  ``control``
    is None or, as in ``continuum_velocity``, maps the density array, its V
    and the time to U.  Steps land exactly on the sampling instants, the
    multiples of ``sample_every`` after the start ``t``, so trajectories are
    reproducible regardless of the adaptive step history in between.
    """
    times, densities, u_fields = [t], [rho], []
    steps, shortest, longest, tightest = 0, math.inf, 0.0, math.inf
    k = int(t // sample_every) + 1
    if k * sample_every <= t + 1e-12:  # the start sits on an instant
        k += 1
    while t < t_end - 1e-12:
        target = min(k * sample_every, t_end)
        w, u = continuum_velocity(rho, t, kernel_samples, control)
        if len(u_fields) < len(times):  # the step from a sample
            u_fields.append(u)
        speed = np.abs(w)  # once for the CFL bound and the face wave speeds
        bound = min(max_stable_dt(speed), dt_max)
        dt = min(bound, target - t)
        rho = _rusanov_advance(rho, w, speed, dt)
        t += dt
        steps += 1
        shortest, longest, tightest = min(shortest, dt), max(longest, dt), min(tightest, bound)
        if t >= target - 1e-12:
            times.append(t)
            densities.append(rho)
            k += 1
    u_fields.append(None if control is None
                    else control(rho, velocity_field(kernel_samples, rho), t))
    if not steps:
        shortest = longest = tightest = math.nan
    return ContinuumRun(tuple(times), tuple(densities), tuple(u_fields), steps, shortest, longest,
                        tightest)
