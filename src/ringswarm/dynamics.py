"""The Morse kernel f and the swarm's time integration at both scales.

Microscopic: the N-agent ODE dx_i/dt = sum_j f(wrap(x_i - x_j)) + u_i,
stepped with classical RK4; the control field is refreshed once per step
and frozen across its stages (sampled-data actuation).

Continuum: the mass-conservation law rho_t + [rho (V + U)]_x = 0 on the
ring, V = f * rho convolved from f's grid samples (``ring.velocity_field``),
advanced with a conservative local Lax-Friedrichs (Rusanov) flux so mass
is exact and the density stays nonnegative under the CFL bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .control import sample_agent_inputs
from .ring import TWO_PI, GridFunction, grid_nodes, velocity_field, wrap_angle

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


# Shortest attraction range L.  The exact interaction sum takes
# E = exp((y - y[0]) / L) of the sorted positions, so over their span,
# below 2*pi, E and 1/E stay within e^+-300: no term, factor or sum of them
# overflows, and none falls below the normal range.
MIN_ATTRACTION_LENGTH = TWO_PI / 300.0


@dataclass(frozen=True)
class MorseKernel:
    """Velocity kernel f(z) = s * sgn(z) * (-G exp(-|z|/L) + exp(-|z|)).

    attraction_strength -- G > 0, finite, weight of the attractive term
    attraction_length   -- L >= MIN_ATTRACTION_LENGTH, finite, its range
    strength            -- overall multiplier s > 0, finite; set to 1/N for
                           mean-field normalised swarms (see scenarios)
    """

    attraction_strength: float = 0.5
    attraction_length: float = 0.5
    strength: float = 1.0

    def __post_init__(self):
        if not (0 < self.attraction_strength < np.inf and 0 < self.strength < np.inf):
            raise ValueError("Morse strengths G and s must be positive and finite")
        if not MIN_ATTRACTION_LENGTH <= self.attraction_length < np.inf:  # nan fails too
            raise ValueError(f"attraction length L must be finite and at least 2*pi/300, "
                             f"got {self.attraction_length!r}")

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


# With the positions in [-pi, pi) (microscopic_rhs wraps them), the raw
# difference f = fl(x_i - x_j) has |f| <= 2*pi, and the direct sum wraps it
# once: f >= pi down and f < -pi up by 2*pi.  So agent j is in one of four
# classes (sign +1 behind or -1 ahead, image x_j + shift): behind with f in
# (0, pi), shift 0, or in (-2*pi, -pi), shift -2*pi; ahead with f in
# (pi, 2*pi), shift 2*pi, or in (-pi, 0), shift 0.  f = 0 (coincident),
# f = +-pi (antipodal) and f = +-2*pi (wrapped offset 0, which a difference
# just short of 2*pi can round to) are in none.  Per layout: the rows
# (hi, lo) of _count_table, agent j being in a class when lo <= j < hi,
# then which classes take the image one turn away (shift +-2*pi); the
# first half of the classes lie behind and the second ahead.  Below a
# spread of pi only the own-image classes can hold agents, and they read
# the unsearched table.
_FOUR_CLASSES = (np.array([[2, 9, 3, 8], [4, 7, 5, 6]]), np.array([False, True, True, False]))
_OWN_IMAGE_CLASSES = (np.array([[2, 1], [0, 3]]), np.array([False, False]))
# Without ties, y_i's run of equal positions is i alone: it starts at i
# and ends before i + 1.
_RUN_BOUNDS = np.array([[0], [1]])
# The cut pair _count_above searches: pi and its neighbour towards -inf.
_PI_PAIR = np.array([[np.pi], [np.nextafter(np.pi, -np.inf)]])


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


def _interaction_sum(positions: np.ndarray, kernel: MorseKernel) -> np.ndarray:
    """Exact O(N log N) sum of kernel velocities over all ordered pairs of
    the ``positions``, which lie in [-pi, pi) (``microscopic_rhs`` wraps
    them).  The pair (i, j) has the wrapped offset w = x_i - x_j - 2*pi*k
    of the direct sum, with the image k in {-1, 0, 1} picked from the raw
    difference fl(x_i - x_j); agent j lies behind i (w > 0) or ahead of it
    (w < 0).  Coincident agents add nothing (sgn 0 = 0), and so do exactly
    antipodal ones (fl(x_i - x_j) = +-pi): the half-open convention would
    give them w = -pi from both sides, and the two-sided mean of the odd
    kernel there is 0, as in ``MorseKernel.sample_on_grid``.

    Because exp(-a|w|) separates into a factor of i and one of j, each of
    the four classes (behind or ahead, one image) is a contiguous range of
    the sorted y, summed in O(1) per agent from prefix sums, for a = 1 and
    a = 1/L.  Everything comes from one exponential per agent and rate,
    E_l = exp(a (y_l - y[0])) in [1, e^300]: behind, j's term is E_j and
    i's factor 1/E_i; ahead, j's term is E[-1] / E_j and i's factor
    E_i / E[-1]; an image one turn away adds the factor exp(-2*pi*a).
    Every factor is at most 1, and no term or sum overflows.
    """
    n = positions.size
    order = positions.argsort(kind="stable")
    y = positions[order]
    spread = y[-1] - y[0] if n else 0.0
    if spread == 0.0:  # no pairs apart: at most one agent, or all coincident
        return np.zeros(n)
    search = spread >= np.pi  # |f| <= spread: below pi no f reaches +-pi
    rows, wrapped = _FOUR_CLASSES if search else _OWN_IMAGE_CLASSES
    half = wrapped.size // 2
    rates = np.array([[1.0], [1.0 / kernel.attraction_length]])
    # Per rate and class: the kernel's strength and term sign, and
    # exp(-2*pi*a) for an image one turn away.
    weights = (kernel.strength * np.array([[1.0], [-kernel.attraction_strength]])
               * np.where(wrapped, np.exp(-TWO_PI * rates), 1.0))
    # Row 0 of a rate's prefix sums holds P[j] = sum_{l < j} E_l, row 1
    # S[c] = sum_{l >= c} E[-1] / E_l at entry n - c (the mirrored terms,
    # summed from the top); entry 0 of each is the empty sum.  Behind, the
    # range lo <= j < hi sums to P[hi] - P[lo]; ahead it sums to
    # S[lo] - S[hi] (flat entries 2n + 1 - lo and 2n + 1 - hi of a rate's
    # two rows), and the kernel's sign there makes that S[hi] - S[lo].
    sums = np.empty((rates.size, 2, n + 1))
    sums[:, :, 0] = 0.0
    terms = sums[:, :, 1:]
    e = terms[:, 0]
    np.multiply(rates, y - y[0], out=e)
    np.exp(e, out=e)
    factors = np.empty((rates.size, 2, 1, n))  # behind and ahead, per agent
    np.divide(1.0, e, out=factors[:, 0, 0])
    np.divide(e, e[:, -1:], out=factors[:, 1, 0])
    np.multiply(e[:, -1:], factors[:, 0, 0, ::-1], out=terms[:, 1])  # E[-1] / E_l, from the top
    terms.cumsum(axis=2, out=terms)
    idx = _count_table(y, search)[rows]  # (hi, lo) per class
    np.subtract(2 * n + 1, idx[:, half:], out=idx[:, half:])
    ends = sums.reshape(rates.size, -1).take(idx, axis=1)  # (rates, ends, classes, agents)
    ranges = ends[:, 0] - ends[:, 1]
    sides = ranges.reshape(rates.size, 2, half, n)
    np.multiply(sides, factors, out=sides)
    out = np.empty(n)
    out[order] = weights.ravel() @ ranges.reshape(-1, n)
    return out


def microscopic_rhs(positions: np.ndarray, kernel: MorseKernel,
                    u: np.ndarray | None) -> np.ndarray:
    """Agent velocities: the interaction sums plus, unless the U samples
    ``u`` are None (the open loop), the control sampled at the positions.

    The positions are wrapped into [-pi, pi) once, here: staged RK4
    positions can lie outside it."""
    positions = wrap_angle(positions)
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
    which returns U as an array."""
    v = velocity_field(kernel_samples, rho)
    u = control(rho, v, t)
    return v + u, u


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
    """What ``run_continuum`` evaluated: the ``times``, 0 and then exactly
    the instants it was asked for, with their ``densities``, and
    ``u_fields[k]``, the control U of ``densities[k]`` as an array: the one
    its step applied, or for the last sample, from which no step starts, its
    evaluation after the run.  ``steps`` counts the Rusanov steps, at least
    one per instant, and ``dt_min``/``dt_max`` are their extremes;
    ``dt_bound_min`` is the smallest bound a step met,
    min(``max_stable_dt``, the cap ``dt_max``), whatever an instant cut it
    to."""

    times: tuple
    densities: tuple
    u_fields: tuple
    steps: int
    dt_min: float
    dt_max: float
    dt_bound_min: float


def run_continuum(rho: np.ndarray, kernel_samples: GridFunction, control, sample_times,
                  *, dt_max: float) -> ContinuumRun:
    """Advance the density samples ``rho`` from t = 0 through the rising
    ``sample_times`` with adaptive CFL-limited steps of at most ``dt_max``;
    returns the density at each instant with the control of each (see
    ``ContinuumRun``).

    ``kernel_samples`` come from ``MorseKernel.sample_on_grid``.  ``control``
    maps the density array, its V and the time to U, as in
    ``continuum_velocity``.  Steps land exactly on the instants (a step
    ending within 1e-12 of one sets t to it), so trajectories are
    reproducible regardless of the adaptive step history in between.
    """
    times = [0.0, *sample_times]
    if not (len(times) > 1 and all(a < b for a, b in zip(times, times[1:]))
            and times[-1] < math.inf and dt_max > 0.0):  # NaN fails too; dt_max = +inf is valid
        raise ValueError(f"sample_times must rise from above 0 to a finite end and dt_max must "
                         f"be positive, got {times[1:]} and {dt_max}")
    t, densities, u_fields = 0.0, [rho], []
    steps, shortest, longest, tightest = 0, math.inf, 0.0, math.inf
    for target in times[1:]:
        while t < target:
            w, u = continuum_velocity(rho, t, kernel_samples, control)
            if len(u_fields) < len(densities):  # the step from a sample
                u_fields.append(u)
            speed = np.abs(w)  # once for the CFL bound and the face wave speeds
            bound = min(max_stable_dt(speed), dt_max)
            dt = min(bound, target - t)
            rho = _rusanov_advance(rho, w, speed, dt)
            t += dt
            steps += 1
            if t >= target - 1e-12:  # landed: the instant itself, not a rounding of it
                t = target
            shortest, longest, tightest = min(shortest, dt), max(longest, dt), min(tightest, bound)
        densities.append(rho)
    u_fields.append(control(rho, velocity_field(kernel_samples, rho), t))
    return ContinuumRun(tuple(times), tuple(densities), tuple(u_fields), steps, shortest, longest,
                        tightest)
