"""The density-feedback law and its conversion to agent velocity inputs.

Three stages: assemble the mass-source feedback q from the density error,
solve [rho * U]_x = -q for the velocity-space control U, and sample U at
the agent positions.  q has zero spatial integral by construction, so the
control never creates or destroys mass.  The solve fixes U only up to a
constant flux; the one chosen gives U zero sum over the unstarved nodes,
the flux of least kinetic energy, which does not depend on where the
domain's seam lies.
"""

import numpy as np

from .ring import TWO_PI, central_difference, integrate, wrap_angle
from .ring import velocity_field  # noqa: F401 (unused; a perfbench span hook's name)


def compute_feedback(rho: np.ndarray, v: np.ndarray, rho_d: np.ndarray, v_d: np.ndarray,
                     kp: float) -> np.ndarray:
    """The mass source q = kp*e - [e*Vd + rho_d*Ve]_x with e = rho_d - rho
    and the proportional gain ``kp`` (1/seconds).

    Arrays on one grid: the density ``rho`` and its velocity field
    ``v`` = f * rho (``velocity_field``), the target ``rho_d`` and
    ``v_d`` = f * rho_d.  Ve = f * e is formed as v_d - v by linearity, so
    the feedback itself convolves nothing: the continuum step passes the
    V(rho) it transports with, and a static target's Vd is a constant of
    the run.  The two fluxes are summed and differenced once with the
    shared periodic central-difference stencil, which makes the integral of
    q vanish identically.
    """
    e = rho_d - rho
    flux = v_d - v  # Ve, then e*Vd + rho_d*Ve
    flux *= rho_d
    flux += e * v_d
    q = kp * e
    q -= central_difference(flux)
    return q


def starvation_floor(rho: np.ndarray) -> float:
    """Density below which a node is starved: 1e-6 of the uniform level
    mass / (2*pi)."""
    return 1e-6 * integrate(rho) / (2.0 * np.pi)


def velocity_control(rho: np.ndarray, q: np.ndarray, starved: np.ndarray) -> np.ndarray:
    """Solve [rho * U]_x = -q: U = -(Q + C) / rho with Q a trapezoid
    running integral of q, all three arrays on one grid.

    The flux constant C = -sum(Q / rho) / sum(1 / rho) over the unstarved
    nodes gives U zero sum there: the minimal-kinetic-energy flux, the C
    that minimises sum(rho * U**2).  It does not depend on the seam -pi, so
    a grid-aligned rotation of rho and q rolls U.  The mask ``starved``
    marks the nodes below ``starvation_floor``, where the control would act
    as a source or sink: U is 0 there and they are left out of C.  Whether
    such a node refuses the update or only zeroes U there is the runner's
    choice (the continuum runner refuses; the agent loop, whose estimator
    keeps the density high wherever inputs are actually sampled, zeroes).
    """
    # The trapezoid running integral of q is spacing * (cumsum(q) - q/2) up
    # to a constant, which C absorbs; the spacing 2*pi/m rides on the weights,
    # which are 0 on the starved nodes.
    cum = q.cumsum()
    cum -= 0.5 * q
    weight = (TWO_PI / rho.size) / np.where(starved, np.inf, rho)
    u = (cum * weight).sum() / weight.sum() - cum
    u *= weight
    u[starved] = 0.0
    return u


def sample_agent_inputs(u: np.ndarray, positions) -> np.ndarray:
    """Evaluate the U samples ``u`` at agent positions by periodic linear
    interpolation."""
    s = wrap_angle(positions) + np.pi
    s /= TWO_PI / u.size
    # Positions sitting on a node must sample it exactly; rounding noise in
    # (pos + pi)/spacing would otherwise leak a neighbour's value in.
    nearest = np.rint(s)
    s = np.where(np.abs(s - nearest) < 1e-9, nearest, s)
    j = s.astype(np.intp)  # s >= 0, so the cast is the floor
    s -= j
    # s lies in [0, m], so j + 1 is at most m + 1: both nodes wrap once
    value = u.take(j, mode="wrap")
    value *= 1.0 - s
    s *= u.take(j + 1, mode="wrap")
    value += s
    return value
