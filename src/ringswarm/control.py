"""The density-feedback law and its conversion to agent velocity inputs.

Three stages: assemble the mass-source feedback q from the density error,
solve [rho * U]_x = -q for the velocity-space control U, and sample U at
the agent positions.  q has zero spatial integral by construction, so the
control never creates or destroys mass.  The solve fixes U only up to a
constant flux; the one chosen gives U zero sum over the unstarved nodes,
the flux of least kinetic energy, which does not depend on where the
domain's seam lies.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import MorseKernel, velocity_field
from .ring import GridFunction, central_difference, integrate, wrap_into_domain


@dataclass(frozen=True)
class ControllerGains:
    """Proportional gain on the density error (1/seconds)."""

    kp: float

    def __post_init__(self):
        if self.kp <= 0:
            raise ValueError("kp must be positive")


def compute_feedback(rho: GridFunction, rho_d: GridFunction, kernel: MorseKernel,
                     gains: ControllerGains) -> GridFunction:
    """The mass source q = kp*e - [e*Vd]_x - [rho_d*Ve]_x with e = rho_d - rho.

    Vd = f * rho_d, and Ve = f * e is formed as Vd - V(rho) by linearity.
    ``velocity_field`` caches per density object: Vd of a static target is
    convolved once per run, and in the continuum V(rho) is the field that
    ``continuum_velocity`` has just convolved for the same state, so each
    call costs at most one new convolution.  The flux derivatives use the
    shared periodic central-difference stencil, which makes the integral of
    q vanish identically.
    """
    if rho.grid != rho_d.grid:
        raise ValueError("rho and rho_d must share a grid")
    grid = rho.grid
    e = rho_d.values - rho.values
    v_desired = velocity_field(kernel, rho_d).values
    v_error = v_desired - velocity_field(kernel, rho).values
    flux_d = central_difference(e * v_desired, grid.spacing)
    flux_e = central_difference(rho_d.values * v_error, grid.spacing)
    return GridFunction(grid, gains.kp * e - flux_d - flux_e)


def starvation_floor(rho: GridFunction) -> float:
    """Density below which a node is starved: 1e-6 of the uniform level
    mass / (2*pi)."""
    return 1e-6 * integrate(rho) / (2.0 * np.pi)


def velocity_control(rho: GridFunction, q: GridFunction, *,
                     on_starved: str = "raise") -> GridFunction:
    """Solve [rho * U]_x = -q: U = -(Q + C) / rho with Q a trapezoid
    running integral of q.

    The flux constant C = -sum(Q / rho) / sum(1 / rho) over the unstarved
    nodes gives U zero sum there: the minimal-kinetic-energy flux, the C
    that minimises sum(rho * U**2).  It does not depend on the seam -pi, so
    a grid-aligned rotation of rho and q rolls U.  Nodes where rho falls
    below ``starvation_floor`` signal the degenerate source/sink case:
    ``on_starved="raise"`` refuses with the offending node, ``"zero"``
    returns U = 0 there and leaves them out of C (used by the agent loop,
    whose estimator keeps the density high wherever inputs are actually
    sampled).
    """
    if rho.grid != q.grid:
        raise ValueError("rho and q must share a grid")
    if on_starved not in ("raise", "zero"):
        raise ValueError(f"unknown on_starved {on_starved!r}")
    floor = starvation_floor(rho)
    starved = rho.values < floor
    if on_starved == "raise" and starved.any():
        j = int(np.argmax(starved))
        raise ValueError(
            f"density {rho.values[j]:.3e} below floor {floor:.3e} at node {j} "
            f"(x={rho.grid.nodes[j]:+.4f}); the control would act as a source/sink"
        )
    # The trapezoid running integral of q is spacing * (cumsum(q) - q/2) up
    # to a constant, which C absorbs; the spacing rides on the weights.
    cum = np.cumsum(q.values)
    cum -= 0.5 * q.values
    weight = rho.grid.spacing / np.where(starved, np.inf, rho.values)  # 0 on starved nodes
    u = ((cum * weight).sum() / weight.sum() - cum) * weight
    u[starved] = 0.0
    return GridFunction(rho.grid, u)


def sample_agent_inputs(u_field: GridFunction, positions) -> np.ndarray:
    """Evaluate U at agent positions by periodic linear interpolation."""
    grid = u_field.grid
    pos = wrap_into_domain(np.asarray(positions, dtype=float))
    s = (pos + np.pi) / grid.spacing
    # Positions sitting on a node must sample it exactly; rounding noise in
    # (pos + pi)/spacing would otherwise leak a neighbour's value in.
    nearest = np.round(s)
    s = np.where(np.abs(s - nearest) < 1e-9, nearest, s)
    below = np.floor(s)
    frac = s - below
    # s lies in [0, m], so j + 1 is at most m + 1: both nodes are read from
    # the values extended by their first two, which also wraps them
    v = u_field.values
    extended = np.concatenate((v, v[:2]))
    j = below.astype(int)
    return extended[j] * (1.0 - frac) + extended[j + 1] * frac
