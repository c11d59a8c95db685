"""The density-feedback law and its conversion to agent velocity inputs.

Three stages: assemble the mass-source feedback q from the density error,
solve [rho * U]_x = -q for the velocity-space control U, and sample U at
the agent positions.  q has zero spatial integral by construction, so the
control never creates or destroys mass.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import MorseKernel, velocity_field
from .ring import (
    GridFunction,
    central_difference,
    integrate,
    running_trapezoid,
    wrap_into_domain,
)

CONSTANT_MODES = ("zero", "boundary")


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

    Vd and Ve are the kernel convolutions of the desired density and of the
    error (``velocity_field`` caches Vd for a static target; it keys on the
    density object, so e stays a GridFunction while the flux products are
    plain arrays); the flux derivatives use the shared periodic
    central-difference stencil, which makes the integral of q vanish
    identically.
    """
    if rho.grid != rho_d.grid:
        raise ValueError("rho and rho_d must share a grid")
    grid = rho.grid
    e = GridFunction(grid, rho_d.values - rho.values)
    v_desired, v_error = velocity_field(kernel, rho_d), velocity_field(kernel, e)
    flux_d = central_difference(e.values * v_desired.values, grid.spacing)
    flux_e = central_difference(rho_d.values * v_error.values, grid.spacing)
    return GridFunction(grid, gains.kp * e.values - flux_d - flux_e)


def starvation_floor(rho: GridFunction) -> float:
    """Density below which a node is starved: 1e-6 of the uniform level
    mass / (2*pi)."""
    return 1e-6 * integrate(rho) / (2.0 * np.pi)


def velocity_control(rho: GridFunction, q: GridFunction, *,
                     constant_mode: str = "zero",
                     on_starved: str = "raise") -> GridFunction:
    """Solve [rho * U]_x = -q: U = -(running integral of q + C) / rho.

    The integration constant C is 0 in the default ``constant_mode="zero"``
    (minimal-action representative) or q(-pi) with ``"boundary"``.  Nodes
    where rho falls below ``starvation_floor`` signal the degenerate
    source/sink case: ``on_starved="raise"`` refuses with the
    offending node, ``"zero"`` returns U = 0 there (used by the agent loop,
    whose estimator keeps the density high wherever inputs are actually
    sampled).
    """
    if rho.grid != q.grid:
        raise ValueError("rho and q must share a grid")
    if constant_mode not in CONSTANT_MODES:
        raise ValueError(f"unknown constant_mode {constant_mode!r}")
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
    constant = q.values[0] if constant_mode == "boundary" else 0.0
    cum = running_trapezoid(q.values, rho.grid.spacing)
    u = -(cum + constant) / np.where(starved, 1.0, rho.values)
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
