"""Time integration of the swarm at both scales.

Microscopic: the N-agent ODE dx_i/dt = sum_j f(wrap(x_i - x_j)) + u_i,
stepped with explicit Euler or RK4; the control field is refreshed once per
step and frozen across RK4 stages (sampled-data actuation).

Continuum: the mass-conservation law rho_t + [rho (V + U)]_x = 0 on the
ring, advanced with a conservative local Lax-Friedrichs (Rusanov) flux so
mass is exact and the density stays nonnegative under the CFL bound.
"""

import threading
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


class _PairwiseBuffers:
    """Reusable N x N scratch matrices; the pairwise sum runs every RK4
    stage, and reallocating ~30 MB per step dominates the step cost."""

    __slots__ = ("n", "diff", "sign", "tmp")

    def __init__(self, n):
        self.n = n
        self.diff = np.empty((n, n))
        self.sign = np.empty((n, n))
        self.tmp = np.empty((n, n))


_local = threading.local()


def _buffers_for(n: int) -> _PairwiseBuffers:
    ws = getattr(_local, "pairwise", None)
    if ws is None or ws.n != n:
        ws = _PairwiseBuffers(n)
        _local.pairwise = ws
    return ws


def _pairwise_interaction(positions: np.ndarray, kernel: MorseKernel) -> np.ndarray:
    """Direct O(N^2) sum of kernel velocities over all ordered pairs."""
    n = positions.size
    ws = _buffers_for(n)
    d, s, tmp = ws.diff, ws.sign, ws.tmp
    np.subtract(positions[:, None], positions[None, :], out=d)
    # Positions may carry small sub-step excursions, so differences stay
    # within (-3*pi, 3*pi); one correction per side wraps them.
    d[d >= np.pi] -= 2.0 * np.pi
    d[d < -np.pi] += 2.0 * np.pi
    np.sign(d, out=s)
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)  # repulsion exponential exp(-|z|)
    inv_l = 1.0 / kernel.attraction_length
    k = int(round(inv_l))
    if 1 <= k <= 4 and abs(inv_l - k) < 1e-12:
        np.copyto(tmp, d)
        for _ in range(k - 1):
            np.multiply(tmp, d, out=tmp)  # exp(-|z|/L) = exp(-|z|)^k
    else:
        np.log(d, out=tmp)
        np.multiply(tmp, inv_l, out=tmp)
        np.exp(tmp, out=tmp)
    np.multiply(tmp, kernel.attraction_strength, out=tmp)
    np.subtract(d, tmp, out=d)
    np.multiply(d, s, out=d)
    out = d.sum(axis=1)
    out *= kernel.strength
    return out


def microscopic_rhs(state: SwarmState, kernel: MorseKernel, inputs) -> np.ndarray:
    """Agent velocities: interaction sums plus the given control inputs."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.shape != (state.n_agents,):
        raise ValueError(f"expected {state.n_agents} inputs, got shape {inputs.shape}")
    return _pairwise_interaction(state.positions, kernel) + inputs


def step_swarm(state: SwarmState, kernel: MorseKernel, u_field: GridFunction | None,
               integrator: IntegratorSpec) -> SwarmState:
    """Advance one dt.

    ``u_field`` is the velocity control U evaluated at the pre-step state
    (None for the open loop); it stays frozen across the step and is
    re-sampled at the staged agent positions.
    """
    def rhs(p):
        du = _pairwise_interaction(p, kernel)
        if u_field is not None:
            du += sample_agent_inputs(u_field, p)
        return du

    x = state.positions
    dt = integrator.dt
    if integrator.scheme == "euler":
        x_new = x + dt * rhs(x)
    else:
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
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


def step_continuum(state: ContinuumState, kernel: MorseKernel, control, dt: float,
                   cfl: float = 0.5) -> ContinuumState:
    """One explicit conservative step; refuses dt beyond the CFL bound."""
    w = continuum_velocity(state, kernel, control)
    allowed = max_stable_dt(w, cfl)
    if dt > allowed:
        top = float(np.abs(w.values).max())
        raise ValueError(
            f"dt={dt:.3e} violates the CFL bound {allowed:.3e} "
            f"(max speed {top:.3f}, cfl={cfl})"
        )
    rho_new = _rusanov_advance(state.rho, w, dt)
    return ContinuumState(rho=rho_new, t=state.t + dt)


def run_continuum(state: ContinuumState, kernel: MorseKernel, control, t_end: float, *,
                  cfl: float = 0.4, dt_max: float = 1e-3, sample_every: float = 0.05):
    """Advance to t_end with adaptive CFL-limited steps; returns sampled states.

    Steps land exactly on the sampling instants, so trajectories are
    reproducible regardless of the adaptive step history in between.
    """
    samples = [state]
    k = 1
    while state.t < t_end - 1e-12:
        target = min(k * sample_every, t_end)
        w = continuum_velocity(state, kernel, control)
        dt = min(max_stable_dt(w, cfl), dt_max, target - state.t)
        state = ContinuumState(rho=_rusanov_advance(state.rho, w, dt), t=state.t + dt)
        if state.t >= target - 1e-12:
            samples.append(state)
            k += 1
    return samples
