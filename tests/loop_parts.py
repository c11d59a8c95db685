"""The feedback law composed from the array functions, as tests call it: q
with both convolutions done on the way, U with the starved nodes masked,
a ``run_continuum`` control regulating towards a static target, and one
that applies none."""

import numpy as np

from ringswarm.control import compute_feedback, starvation_floor, velocity_control
from ringswarm.ring import velocity_field


def feedback(rho, rho_d, kernel, kp):
    """The feedback q for the density samples rho and the target rho_d."""
    samples = kernel.sample_on_grid(rho.size)
    v, v_d = (velocity_field(samples, f) for f in (rho, rho_d))
    return compute_feedback(rho, v, rho_d, v_d, kp)


def solve(rho, q):
    """The velocity control U for rho and q, 0 on the starved nodes."""
    return velocity_control(rho, q, rho < starvation_floor(rho))


def continuum_control(rho_d, kernel, kp):
    """A ``run_continuum`` control regulating towards the static rho_d; a
    starved node fails the calling test."""
    v_d = velocity_field(kernel.sample_on_grid(rho_d.size), rho_d)

    def control(rho, v, t):
        q = compute_feedback(rho, v, rho_d, v_d, kp)
        starved = rho < starvation_floor(rho)
        assert not starved.any(), f"starved node at t={t}"
        return velocity_control(rho, q, starved)

    return control


def open_loop(rho, v, t):
    """A ``run_continuum`` control that applies no U: the open loop."""
    return np.zeros(rho.size)
