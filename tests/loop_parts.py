"""The array feedback functions composed on GridFunctions, as tests call them.

``compute_feedback`` and ``velocity_control`` take plain arrays of one grid;
these helpers read them off GridFunctions, convolve V(rho) and Vd on the
way, and wrap the result again.
"""

from ringswarm import GridFunction, compute_feedback, velocity_control, velocity_field
from ringswarm.control import starvation_floor


def feedback(rho: GridFunction, rho_d: GridFunction, kernel, gains) -> GridFunction:
    """The feedback q for the density rho and the target rho_d."""
    samples = kernel.sample_on_grid(rho.grid)
    v, v_d = (velocity_field(samples, f.values) for f in (rho, rho_d))
    return GridFunction(rho.grid, compute_feedback(rho.values, v, rho_d.values, v_d, gains,
                                                   rho.grid.spacing))


def starved_nodes(rho: GridFunction):
    """The nodes of rho below its starvation floor."""
    return rho.values < starvation_floor(rho.values, rho.grid.spacing)


def solve(rho: GridFunction, q: GridFunction) -> GridFunction:
    """The velocity control U for rho and q, 0 on the starved nodes."""
    return GridFunction(rho.grid, velocity_control(rho.values, q.values, rho.grid.spacing,
                                                   starved_nodes(rho)))


def continuum_control(rho_d: GridFunction, kernel, gains):
    """A ``run_continuum`` control regulating towards the static rho_d; a
    starved node fails the calling test."""
    grid = rho_d.grid
    v_d = velocity_field(kernel.sample_on_grid(grid), rho_d.values)

    def control(rho, v, t):
        q = compute_feedback(rho, v, rho_d.values, v_d, gains, grid.spacing)
        starved = rho < starvation_floor(rho, grid.spacing)
        assert not starved.any(), f"starved node at t={t}"
        return velocity_control(rho, q, grid.spacing, starved)

    return control
