"""Density-feedback control of agent swarms on a ring.

A swarm of agents on the circle, coupled by a pairwise velocity kernel, is
steered toward a desired density profile: the crowd-level feedback law acts
on the estimated density, is converted to a velocity field, and is sampled
at each agent's position.  The package provides the circular numerics, the
Morse interaction kernel, wrapped-Gaussian density estimation, the feedback
controller, agent and continuum integrators, and a reproducible experiment
harness with a CLI.
"""

__version__ = "0.1.0"

from .ring import (
    GridFunction,
    grid_nodes,
    wrap_angle,
    integrate,
    velocity_field,
)
from .density import (
    WrappedGaussianEstimator,
    von_mises_density,
    bimodal_density,
    kl_divergence,
    l2_norm,
)
from .control import (
    compute_feedback,
    velocity_control,
    sample_agent_inputs,
)
from .dynamics import (
    MorseKernel,
    even_lattice,
    microscopic_rhs,
    step_swarm,
    run_continuum,
)
from .scenarios import (
    ScenarioConfig,
    monomodal_config,
    bimodal_config,
    tracking_config,
    open_loop_config,
    continuum_config,
    target_at,
    run_microscopic,
    run_continuum_scenario,
    run_scalability_sweep,
    run_noise_sweep,
)
from .records import RunRecord

__all__ = [
    "__version__",
    "GridFunction", "grid_nodes", "wrap_angle", "integrate",
    "MorseKernel", "velocity_field",
    "WrappedGaussianEstimator", "von_mises_density", "bimodal_density",
    "kl_divergence", "l2_norm",
    "compute_feedback", "velocity_control", "sample_agent_inputs",
    "even_lattice", "microscopic_rhs", "step_swarm", "run_continuum",
    "ScenarioConfig", "monomodal_config", "bimodal_config", "tracking_config",
    "open_loop_config", "continuum_config", "target_at",
    "run_microscopic", "run_continuum_scenario",
    "run_scalability_sweep", "run_noise_sweep",
    "RunRecord",
]
