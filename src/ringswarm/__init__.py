"""Density-feedback control of agent swarms on a ring.

A swarm of agents on the circle, coupled by a pairwise velocity kernel, is
steered toward a desired density profile: the crowd-level feedback law acts
on the estimated density, is converted to a velocity field, and is sampled
at each agent's position.

The package exports its entry points: a scenario config, the five config
factories, the runner ``run_scenario``, the two sweeps and the ``RunRecord``
they return.  Every other name is imported from the module that defines it:
``ring`` (angles, the grid, the FFT convolution), ``density`` (the
estimator, the target profiles and the error metrics), ``control`` (the
feedback law, the velocity solve and the sampler), ``dynamics`` (the Morse
kernel, the agent and continuum integrators), ``scenarios`` (configs and
runners), ``records`` (the output files) and ``cli`` (the command line).
"""

__version__ = "0.1.0"

from .scenarios import (
    ScenarioConfig,
    monomodal_config,
    bimodal_config,
    tracking_config,
    open_loop_config,
    continuum_config,
    run_scenario,
    run_scalability_sweep,
    run_noise_sweep,
)
from .records import RunRecord

__all__ = [
    "__version__",
    "ScenarioConfig", "monomodal_config", "bimodal_config", "tracking_config",
    "open_loop_config", "continuum_config",
    "run_scenario", "run_scalability_sweep", "run_noise_sweep",
    "RunRecord",
]
