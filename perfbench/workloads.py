"""The benchmark's workloads: the scenario each one runs, the output checks
that apply to it, and the reference kernel (``reference.py``) whose time
corrects its run times for the host's speed.

Plain data with no imports, so ``run.py`` can read it without loading numpy.
Each workload names a config factory of ``ringswarm.scenarios`` and the
fields it overrides; ``child.py`` builds the config and calls the scenario
runner the CLI would call for it.  README.md says why each was chosen.
"""

# Output-check tolerances, the acceptance gate's values.
Q_INTEGRAL_TOL = 1e-9
MASS_DRIFT_TOL = 1e-9
KL_LANDMARK = 0.2

WORKLOADS = {
    # `ringswarm regulate-mono` defaults: N = 50, m = 256, RK4, dt = 1e-3,
    # 3 s horizon, agent and density records on.
    "mono-n50": {
        "factory": "monomodal_config",
        "overrides": {},
        "smoke_t_end": 0.02,
        "seeded": False,
        "noise_free": True,
        "full_horizon": True,
        "reference": "grid",
    },
    # The N = 1000 member of `sweep-n` (records off), horizon cut from 3 s to
    # 60 control updates so that several runs fit in one measurement.
    "mono-n1000": {
        "factory": "monomodal_config",
        "overrides": {"n_agents": 1000, "record_agents": False,
                      "record_density": False, "t_end": 0.06},
        "smoke_t_end": 0.003,
        "seeded": False,
        "noise_free": True,
        "full_horizon": False,
        "reference": "dense",
    },
    # `ringswarm continuum` defaults: adaptive Rusanov steps to t = 3 and the
    # post-run feedback recompute at every sample.
    "continuum": {
        "factory": "continuum_config",
        "overrides": {},
        "smoke_t_end": 0.02,
        "seeded": False,
        "noise_free": True,
        "full_horizon": True,
        "reference": "grid",
    },
    # `ringswarm track` (N = 50, 4 s) with 20 dBW feedback noise, the
    # `sweep-noise` member path; the noise generator takes the benchmark seed.
    "track-noise": {
        "factory": "tracking_config",
        "overrides": {"noise_power_dbw": 20.0},
        "smoke_t_end": 0.02,
        "seeded": True,
        "noise_free": False,
        "full_horizon": True,
        "reference": "grid",
    },
}
