import importlib

import ringswarm
from ringswarm import records, scenarios

ENTRY_POINTS = [
    "__version__",
    "ScenarioConfig", "monomodal_config", "bimodal_config", "tracking_config",
    "open_loop_config", "continuum_config",
    "run_scenario", "run_scalability_sweep", "run_noise_sweep",
    "RunRecord",
]
# Building blocks, each imported from the module that defines it.
BUILDING_BLOCKS = {
    "ring": ["GridFunction", "grid_nodes", "wrap_angle", "integrate", "velocity_field"],
    "density": ["WrappedGaussianEstimator", "von_mises_density", "bimodal_density",
                "kl_divergence", "l2_norm"],
    "control": ["compute_feedback", "velocity_control", "sample_agent_inputs"],
    "dynamics": ["MorseKernel", "even_lattice", "microscopic_rhs", "step_swarm",
                 "run_continuum"],
    "scenarios": ["target_at", "run_microscopic", "run_continuum_scenario"],
}


def test_the_package_exports_its_entry_points_only():
    assert sorted(ringswarm.__all__) == sorted(ENTRY_POINTS)
    for name in ENTRY_POINTS:
        assert hasattr(ringswarm, name), name
    assert ringswarm.run_scenario is scenarios.run_scenario
    assert ringswarm.RunRecord is records.RunRecord


def test_each_building_block_imports_from_its_module_only():
    for module_name, names in BUILDING_BLOCKS.items():
        module = importlib.import_module(f"ringswarm.{module_name}")
        for name in names:
            assert callable(getattr(module, name))
            assert not hasattr(ringswarm, name), name
