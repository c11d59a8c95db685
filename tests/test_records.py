"""The CSV writer against the direct row formatter: every value of every
row through ``str``, joined by commas."""

import numpy as np

from ringswarm.records import AGENTS_HEADER, DENSITY_HEADER, METRICS_HEADER, RunRecord


def direct_csv(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def direct_files(record):
    """The three CSV texts of ``record``, one row tuple per line."""
    agents = [(t, i, xi, ui) for t, x, u in record.agents
              for i, (xi, ui) in enumerate(zip(x.tolist(), u.tolist()))]
    angles = [] if record.node_angles is None else record.node_angles.tolist()
    density = [(t, a, r, d) for t, rho, rho_d in record.density
               for a, r, d in zip(angles, rho.tolist(), rho_d.tolist())]
    return {"metrics": direct_csv(METRICS_HEADER, record.metrics),
            "agents": direct_csv(AGENTS_HEADER, agents),
            "density": direct_csv(DENSITY_HEADER, density)}


def test_write_matches_the_direct_row_formatter(tmp_path):
    # -0.0 next to 0.0, agent id 1 at t = 1.0 (and x = 1.0), and inputs and
    # a target that stay the same object across samples and also change to
    # a new array equal to the old one but for the sign of zero: a cache
    # keyed by value, or by equal contents, writes a wrong string here
    held = np.array([1.0, -1.5, 0.0])
    static = np.array([-0.0, 0.25, 1.0, 1e-300])
    record = RunRecord(
        config={"seed": 1},
        metrics=[(0.0, 0.5, -0.0, 0.0), (1.0, 1, 0.1, 2.0)],
        agents=[(0.0, np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, 1.0])),
                (1.0, np.array([1.0, 1.0, -0.0]), held),
                (2.5, np.array([-3.0, 0.1, 1e-17]), held),
                (3.0, np.array([0.5, 0.1, 1e-17]), np.array([1.0, -1.5, -0.0]))],
        node_angles=np.array([-np.pi, -0.0, 0.0, 1.0]),
        density=[(0.0, np.array([0.0, -0.0, 1.0, 0.5]), np.array([0.0, 0.25, 1.0, 1e-300])),
                 (1.0, np.array([-0.0, 0.0, 1.0, 1.0]), static),
                 (2.5, np.array([1.0, 0.0, -0.0, 2.0 / 3.0]), static)],
    )
    paths = record.write(tmp_path)
    for key, text in direct_files(record).items():
        assert paths[key].read_bytes() == text.encode()


def test_write_of_a_record_without_samples(tmp_path):
    # no samples at all, then agent samples with neither density samples
    # nor node angles
    bare = RunRecord(config={}, metrics=[(0.0, 0.0, 0.0, 0.0)])
    agents_only = RunRecord(config={}, metrics=[(0.0, 0.0, 0.0, 0.0)],
                            agents=[(0.0, np.array([0.5, -0.0]), np.array([0.0, 1.0]))])
    for name, record in (("bare", bare), ("agents_only", agents_only)):
        paths = record.write(tmp_path / name)
        for key, text in direct_files(record).items():
            assert paths[key].read_text() == text
        assert paths["density"].read_text() == ",".join(DENSITY_HEADER) + "\n"
