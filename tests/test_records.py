"""The CSV writer against the direct row formatter: every value of every
row through ``str``, joined by commas."""

import numpy as np
import pytest

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


def signed_zeros_and_held_columns():
    # -0.0 next to 0.0, agent id 1 at t = 1.0 (and x = 1.0), and inputs and
    # a target that stay the same object across samples and also change to
    # a new array equal to the old one but for the sign of zero: a cache
    # keyed by value, or by equal contents, writes a wrong string here
    held = np.array([1.0, -1.5, 0.0])
    static = np.array([-0.0, 0.25, 1.0, 1e-300])
    return RunRecord(
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


def last_column_returns_to_its_first_object():
    # the target is one object, then a new array, then the first object
    # again: the pieces of the last column are rebuilt at each change of
    # object, back to the first one included
    first = np.array([0.5, -0.0, 2.0])
    other = np.array([-1.0, 0.0, 3.0])
    return RunRecord(
        config={},
        metrics=[(0.0, 0.0, 0.0, 0.0)],
        agents=[(0.0, np.array([0.1, 0.2, 0.3]), first),
                (0.5, np.array([0.4, 0.5, 0.6]), first),
                (1.0, np.array([0.7, 0.8, 0.9]), other),
                (1.5, np.array([1.0, 1.1, 1.2]), first)],
        node_angles=np.array([-np.pi, 0.0, 1.5]),
        density=[(0.0, np.array([1.0, 2.0, 3.0]), first),
                 (0.5, np.array([4.0, 5.0, 6.0]), other),
                 (1.0, np.array([7.0, 8.0, 9.0]), first)],
    )


def one_agent_and_one_node():
    # one line per sample in each file
    return RunRecord(
        config={},
        metrics=[(0.0, 0.0, 0.0, 0.0), (0.1, 0.0, 0.0, 0.0)],
        agents=[(0.0, np.array([-0.0]), np.array([0.0])),
                (0.1, np.array([3.0]), np.array([-2.5]))],
        node_angles=np.array([-np.pi]),
        density=[(0.0, np.array([1.0]), np.array([0.5])),
                 (0.1, np.array([-0.0]), np.array([0.5]))],
    )


def agents_wider_than_the_grid():
    # five agents against two nodes, the reverse of the first input's widths
    # (three agents, four nodes): each file keeps its own pieces
    return RunRecord(
        config={},
        metrics=[(0.0, 0.0, 0.0, 0.0)],
        agents=[(0.0, np.linspace(-1.0, 1.0, 5), np.zeros(5)),
                (0.25, np.linspace(-2.0, 2.0, 5), np.full(5, -0.0))],
        node_angles=np.array([-np.pi, 0.0]),
        density=[(0.0, np.array([0.25, 1e-300]), np.array([1.0, 1.0])),
                 (0.25, np.array([2.0 / 3.0, 0.0]), np.array([1.0, 1.0]))],
    )


@pytest.mark.parametrize("make_record", [signed_zeros_and_held_columns,
                                         last_column_returns_to_its_first_object,
                                         one_agent_and_one_node,
                                         agents_wider_than_the_grid])
def test_write_matches_the_direct_row_formatter(tmp_path, make_record):
    record = make_record()
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
