"""Serialization of simulation runs to plot-ready CSV plus a metadata sidecar.

Floats are written with Python's shortest round-trip representation, so a
rerun with the same config and seed produces byte-identical files.  A run
record keeps its metrics as rows, but its agent and density samples as plain
arrays; the writer formats each column where it repeats only once (the node
angles and agent ids per run, t per sample, a target's samples while its
array stays the same object) and writes the file one sample at a time.  The
metadata sidecar echoes the full configuration and library versions needed
to replay a run; it deliberately carries no timestamps.
"""

from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

METRICS_HEADER = ("t", "d_kl", "e_l2", "u_max")
AGENTS_HEADER = ("t", "id", "x", "u")
DENSITY_HEADER = ("t", "node_angle", "rho", "rho_d")
SWEEP_HEADER = ("param", "d_kl_final", "status")


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header, blocks):
    """The header line, then each text block of ``blocks`` (whole lines) as
    the iterable yields it."""
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(blocks)


def _row_lines(rows):
    """One line per row of floats, ints and text; str(float) is the shortest
    round-trip repr."""
    return (",".join(map(str, row)) + "\n" for row in rows)


def _lines(*columns):
    """The lines of one sample, from its columns of strings; a value that
    repeats down the sample is ``itertools.repeat``."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _strings(values: np.ndarray) -> list:
    return list(map(str, values.tolist()))


def _agent_blocks(samples):
    """The agents.csv lines of each ``(t, x, u)`` sample; the id strings are
    built once, from the first sample's swarm."""
    ids = list(map(str, range(samples[0][1].size))) if samples else []
    for t, x, u in samples:
        yield _lines(repeat(str(t)), ids, _strings(x), _strings(u))


def _density_blocks(node_angles: np.ndarray, samples):
    """The density.csv lines of each ``(t, rho, rho_d)`` sample at the
    ``node_angles``; rho_d is formatted again only when the sample's array
    is not the previous sample's object."""
    angles = _strings(node_angles) if samples else []
    rho_d_last, rho_d_strings = None, []
    for t, rho, rho_d in samples:
        if rho_d is not rho_d_last:
            rho_d_last, rho_d_strings = rho_d, _strings(rho_d)
        yield _lines(repeat(str(t)), angles, _strings(rho), rho_d_strings)


def _same_samples(first, second) -> bool:
    """Whether two lists of ``(t, *arrays)`` samples hold equal values."""
    return len(first) == len(second) and all(
        t == t2 and all(map(np.array_equal, arrays, arrays2))
        for (t, *arrays), (t2, *arrays2) in zip(first, second))


def write_metadata(path: Path, sections: dict):
    """Plain ``key = value`` text, grouped by section, insertion-ordered."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(val)}" for key, val in entries.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


@dataclass
class RunRecord:
    """Everything one run produced: config echo, extra metadata, one metrics
    row per sample, and the sampled arrays: ``agents`` holds ``(t, x, u)``
    per sample (positions and inputs by agent id), ``density`` holds
    ``(t, rho, rho_d)`` per sample, the fields at the ``node_angles``."""

    config: dict
    metadata: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    agents: list = field(default_factory=list)
    node_angles: np.ndarray = None
    density: list = field(default_factory=list)

    def __eq__(self, other):
        """Equal fields, the sampled arrays compared value by value."""
        if not isinstance(other, RunRecord):
            return NotImplemented
        return ((self.config, self.metadata, self.metrics)
                == (other.config, other.metadata, other.metrics)
                and np.array_equal(self.node_angles, other.node_angles)
                and _same_samples(self.agents, other.agents)
                and _same_samples(self.density, other.density))

    def final_kl(self) -> float:
        return float(self.metrics[-1][1])

    def write(self, outdir) -> dict:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {
            "metrics": outdir / "metrics.csv",
            "agents": outdir / "agents.csv",
            "density": outdir / "density.csv",
            "metadata": outdir / "metadata.txt",
        }
        write_csv(paths["metrics"], METRICS_HEADER, _row_lines(self.metrics))
        write_csv(paths["agents"], AGENTS_HEADER, _agent_blocks(self.agents))
        write_csv(paths["density"], DENSITY_HEADER,
                  _density_blocks(self.node_angles, self.density))
        write_metadata(paths["metadata"], {"config": self.config, "run": self.metadata})
        return paths


def write_sweep(outdir, rows, config: dict, metadata: dict) -> dict:
    """Write a sweep table (param, d_kl_final, status) and its sidecar."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"sweep": outdir / "sweep.csv", "metadata": outdir / "metadata.txt"}
    write_csv(paths["sweep"], SWEEP_HEADER, _row_lines(rows))
    write_metadata(paths["metadata"], {"config": config, "run": metadata})
    return paths
