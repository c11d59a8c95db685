"""Serialization of simulation runs to plot-ready CSV plus a metadata sidecar.

Floats are written with Python's shortest round-trip representation, so a
rerun with the same config and seed produces byte-identical files.  A run
record keeps its metrics as rows, but its agent and density samples as plain
arrays; one writer serves both sample files and formats each column where it
repeats only once (the agent ids or node angles per run, t per sample, the
last column while its array stays the same object, as a static target's
does).  Records have no value equality: two runs agree when the files they
write hold the same bytes.  The metadata sidecar echoes the full
configuration and library versions needed to replay a run; it deliberately
carries no timestamps.
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


def _strings(values: np.ndarray) -> list:
    return list(map(repr, values.tolist()))


def _sample_lines(keys, samples):
    """The lines of each ``(t, a, b)`` sample, one per key: t, the key, then
    that key's a and b; b is formatted again only when its array is not the
    previous sample's object."""
    b_last, b_strings = None, []
    for t, a, b in samples:
        if b is not b_last:
            b_last, b_strings = b, _strings(b)
        yield "\n".join(map(",".join, zip(repeat(str(t)), keys, _strings(a), b_strings))) + "\n"


def write_metadata(path: Path, sections: dict):
    """Plain ``key = value`` text, grouped by section, insertion-ordered."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(val)}" for key, val in entries.items())
        lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")


@dataclass(eq=False)
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
        ids = _strings(np.arange(self.agents[0][1].size)) if self.agents else []
        angles = _strings(self.node_angles) if self.density else []
        write_csv(paths["agents"], AGENTS_HEADER, _sample_lines(ids, self.agents))
        write_csv(paths["density"], DENSITY_HEADER, _sample_lines(angles, self.density))
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
