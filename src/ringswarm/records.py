"""Serialization of simulation runs to plot-ready CSV plus a metadata sidecar.

Floats are written with Python's shortest round-trip representation, so a
rerun with the same config and seed produces byte-identical files.  The
metadata sidecar echoes the full configuration and library versions needed
to replay a run; it deliberately carries no timestamps.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

METRICS_HEADER = ("t", "d_kl", "e_l2", "u_max")
AGENTS_HEADER = ("t", "id", "x", "u")
DENSITY_HEADER = ("t", "node_angle", "rho", "rho_d")
SWEEP_HEADER = ("param", "d_kl_final", "status")


def _fmt(value):
    if type(value) is float:  # the bulk of every CSV
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def write_csv(path: Path, header, rows):
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        out.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)


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
    """Everything one run produced: config echo, sampled rows, extra metadata."""

    config: dict
    metadata: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    agents: list = field(default_factory=list)
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
        write_csv(paths["metrics"], METRICS_HEADER, self.metrics)
        write_csv(paths["agents"], AGENTS_HEADER, self.agents)
        write_csv(paths["density"], DENSITY_HEADER, self.density)
        write_metadata(paths["metadata"], {"config": self.config, "run": self.metadata})
        return paths


def write_sweep(outdir, rows, config: dict, metadata: dict) -> dict:
    """Write a sweep table (param, d_kl_final, status) and its sidecar."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"sweep": outdir / "sweep.csv", "metadata": outdir / "metadata.txt"}
    write_csv(paths["sweep"], SWEEP_HEADER, rows)
    write_metadata(paths["metadata"], {"config": config, "run": metadata})
    return paths
