"""Command-line entry point for the experiment harness.

Subcommands map one-to-one onto the scenario runners; every run is a
deterministic function of the effective config (config file < flags) and
writes CSV tables plus a metadata sidecar under the output directory.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import scenarios
from .records import write_sweep
from .scenarios import (
    ScenarioConfig,
    bimodal_config,
    continuum_config,
    monomodal_config,
    open_loop_config,
    tracking_config,
)

_FIELDS = {f.name for f in fields(ScenarioConfig)}

_COMMANDS = {
    "regulate-mono": (monomodal_config, "regulate to the monomodal density"),
    "regulate-bimodal": (bimodal_config, "regulate to the bimodal density"),
    "track": (tracking_config, "track the time-varying density"),
    "open-loop": (open_loop_config, "uncontrolled swarm from a clumped start"),
    "continuum": (continuum_config, "finite-difference run of the controlled density law"),
    "sweep-n": (monomodal_config, "final KL across swarm sizes (inf = continuum)"),
    "sweep-noise": (monomodal_config, "final KL across feedback noise powers"),
}


def _add_common(parser):
    # Every config flag's dest is the ScenarioConfig field it overrides.
    parser.add_argument("--config", type=Path, help="JSON file with config field overrides")
    parser.add_argument("--out", type=Path, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n", dest="n_agents", type=int, help="number of agents")
    parser.add_argument("--kp", type=float)
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--grid-m", dest="grid_m", type=int)
    parser.add_argument("--bandwidth", type=float)
    parser.add_argument("--sample-every", dest="sample_every", type=float)
    parser.add_argument("--noise-dbw", dest="noise_power_dbw", type=float)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ringswarm",
        description="Swarm-on-a-ring density control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sweep-n":
            p.add_argument("--n-list", default=None,
                           help="comma-separated sizes, e.g. 1,5,50,inf")
            p.add_argument("--workers", type=int, default=None)
        if name == "sweep-noise":
            p.add_argument("--p-list", default=None,
                           help="comma-separated noise powers in dBW")
            p.add_argument("--seeds", type=int, default=5)
            p.add_argument("--workers", type=int, default=None)
    return parser


def _load_config(command: str, args) -> ScenarioConfig:
    factory, _ = _COMMANDS[command]
    config = factory()
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"ringswarm: cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            raise SystemExit(f"ringswarm: config {args.config} must hold a JSON object, "
                             f"got {raw!r}")
        bad = set(raw) - _FIELDS
        if bad:
            raise SystemExit(f"ringswarm: unknown config keys: {sorted(bad)}")
        raw.pop("scenario", None)  # the subcommand owns the scenario kind
        try:
            config = replace(config, **raw)
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"ringswarm: invalid config: {exc}")
    overrides = {name: getattr(args, name) for name in _FIELDS
                 if getattr(args, name, None) is not None}
    if overrides:
        try:
            config = replace(config, **overrides)
        except ValueError as exc:
            raise SystemExit(f"ringswarm: invalid flag value: {exc}")
    return config


def _out_dir(command: str, args) -> Path:
    root = Path(os.environ.get("RINGSWARM_OUT", "."))
    out = args.out if args.out is not None else Path("runs") / command
    return out if out.is_absolute() else root / out


def _parse_n_list(text: str):
    items = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() in ("inf", "infinity"):
            items.append("inf")
        else:
            try:
                n = int(token)
            except ValueError:
                raise SystemExit(f"ringswarm: bad --n-list entry {token!r}")
            if n < 1:
                raise SystemExit(f"ringswarm: --n-list entry {token!r} is below 1")
            items.append(n)
    if not items:
        raise SystemExit("ringswarm: --n-list is empty")
    return items


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    command = args.command
    try:
        config = _load_config(command, args)
        n_list = p_list = None
        if command == "sweep-n" and args.n_list:
            n_list = _parse_n_list(args.n_list)
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise SystemExit(f"ringswarm: --workers must be at least 1, got {args.workers}")
        if command == "sweep-noise" and args.seeds < 1:
            raise SystemExit(f"ringswarm: --seeds must be at least 1, got {args.seeds}")
        if command == "sweep-noise" and args.p_list:
            try:
                p_list = [float(p) for p in args.p_list.split(",")]
            except ValueError as exc:
                raise SystemExit(f"ringswarm: bad --p-list: {exc}")
            if not all(math.isfinite(p) for p in p_list):
                raise SystemExit(f"ringswarm: --p-list entries must be finite, got {args.p_list}")
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    outdir = _out_dir(command, args)

    try:
        if command == "sweep-n":
            rows = scenarios.run_scalability_sweep(config, n_list=n_list,
                                                   workers=args.workers)
            write_sweep(outdir, rows, asdict(config), {"sweep": "n_agents"})
            for param, kl, status in rows:
                print(f"N={param}: d_kl={kl:.6g} [{status}]")
        elif command == "sweep-noise":
            rows = scenarios.run_noise_sweep(config, p_list=p_list,
                                             n_seeds=args.seeds, workers=args.workers)
            write_sweep(outdir, rows, asdict(config),
                        {"sweep": "noise_power_dbw", "seeds_per_point": args.seeds})
            for param, kl, status in rows:
                print(f"P={param} dBW: mean d_kl={kl:.6g} [{status}]")
        else:
            if command == "continuum":
                record = scenarios.run_continuum_scenario(config)
            else:
                record = scenarios.run_microscopic(config)
            record.write(outdir)
            final = record.metrics[-1]
            print(f"{command}: t={final[0]:g} d_kl={final[1]:.6g} e_l2={final[2]:.6g} "
                  f"-> {outdir}")
    except (ValueError, RuntimeError) as exc:
        print(f"ringswarm: {exc}", file=sys.stderr)
        return 1
    return 0


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
