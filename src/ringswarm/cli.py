"""Command-line entry point for the experiment harness.

Subcommands map one-to-one onto the scenario runners; every run is a
deterministic function of the effective config (config file < flags) and
writes CSV tables plus a metadata sidecar under the output directory.
"""

import argparse
import json
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
# The fields a sweep sets for every member, so a config may not set them.
_SWEPT = {"sweep-n": {"n_agents", "record_agents", "record_density"},
          "sweep-noise": {"noise_power_dbw", "record_agents", "record_density"}}


def _checked(convert, valid, what):
    """An argparse type: the converted text, refused unless it is valid."""
    def parse(text: str):
        try:
            if valid(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_count = _checked(int, lambda n: n >= 1, "an integer of at least 1")
# A --n-list entry: a swarm size, or inf for the continuum run.
_size = _checked(lambda text: "inf" if text.lower() in ("inf", "infinity") else int(text),
                 lambda n: n == "inf" or n >= 1, "an integer of at least 1 or inf")


def _list_of(entry):
    """Comma-separated entries: empty ones are skipped, a list of none
    refused, and an entry that ``entry`` refuses named in the message."""
    def convert(token: str):
        try:
            return entry(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad entry {token!r}: {exc}") from None

    def parse(text: str) -> list:
        items = [convert(token.strip()) for token in text.split(",") if token.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"{text!r} holds no entry")
        return items
    return parse


def _add_common(parser):
    # Every config flag's dest is the ScenarioConfig field it overrides.
    parser.add_argument("--config", type=Path, help="JSON file with config field overrides")
    parser.add_argument("--out", type=Path, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n", dest="n_agents", type=int, help="number of agents")
    parser.add_argument("--kp", type=float)
    parser.add_argument("--t-end", dest="t_end", type=float)
    parser.add_argument("--dt", type=float)
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
            p.add_argument("--n-list", type=_list_of(_size),
                           help="comma-separated sizes, e.g. 1,5,50,inf")
        if name == "sweep-noise":
            p.add_argument("--p-list", type=_list_of(float),
                           help="comma-separated noise powers in dBW")
            p.add_argument("--seeds", type=_count, default=5)
        if name.startswith("sweep-"):
            p.add_argument("--workers", type=_count)
    return parser


def _load_config(parser, args) -> ScenarioConfig:
    """The command's defaults, then the config file's keys, then the flags,
    checked as the run, and each --p-list member, will see them."""
    config = _COMMANDS[args.command][0]()
    merged = {}
    if args.config is not None:
        try:
            merged = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(merged, dict):
            parser.error(f"config {args.config} must hold a JSON object, got {merged!r}")
        bad = set(merged) - _FIELDS
        if bad:
            parser.error(f"unknown config keys: {sorted(bad)}")
        if merged.get("scenario", config.scenario) != config.scenario:
            parser.error(f"config scenario {merged['scenario']!r} does not match "
                         f"the {args.command} command's {config.scenario!r}")
    merged.update((name, getattr(args, name)) for name in _FIELDS
                  if getattr(args, name, None) is not None)
    swept = sorted(_SWEPT.get(args.command, set()) & set(merged))
    if swept:
        parser.error(f"{args.command} sets {', '.join(swept)} for every member")
    try:
        config = replace(config, **merged)
        for power in getattr(args, "p_list", None) or ():
            replace(config, noise_power_dbw=power)
        return config
    except (TypeError, ValueError, OverflowError) as exc:
        parser.error(f"invalid config: {exc}")


def _out_dir(parser, args) -> Path:
    root = Path(os.environ.get("RINGSWARM_OUT", "."))
    out = args.out if args.out is not None else Path("runs") / args.command
    out = out if out.is_absolute() else root / out
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        parser.error(f"cannot write to {out}: {existing} is not a directory")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(parser, args)
        outdir = _out_dir(parser, args)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    command = args.command
    rows = ()  # a sweep's (param, d_kl, status) rows
    try:
        if command == "sweep-n":
            rows = scenarios.run_scalability_sweep(config, n_list=args.n_list,
                                                   workers=args.workers)
            write_sweep(outdir, rows, asdict(config), {"sweep": "n_agents"})
            for param, kl, status in rows:
                print(f"N={param}: d_kl={kl:.6g} [{status}]")
        elif command == "sweep-noise":
            rows = scenarios.run_noise_sweep(config, p_list=args.p_list,
                                             n_seeds=args.seeds, workers=args.workers)
            write_sweep(outdir, rows, asdict(config),
                        {"sweep": "noise_power_dbw", "seeds_per_point": args.seeds})
            for param, kl, status in rows:
                print(f"P={param} dBW: mean d_kl={kl:.6g} [{status}]")
        else:
            record = scenarios.run_scenario(config)
            record.write(outdir)
            final = record.metrics[-1]
            print(f"{command}: t={final[0]:g} d_kl={final[1]:.6g} e_l2={final[2]:.6g} "
                  f"-> {outdir}")
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"ringswarm: {exc}", file=sys.stderr)
        return 1
    # A sweep with a failed member has written and printed every row, and fails.
    return int(any(status != "ok" for _, _, status in rows))


def console_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
