"""Command-line interface: run sweep experiments from config files.

Subcommands map to the experiment kinds: ``chain`` (chain-sweep), ``route``
(route-compare), ``multipath`` (multipath-compare). Exit codes: 0 success,
1 config error, 2 I/O error, 3 runtime error (the experiment itself failed);
each error is one line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .harness import (ConfigError, ExperimentConfig, build_metadata,
                      run_experiment, write_results)

_COMMAND_KINDS = {
    "chain": "chain-sweep",
    "route": "route-compare",
    "multipath": "multipath-compare",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroute",
        description="Entanglement distribution experiments on repeater networks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, kind in _COMMAND_KINDS.items():
        sub = subparsers.add_parser(command, help=f"run a {kind} experiment")
        sub.add_argument("--config", required=True, help="experiment config (JSON)")
        sub.add_argument("--out", required=True, help="output file")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--seed-override", type=int, default=None,
                         help="replace the config's seed list with one seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
        expected = _COMMAND_KINDS[args.command]
        if config.kind != expected:
            raise ConfigError(
                f"kind: config declares {config.kind!r} but subcommand expects {expected!r}")
        if args.seed_override is not None:
            config = dataclasses.replace(config, seeds=(args.seed_override,))
    except (ConfigError, OSError) as exc:
        print(f"entroute: config error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_experiment(config)
    except Exception as exc:  # noqa: BLE001 -- any failure mid-run is exit 3
        print(f"entroute: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        write_results(rows, args.format, args.out, build_metadata(config))
    except OSError as exc:
        print(f"entroute: i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
