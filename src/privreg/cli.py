"""Command-line entry point: privreg <subcommand> --config <path>."""

from __future__ import annotations

import argparse
import sys

from .experiments import COMMANDS, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privreg",
        description="Train, verify, and attack private-SGD mechanisms from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides $PRIVREG_OUT and the config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.command, args.config, out_dir=args.out, seed_override=args.seed)


if __name__ == "__main__":
    sys.exit(main())
