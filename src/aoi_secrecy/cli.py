"""Command-line front end.

Subcommands fig1 / fig2 / compare / optimize run the corresponding sweep.
Settings come from defaults, then an optional config file (--config, INI
sections or the JSON equivalent), then flags; flags win. Each run writes one
CSV table and prints a plain-text summary; the exit status is 0 only when
every check the experiment performs passed.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .sweeps import EXPERIMENTS, RUNNERS, SETTINGS, load_config, make_spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoi-secrecy",
        description="Secrecy-age experiments: closed forms, truncated-chain oracle, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    help_by_kind = {
        "fig1": "average secrecy age versus the p/q ratio",
        "fig2": "objective p_tx (1 - P_out) versus the transmit probability",
        "compare": "cross-validate closed form, oracle and Monte Carlo on a grid",
        "optimize": "closed-form optimal p_tx versus a fine grid search",
    }
    for kind in EXPERIMENTS:
        cmd = sub.add_parser(kind, help=help_by_kind[kind])
        cmd.add_argument("--config", help="INI or JSON settings file")
        for setting in SETTINGS:
            cmd.add_argument(setting.flag, dest=setting.field, type=setting.parse, help=setting.help)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config) if args.config else {}
        spec = make_spec(args.experiment, config, **{s.field: getattr(args, s.field) for s in SETTINGS})
        if spec.out_path is None:
            spec = replace(spec, out_path=f"{args.experiment}.csv")
        result = RUNNERS[spec.experiment](spec)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if result.summary:
        print(result.summary)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
