"""Command-line front end.

Subcommands fig1 / fig2 / compare / optimize run the corresponding sweep.
Settings come from defaults, then an optional config file (--config, INI
sections or the JSON equivalent), then flags; flags win. A subcommand takes
only the settings its experiment reads. Each run writes one
CSV table and prints a plain-text summary; the exit status is 0 only when
every check the experiment performs passed.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from typing import Any, Callable, Optional, Sequence

from .oracle import StationarityError
from .sweeps import EXPERIMENTS, RUNNERS, SETTINGS, load_config, make_spec


def _flag_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """Refuse a flag with its parser's message, as its config key is;
    argparse would print the parser's function name instead."""
    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


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
    # a subcommand offers only the flags its experiment reads; abbreviations
    # are off so fig1 cannot take --p as a prefix of --ptx
    for kind in EXPERIMENTS:
        cmd = sub.add_parser(kind, help=help_by_kind[kind], allow_abbrev=False)
        cmd.add_argument("--config", help="INI or JSON settings file")
        for setting in SETTINGS:
            if kind in setting.experiments:
                cmd.add_argument(setting.flag, dest=setting.field, type=_flag_type(setting.parse), help=setting.help)
    return parser


def _make_out_dir(path: str) -> None:
    """Create the directory of the --out table before any leg runs, so an
    unwritable one, or a directory in the table's place, is refused before
    the work rather than after it. An empty path, which would write
    nothing, is refused the same way."""
    if not path:
        raise ValueError("--out ([experiment] out) is empty: name the table file to write")
    parent = os.path.dirname(path)
    try:
        os.makedirs(parent or ".", exist_ok=True)
    except OSError as err:
        raise ValueError(f"--out {path!r}: cannot create its directory {parent!r}: {err.strerror}") from None
    if os.path.isdir(path):
        raise ValueError(f"--out {path!r} is a directory, not a table file")


def main(argv: Optional[Sequence[str]] = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    experiment, config_path = flags.pop("experiment"), flags.pop("config")
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(config_path) if config_path else {}
        spec = make_spec(experiment, config, **flags)
        if spec.out_path is None:
            spec = replace(spec, out_path=f"{experiment}.csv")
        _make_out_dir(spec.out_path)
        result = RUNNERS[spec.experiment](spec)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StationarityError as err:
        # a failed check rather than a rejected setting: work already ran
        print(f"error: {err}", file=sys.stderr)
        return 1
    if result.summary:
        print(result.summary)
    return result.exit_code
