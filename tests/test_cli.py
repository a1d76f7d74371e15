"""Sweep harness and command-line front end.

Runs the real subcommands end to end on small grids: config loading and
precedence, CSV schemas, skip logging, pass/fail exit codes, and byte-level
determinism of outputs.
"""

import argparse
import ast
import contextlib
import csv
import functools
import io
import json
import logging
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import aoi_secrecy
from aoi_secrecy import simulate, sweeps
from aoi_secrecy.analytics import (
    OutageConvention,
    closed_form_report,
    objective,
    objective_curve,
    optimal_ptx,
)
from aoi_secrecy.cli import build_parser, main
from aoi_secrecy.model import ChannelParams, Policy, SecrecyThreshold
from aoi_secrecy.oracle import (
    StationarityError,
    build_truncated_chain,
    outage_truncation_bound,
    truncation_for_mean_tol,
)
from aoi_secrecy.sweeps import (
    EXPERIMENTS,
    METHODS,
    SETTINGS,
    SweepSpec,
    _fmt,
    load_config,
    make_spec,
    run_compare,
    run_fig2_sweep,
    run_optimize,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

INI_TEXT = """
[experiment]
kind = compare
methods = closed_form, monte_carlo
convention = paper
seed = 77
out = from_config.csv

[grid]
p = 0.8
q = 0.2, 0.5
ptx = 0.5
eta = 5

[sim]
horizon = 9000
replications = 3
"""


@pytest.fixture
def no_leg_runs(monkeypatch):
    """Fail the test if any method leg is called."""
    for method in sweeps.METHODS:
        monkeypatch.setitem(sweeps._LEGS, method, lambda *a: pytest.fail("a leg ran"))


def referenced_names(tree):
    """Every name the module reads, bare or as an attribute, except where
    it is read inside the def or class that defines it."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestConfigLoading:
    def test_ini_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(INI_TEXT)
        overrides = load_config(str(path))
        assert overrides["experiment"] == "compare"
        assert overrides["methods"] == ("closed_form", "monte_carlo")
        assert overrides["convention"] is OutageConvention.PAPER_PRINTED
        assert overrides["seed"] == 77
        assert overrides["out_path"] == "from_config.csv"
        assert overrides["q_values"] == (0.2, 0.5)
        assert overrides["eta_values"] == (5,)
        assert overrides["horizon"] == 9000

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            '{"experiment": {"kind": "fig2", "convention": "strict"},'
            ' "grid": {"p": [0.7], "q": [0.2], "eta": [5], "ptx": [0.25, 0.5]}}'
        )
        overrides = load_config(str(path))
        assert overrides["experiment"] == "fig2"
        assert overrides["convention"] is OutageConvention.STRICT_DEFINITION
        assert overrides["ptx_values"] == (0.25, 0.5)
        assert overrides["p_values"] == (0.7,)

    @pytest.mark.parametrize("json_text, ini_text, expected", [
        # a JSON number is read as its text, like the INI line that spells it
        ('{"grid": {"q": 0.2}}', "[grid]\nq = 0.2\n", {"q_values": (0.2,)}),
        # a JSON list is read as its entries joined by commas
        ('{"grid": {"q": [0.2, "0.5"], "eta": [5]}}', "[grid]\nq = 0.2, 0.5\neta = 5\n",
         {"q_values": (0.2, 0.5), "eta_values": (5,)}),
        # % is literal text in both syntaxes, never an interpolation
        ('{"experiment": {"out": "a%b.csv"}}', "[experiment]\nout = a%b.csv\n", {"out_path": "a%b.csv"}),
        ('{"experiment": {"seed": 9, "out": "run_%(seed)s.csv"}}',
         "[experiment]\nseed = 9\nout = run_%(seed)s.csv\n", {"seed": 9, "out_path": "run_%(seed)s.csv"}),
    ], ids=["scalar_grid", "list_grid", "percent", "percent_name"])
    def test_json_spells_the_ini_entries(self, tmp_path, json_text, ini_text, expected):
        (tmp_path / "run.json").write_text(json_text)
        (tmp_path / "run.ini").write_text(ini_text)
        assert load_config(str(tmp_path / "run.json")) == load_config(str(tmp_path / "run.ini")) == expected

    @pytest.mark.parametrize("json_text, ini_text, message", [
        # keys match exactly, as flags do
        ('{"sim": {"Horizon": 5000}}', "[sim]\nHorizon = 5000\n", "unknown config entry [sim] Horizon"),
        # an integer setting takes integer text, whichever syntax spells it
        ('{"sim": {"horizon": 20000.0}}', "[sim]\nhorizon = 20000.0\n",
         "config entry [sim] horizon: expected an integer, got '20000.0'"),
    ], ids=["key_case", "integral_float"])
    def test_refused_in_both_syntaxes(self, tmp_path, json_text, ini_text, message):
        for name, text in (("run.json", json_text), ("run.ini", ini_text)):
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                load_config(str(path))
            assert message in str(err.value)

    @pytest.mark.parametrize("name, text, message", [
        # configparser would feed [DEFAULT] keys to every section, and a
        # file holding only [DEFAULT] would load as no settings at all
        ("default_only.ini", "[DEFAULT]\nhorizon = 5000\n", "unknown config entry [DEFAULT] horizon"),
        ("default_beside_sim.ini", "[DEFAULT]\nhorizon = 5000\n[sim]\nreplications = 4\n",
         "unknown config entry [DEFAULT] horizon"),
        # a repeat is refused in JSON as INI refuses it, not kept last-wins
        ("repeated_key.json", '{"sim": {"horizon": 5000, "horizon": 7000}}', "config entry [sim] horizon repeated"),
        ("repeated_section.json", '{"sim": {"horizon": 5000}, "sim": {"replications": 4}}',
         "config section [sim] repeated"),
        ("repeated_key.ini", "[sim]\nhorizon = 5000\nhorizon = 7000\n", "option 'horizon' in section 'sim' already exists"),
        ("repeated_section.ini", "[sim]\nhorizon = 5000\n[sim]\nreplications = 4\n", "section 'sim' already exists"),
        # a JSON config is an object of sections, each an object of entries
        ("list_top.json", '[{"sim": {"horizon": 5000}}]', "config JSON must be an object of sections"),
        ("scalar_section.json", '{"sim": 5000}', "config section 'sim' must hold key/value pairs"),
    ], ids=["default_only", "default_beside_sim", "repeated_key_json", "repeated_section_json",
            "repeated_key_ini", "repeated_section_ini", "list_top_json", "scalar_section_json"])
    def test_default_section_and_repeats_refused(self, no_leg_runs, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(str(path))
        assert main(["fig1", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err

    def test_empty_default_section_loads(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[DEFAULT]\n[sim]\nhorizon = 5000\n")
        assert load_config(str(path)) == {"horizon": 5000}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nfrequency = 0.3\n")
        with pytest.raises(ValueError, match="unknown config entry"):
            load_config(str(path))

    def test_flag_beats_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(INI_TEXT)
        spec = make_spec("compare", load_config(str(path)), seed=123)
        assert spec.seed == 123  # flag wins
        assert spec.horizon == 9000  # config survives where no flag is given

    def test_methods_normalized(self):
        spec = make_spec("compare", None, methods=("monte_carlo", "closed_form", "closed_form"))
        assert spec.methods == ("closed_form", "monte_carlo")

    def test_compare_needs_two_methods(self):
        with pytest.raises(ValueError, match="at least two"):
            make_spec("compare", None, methods=("closed_form",))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown methods"):
            make_spec("fig1", None, methods=("quadrature",))

    def test_integers_take_base_prefixes(self):
        # flags and config keys share one integer parser: int(text, 0)
        parser = build_parser()
        assert parser.parse_args(["fig1", "--seed", " 0x10 "]).seed == 16
        with pytest.raises(SystemExit):
            parser.parse_args(["fig1", "--seed", "010"])


# one distinct, non-default text value per SweepSpec field, valid for every
# experiment that reads the field
SAMPLE_VALUES = {
    "methods": "oracle, closed_form",
    "convention": "paper",
    "seed": "0x2a",
    "out_path": "elsewhere.csv",
    "p_values": "0.25, 0.5",
    "q_values": "0.3",
    "ptx_values": "0.4, 1.0",
    "ratio_values": "1.5, 2",
    "eta_values": "3, 7",
    "horizon": "12345",
    "replications": "5",
    "workers": "3",
    "optimize_step": "0.01",
}


# each experiment's built-in values, written out: what make_spec(kind)
# gives with no config file and no flags
BUILT_IN = {
    "fig1": dict(q_values=(0.1, 0.2, 0.3), ptx_values=(0.5, 1.0),
                 ratio_values=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)),
    "fig2": dict(q_values=(0.2, 0.4), eta_values=(5, 10), p_values=(0.8,),
                 ptx_values=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
                             0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)),
    "compare": dict(methods=("closed_form", "oracle", "monte_carlo"), p_values=(0.3, 0.8),
                    q_values=(0.2, 0.5), ptx_values=(0.5, 1.0), eta_values=(5,)),
    "optimize": dict(q_values=(0.1, 0.2, 0.3, 0.5), eta_values=(2, 4, 5, 8), p_values=(0.3, 0.8)),
}


class TestSettingsTable:
    def test_every_spec_field_has_one_row(self):
        rows = [s.field for s in SETTINGS]
        assert sorted(rows) == sorted(f.name for f in fields(SweepSpec) if f.name != "experiment")
        assert sorted(rows) == sorted(SAMPLE_VALUES)

    @pytest.mark.parametrize("fmt", ["ini", "json"])
    @pytest.mark.parametrize("setting", [*SETTINGS, None], ids=lambda s: getattr(s, "field", "built_in"))
    def test_config_key_and_flag_agree(self, tmp_path, setting, fmt):
        # None: an empty config file and no flags, on every experiment
        if setting is None:
            kinds, entries, argv = EXPERIMENTS, {}, []
        else:
            kinds, value = setting.experiments, SAMPLE_VALUES[setting.field]
            entries, argv = {setting.section: {setting.key: value}}, [setting.flag, value]
        # a simulation setting is read only beside a monte_carlo leg
        if setting is not None and setting.field in sweeps._MONTE_CARLO_ONLY:
            entries.setdefault("experiment", {})["methods"] = "closed_form, monte_carlo"
            argv += ["--methods", "closed_form, monte_carlo"]
        path = tmp_path / f"one.{fmt}"
        if fmt == "ini":
            path.write_text("".join(
                f"[{section}]\n" + "".join(f"{key} = {v}\n" for key, v in body.items())
                for section, body in entries.items()
            ))
        else:
            path.write_text(json.dumps(entries))
        # on every experiment that reads the setting (every one for None)
        for kind in kinds:
            from_config = make_spec(kind, load_config(str(path)))
            flags = vars(build_parser().parse_args([kind, *argv]))
            del flags["experiment"], flags["config"]
            from_flag = make_spec(kind, None, **flags)
            assert from_config == from_flag
            if setting is None:
                assert from_config == make_spec(kind) == SweepSpec(experiment=kind, **BUILT_IN[kind])
            else:
                assert from_config != make_spec(kind)

    @pytest.mark.parametrize(
        "kind, setting",
        [(kind, s) for kind in EXPERIMENTS for s in SETTINGS if kind not in s.experiments],
        ids=lambda v: getattr(v, "field", v),
    )
    def test_unread_setting_refused(self, no_leg_runs, tmp_path, capsys, kind, setting):
        value = SAMPLE_VALUES[setting.field]
        # the subcommand does not offer the flag
        with pytest.raises(SystemExit) as exit_:
            main([kind, setting.flag, value])
        assert exit_.value.code == 2
        capsys.readouterr()
        # the config key is refused by name before any leg runs
        path = tmp_path / "one.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = {value}\n")
        assert main([kind, "--config", str(path)]) == 2
        named = f"{kind} does not read {setting.flag} ([{setting.section}] {setting.key})"
        assert named in capsys.readouterr().err
        # and so is a library spec that sets it
        with pytest.raises(ValueError) as err:
            replace(make_spec(kind), **{setting.field: setting.parse(value)})
        assert named in str(err.value)

    @pytest.mark.parametrize(
        "kind, setting",
        [(kind, s) for s in SETTINGS if s.field in sweeps._MONTE_CARLO_ONLY for kind in s.experiments],
        ids=lambda v: getattr(v, "field", v),
    )
    def test_simulation_setting_refused_without_monte_carlo(self, no_leg_runs, tmp_path, capsys, kind, setting):
        # the subcommand offers the flag, but only a monte_carlo leg reads
        # it: it is refused as unread, before checks that only Monte Carlo
        # needs (each value but the seed would fail one of them if read)
        methods = "closed_form,oracle" if kind == "compare" else "closed_form"
        value = {"seed": "0x2a", "horizon": "1", "replications": "1"}[setting.field]
        named = f"error: {kind} does not read {setting.flag} ([{setting.section}] {setting.key}) without monte_carlo"
        path = tmp_path / "one.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = {value}\n")
        for argv in ([kind, "--methods", methods, setting.flag, value],
                     [kind, "--methods", methods, "--config", str(path)]):
            assert main(argv) == 2
            assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [named]
        with pytest.raises(ValueError, match="without monte_carlo"):
            replace(make_spec(kind), methods=tuple(methods.split(",")), **{setting.field: setting.parse(value)})

    @pytest.mark.parametrize("argv", [
        ["optimize", "--methods", "monte_carlo", "--ptx", "0.3", "--workers", "9", "--seed", "5",
         "--horizon", "7"],
        ["optimize", "--q", "0.2", "--eta", "5", "--p", "0.8", "--methods", "monte_carlo", "--ptx", "0.3"],
        ["fig1", "--q", "0.2", "--ptx", "0.5", "--ratio", "2", "--p", "0.3", "--eta", "7", "--step", "0.01"],
        ["fig1", "--convention", "paper"],
        # no abbreviations: --p is not taken as a prefix of fig1's --ptx
        ["fig1", "--p", "0.3"],
    ])
    def test_ignored_flags_refused(self, no_leg_runs, argv):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2

    def test_readme_flag_table_matches_parser(self):
        # README's "Command line" table lists, per subcommand, the flags it
        # takes and the config key each one shares
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        header = next(line for line in lines if line.startswith("| flag | config key |"))
        columns = [cell.strip() for cell in header.strip("|").split("|")]
        documented = {kind: set() for kind in EXPERIMENTS}
        keys = {}
        for line in lines:
            if not line.startswith("| `--"):
                continue
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            flag = cells[0].strip("`").split()[0]
            keys[flag] = cells[1]
            for kind in EXPERIMENTS:
                if cells[columns.index(kind)] == "x":
                    documented[kind].add(flag)
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert documented == {
            kind: {o for action in cmd._actions for o in action.option_strings} - {"-h", "--help"}
            for kind, cmd in sub.choices.items()
        }
        assert keys == {"--config": "", **{s.flag: f"`[{s.section}] {s.key}`" for s in SETTINGS}}

    def test_experiments_listed_once(self):
        # each subcommand's help line is its entry in the sweeps table;
        # cli.py names no experiment, and make_spec(kind) is the one way to
        # build a built-in spec
        table = {kind: help_line for kind, (help_line, _) in sweeps._EXPERIMENTS.items()}
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert {action.dest: action.help for action in sub._choices_actions} == table
        assert EXPERIMENTS == tuple(table) == ("fig1", "fig2", "compare", "optimize")
        source = Path(aoi_secrecy.cli.__file__).read_text(encoding="utf-8")
        assert not re.findall(rf"\b(?:{'|'.join(EXPERIMENTS)})\b", source)
        assert not [line for line in table.values() if line in source]
        assert not hasattr(aoi_secrecy, "default_spec") and not hasattr(sweeps, "default_spec")

    def test_public_surface_is_called_or_kept(self):
        # an export is called by the package outside its own definition,
        # read by the benchmark, or named in README's kept-on-purpose sentence
        text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
        sentence = re.search(r"kept as public API on purpose[^:]*: (.*?)\.(?: |$)", text).group(1)
        kept = set(re.findall(r"`([\w.]+)`", sentence))
        assert kept
        for name in kept:
            functools.reduce(getattr, name.split("."), aoi_secrecy)
        read = set()
        for path in [*Path(aoi_secrecy.__file__).parent.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
            read |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
        assert set(aoi_secrecy.__all__) - read - kept == set()


class TestSpecValidation:
    def test_methods_rules_hold_for_library_specs(self):
        grids = dict(p_values=(0.8,), q_values=(0.2,), ptx_values=(0.5,), eta_values=(5,))
        spec = SweepSpec(experiment="compare", methods=("monte_carlo", "closed_form"), **grids)
        assert spec.methods == ("closed_form", "monte_carlo")
        with pytest.raises(ValueError, match="at least two"):
            SweepSpec(experiment="compare", methods=("closed_form",), **grids)
        with pytest.raises(ValueError, match="nonempty"):
            SweepSpec(experiment="fig1", methods=(), q_values=(0.2,), ptx_values=(0.5,), ratio_values=(1,))
        # without a monte_carlo leg no simulation setting is read
        with pytest.raises(ValueError, match=r"compare does not read --replications \(\[sim\] replications\) without"):
            SweepSpec(experiment="compare", methods=("closed_form", "oracle"), replications=1, **grids)

    def test_grid_ranges(self):
        with pytest.raises(ValueError):
            make_spec("nope")
        base = make_spec("compare")
        with pytest.raises(ValueError):
            SweepSpec(experiment="compare", methods=base.methods, p_values=(1.5,),
                      q_values=(0.2,), ptx_values=(0.5,), eta_values=(5,))
        with pytest.raises(ValueError):
            SweepSpec(experiment="compare", methods=base.methods, p_values=(0.8,),
                      q_values=(0.2,), ptx_values=(0.0,), eta_values=(5,))
        with pytest.raises(ValueError):
            SweepSpec(experiment="compare", methods=base.methods, p_values=(0.8,),
                      q_values=(0.2,), ptx_values=(0.5,), eta_values=(0,))
        # every route takes eta up to MAX_ETA, Monte Carlo included
        grids = dict(p_values=(0.8,), q_values=(0.2,), ptx_values=(0.5,))
        SweepSpec(experiment="compare", methods=base.methods, eta_values=(10**9, sweeps.MAX_ETA), **grids)
        assert 10**9 <= sweeps.MAX_ETA < 10**12
        for methods in (("monte_carlo",), ("closed_form",)):
            with pytest.raises(ValueError, match=f"eta grid values must be integers from 1 to {sweeps.MAX_ETA}"):
                SweepSpec(experiment="fig2", methods=methods, eta_values=(5, sweeps.MAX_ETA + 1), **grids)

    def test_required_grids_per_experiment(self):
        with pytest.raises(ValueError, match="ratio_values"):
            SweepSpec(experiment="fig1", q_values=(0.2,), ptx_values=(0.5,))
        # every missing grid is named at once
        with pytest.raises(ValueError, match="fig2 needs nonempty grids: p_values, eta_values"):
            SweepSpec(experiment="fig2", q_values=(0.2,), ptx_values=(0.5,))

    def test_misc_bounds(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SweepSpec(experiment="fig1", q_values=(0.2,), ptx_values=(0.5,),
                      ratio_values=(1,), workers=0)
        with pytest.raises(ValueError):
            SweepSpec(experiment="optimize", q_values=(0.2,), eta_values=(2,),
                      p_values=(0.5,), optimize_step=0.0)
        # each probe scores its whole grid in one numpy pass: at 1e-6 its
        # grid-sized arrays trace about 30 MB and the default 64 probes take
        # about 0.8 s, and both grow tenfold with each tenfold finer step
        with pytest.raises(ValueError, match="10000000 grid points"):
            SweepSpec(experiment="optimize", q_values=(0.2,), eta_values=(2,),
                      p_values=(0.5,), optimize_step=1e-7)


class TestFig1Command:
    def test_formats_and_skips(self, tmp_path, caplog):
        out = tmp_path / "fig1.csv"
        with caplog.at_level(logging.WARNING, logger="aoi_secrecy.sweeps"):
            code = main([
                "fig1", "--out", str(out),
                "--q", "0.2,0.3", "--ptx", "0.5,1.0", "--ratio", "1,2,3,4,5,6",
            ])
        assert code == 0
        skips = [message for message in caplog.messages if "exceeds 1" in message]
        # once per skipped (q, ratio) pair, not once per p_tx as well
        assert len(skips) == len(set(skips)) == 1 + 3
        rows = read_csv(out)
        # q=0.2 keeps ratios 1..5, q=0.3 keeps 1..3, each for two ptx values
        assert len(rows) == (5 + 3) * 2
        assert list(rows[0]) == ["q", "p_tx", "ratio", "p", "avg_secrecy_age_closed_form"]
        for row in rows:
            assert float(row["p"]) == pytest.approx(float(row["q"]) * float(row["ratio"]), abs=1e-9)
            assert float(row["avg_secrecy_age_closed_form"]) > 0.0

    def test_oracle_truncation_raised_to_meet_mean_tolerance(self, tmp_path):
        # MIN_TRUNCATION is a floor: at N=400 the oracle mean is 2e-6 low
        # here, so the leg runs at the N=474 the mean tolerance needs, as
        # compare does
        out = tmp_path / "fig1.csv"
        code = main([
            "fig1", "--methods", "closed_form,oracle", "--q", "0.08", "--ptx", "0.5",
            "--ratio", "2", "--out", str(out),
        ])
        assert code == 0
        (row,) = read_csv(out)
        closed = float(row["avg_secrecy_age_closed_form"])
        assert float(row["avg_secrecy_age_oracle"]) == pytest.approx(closed, abs=1e-6)

    def test_unmeetable_oracle_point_rejected_before_any_leg(self, no_leg_runs, capsys):
        # q=0.01 at p_tx=0.5 needs N=4273, above MAX_TRUNCATION
        code = main(["fig1", "--methods", "closed_form,oracle", "--q", "0.2,0.01", "--ptx", "0.5", "--ratio", "2"])
        assert code == 2
        assert "needs truncation 4273 > MAX_TRUNCATION 4000" in capsys.readouterr().err

    def test_default_out_path_in_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["fig1", "--q", "0.2", "--ptx", "1.0", "--ratio", "2"])
        assert code == 0
        assert (tmp_path / "fig1.csv").exists()

    def test_out_path_directories_created(self, tmp_path):
        out = tmp_path / "results" / "nested" / "fig1.csv"
        code = main(["fig1", "--q", "0.2", "--ptx", "1.0", "--ratio", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()

    # a regular file where the table's directory would go, and a directory
    # where the table would go
    @pytest.mark.parametrize("name, message", [
        ("taken/compare.csv", "': cannot create its directory"),
        ("taken_dir", "' is a directory"),
    ])
    def test_unwritable_out_refused_before_any_leg(self, no_leg_runs, tmp_path, capsys, name, message):
        (tmp_path / "taken").write_text("")
        (tmp_path / "taken_dir").mkdir()
        out = tmp_path / name
        code = main(["compare", "--config", str(ROOT / "configs" / "compare_quick.ini"), "--out", str(out)])
        assert code == 2
        assert f"--out '{out}{message}" in capsys.readouterr().err

    def test_empty_out_refused_before_any_leg(self, no_leg_runs, monkeypatch, tmp_path, capsys):
        # an empty path would run the whole experiment and then write nothing
        monkeypatch.setattr(sweeps, "objective_curve", lambda *a: pytest.fail("the objective ran"))
        path = tmp_path / "empty_out.ini"
        path.write_text("[experiment]\nout =\n")
        for argv in (["fig1", "--out", ""], ["optimize", "--config", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert [line for line in err.splitlines() if "error:" in line] == [
                "error: --out ([experiment] out) is empty: name the table file to write"
            ]


class TestFig2Command:
    def test_starred_row_per_curve(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main([
            "fig2", "--out", str(out), "--convention", "paper",
            "--q", "0.2", "--eta", "5", "--ptx", "0.2,0.4,0.6",
        ])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4
        starred = [r for r in rows if r["starred"] == "1"]
        assert len(starred) == 1
        # printed-convention optimum at q=0.2, eta=5 is 1/(q eta) = 1.0
        assert float(starred[0]["p_tx"]) == 1.0
        assert all(r["convention"] == "paper" for r in rows)
        grid_rows = [r for r in rows if r["starred"] == "0"]
        best = max(float(r["objective_closed_form"]) for r in grid_rows)
        assert float(starred[0]["objective_closed_form"]) >= best - 1e-12

    def test_p_grid_read(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main([
            "fig2", "--out", str(out), "--p", "0.5,0.8", "--q", "0.2", "--eta", "5", "--ptx", "0.5",
        ])
        assert code == 0
        # one curve per p: the grid point and the starred optimum
        assert [row["p"] for row in read_csv(out)] == ["0.5", "0.5", "0.8", "0.8"]


    def test_oracle_leg_meets_closed_form_on_default_grid(self):
        # what `fig2 --methods closed_form,oracle` runs, read at full
        # precision: 84 rows, each oracle leg at the N its mean bound needs
        spec = make_spec("fig2", methods=("closed_form", "oracle"))
        result = run_fig2_sweep(spec)
        assert result.exit_code == 0
        assert len(result.rows) == 84
        for p, q, _, ptx, closed, oracle, *_ in result.rows:
            params, policy = ChannelParams(p, q), Policy(ptx)
            chain = build_truncated_chain(params, policy, sweeps._oracle_truncation(spec, p, q, ptx))
            # objective = p_tx (1 - outage), so its error is at most the outage's
            assert abs(oracle - closed) <= sweeps.TOL_PROB + outage_truncation_bound(chain)


class TestCompareCommand:
    GRID = ["--p", "0.8", "--q", "0.2", "--ptx", "0.5,1.0", "--eta", "5"]
    COMMON = GRID + ["--horizon", "20000", "--replications", "4", "--seed", "3"]

    def test_strict_run_passes(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        code = main(["compare", "--out", str(out), *self.COMMON])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == "compare: PASS over 2 points (convention=strict)"
        rows = read_csv(out)
        assert len(rows) == 2
        assert list(rows[0]) == sweeps._COMPARE_HEADER
        for row in rows:
            assert row["convention"] == "strict"
            assert float(row["mean_abs_diff"]) < 1e-6
            assert float(row["outage_abs_diff"]) < 1e-8
            assert int(row["oracle_truncation"]) == sweeps.MIN_TRUNCATION  # the floor dominates here

    def test_printed_convention_judged_at_its_event(self, tmp_path):
        # under the printed label every method estimates the strict event at
        # eta - 1: each row is the strict run's row at eta - 1 but for its
        # eta and label, and closed form meets oracle within the allowance
        paper, strict = tmp_path / "paper.csv", tmp_path / "strict.csv"
        assert main(["compare", "--out", str(paper), "--convention", "paper", *self.COMMON]) == 0
        assert main(["compare", "--out", str(strict), *self.COMMON, "--eta", "4"]) == 0
        for row, below in zip(read_csv(paper), read_csv(strict), strict=True):
            assert (row["eta_th"], row["convention"], below["eta_th"]) == ("5", "paper", "4")
            assert row["outage_oracle"] == below["outage_oracle"]
            assert {**row, "eta_th": "4", "convention": "strict"} == below
            params, policy = ChannelParams(float(row["p"]), float(row["q"])), Policy(float(row["p_tx"]))
            bound = outage_truncation_bound(build_truncated_chain(params, policy, int(row["oracle_truncation"])))
            assert float(row["outage_abs_diff"]) <= sweeps.TOL_PROB + bound

    def test_without_monte_carlo_no_coverage_columns(self, tmp_path):
        out = tmp_path / "compare_two.csv"
        code = main([
            "compare", "--out", str(out), "--methods", "closed_form,oracle", *self.GRID,
        ])
        assert code == 0
        for row in read_csv(out):
            assert row["mean_monte_carlo"] == ""
            assert row["mean_ci_covers"] == ""
            assert row["outage_ci_covers"] == ""

    # p = q = 0.9, p_tx = 1: the non-outage mass at eta 5 is 9.1e-7, so the
    # 8 * 10**4 window slots most likely all count as outage
    CERTAIN = ["--p", "0.9", "--q", "0.9", "--ptx", "1", "--eta", "5",
               "--horizon", "10000", "--replications", "8"]

    def test_outage_counted_in_every_slot_passes(self, tmp_path, capsys):
        out = tmp_path / "certain.csv"
        assert main(["compare", "--out", str(out), *self.CERTAIN]) == 0
        assert "compare: PASS" in capsys.readouterr().out
        (row,) = read_csv(out)
        assert float(row["outage_monte_carlo"]) == 1.0
        assert float(row["outage_mc_halfwidth"]) > 0.0
        assert row["outage_ci_covers"] == "1"

    def test_outage_counted_in_every_slot_still_catches_an_error(self, tmp_path, monkeypatch, capsys):
        # the Clopper-Pearson half-width there is about 4.6e-5, so a closed
        # form off by 1e-3 is not covered
        def lowered(*args):
            report = sweeps._closed_form_leg(*args)
            return replace(report, outage_probability=report.outage_probability - 1e-3)

        monkeypatch.setitem(sweeps._LEGS, "closed_form", lowered)
        argv = ["compare", "--out", str(tmp_path / "c.csv"), "--methods", "closed_form,monte_carlo", *self.CERTAIN]
        assert main(argv) == 1
        assert "outage CI coverage 0.000 below required 0.75" in capsys.readouterr().out

    def test_mean_far_outside_the_interval_fails(self, tmp_path, monkeypatch, capsys):
        # a closed-form mean raised by 1 sits far outside the Monte Carlo
        # half-widths here (about 0.1), so no point's mean is covered
        def raised(*args):
            report = sweeps._closed_form_leg(*args)
            return replace(report, average_secrecy_age=report.average_secrecy_age + 1.0)

        monkeypatch.setitem(sweeps._LEGS, "closed_form", raised)
        out = tmp_path / "raised.csv"
        argv = ["compare", "--out", str(out), "--methods", "closed_form,monte_carlo", *self.COMMON]
        assert main(argv) == 1
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "compare: outage CI covered 2/2 points",
            "mean CI coverage 0.000 below required 0.75",
            "compare: FAIL over 2 points (convention=strict)",
        ]
        rows = read_csv(out)
        assert [row["mean_ci_covers"] for row in rows] == ["0", "0"]
        assert all(float(row["mean_mc_halfwidth"]) < 0.5 for row in rows)

    # a closed-form mean raised by 1 at some of four points. At this seed the
    # other points are covered with margin: |z| = 1.96 |mc - closed| /
    # half-width is at most 0.88 for the mean and 0.97 for the outage, and
    # every mean half-width is below 0.3, so the planted points are missed
    # and coverage is the unplanted share: 2/4 fails, 3/4 meets 0.75
    @pytest.mark.parametrize("planted, code", [((0, 1), 1), ((0,), 0)], ids=["two_of_four", "one_of_four"])
    def test_coverage_judged_at_its_threshold(self, tmp_path, monkeypatch, capsys, planted, code):
        def raised(spec, index, *args):
            report = sweeps._closed_form_leg(spec, index, *args)
            return replace(report, average_secrecy_age=report.average_secrecy_age + (index in planted))

        monkeypatch.setitem(sweeps._LEGS, "closed_form", raised)
        out = tmp_path / "planted.csv"
        argv = [
            "compare", "--out", str(out), "--methods", "closed_form,monte_carlo", "--p", "0.8", "--q", "0.2,0.5",
            "--ptx", "0.5,1.0", "--eta", "5", "--horizon", "20000", "--replications", "8", "--seed", "11",
        ]
        assert main(argv) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"compare: mean CI covered {4 - len(planted)}/4 points",
                             "compare: outage CI covered 4/4 points"]
        assert ("mean CI coverage 0.500 below required 0.75" in lines) == bool(code)
        rows = read_csv(out)
        assert [row["mean_ci_covers"] for row in rows] == [str(int(i not in planted)) for i in range(4)]
        assert all(float(row["mean_mc_halfwidth"]) < 0.3 for row in rows)

    @pytest.mark.parametrize("methods", ["closed_form,oracle,monte_carlo", "oracle,monte_carlo"])
    def test_monte_carlo_not_judged_where_the_eavesdropper_never_resets(self, tmp_path, capsys, methods):
        # at q = 0 no stationary law exists (the reference mean is infinite)
        # and a window's outage measures a transient, so neither interval is
        # judged there; the q = 0.3 point still is
        out = tmp_path / "silent.csv"
        argv = [
            "compare", "--out", str(out), "--methods", methods, "--p", "0.5", "--q", "0,0.3",
            "--ptx", "0.5", "--eta", "5", "--horizon", "10000", "--replications", "4", "--seed", "1",
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "compare: mean CI covered 1/1 points" in stdout
        assert "compare: outage CI covered 1/1 points" in stdout
        silent, judged = read_csv(out)
        assert float(silent["q"]) == 0.0 and float(silent["outage_monte_carlo"]) > 0.0
        assert (silent["mean_ci_covers"], silent["outage_ci_covers"]) == ("", "")
        assert (judged["mean_ci_covers"], judged["outage_ci_covers"]) == ("1", "1")

    def test_unmeetable_mean_tolerance_rejected_before_any_leg(self, monkeypatch):
        # q=0.5 needs N=61 and fits under MAX_TRUNCATION; q=0.01 needs 4273
        # and does not. The run is a ValueError (CLI exit 2), raised before
        # the feasible first point runs any leg.
        calls = []
        real_estimate = sweeps.estimate
        monkeypatch.setattr(sweeps, "estimate", lambda *a, **k: calls.append(a) or real_estimate(*a, **k))
        spec = make_spec(
            "compare", None,
            methods=("closed_form", "oracle", "monte_carlo"),
            p_values=(0.8,), q_values=(0.5, 0.01), ptx_values=(0.5,), eta_values=(5,),
            horizon=2000, replications=2,
        )
        with pytest.raises(ValueError, match="MAX_TRUNCATION"):
            run_compare(spec)
        assert calls == []

    def test_truncation_raised_to_meet_mean_tolerance(self):
        # where the mean tolerance needs more than MIN_TRUNCATION, the
        # oracle runs at the adaptive N, and the run passes
        spec = make_spec(
            "compare", None,
            methods=("closed_form", "oracle"),
            p_values=(0.8,), q_values=(0.08,), ptx_values=(0.5,), eta_values=(5,),
        )
        result = run_compare(spec)
        assert result.exit_code == 0
        needed = truncation_for_mean_tol(ChannelParams(0.8, 0.08), Policy(0.5), 1e-7)
        assert needed > sweeps.MIN_TRUNCATION
        assert all(row[5] == needed for row in result.rows)  # adaptive N overrode the floor

    # the closed-form-versus-oracle checks at their own tolerances: an error
    # planted at twice the allowance fails the run, one at half of it passes
    @pytest.mark.parametrize("factor, code", [(2.0, 1), (0.5, 0)])
    def test_mean_check_at_its_tolerance(self, tmp_path, monkeypatch, capsys, factor, code):
        def shifted(*args):
            report = sweeps._closed_form_leg(*args)
            return replace(report, average_secrecy_age=report.average_secrecy_age + factor * sweeps.TOL_MEAN)

        monkeypatch.setitem(sweeps._LEGS, "closed_form", shifted)
        argv = ["compare", "--out", str(tmp_path / "c.csv"), "--methods", "closed_form,oracle", *self.GRID]
        assert main(argv) == code
        failed = [line for line in capsys.readouterr().out.splitlines() if "|mean closed-oracle|" in line]
        assert len(failed) == (2 if code else 0)  # one line per p_tx point

    # r_e = p_tx q = 0.01: the adaptive N is 2062, where the truncation
    # bound (1 - r_e)^N is about TOL_PROB, so both terms of the allowance count
    OUTAGE_POINT = ["--p", "0.8", "--q", "0.02", "--ptx", "0.5", "--eta", "5"]

    @pytest.mark.parametrize("convention, factor, code", [
        ("strict", 2.0, 1), ("strict", 0.5, 0), ("paper", 2.0, 1), ("paper", 0.5, 0),
    ], ids=["2.0-1", "0.5-0", "paper-2.0-1", "paper-0.5-0"])
    def test_outage_check_at_its_allowance(self, tmp_path, monkeypatch, capsys, convention, factor, code):
        params, policy = ChannelParams(0.8, 0.02), Policy(0.5)
        spec = make_spec("compare", None, methods=("closed_form", "oracle"))
        n = sweeps._oracle_truncation(spec, 0.8, 0.02, 0.5)
        assert n == 2062
        bound = outage_truncation_bound(build_truncated_chain(params, policy, n))
        assert 9.9e-10 < bound < 1e-9
        allowed = sweeps.TOL_PROB + bound

        def shifted(*args):
            report = sweeps._closed_form_leg(*args)
            return replace(report, outage_probability=report.outage_probability + factor * allowed)

        monkeypatch.setitem(sweeps._LEGS, "closed_form", shifted)
        out = tmp_path / "c.csv"
        argv = ["compare", "--out", str(out), "--methods", "closed_form,oracle", "--convention", convention,
                *self.OUTAGE_POINT]
        assert main(argv) == code
        (row,) = read_csv(out)
        assert float(row["outage_abs_diff"]) == pytest.approx(factor * allowed, rel=1e-4)
        failed = [line for line in capsys.readouterr().out.splitlines() if "outage closed-vs-oracle off by" in line]
        assert len(failed) == code


class TestOptimizeCommand:
    def test_grid_confirms_closed_form(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = main(["optimize", "--out", str(out), "--q", "0.2,0.5", "--eta", "2,4"])
        assert code == 0
        assert "optimize: PASS" in capsys.readouterr().out
        rows = read_csv(out)
        assert len(rows) == 8  # 2 q x 2 eta x 2 conventions
        for row in rows:
            assert float(row["abs_gap"]) <= 1e-3 + 1e-12
            assert row["argmax_p_invariant"] == "1"
        strict = {
            (row["q"], row["eta_th"]): float(row["ptx_star_closed_form"])
            for row in rows if row["convention"] == "strict"
        }
        assert strict[("0.5", "4")] == pytest.approx(1 / (0.5 * 5), abs=1e-12)

    def test_planted_optimum_error_fails(self, tmp_path, monkeypatch, capsys):
        # a closed-form maximizer ten grid steps off is reported per
        # (q, eta, convention), and the run fails
        monkeypatch.setattr(sweeps, "optimal_ptx", lambda *args: optimal_ptx(*args) - 0.01)
        code = main(["optimize", "--out", str(tmp_path / "opt.csv"), "--q", "0.2", "--eta", "4", "--p", "0.8"])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "optimize: FAIL"
        assert [line.split(":")[0] for line in lines[1:-1]] == ["q=0.2 eta=4 paper", "q=0.2 eta=4 strict"]
        assert all("(gap 1.000e-02 > step 0.001)" in line for line in lines[1:-1])

    # at q = 0.5, eta = 4 both optima are grid points, 0.5 (paper) and 0.4
    # (strict): a closed form two steps off fails, one half a step off passes
    @pytest.mark.parametrize("steps, code", [(2.0, 1), (0.5, 0)])
    def test_gap_check_at_one_step(self, tmp_path, monkeypatch, capsys, steps, code):
        monkeypatch.setattr(sweeps, "optimal_ptx", lambda *args: optimal_ptx(*args) + steps * 1e-3)
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--out", str(out), "--q", "0.5", "--eta", "4"]) == code
        assert [float(row["ptx_star_grid"]) for row in read_csv(out)] == pytest.approx([0.5, 0.4], abs=1e-12)
        failed = [line for line in capsys.readouterr().out.splitlines() if "(gap " in line]
        assert len(failed) == 2 * code

    def test_argmax_moving_with_p_fails(self, tmp_path, monkeypatch, capsys):
        # an objective whose maximizer depends on p fails the p probe
        def moved(params, grid, *args):
            values = objective_curve(params, grid, *args)
            return values[::-1] if params.p == 0.3 else values

        monkeypatch.setattr(sweeps, "objective_curve", moved)
        argv = ["optimize", "--out", str(tmp_path / "opt.csv"), "--q", "0.2", "--eta", "4", "--p", "0.8,0.3"]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "optimize: FAIL"
        assert "q=0.2 eta=4 strict: argmax varies with p: [1.0, 0.001]" in lines

    def test_grid_matches_scalar_objective_loop(self):
        # one numpy pass per probe picks the same argmax as scoring each
        # p_tx with the scalar objective, so every row is identical
        spec = make_spec("optimize")
        step = spec.optimize_step
        grid = np.minimum(np.arange(1, int(round(1 / step)) + 1, dtype=float) * step, 1.0)
        expected = []
        for q, eta in product(spec.q_values, spec.eta_values):
            thr = SecrecyThreshold(eta)
            for conv in (OutageConvention.PAPER_PRINTED, OutageConvention.STRICT_DEFINITION):
                star = optimal_ptx(q, thr, conv)
                argmaxes = []
                for p in spec.p_values:
                    values = [objective(ChannelParams(p, q), Policy(float(x)), thr, conv) for x in grid]
                    argmaxes.append(float(grid[int(np.argmax(values))]))
                best = argmaxes[0]
                expected.append([q, eta, conv.value, star, best, abs(best - star), int(len(set(argmaxes)) == 1)])
        assert len(expected) * len(spec.p_values) == 64
        assert run_optimize(spec).rows == expected

    def test_finest_step_memory_is_a_few_grids(self, traced_peak):
        # each probe is scored on its own, so the traced peak is a few
        # grid-sized arrays (measured 30.5 MB against an 8 MB grid); scoring
        # the two p probes as one 2-D array measured 56 MB
        spec = replace(
            make_spec("optimize"), optimize_step=sweeps.MIN_OPTIMIZE_STEP,
            q_values=(0.2,), eta_values=(5,), p_values=(0.3, 0.8),
        )
        grid_bytes = 8 * int(round(1 / sweeps.MIN_OPTIMIZE_STEP))
        result, peak = traced_peak(lambda: run_optimize(spec))
        assert result.exit_code == 0
        assert peak <= 5 * grid_bytes, peak


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        code = main(["fig1", "--config", "/nonexistent/path.ini"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_grid_value(self, no_leg_runs, capsys):
        code = main(["fig1", "--q", "1.5", "--ptx", "0.5", "--ratio", "1"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        # a ratio of 0 would tabulate p = 0 points
        assert main(["fig1", "--ratio", "2,0"]) == 2
        assert "error: ratio grid values must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--p", "--q", "--ptx"])
    def test_rate_below_floor_refused(self, no_leg_runs, capsys, flag):
        # a nonzero rate below 1e-12 underflows the closed forms: q = 1e-186
        # made fig1's mean divide by 0.0 and end in a traceback
        argv = ["fig2", "--p", "0.8", "--q", "0.2", "--ptx", "0.5", "--eta", "5", flag, "1e-186"]
        assert main(argv) == 2
        assert f"{flag[2:]} grid value 1e-186 out of range" in capsys.readouterr().err
        assert main(["fig1", "--q", "1e-186"]) == 2

    def test_single_method_compare(self, capsys):
        code = main(["compare", "--methods", "closed_form"])
        assert code == 2
        assert "at least two" in capsys.readouterr().err

    def test_bad_convention_label(self, no_leg_runs, tmp_path, capsys):
        # a flag and its config key are refused with the same message,
        # which names both labels
        message = "expected 'strict' or 'paper', got 'loose'"
        with pytest.raises(SystemExit) as exit_:
            main(["fig2", "--convention", "loose"])
        assert exit_.value.code == 2
        assert f"argument --convention: {message}" in capsys.readouterr().err
        path = tmp_path / "loose.ini"
        path.write_text("[experiment]\nconvention = loose\n")
        assert main(["fig2", "--config", str(path)]) == 2
        assert f"[experiment] convention: {message}" in capsys.readouterr().err
        # a flag keeps its parser's message, not the parser's function name
        with pytest.raises(SystemExit) as exit_:
            main(["fig2", "--horizon", "1.5"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "argument --horizon: expected an integer, got '1.5'" in err
        assert "_int" not in err

    @pytest.mark.parametrize("name, text", [
        ("no_section.ini", "q = 0.2\n"),
        ("fractional_int.json", '{"sim": {"horizon": 20000.9}}'),
        ("integral_float.json", '{"sim": {"horizon": 20000.0}}'),
        ("boolean_int.json", '{"sim": {"horizon": true}}'),
        ("null_value.json", '{"sim": {"horizon": null}}'),
        ("boolean_float.json", '{"tolerances": {"optimize_step": true}}'),
        ("boolean_grid.json", '{"grid": {"q": [true]}}'),
        ("nested_list.json", '{"grid": {"q": [[0.2]]}}'),
        ("object_value.json", '{"grid": {"q": {"a": 0.2}}}'),
    ])
    def test_malformed_config(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError):
            load_config(str(path))
        assert main(["fig1", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        # the check tolerances and the oracle cap are constants: argparse
        # refuses their former flags whatever the value
        ("--mc-coverage", "nan"),
        ("--mc-coverage", "2"),
        ("--mc-coverage", "-0.1"),
        ("--tol-prob", "nan"),
        ("--tol-prob", "-1"),
        ("--tol-mean", "nan"),
        ("--tol-mean", "0"),
        ("--oracle-tol", "nan"),
        ("--oracle-tol", "0"),
        ("--max-truncation", "4000"),
        # the oracle floor is the constant MIN_TRUNCATION, and fig2 reads
        # the p grid: their former flags are refused the same way
        ("--truncation", "1"),
        ("--truncation", "4001"),
        ("--truncation", "400"),
        ("--p-fixed", "0.8"),
        # experiments walk each replication from slot 0: no burn-in to set
        ("--burn-in", "1000"),
    ])
    def test_bad_tolerance_rejected(self, no_leg_runs, capsys, flag, value):
        try:
            code = main(["compare", "--config", str(ROOT / "configs" / "compare_quick.ini"), flag, value])
        except SystemExit as exit_:
            code = exit_.code
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("oracle", "tol"),
        ("oracle", "max_truncation"),
        ("oracle", "truncation"),
        ("fig2", "p_fixed"),
        ("tolerances", "mean"),
        ("tolerances", "prob"),
        ("tolerances", "mc_coverage"),
        ("sim", "burn_in"),
    ])
    def test_removed_config_key_rejected(self, no_leg_runs, tmp_path, capsys, section, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = 0.5\n")
        assert main(["compare", "--config", str(path)]) == 2
        assert f"unknown config entry [{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        # compare judges Monte Carlo by half-widths, which one replication lacks
        ("--replications", "1", "needs replications >= 2, got 1"),
        ("--seed", "-1", "seed must be an integer in [0, 2**64), got -1"),
        # one point's time is bounded by the estimate bound, checked before
        # any leg runs
        ("--horizon", "1000000000",
         "replications * horizon = 8 * 1000000000 = 8000000000 slots exceeds the per-estimate bound 3200000000"),
        ("--replications", str(2**70),
         f"replications * horizon = {2**70} * 100000 = {2**70 * 100000} slots exceeds the per-estimate bound"),
    ])
    def test_bad_simulation_setting_rejected_before_any_leg(self, no_leg_runs, capsys, flag, value, message):
        code = main(["compare", "--config", str(ROOT / "configs" / "compare_quick.ini"), flag, value])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_replication_count_bounded_in_library_specs(self):
        with pytest.raises(ValueError, match="slots exceeds the per-estimate bound 3200000000"):
            make_spec("compare", None, replications=2**70)

    @pytest.mark.parametrize("kind", ["fig2", "optimize", "compare"])
    def test_huge_eta_refused_before_any_work(self, no_leg_runs, monkeypatch, capsys, kind):
        # the closed forms overflow on an eta past float range, and fig2's
        # starred p_tx nears the rate floor long before: above MAX_ETA an
        # eta is refused up front
        monkeypatch.setattr(sweeps, "optimal_ptx", lambda *a: pytest.fail("optimal_ptx ran"))
        monkeypatch.setattr(sweeps, "objective_curve", lambda *a: pytest.fail("the objective ran"))
        for eta in (str(10**400), str(sweeps.MAX_ETA + 1)):
            assert main([kind, "--eta", f"5,{eta}"]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert [line for line in err.splitlines() if "error:" in line] == [
                f"error: eta grid values must be integers from 1 to {sweeps.MAX_ETA}"
            ]

    @pytest.mark.parametrize("argv, where", [
        # the q=0 points of fig1 come after Monte Carlo work on the q=0.2 ones
        (["fig1", "--q", "0.2,0", "--methods", "closed_form,monte_carlo", "--replications", "4"],
         "fig1 grid point q=0 (p = ratio * q = 0)"),
        (["fig1", "--q", "0", "--methods", "oracle"], "fig1 grid point q=0 (p = ratio * q = 0)"),
        (["fig2", "--p", "0.8,0", "--q", "0.2,0", "--methods", "closed_form,oracle"], "fig2 grid point p=0 q=0"),
        (["compare", "--config", str(ROOT / "configs" / "compare_quick.ini"), "--p", "0.3,0", "--q", "0,0.5"],
         "compare grid point p=0 q=0"),
        (["optimize", "--p", "0", "--q", "0.2,0"], "optimize grid point p=0 q=0"),
    ])
    def test_no_reset_point_rejected_before_any_leg(self, no_leg_runs, capsys, argv, where):
        # no route defines the secrecy age where neither side ever resets
        assert main(argv) == 2
        assert f"error: {where}: p = q = 0, no resets ever happen" in capsys.readouterr().err

    def test_optimize_refuses_p_zero_before_any_work(self, monkeypatch, capsys):
        # at p = 0 every p_tx scores 0, so the p probe would report a false FAIL
        monkeypatch.setattr(sweeps, "objective_curve", lambda *a: pytest.fail("the objective ran"))
        assert main(["optimize", "--p", "0.5,0", "--q", "0.2"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: optimize grid point p=0: the receiver never resets, "
            "so the objective is 0 at every p_tx and has no argmax"
        ]

    def test_one_silent_side_is_a_point(self):
        # p = 0 or q = 0 alone is a valid point (the gap stays 0 or grows
        # without bound); only both together are refused
        grids = dict(ptx_values=(0.5,), eta_values=(5,))
        SweepSpec(experiment="compare", methods=METHODS, p_values=(0.0, 0.8), q_values=(0.2,), **grids)
        SweepSpec(experiment="compare", methods=METHODS, p_values=(0.8,), q_values=(0.0, 0.2), **grids)

    def test_failed_stationarity_check_is_one_error_line(self, monkeypatch, capsys):
        # a leg's failed check ends the run with one error line and exit 1,
        # not a traceback, and not the exit 2 of a rejected setting
        def failing_oracle(*args):
            raise StationarityError(3e-9, 1e-12)

        monkeypatch.setitem(sweeps._LEGS, "oracle", failing_oracle)
        code = main(["fig1", "--methods", "closed_form,oracle", "--q", "0.2", "--ptx", "0.5", "--ratio", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: stationarity residual 3.000e-09 > tol 1.000e-12"
        ]
        assert "Traceback" not in err

    def test_config_for_another_experiment(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(INI_TEXT)  # kind = compare
        assert main(["fig1", "--config", str(path)]) == 2
        assert "'compare'" in capsys.readouterr().err


# what a generated run sets a setting to: valid text, edge values or junk
EDGE_TEXT = ("0", "1", "1e-12", "nan", "inf", "-1", str(2**70), str(10**400), "", "0x10", "010")
JUNK_TEXT = ("abc", "%", "1,,2")
VALID_TEXT = {
    "methods": st.sampled_from(METHODS),
    "convention": st.sampled_from(["strict", "paper"]),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "p_values": st.floats(0.0, 1.0).map(repr),
    "q_values": st.floats(0.0, 1.0).map(repr),
    "ptx_values": st.floats(1e-12, 1.0).map(repr),
    "ratio_values": st.floats(0.1, 8.0).map(repr),
    "eta_values": st.integers(1, 20).map(str),
    "horizon": st.integers(1, 10**6).map(str),
    "replications": st.integers(1, 64).map(str),
    "workers": st.integers(1, 2**70).map(str),
    "optimize_step": st.floats(1e-3, 0.5).map(repr),
}


def _entry(field):
    # any worker count is safe to run: the pool is capped at the usable CPUs
    return st.one_of(VALID_TEXT[field], st.sampled_from(EDGE_TEXT + JUNK_TEXT))


@st.composite
def _runs(draw):
    """A subcommand and, for some of the settings it offers (never --out),
    a list of entry texts, each setting delivered by its flag or by the
    config file, which is INI or JSON."""
    kind = draw(st.sampled_from(EXPERIMENTS))
    offered = [s for s in SETTINGS if kind in s.experiments and s.field != "out_path"]
    chosen = draw(st.lists(st.sampled_from(offered), unique_by=lambda s: s.field))
    values = []
    for setting in chosen:
        is_list = setting.section == "grid" or setting.field == "methods"
        entries = draw(st.lists(_entry(setting.field), min_size=1, max_size=3 if is_list else 1))
        values.append((setting, entries, is_list, draw(st.sampled_from(["flag", "config"]))))
    return kind, draw(st.sampled_from(["ini", "json"])), values


def _json_value(entry):
    """An entry that is a JSON number is written as one, anything else as a string."""
    try:
        value = json.loads(entry)
    except ValueError:
        return entry
    return value if isinstance(value, (int, float)) else entry


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_runs())
# a % in an INI file is read as text, not as the start of an interpolation
@example(run=("fig2", "ini", [(next(s for s in SETTINGS if s.field == "q_values"), ["%"], True, "config")]))
# an eta past float range is refused, not overflowed in the closed forms
@example(run=("fig2", "ini", [(next(s for s in SETTINGS if s.field == "eta_values"), [str(10**400)], True, "flag")]))
def test_generated_input_refused_before_any_work(tmp_path, monkeypatch, run):
    # exit 2 means nothing ran and one error line says why; a run that goes
    # ahead evaluates only points where some side resets, within the
    # oracle's cap. The legs record their points and return the closed form
    calls = []

    def leg(spec, index, params, policy, event, truncation):
        calls.append((params.p, params.q, truncation))
        report = closed_form_report(params, policy, event)
        return replace(report, mean_halfwidth=0.0, outage_halfwidth=0.0, truncation=truncation)

    def curve(params, *args):
        calls.append((params.p, params.q, None))
        return objective_curve(params, *args)

    for method in METHODS:
        monkeypatch.setitem(sweeps._LEGS, method, leg)
    monkeypatch.setattr(sweeps, "objective_curve", curve)

    kind, syntax, values = run
    argv = [kind, "--out", str(tmp_path / "out.csv")]
    config = {}
    for setting, entries, is_list, delivery in values:
        if delivery == "flag":
            argv.append(f"{setting.flag}={', '.join(entries)}")
        else:
            config.setdefault(setting.section, {})[setting.key] = (entries, is_list)
    if config:
        path = tmp_path / f"run.{syntax}"
        if syntax == "ini":
            path.write_text("".join(
                f"[{section}]\n" + "".join(f"{key} = {', '.join(e)}\n" for key, (e, _) in body.items())
                for section, body in config.items()
            ))
        else:
            path.write_text(json.dumps({
                section: {
                    key: [_json_value(v) for v in e] if is_list else _json_value(e[0])
                    for key, (e, is_list) in body.items()
                }
                for section, body in config.items()
            }))
        argv += ["--config", str(path)]

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    err = stderr.getvalue()
    assert "Traceback" not in err
    if code == 2:
        assert calls == []
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    else:
        assert code in (0, 1), (code, err)
        for p, q, truncation in calls:
            assert p + q > 0.0
            assert truncation is None or truncation <= sweeps.MAX_TRUNCATION


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        args = [
            "compare", "--p", "0.8", "--q", "0.2,0.5", "--ptx", "0.5", "--eta", "3",
            "--horizon", "5000", "--replications", "2",
            "--seed", "11",
        ]
        outputs = []
        for tag, workers in (("a", "1"), ("b", "4"), ("c", "4")):
            out = tmp_path / f"{tag}.csv"
            main([*args, "--out", str(out), "--workers", workers])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_pool_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        # a million workers ask the pool for no more threads than there are
        # points or usable CPUs, and write the one-worker bytes
        asked = []

        def recording_pool(max_workers):
            asked.append(max_workers)
            return ThreadPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording_pool)
        args = ["compare", "--methods", "closed_form,oracle",
                "--p", "0.8", "--q", "0.2,0.5", "--ptx", "0.5,1", "--eta", "3"]
        outputs = []
        for workers in ("1000000", "1"):
            out = tmp_path / f"w{workers}.csv"
            assert main([*args, "--out", str(out), "--workers", workers]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        cap = min(4, simulate._usable_cpus())
        assert asked == ([cap] if cap > 1 else [])


@pytest.mark.parametrize("name, argv", [
    ("fig1", ["fig1"]),
    ("fig2_paper", ["fig2", "--config", str(ROOT / "configs" / "fig2_paper.json")]),
    ("optimize", ["optimize"]),
    ("compare_quick", ["compare", "--config", str(ROOT / "configs" / "compare_quick.ini")]),
])
def test_golden_bytes(tmp_path, name, argv):
    # tests/golden fixes the CSV bytes of four shipped runs; regenerate a
    # file only in a change that means to alter that output and says so
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("path", sorted((ROOT / "configs").iterdir()), ids=lambda p: p.name)
def test_shipped_config_loads(path):
    # shipped configs are named <experiment>_<variant>
    experiment = path.name.split("_")[0]
    spec = make_spec(experiment, load_config(str(path)))
    assert spec.experiment == experiment


def test_float_formatting():
    assert _fmt(3.80952380952381) == "3.80952381"
    assert _fmt(None) == ""
    assert _fmt(0.5) == "0.5"
    assert _fmt(12) == "12"
    assert _fmt("note") == "note"


def test_module_entry_point(tmp_path):
    out = tmp_path / "fig2.csv"
    # the child imports the checkout's package, as this process does
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "aoi_secrecy", "fig2",
         "--q", "0.2", "--eta", "3", "--ptx", "0.5", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "fig2:" in proc.stdout
    assert out.exists()


@pytest.mark.parametrize("coretype", ["Haswell", "Zen"])
def test_golden_bytes_under_other_blas_kernels(tmp_path, coretype):
    # the bytes are the code's alone, not the CPU's: OpenBLAS picks its
    # kernels by CPU, and forcing those of AVX2 Intel (Haswell) and of AMD
    # (Zen) must not move a bit. Where numpy is not built on OpenBLAS the
    # variable has no effect, and this only re-checks the golden
    out = tmp_path / "compare_quick.csv"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "OPENBLAS_CORETYPE": coretype}
    proc = subprocess.run(
        [sys.executable, "-m", "aoi_secrecy", "compare",
         "--config", str(ROOT / "configs" / "compare_quick.ini"), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / "compare_quick.csv").read_bytes()
