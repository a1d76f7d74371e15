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
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import aoi_secrecy
from aoi_secrecy import sweeps
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
    default_spec,
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
burn_in = 100
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
    ], ids=["default_only", "default_beside_sim", "repeated_key_json", "repeated_section_json",
            "repeated_key_ini", "repeated_section_ini"])
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
    "burn_in": "77",
    "replications": "5",
    "workers": "3",
    "optimize_step": "0.01",
}


class TestSettingsTable:
    def test_every_spec_field_has_one_row(self):
        rows = [s.field for s in SETTINGS]
        assert sorted(rows) == sorted(f.name for f in fields(SweepSpec) if f.name != "experiment")
        assert sorted(rows) == sorted(SAMPLE_VALUES)

    @pytest.mark.parametrize("fmt", ["ini", "json"])
    @pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.field)
    def test_config_key_and_flag_agree(self, tmp_path, setting, fmt):
        value = SAMPLE_VALUES[setting.field]
        entries = {setting.section: {setting.key: value}}
        argv = [setting.flag, value]
        # a simulation setting is read only beside a monte_carlo leg
        if setting.field in sweeps._MONTE_CARLO_ONLY:
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
        # on every experiment that reads the setting
        for kind in setting.experiments:
            from_config = make_spec(kind, load_config(str(path)))
            flags = vars(build_parser().parse_args([kind, *argv]))
            del flags["experiment"], flags["config"]
            from_flag = make_spec(kind, None, **flags)
            assert from_config == from_flag
            assert from_config != default_spec(kind)

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
            replace(default_spec(kind), **{setting.field: setting.parse(value)})
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
        value = {"seed": "0x2a", "horizon": "1", "burn_in": "2000000", "replications": "1"}[setting.field]
        named = f"error: {kind} does not read {setting.flag} ([{setting.section}] {setting.key}) without monte_carlo"
        path = tmp_path / "one.ini"
        path.write_text(f"[{setting.section}]\n{setting.key} = {value}\n")
        for argv in ([kind, "--methods", methods, setting.flag, value],
                     [kind, "--methods", methods, "--config", str(path)]):
            assert main(argv) == 2
            assert [line for line in capsys.readouterr().err.splitlines() if "error:" in line] == [named]
        with pytest.raises(ValueError, match="without monte_carlo"):
            replace(default_spec(kind), methods=tuple(methods.split(",")), **{setting.field: setting.parse(value)})

    @pytest.mark.parametrize("argv", [
        ["optimize", "--methods", "monte_carlo", "--ptx", "0.3", "--workers", "9", "--seed", "5",
         "--horizon", "7", "--burn-in", "3"],
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
            default_spec("nope")
        base = default_spec("compare")
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
    COMMON = GRID + ["--horizon", "20000", "--burn-in", "500", "--replications", "4", "--seed", "3"]

    def test_strict_run_passes(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        code = main(["compare", "--out", str(out), *self.COMMON])
        assert code == 0
        assert "compare: PASS" in capsys.readouterr().out
        rows = read_csv(out)
        assert len(rows) == 2
        for row in rows:
            assert row["convention"] == "strict"
            assert row["outage_note"] == ""
            assert float(row["mean_abs_diff"]) < 1e-6
            assert float(row["outage_abs_diff"]) < 1e-8
            assert int(row["oracle_truncation"]) == sweeps.MIN_TRUNCATION  # the floor dominates here

    def test_printed_convention_flags_expected_mismatch(self, tmp_path):
        out = tmp_path / "compare_paper.csv"
        code = main(["compare", "--out", str(out), "--convention", "paper", *self.COMMON])
        assert code == 0
        rows = read_csv(out)
        assert all(row["outage_note"] == "mismatch_expected" for row in rows)
        # the labeled closed form and the measured strict event now disagree
        # by one pmf step, which the runner treats as the expected offset
        for row in rows:
            assert float(row["outage_abs_diff"]) > 1e-3

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
               "--horizon", "10000", "--burn-in", "100", "--replications", "8"]

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
            horizon=2000, burn_in=100, replications=2,
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

    def test_grid_matches_scalar_objective_loop(self):
        # one numpy pass per probe picks the same argmax as scoring each
        # p_tx with the scalar objective, so every row is identical
        spec = default_spec("optimize")
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
            default_spec("optimize"), optimize_step=sweeps.MIN_OPTIMIZE_STEP,
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

    def test_bad_grid_value(self, capsys):
        code = main(["fig1", "--q", "1.5", "--ptx", "0.5", "--ratio", "1"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

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
    ])
    def test_removed_config_key_rejected(self, no_leg_runs, tmp_path, capsys, section, key):
        path = tmp_path / "old.ini"
        path.write_text(f"[{section}]\n{key} = 0.5\n")
        assert main(["compare", "--config", str(path)]) == 2
        assert f"unknown config entry [{section}] {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        # compare judges Monte Carlo by half-widths, which one replication lacks
        ("--replications", "1", "needs replications >= 2, got 1"),
        ("--burn-in", "200000", "burn_in 200000 must be smaller than horizon 100000"),
        ("--seed", "-1", "seed must be an integer in [0, 2**64), got -1"),
        # one replication's time is bounded by the slot bound, and one
        # point's by the estimate bound, both checked before any leg runs
        ("--horizon", "1000000000", "burn_in + horizon = 1000001000 slots exceeds the per-replication bound 100000000"),
        ("--replications", str(2**70),
         f"replications * (burn_in + horizon) = {2**70} * 101000 = {2**70 * 101000} slots exceeds the per-estimate bound"),
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
    "burn_in": st.integers(0, 10**4).map(str),
    "replications": st.integers(1, 64).map(str),
    "workers": st.integers(1, 4).map(str),
    "optimize_step": st.floats(1e-3, 0.5).map(repr),
}


def _entry(field):
    other = EDGE_TEXT + JUNK_TEXT
    if field == "workers":  # at most 4 pool threads: no 0x10, 2**70 or 10**400 workers
        other = tuple(t for t in other if t not in ("0x10", str(2**70), str(10**400)))
    return st.one_of(VALID_TEXT[field], st.sampled_from(other))


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
            "--horizon", "5000", "--burn-in", "100", "--replications", "2",
            "--seed", "11",
        ]
        outputs = []
        for tag, workers in (("a", "1"), ("b", "4"), ("c", "4")):
            out = tmp_path / f"{tag}.csv"
            main([*args, "--out", str(out), "--workers", workers])
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


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
