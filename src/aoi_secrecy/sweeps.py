"""Experiment harness: figure sweeps, the three-way comparison, the optimizer.

A SweepSpec fixes an experiment kind, parameter grids, evaluation methods,
seeds and tolerances. Runners turn a spec into a CSV table (schema fixed per
experiment, floats at 9 significant digits) plus a plain-text summary and an
exit code. Parameter points fan out to a bounded thread pool and results are
written in grid order, so output bytes never depend on the worker count.
"""

from __future__ import annotations

import configparser
import csv
import json
import logging
import math
from dataclasses import dataclass, fields
from itertools import product
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .analytics import (
    DEFAULT_CONVENTION,
    OutageConvention,
    closed_form_report,
    objective_curve,
    optimal_ptx,
    outage_event,
)
from .model import ChannelParams, Policy, SecrecyReport, SecrecyThreshold
from .oracle import build_truncated_chain, oracle_metrics, steady_state, truncation_for_mean_tol
from .simulate import (
    DEFAULT_HORIZON,
    DEFAULT_REPLICATIONS,
    SimConfig,
    _ordered_map,
    estimate,
)

log = logging.getLogger("aoi_secrecy.sweeps")

METHODS = ("closed_form", "oracle", "monte_carlo")
DEFAULT_SEED = 20260816

# compare's fixed pass marks: |closed - oracle| for the mean, and for an
# outage on top of the oracle's own truncation bound
TOL_MEAN = 1e-6
TOL_PROB = 1e-9
# fraction of points whose 95% CI must cover the reference: a genuine
# formula error drives coverage to ~0 at these horizons, while a correct
# implementation misses ~5% of points by CI chance. On a 4-point grid
# with few replications the false-alarm rate is not negligible:
# configs/compare_quick.ini covers only 2/4 points at seeds 9 and 12.
MC_COVERAGE_MIN = 0.75
# largest oracle truncation any run may use or adapt to
MAX_TRUNCATION = 4000
# smallest oracle truncation: at fast-mixing points the mean tolerance alone
# asks for a few dozen states, and this floor keeps the outage bound
# (1 - p_tx q)^N, which widens compare's outage check, negligible there
MIN_TRUNCATION = 400
# finest optimize grid. Each (q, eta, convention, p) probe scores the whole
# grid in one numpy pass, with a few grid-sized arrays live (about 30 MB
# traced at this step); the default 64 probes at this step take about 0.8 s
# on a 2-vCPU machine (numpy 2.4.6)
MIN_OPTIMIZE_STEP = 1e-6
# largest eta grid value. Past it fig2's starred p_tx = 1 / (q (eta + 1))
# at q = 1 nears the 1e-12 rate floor (below it from 10**12 on), and past
# float range the closed forms' q (eta + 1) and (1 - p_tx q) ** eta overflow
MAX_ETA = 10**10

# experiment -> its subcommand's help line, and its built-in values where
# they differ from the SweepSpec default: grids spanning the usual plotting
# ranges, and compare's three methods. Which settings an experiment reads is
# SETTINGS' `experiments` column, not this table.
_EXPERIMENTS: dict[str, tuple[str, dict[str, Any]]] = {
    "fig1": ("average secrecy age versus the p/q ratio", {
        "q_values": (0.1, 0.2, 0.3),
        "ptx_values": (0.5, 1.0),
        "ratio_values": tuple(float(r) for r in range(1, 9)),
    }),
    "fig2": ("objective p_tx (1 - P_out) versus the transmit probability", {
        "q_values": (0.2, 0.4),
        "eta_values": (5, 10),
        "ptx_values": tuple(round(0.05 * k, 2) for k in range(1, 21)),
        "p_values": (0.8,),
    }),
    "compare": ("cross-validate closed form, oracle and Monte Carlo on a grid", {
        "methods": METHODS,
        "p_values": (0.3, 0.8),
        "q_values": (0.2, 0.5),
        "ptx_values": (0.5, 1.0),
        "eta_values": (5,),
    }),
    "optimize": ("closed-form optimal p_tx versus a fine grid search", {
        "q_values": (0.1, 0.2, 0.3, 0.5),
        "eta_values": (2, 4, 5, 8),
        "p_values": (0.3, 0.8),
    }),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


@dataclass(frozen=True)
class SweepSpec:
    """Everything one experiment run depends on. A setting the experiment
    does not read (see SETTINGS; the simulation settings only with a
    monte_carlo leg) must keep its default, and every grid it reads must be
    nonempty. Methods are kept in METHODS order, duplicates collapsed."""

    experiment: str
    methods: tuple[str, ...] = ("closed_form",)
    convention: OutageConvention = DEFAULT_CONVENTION
    out_path: Optional[str] = None
    seed: int = DEFAULT_SEED
    p_values: tuple[float, ...] = ()
    q_values: tuple[float, ...] = ()
    ptx_values: tuple[float, ...] = ()
    ratio_values: tuple[float, ...] = ()
    eta_values: tuple[int, ...] = ()
    horizon: int = DEFAULT_HORIZON
    replications: int = DEFAULT_REPLICATIONS
    optimize_step: float = 1e-3
    workers: int = 1

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        defaults = {f.name: f.default for f in fields(self)}
        simulated = "monte_carlo" in self.methods
        unread, idle, empty = [], [], []
        for setting in SETTINGS:
            value = getattr(self, setting.field)
            offered = self.experiment in setting.experiments
            if offered and (simulated or setting.field not in _MONTE_CARLO_ONLY):
                if setting.section == "grid" and not value:
                    empty.append(setting.field)
            elif value != defaults[setting.field]:
                (idle if offered else unread).append(f"{setting.flag} ([{setting.section}] {setting.key})")
        if idle:
            unread.append(f"{', '.join(idle)} without monte_carlo")
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        if empty:
            raise ValueError(f"{self.experiment} needs nonempty grids: {', '.join(empty)}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        object.__setattr__(self, "methods", tuple(m for m in METHODS if m in self.methods))
        if not self.methods:
            raise ValueError("methods must be nonempty")
        if self.experiment == "compare" and len(self.methods) < 2:
            raise ValueError("compare needs at least two methods listed")
        if simulated:
            # the simulation settings pass SimConfig's checks before any leg runs
            SimConfig(self.horizon, burn_in=0, replications=self.replications, base_seed=self.seed)
            # compare judges Monte Carlo by its half-widths, which need two replications
            if self.experiment == "compare" and self.replications < 2:
                raise ValueError(f"compare with monte_carlo needs replications >= 2, got {self.replications}")
        # a rate is at least 1e-12 (p and q may also be 0): below that the
        # closed forms' products such as p_tx * q * (p + q - pq) underflow to 0
        grids = (("p", self.p_values, True), ("q", self.q_values, True), ("ptx", self.ptx_values, False))
        for name, values, zero in grids:
            for v in values:
                if not (1e-12 <= v <= 1.0 or (zero and v == 0.0)):
                    raise ValueError(f"{name} grid value {v} out of range")
        if not all(r > 0 for r in self.ratio_values):
            raise ValueError("ratio grid values must be positive")
        # where neither side ever resets no route defines the secrecy age;
        # fig1's p is ratio * q, so its q = 0 points all have p = 0
        if 0.0 in self.q_values and (self.experiment == "fig1" or 0.0 in self.p_values):
            where = "q=0 (p = ratio * q = 0)" if self.experiment == "fig1" else "p=0 q=0"
            raise ValueError(f"{self.experiment} grid point {where}: p = q = 0, no resets ever happen")
        # at p = 0 the receiver never resets: the objective is 0 at every p_tx
        # and the p probe's grid argmax is only the grid's first point
        if self.experiment == "optimize" and 0.0 in self.p_values:
            raise ValueError(
                "optimize grid point p=0: the receiver never resets, "
                "so the objective is 0 at every p_tx and has no argmax"
            )
        if any(not (isinstance(e, int) and 1 <= e <= MAX_ETA) for e in self.eta_values):
            raise ValueError(f"eta grid values must be integers from 1 to {MAX_ETA}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 < self.optimize_step <= 0.5:
            raise ValueError("optimize_step out of range")
        if self.optimize_step < MIN_OPTIMIZE_STEP:
            raise ValueError(
                f"optimize_step {self.optimize_step:g} is below {MIN_OPTIMIZE_STEP:g} "
                f"({round(1.0 / self.optimize_step)} grid points per probe)"
            )


# ---------------------------------------------------------------------------
# settings: one table feeds the config file and the command-line flags

def _items(raw: str) -> list[str]:
    """A list setting: comma-separated entries, blanks dropped."""
    return [s for s in (t.strip() for t in raw.split(",")) if s]


def _int(raw: str) -> int:
    """A base prefix (0x10) is read; a leading zero (010) or a fraction is
    refused rather than guessed at or truncated."""
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in _items(raw))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(_int(v) for v in _items(raw))


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(_items(raw))


def _convention(raw: str) -> OutageConvention:
    try:
        return OutageConvention(raw)
    except ValueError:
        raise ValueError(f"expected 'strict' or 'paper', got {raw!r}") from None


@dataclass(frozen=True)
class Setting:
    """One SweepSpec field, set by `key` in config section `section` or by
    `flag`; both give `parse` the entry's text. Only the `experiments` that
    read the field offer the flag or accept a non-default value."""

    field: str
    section: str
    key: str
    flag: str
    parse: Callable[[str], Any]
    experiments: tuple[str, ...]
    help: str


_WITH_LEGS = ("fig1", "fig2", "compare")  # the experiments that run method legs
# settings that only a monte_carlo leg reads: unread where it does not run
_MONTE_CARLO_ONLY = ("seed", "horizon", "replications")

SETTINGS: tuple[Setting, ...] = (
    Setting("methods", "experiment", "methods", "--methods", _strs, _WITH_LEGS,
            f"comma list from {', '.join(METHODS)}"),
    Setting("convention", "experiment", "convention", "--convention", _convention, ("fig2", "compare"),
            "outage threshold convention: strict or paper"),
    Setting("seed", "experiment", "seed", "--seed", _int, _WITH_LEGS, "base seed for all Monte Carlo legs"),
    Setting("out_path", "experiment", "out", "--out", str, EXPERIMENTS,
            "output CSV path (default <experiment>.csv)"),
    Setting("p_values", "grid", "p", "--p", _floats, ("fig2", "compare", "optimize"),
            "comma list of p values"),
    Setting("q_values", "grid", "q", "--q", _floats, EXPERIMENTS, "comma list of q values"),
    Setting("ptx_values", "grid", "ptx", "--ptx", _floats, _WITH_LEGS, "comma list of p_tx values"),
    Setting("ratio_values", "grid", "ratio", "--ratio", _floats, ("fig1",), "comma list of p/q ratios"),
    Setting("eta_values", "grid", "eta", "--eta", _ints, ("fig2", "compare", "optimize"),
            "comma list of thresholds"),
    Setting("horizon", "sim", "horizon", "--horizon", _int, _WITH_LEGS, "slots per replication"),
    Setting("replications", "sim", "replications", "--replications", _int, _WITH_LEGS,
            "Monte Carlo replications per point"),
    Setting("workers", "sim", "workers", "--workers", _int, _WITH_LEGS,
            "threads for parameter points, at most one per usable CPU"),
    Setting("optimize_step", "tolerances", "optimize_step", "--step", float, ("optimize",),
            "optimize grid-search step"),
)
_BY_CONFIG_KEY = {(s.section, s.key): s for s in SETTINGS}


def _json_text(section: str, key: str, value: Any) -> str:
    """A JSON entry as the text of its INI line. The decoder keeps numbers
    as their JSON text (and an object as its key/value pairs, refused
    here); a list becomes its entries joined by ", "."""
    entries = value if isinstance(value, list) else [value]
    if not all(isinstance(v, str) for v in entries):
        raise ValueError(f"config entry [{section}] {key}: expected text, a number or a list of them, got {value!r}")
    return ", ".join(entries)


def load_config(path: str) -> dict[str, Any]:
    """Read key = value sections (or the JSON equivalent) into SweepSpec
    field overrides. Both syntaxes give each entry as literal text (no %
    interpolation, keys case-sensitive), read by its setting's parser as
    its flag is. Unknown keys (an INI [DEFAULT] key among them), repeated
    sections or keys and malformed values are rejected with ValueError so
    typos cannot pass silently."""
    with open(path) as handle:
        text = handle.read()
    sections: dict[str, dict[str, str]]
    if path.endswith(".json") or text.lstrip().startswith("{"):
        # each object decodes to its pairs, so a repeat is seen, not overwritten
        top = json.loads(text, object_pairs_hook=tuple, parse_int=str, parse_float=str, parse_constant=str)
        if not isinstance(top, tuple):
            raise ValueError("config JSON must be an object of sections")
        sections = {}
        for section, body in top:
            if section in sections:
                raise ValueError(f"config section [{section}] repeated")
            if not isinstance(body, tuple):
                raise ValueError(f"config section {section!r} must hold key/value pairs")
            entries = sections[section] = {}
            for key, value in body:
                if key in entries:
                    raise ValueError(f"config entry [{section}] {key} repeated")
                entries[key] = _json_text(section, key, value)
    else:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str  # keys match exactly, as flags and JSON keys do
        try:
            parser.read_string(text)
        except configparser.Error as err:
            raise ValueError(f"config {path}: {err}") from None
        for key in parser.defaults():  # [DEFAULT] would feed every section
            raise ValueError(f"unknown config entry [{parser.default_section}] {key}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    overrides: dict[str, Any] = {}
    for section, body in sections.items():
        for key, raw in body.items():
            if (section, key) == ("experiment", "kind"):
                overrides["experiment"] = raw
                continue
            setting = _BY_CONFIG_KEY.get((section, key))
            if setting is None:
                raise ValueError(f"unknown config entry [{section}] {key}")
            try:
                overrides[setting.field] = setting.parse(raw)
            except ValueError as err:
                raise ValueError(f"config entry [{section}] {key}: {err}") from None
    return overrides


def make_spec(experiment: str, config: dict[str, Any] | None = None, **cli_overrides: Any) -> SweepSpec:
    """built-in values <- config file <- CLI flags; SweepSpec checks the
    result. make_spec(kind) alone is the experiment's built-in spec."""
    # an unknown kind has no built-in values, and SweepSpec refuses it
    merged = {**_EXPERIMENTS.get(experiment, ("", {}))[1], **(config or {})}
    for key, value in cli_overrides.items():
        if value is not None:
            merged[key] = value
    kind = merged.pop("experiment", experiment)
    if kind != experiment:
        raise ValueError(f"config is for experiment {kind!r}, not {experiment!r}")
    return SweepSpec(experiment=experiment, **merged)


# ---------------------------------------------------------------------------
# output plumbing

@dataclass
class SweepResult:
    header: list[str]
    rows: list[list[Any]]
    summary: str = ""
    exit_code: int = 0


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _row_seed(base: int, index: int) -> int:
    seq = np.random.SeedSequence(entropy=base, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def _maybe_write(spec: SweepSpec, result: SweepResult) -> SweepResult:
    if spec.out_path:
        write_csv(spec.out_path, result.header, result.rows)
        log.info("%s: wrote %d rows to %s", spec.experiment, len(result.rows), spec.out_path)
    return result


# ---------------------------------------------------------------------------
# method legs: one function per name in METHODS, each returning its route's
# SecrecyReport for one point

def _closed_form_leg(spec, index, params, policy, event, truncation) -> SecrecyReport:
    return closed_form_report(params, policy, event)


def _oracle_leg(spec, index, params, policy, event, truncation) -> SecrecyReport:
    return oracle_metrics(steady_state(build_truncated_chain(params, policy, truncation)), event)


def _monte_carlo_leg(spec, index, params, policy, event, truncation) -> SecrecyReport:
    # windows start at slot 0, in (1, 1): a regeneration point of the secrecy age
    config = SimConfig(
        horizon=spec.horizon,
        burn_in=0,
        replications=spec.replications,
        base_seed=_row_seed(spec.seed, index),
    )
    # replications stay serial here; parallelism is across parameter points
    est = estimate(params, policy, config, event)
    return SecrecyReport(
        "monte_carlo",
        est.mean_secrecy_age,
        est.outage_estimate,
        est.outage_event,
        mean_halfwidth=est.mean_halfwidth,
        outage_halfwidth=est.outage_halfwidth,
    )


_LEGS: dict[str, Callable[..., SecrecyReport]] = {
    "closed_form": _closed_form_leg,
    "oracle": _oracle_leg,
    "monte_carlo": _monte_carlo_leg,
}


def _oracle_truncation(spec: SweepSpec, p: float, q: float, ptx: float) -> Optional[int]:
    """The oracle's truncation at one point (None without an oracle leg):
    MIN_TRUNCATION, raised to what the mean tolerance demands. A demand
    beyond MAX_TRUNCATION is an error rather than a silently loose oracle."""
    if "oracle" not in spec.methods:
        return None
    if q == 0.0:
        return MIN_TRUNCATION
    needed = truncation_for_mean_tol(ChannelParams(p=p, q=q), Policy(p_tx=ptx), TOL_MEAN / 10.0)
    if needed > MAX_TRUNCATION:
        raise ValueError(
            f"mean tolerance {TOL_MEAN:g} needs truncation {needed} "
            f"> MAX_TRUNCATION {MAX_TRUNCATION} at p={p} q={q} p_tx={ptx}"
        )
    return max(MIN_TRUNCATION, needed)


def _evaluate(spec: SweepSpec, points: Sequence[tuple]) -> list[dict[str, SecrecyReport]]:
    """Each point's reports, in grid order: a dict mapping each requested
    method to its SecrecyReport. A point starts (p, q, p_tx, eta or None);
    anything after that is the runner's own. Every oracle truncation is
    settled before any leg runs, so an unmeetable demand costs no work.
    Every leg gets the point's one outage event, outage_event(eta,
    spec.convention). Monte Carlo seeds from the point's index, so results
    do not depend on the worker count."""
    truncations = [_oracle_truncation(spec, p, q, ptx) for p, q, ptx, *_ in points]

    def evaluate(index: int) -> dict[str, SecrecyReport]:
        p, q, ptx, eta = points[index][:4]
        params, policy = ChannelParams(p=p, q=q), Policy(p_tx=ptx)
        event = None if eta is None else outage_event(SecrecyThreshold(eta), spec.convention)
        return {m: _LEGS[m](spec, index, params, policy, event, truncations[index]) for m in spec.methods}

    return _ordered_map(evaluate, range(len(points)), spec.workers)


def _judged(spec: SweepSpec, header: list[str], rows: list[list[Any]], lines: list[str], failures: list[str],
            detail: str = "") -> SweepResult:
    """A checking run's summary is `lines`, each failure, then PASS or FAIL; exit 1 on any failure."""
    verdict = "FAIL" if failures else "PASS"
    summary = "\n".join([*lines, *failures, f"{spec.experiment}: {verdict}{detail}"])
    return _maybe_write(spec, SweepResult(header, rows, summary, 1 if failures else 0))


# ---------------------------------------------------------------------------
# fig1: average secrecy age versus the p/q ratio

def run_fig1_sweep(spec: SweepSpec) -> SweepResult:
    """Rows (q, p_tx, ratio, p) with one mean column per method. Points with
    p = ratio * q above 1 are skipped and logged."""
    points = []  # (p, q, p_tx, None, ratio)
    for q in spec.q_values:
        kept = []
        for ratio in spec.ratio_values:
            if ratio * q > 1.0 + 1e-9:
                log.warning("fig1: skipping q=%g ratio=%g: p=%g exceeds 1", q, ratio, ratio * q)
            else:
                kept.append(ratio)
        points.extend((min(ratio * q, 1.0), q, ptx, None, ratio) for ptx in spec.ptx_values for ratio in kept)

    rows = [
        [q, ptx, ratio, p] + [r.average_secrecy_age for r in reports.values()]
        for (p, q, ptx, _, ratio), reports in zip(points, _evaluate(spec, points))
    ]
    header = ["q", "p_tx", "ratio", "p"] + [f"avg_secrecy_age_{m}" for m in spec.methods]
    summary = f"fig1: {len(rows)} rows ({len(spec.methods)} method column(s))"
    return _maybe_write(spec, SweepResult(header, rows, summary))


# ---------------------------------------------------------------------------
# fig2: objective versus transmit probability, one starred row per curve

def run_fig2_sweep(spec: SweepSpec) -> SweepResult:
    """Objective curves, one per (p, q, eta), every method column at the
    convention's event; the starred row sits at the closed-form optimum."""
    points = []  # (p, q, p_tx, eta, starred)
    for p in spec.p_values:
        for q in spec.q_values:
            for eta in spec.eta_values:
                points.extend((p, q, ptx, eta, 0) for ptx in spec.ptx_values)
                points.append((p, q, optimal_ptx(q, SecrecyThreshold(eta), spec.convention), eta, 1))

    rows = [
        [p, q, eta, ptx, *(ptx * (1.0 - r.outage_probability) for r in reports.values()),
         spec.convention.value, starred]
        for (p, q, ptx, eta, starred), reports in zip(points, _evaluate(spec, points))
    ]
    header = (
        ["p", "q", "eta_th", "p_tx"]
        + [f"objective_{m}" for m in spec.methods]
        + ["convention", "starred"]
    )
    n_curves = len(spec.p_values) * len(spec.q_values) * len(spec.eta_values)
    summary = f"fig2: {len(rows)} rows over {n_curves} curves at p={','.join(f'{p:g}' for p in spec.p_values)}"
    return _maybe_write(spec, SweepResult(header, rows, summary))


# ---------------------------------------------------------------------------
# compare: closed form vs oracle vs Monte Carlo on a common grid

_COMPARE_HEADER = [
    "p", "q", "p_tx", "eta_th", "convention", "oracle_truncation",
    "mean_closed_form", "mean_oracle", "mean_abs_diff",
    "mean_monte_carlo", "mean_mc_halfwidth", "mean_ci_covers",
    "outage_closed_form", "outage_oracle", "outage_abs_diff",
    "outage_monte_carlo", "outage_mc_halfwidth", "outage_ci_covers",
]


def run_compare(spec: SweepSpec) -> SweepResult:
    """Cross-validate the requested methods point by point.

    Every method estimates the outage event of spec.convention, so under
    either label the closed form must meet the oracle and sit inside the
    Monte Carlo interval. A method not requested leaves its cells empty.
    Exit code 1 on any tolerance or coverage failure.
    """
    points = list(product(spec.p_values, spec.q_values, spec.ptx_values, spec.eta_values))
    rows: list[list[Any]] = []
    failures: list[str] = []
    for (p, q, ptx, eta), reports in zip(points, _evaluate(spec, points)):
        cf, orc, mc = (reports.get(m) for m in METHODS)
        where = f"p={p:g} q={q:g} p_tx={ptx:g} eta={eta}"
        mean_diff = out_diff = mean_covers = out_covers = None
        if cf is not None and orc is not None:
            cf_mean, orc_mean = cf.average_secrecy_age, orc.average_secrecy_age
            mean_diff = 0.0 if cf_mean == orc_mean else abs(cf_mean - orc_mean)  # both may be infinite
            if mean_diff > TOL_MEAN:
                failures.append(f"{where}: |mean closed-oracle| = {mean_diff:.3e} > {TOL_MEAN:g}")
            out_diff = abs(orc.outage_probability - cf.outage_probability)
            allowed = TOL_PROB + orc.outage_error_bound
            if out_diff > allowed:
                failures.append(f"{where}: outage closed-vs-oracle off by {out_diff:.3e} > {allowed:.3e}")
        # Monte Carlo against the closed form or else the oracle; not at q = 0, where no
        # stationary law exists (the reference mean is infinite) and a window measures a transient
        ref = cf or orc
        if mc is not None and math.isfinite(ref.average_secrecy_age):
            mean_covers = int(abs(mc.average_secrecy_age - ref.average_secrecy_age) <= mc.mean_halfwidth)
            out_covers = int(abs(mc.outage_probability - ref.outage_probability) <= mc.outage_halfwidth)
        rows.append([
            p, q, ptx, eta, spec.convention.value, orc and orc.truncation,
            cf and cf.average_secrecy_age, orc and orc.average_secrecy_age, mean_diff,
            mc and mc.average_secrecy_age, mc and mc.mean_halfwidth, mean_covers,
            cf and cf.outage_probability, orc and orc.outage_probability, out_diff,
            mc and mc.outage_probability, mc and mc.outage_halfwidth, out_covers,
        ])
    lines: list[str] = []
    for label in ("mean", "outage"):
        column = _COMPARE_HEADER.index(f"{label}_ci_covers")
        observed = [row[column] for row in rows if row[column] is not None]
        if observed:
            fraction = sum(observed) / len(observed)
            lines.append(f"compare: {label} CI covered {sum(observed)}/{len(observed)} points")
            if fraction < MC_COVERAGE_MIN:
                failures.append(f"{label} CI coverage {fraction:.3f} below required {MC_COVERAGE_MIN:g}")
    detail = f" over {len(rows)} points (convention={spec.convention.value})"
    return _judged(spec, _COMPARE_HEADER, rows, lines, failures, detail)


# ---------------------------------------------------------------------------
# optimize: closed-form optimum vs grid argmax, with p-independence probe

def run_optimize(spec: SweepSpec) -> SweepResult:
    """For each (q, eta) and both conventions: the closed-form maximizer,
    the argmax of the objective on a p_tx grid of the configured step, their
    gap, and whether the argmax is identical at every probed p."""
    step = spec.optimize_step
    n_steps = int(round(1.0 / step))
    grid = np.minimum(np.arange(1, n_steps + 1, dtype=float) * step, 1.0)
    rows: list[list[Any]] = []
    failures: list[str] = []
    for q in spec.q_values:
        for eta in spec.eta_values:
            threshold = SecrecyThreshold(eta)
            for convention in (OutageConvention.PAPER_PRINTED, OutageConvention.STRICT_DEFINITION):
                star = optimal_ptx(q, threshold, convention)
                argmaxes = []
                for p in spec.p_values:
                    values = objective_curve(ChannelParams(p=p, q=q), grid, threshold, convention)
                    argmaxes.append(float(grid[int(np.argmax(values))]))
                invariant = int(len(set(argmaxes)) == 1)
                best = argmaxes[0]
                gap = abs(best - star)
                rows.append([q, eta, convention.value, star, best, gap, invariant])
                if gap > step + 1e-12:
                    failures.append(
                        f"q={q:g} eta={eta} {convention.value}: grid argmax {best:g} "
                        f"vs closed form {star:g} (gap {gap:.3e} > step {step:g})"
                    )
                if not invariant:
                    failures.append(
                        f"q={q:g} eta={eta} {convention.value}: argmax varies with p: {argmaxes}"
                    )
    header = [
        "q", "eta_th", "convention", "ptx_star_closed_form",
        "ptx_star_grid", "abs_gap", "argmax_p_invariant",
    ]
    lines = [
        f"optimize: {len(rows)} (q, eta, convention) combinations, grid step {step:g}, "
        f"p probes {list(spec.p_values)}"
    ]
    return _judged(spec, header, rows, lines, failures)


RUNNERS: dict[str, Callable[[SweepSpec], SweepResult]] = {
    "fig1": run_fig1_sweep,
    "fig2": run_fig2_sweep,
    "compare": run_compare,
    "optimize": run_optimize,
}
