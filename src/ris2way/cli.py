"""Experiment runner.

Subcommands sweep transmit power (or element count), dispatch to the
analytic / Monte Carlo / optimization layers, and write RFC-4180-style CSV
(plus optional SVG line plots).  Powers are dBm and thresholds dB at this
boundary only; everything inside is linear milliwatts.

Each subcommand takes the config flags that can change its output (see
`_CONFIG_FLAGS`), and a flat key=value config file can pre-set any long flag
it takes; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import analytic, mc
from .channel import (PHASE_POLICIES, Reciprocity, Scheme, SystemConfig,
                      UniformPhaseError, VonMisesPhaseError, sweep_rho)
from .mc import NoCrossoverError
from .numerics import NonConvergenceError, regularized_gamma_q
from .optim import SolverFailureError
from .svgplot import write_line_svg

OPT_METHODS = ("sdp", "greedy", "u1", "random")
CROSSOVER_METHODS = ("analytic", "mc")

PRESETS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
_MAX_SWEEP_POINTS = 10**5  # the largest preset grid has 56


class SpecError(ValueError):
    """Invalid experiment description."""


@dataclass
class ExperimentSpec:
    command: str
    p_dbm: list[float] = field(default_factory=list)
    l_list: list[int] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)
    cfg: SystemConfig = field(default_factory=lambda: SystemConfig(L=1))
    out: str = "out.csv"
    seed: int = 0
    trials: Optional[int] = None
    user: object = 1
    workers: int = 1
    svg: bool = False
    preset: str = ""
    trials_outage: int = 10**5
    trials_se: int = 10**3
    trials_opt: int = 50


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _linear_flag(db: float) -> float:
    """db_to_linear of a dB flag's value, which must stay below double range."""
    try:
        return db_to_linear(db)
    except OverflowError:
        raise SpecError(f"{db:g} is too large, its linear value overflows a double") from None


def _flag_value(flag: str, convert: Callable, value):
    """convert(value), with an error message that names the flag."""
    try:
        return convert(value)
    except ValueError as exc:
        raise SpecError(f"{flag}: {exc}") from None


def parse_sweep(text: str) -> list[float]:
    """START:STOP:STEP in dBm, inclusive of STOP up to float fuzz."""
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise SpecError(f"bad sweep {text!r}, expected START:STOP:STEP") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise SpecError(f"bad sweep {text!r}: START, STOP and STEP must be finite")
    if step <= 0 or stop < start:
        raise SpecError(f"bad sweep {text!r}: need STOP >= START and STEP > 0")
    # counted as a float first: a huge count would overflow int() or the list
    span = (stop - start) / step + 1e-9
    if not span < _MAX_SWEEP_POINTS:
        raise SpecError(f"bad sweep {text!r}: more than {_MAX_SWEEP_POINTS} points")
    n = int(math.floor(span)) + 1
    return [start + i * step for i in range(n)]


def _parse_l_list(text: str) -> list[int]:
    """Comma list of element counts for --l-list ("" means none)."""
    try:
        counts = [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise SpecError(f"bad --l-list {text!r}, expected a comma list of integers") from exc
    if any(L < 1 for L in counts):
        raise SpecError(f"bad --l-list {text!r}: element counts must be >= 1")
    return counts


def _parse_user(text: str):
    if text not in ("1", "2", "min"):
        raise SpecError(f"bad --user {text!r}, expected 1, 2 or min")
    return text if text == "min" else int(text)


def parse_phase_error(text: str):
    if text in ("none", ""):
        return None
    kind, _, rest = text.partition(":")
    try:
        if kind == "uniform":
            return UniformPhaseError(float(rest))
        if kind == "vonmises":
            mu, comma, kappa = rest.partition(",")
            if not comma:
                raise ValueError("kappa is missing, use vonmises:MU,KAPPA")
            return VonMisesPhaseError(float(mu), float(kappa))
    except ValueError as exc:
        raise SpecError(f"bad phase error spec {text!r}: {exc}") from exc
    raise SpecError(f"bad phase error spec {text!r}: "
                    "use none, uniform:DELTA, or vonmises:MU,KAPPA")


class _Flag(NamedTuple):
    names: tuple  # the first one names the flag in messages
    commands: str  # the subcommands that take it: those whose output it can change
    kwargs: dict  # argparse keywords
    convert: Callable = lambda value: value  # parsed value -> field value


# The flag of each SystemConfig field; a subcommand that does not take it keeps
# the field's default.  optimize designs the one-slot phases of non-reciprocal
# channels, crossover compares both schemes on reciprocal ones, and every
# preset column sets its own L, reciprocity, scheme, phase-error model and nu.
_CONFIG_FLAGS = {
    "L": _Flag(("--L", "-L", "--elements"), "outage se optimize crossover", dict(
        type=int, default=1, metavar="L", help="number of reflecting elements (count)")),
    "sigma2": _Flag(("--sigma2",), "outage se optimize crossover reproduce", dict(
        type=float, default=1.0, help="per-coefficient channel variance, linear")),
    "noise_mw": _Flag(("--noise-dbm",), "outage se optimize crossover reproduce", dict(
        type=float, default=-70.0, metavar="DBM", help="receiver noise power [dBm]"),
        _linear_flag),
    "omega": _Flag(("--omega",), "outage se optimize crossover reproduce", dict(
        type=float, default=1e-4,
        help="loop-interference coefficient (linear, interference = omega * P^nu mW)")),
    "nu": _Flag(("--nu",), "outage se optimize crossover", dict(
        type=float, default=0.0, help="loop-interference power exponent, in [0, 1]")),
    "scheme": _Flag(("--scheme",), "outage se", dict(
        choices=[s.value for s in Scheme], default="one",
        help="one: single-slot bidirectional; two: two one-way slots (half rate)"), Scheme),
    "reciprocity": _Flag(("--reciprocity",), "outage se", dict(
        choices=[r.value for r in Reciprocity], default="reciprocal"), Reciprocity),
    "gamma_th": _Flag(("--gamma-th-db",), "outage reproduce", dict(
        type=float, default=0.0, metavar="DB", help="SINR outage threshold [dB]"),
        _linear_flag),
    "phase_error": _Flag(("--phase-error",), "outage se crossover", dict(
        default="none", help="none | uniform:DELTA | vonmises:MU,KAPPA (radians)"),
        parse_phase_error),
    "policy": _Flag(("--policy",), "outage se", dict(
        default=None, help=f"phase policy of the mc column, from {','.join(PHASE_POLICIES)}: "
        "optimal (the default) on a reciprocal channel; greedy (the default), sdp, u1 or "
        "random on a non-reciprocal one, ignored by its two-slot scheme")),
}


def _add_subcommand(sub, command: str, about: str) -> argparse.ArgumentParser:
    """The subcommand's parser with the flags every subcommand takes and its config flags."""
    p = sub.add_parser(command, help=about)
    p.add_argument("--config", action="append", metavar="FILE",
                   help="flat key=value file pre-setting any long flag; flags override")
    for name, flag in _CONFIG_FLAGS.items():
        if command in flag.commands.split():
            p.add_argument(*flag.names, dest=name, **flag.kwargs)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--workers", type=int, default=None,
                   help="Monte Carlo worker processes, at most the CPUs this process "
                   "may run on (default: $RIS2WAY_WORKERS if set, else 1)")
    p.add_argument("--out", default="out.csv", help="output CSV path (or prefix)")
    p.add_argument("--svg", action="store_true",
                   help="also write an SVG line plot next to each CSV")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ris2way",
        description="Two-way reflecting-surface link experiments: outage, spectral "
                    "efficiency, max-min phase optimization, scheme crossover.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, about, methods, trials in (
            ("outage", "outage probability sweep", OUTAGE_METHODS, 10**5),
            ("se", "average spectral efficiency sweep", SE_METHODS, 10**3)):
        p = _add_subcommand(sub, name, about)
        p.add_argument("--p-dbm", default="-10:30:2", help="power sweep START:STOP:STEP [dBm]")
        p.add_argument("--l-list", default="", help="sweep element counts instead (comma list)")
        p.add_argument("--method", "--methods", dest="methods", default=None,
                       help=f"comma list from {','.join(methods)} (default: mc, plus on a "
                       "reciprocal channel exact if every swept L is 1, gamma if every one "
                       "is >= 2)")
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--user", default="1", help="1, 2, or min")

    p_opt = _add_subcommand(sub, "optimize", "per-instance max-min phase design of the "
                            "one-slot scheme on non-reciprocal channels")
    p_opt.add_argument("--p-dbm", default="0:0:1", help="single power point [dBm]")
    p_opt.add_argument("--method", "--methods", dest="methods", default="sdp,greedy",
                       help=f"comma list from {','.join(OPT_METHODS)}")
    p_opt.add_argument("--trials", type=int, default=50, help="independent instances")

    p_x = _add_subcommand(sub, "crossover", "power where the one-slot scheme overtakes "
                          "the two-slot scheme on reciprocal channels")
    p_x.add_argument("--p-dbm", default="-40:40:2", help="search grid [dBm]")
    p_x.add_argument("--l-list", default="", help="element counts to report (default: -L)")
    p_x.add_argument("--method", "--methods", dest="methods", default=None,
                     help=f"comma list from {','.join(CROSSOVER_METHODS)} (default: both, "
                     "mc alone with a phase-error model)")
    p_x.add_argument("--trials", type=int, default=4000)

    p_rep = _add_subcommand(sub, "reproduce", "bundled experiment presets; each column "
                            "sets its own L, reciprocity, scheme, phase-error model and nu")
    p_rep.add_argument("preset", choices=PRESETS)
    p_rep.add_argument("--trials-outage", type=int, default=10**5)
    p_rep.add_argument("--trials-se", type=int, default=10**3)
    p_rep.add_argument("--trials-opt", type=int, default=50)
    return ap


def _load_config_args(path: str) -> list[str]:
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise SpecError(f"config line without '=': {line!r}")
                flag = "--" + key.strip().replace("_", "-")
                value = value.strip()
                if value.lower() == "true":  # a boolean flag, set
                    out.append(flag)
                elif value.lower() != "false":
                    out.extend([flag, value])
    except OSError as exc:
        raise SpecError(f"cannot read config file {path!r}: {exc}") from exc
    return out


def _merge_negative_values(tokens: list[str]) -> list[str]:
    """Turn ["--p-dbm", "-40:40:2"] into ["--p-dbm=-40:40:2"] so argparse does
    not mistake negative values for flags."""
    out = []
    for tok in tokens:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and len(tok) > 1 and tok[0] == "-" and tok[1].isdigit()):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed; with --config, parsed again with the file's flags right
    after the subcommand, so that argv's flags override them."""
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    if args.config is not None:
        file_args = _load_config_args(args.config[-1])
        args = parser.parse_args(_merge_negative_values(argv[:1] + file_args + argv[1:]))
        if len(args.config) > 1:
            raise SpecError("--config: given twice, on the command line or in the file")
    return args


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    given = vars(args)
    source, workers = "--workers", args.workers  # the flag overrides the environment
    if workers is None:
        source, workers = "RIS2WAY_WORKERS", os.environ.get("RIS2WAY_WORKERS", "1")
    workers = _flag_value(source, int, workers)
    if workers < 1:
        raise SpecError(f"{source}: need at least one worker, got {workers}")
    for name in ("trials", "trials_outage", "trials_se", "trials_opt"):
        if given.get(name, 1) < 1:
            raise SpecError(f"--{name.replace('_', '-')}: trials must be >= 1, got {given[name]}")
    values = {name: _flag_value(flag.names[0], flag.convert, given[name])
              for name, flag in _CONFIG_FLAGS.items() if name in given}
    try:
        cfg = SystemConfig(**{"L": 1, **values})  # reproduce's columns set their own L
    except ValueError as exc:  # SystemConfig messages start with the field name
        flag = _CONFIG_FLAGS[str(exc).split(" ", 1)[0]]
        raise SpecError(f"{flag.names[0]}: {exc}") from None
    p_dbm = parse_sweep(args.p_dbm) if "p_dbm" in given else []
    if p_dbm:
        _flag_value("--p-dbm", _linear_flag, p_dbm[-1])  # the sweep's largest power
    # flags whose parsed value is the spec field of the same name
    plain = {f.name for f in dataclasses.fields(ExperimentSpec)} - {
        "p_dbm", "l_list", "methods", "cfg", "user", "workers"}
    l_list = _parse_l_list(given.get("l_list", ""))
    methods = given.get("methods", "")
    return ExperimentSpec(
        p_dbm=p_dbm,
        l_list=l_list,
        methods=(_default_methods(args.command, cfg, l_list) if methods is None
                 else [m for m in methods.split(",") if m]),
        cfg=cfg,
        user=_parse_user(given.get("user", "1")),
        workers=workers,
        **{k: v for k, v in given.items() if k in plain},
    )


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def fmt_prob(x: float) -> str:
    return f"{x:.10e}"


def fmt_val(x: float) -> str:
    return f"{x:.10g}"


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _maybe_svg(spec: ExperimentSpec, path: str, header: list[str],
               rows: list[list[str]], log_y: bool, y_label: str) -> None:
    if not spec.svg or len(rows) < 2:
        return
    x = [float(r[0]) for r in rows]
    series = {name: [float(r[j]) for r in rows]
              for j, name in enumerate(header[1:], start=1)
              if not name.startswith("stderr")}
    if not any(math.isfinite(v) and (v > 0 or not log_y)
               for vals in series.values() for v in vals):
        return  # e.g. every outage estimate is 0 on a log axis
    write_line_svg(os.path.splitext(path)[0] + ".svg", x, series, log_y=log_y,
                   title=os.path.basename(path), x_label=header[0], y_label=y_label)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

_Y_LABELS = {"outage": "outage probability", "se": "bits/sec/Hz"}


@dataclass(frozen=True)
class _Column:
    """One outage/SE column: a closed-form law, or a Monte Carlo estimate
    ("mc") with its trial count and user, under its config's policy."""

    metric: str  # "outage" or "se"
    label: str  # header name after the metric prefix
    cfg: SystemConfig  # without transmit power
    method: str
    trials: int = 0
    user: object = 1


# The closed-form columns: metric -> method -> law(power-free cfg, p_mw), the
# column at each transmit power of p_mw.  Every law but the asymptotic ones
# takes the whole rho vector in one call.  A law looks `analytic.<name>` up
# when it is called, so a wrapper set on that module attribute sees the call.
_LAWS = {
    "outage": {
        "exact": lambda cfg, p_mw: analytic.outage_exact_L1(
            cfg.gamma_th, sweep_rho(cfg, p_mw), cfg.sigma2),
        "gamma": lambda cfg, p_mw: analytic.outage_gamma_Lge2(
            cfg.L, cfg.gamma_th, sweep_rho(cfg, p_mw), cfg.sigma2),
        "clt": lambda cfg, p_mw: analytic.outage_clt(
            cfg.L, cfg.gamma_th, sweep_rho(cfg, p_mw), cfg.sigma2),
        "asymptotic": lambda cfg, p_mw: [analytic.asymptotic_outage(
            cfg.L, cfg.gamma_th, p, cfg.omega, cfg.nu, cfg.noise_mw, cfg.sigma2) for p in p_mw],
        "phase-error": lambda cfg, p_mw: analytic.outage_phase_error_uniform_pi(
            cfg.L, cfg.gamma_th, sweep_rho(cfg, p_mw), cfg.sigma2),
    },
    "se": {
        "exact": lambda cfg, p_mw: analytic.se_exact_L1(
            sweep_rho(cfg, p_mw), cfg.sigma2, half_rate=cfg.scheme is Scheme.TWO),
        "gamma": lambda cfg, p_mw: analytic.se_gamma(
            cfg.L, sweep_rho(cfg, p_mw), cfg.sigma2, half_rate=cfg.scheme is Scheme.TWO),
        "asymptotic": lambda cfg, p_mw: [analytic.asymptotic_se(
            cfg.L, p, cfg.omega, cfg.nu, cfg.noise_mw, cfg.sigma2, cfg.scheme) for p in p_mw],
        "phase-error": lambda cfg, p_mw: analytic.se_phase_error_uniform_pi(
            cfg.L, sweep_rho(cfg, p_mw), cfg.sigma2, half_rate=cfg.scheme is Scheme.TWO),
    },
}
OUTAGE_METHODS = ("mc", *_LAWS["outage"])
SE_METHODS = ("mc", *_LAWS["se"])
_METHODS = {"outage": OUTAGE_METHODS, "se": SE_METHODS, "optimize": OPT_METHODS,
            "crossover": CROSSOVER_METHODS}
# the closed forms not defined on every reciprocal config: method -> (rule on
# the config at each swept L, what the message says when it fails)
_DOMAINS = {"exact": (lambda cfg, L: L == 1, "is the single-element law (L=1)"),
            "gamma": (lambda cfg, L: L >= 2, "needs L >= 2"),
            "analytic": (lambda cfg, L: cfg.phase_error is None, "has no phase-error term")}


def _misfit(m: str, cfg: SystemConfig, l_list: list[int]) -> str:
    """Why method `m` does not apply to the channel or to some swept L, or ""."""
    if (cfg.reciprocity is not Reciprocity.RECIPROCAL
            and any(m in laws for laws in _LAWS.values())):
        return f"analytic method {m!r} applies to reciprocal channels"
    valid, why = _DOMAINS.get(m, (lambda cfg, L: True, ""))
    return "" if all(valid(cfg, L) for L in l_list or [cfg.L]) else f"method {m!r} {why}"


def _default_methods(command: str, cfg: SystemConfig, l_list: list[int]) -> list[str]:
    """outage's, se's and crossover's default columns: mc, plus each closed form
    of `_DOMAINS` that fits the channel and every swept L, if no phase error."""
    return [m for m in _METHODS[command] if m == "mc" or (
        cfg.phase_error is None and m in _DOMAINS and not _misfit(m, cfg, l_list))]


def _validate_methods(spec: ExperimentSpec) -> None:
    """Check --methods against the command's names, the channel and every swept L."""
    allowed = _METHODS[spec.command]
    if not spec.methods:
        raise SpecError("--methods: no methods requested")
    for m in spec.methods:
        if m not in allowed:
            raise SpecError(f"--methods: method {m!r} not valid for {spec.command!r} "
                            f"(allowed: {', '.join(allowed)})")
        if spec.methods.count(m) > 1:
            raise SpecError(f"--methods: method {m!r} given twice")
        misfit = _misfit(m, spec.cfg, spec.l_list)
        if misfit:
            raise SpecError(f"--methods: {misfit}")


def _power_free(col: _Column, axis: str, xs: list) -> list[SystemConfig]:
    """The power-free config of each evaluation call of `col`: the column's own
    on a power sweep, one per element count on an L sweep."""
    if axis == "p_dbm":
        return [col.cfg]
    return [dataclasses.replace(col.cfg, L=x) for x in xs]


class _RunGains:
    """The Monte Carlo tallies of one run's tables, collected once per trial count.

    It is built from every (axis, xs, columns) table of the run before any of
    them is evaluated.  The first reduction at a trial count collects every
    config of the run at that count in one `mc.collect_gains` call (every L,
    reciprocity, scheme, nu, policy and phase-error model, in any of the
    tables), which draws each block's channel stream once for all of them.
    Every column is a request of that call, so each config gets an `mc.Tally`,
    a few numbers per power, kept for the rest of the run.
    """

    def __init__(self, spec: ExperimentSpec, tables: list[tuple]):
        self._seed, self._workers = spec.seed, spec.workers
        self._requests = {}  # trial count -> (config, metric, user, p_mw) per reduction
        self._tallies = {}  # trial count -> {config: tally}, once collected
        for axis, xs, columns in tables:
            p_mw = [db_to_linear(x) for x in (xs if axis == "p_dbm" else spec.p_dbm)]
            for col in columns:
                for cfg in _power_free(col, axis, xs) if col.method == "mc" else ():
                    self._requests.setdefault(col.trials, []).append(
                        (cfg, col.metric, col.user, p_mw))

    def take(self, col: _Column, cfg: SystemConfig) -> mc.Tally:
        """The tally of power-free `cfg` for one reduction of column `col`."""
        if col.trials not in self._tallies:
            requests = self._requests[col.trials]
            cfgs = list(dict.fromkeys(c for c, *_ in requests))
            self._tallies[col.trials] = dict(zip(cfgs, mc.collect_gains(
                cfgs, col.trials, self._seed, self._workers, requests)))
        return self._tallies[col.trials][cfg]


def _sweep_table(metric: str, axis: str, xs: list, columns: list[_Column],
                 gains: _RunGains, p_dbm: float = 0.0) -> tuple[list, list]:
    """Header and rows of one outage/SE table, one row per point of `xs`.

    axis "p_dbm" sweeps the transmit power: each column is one call of its
    closed form, or of its Monte Carlo reduction, over the whole power grid.
    axis "L" sweeps the element count at the single power `p_dbm`, one call
    per point.  Both users send at each power.  A Monte Carlo column reads its
    tally from the run's `gains`, collected once per trial count.
    """
    fmt = fmt_prob if metric == "outage" else fmt_val
    reduce = mc.outage_from_gains if metric == "outage" else mc.se_from_gains
    p_mw = [db_to_linear(x) for x in (xs if axis == "p_dbm" else [p_dbm])]
    header, cells = [axis], [[fmt_val(x) for x in xs]]
    for col in columns:
        values, errors = [], []
        for cfg in _power_free(col, axis, xs):
            if col.method != "mc":
                values.extend(fmt(v) for v in _LAWS[metric][col.method](cfg, p_mw))
                continue
            for e in reduce(cfg, p_mw, gains.take(col, cfg), col.user):
                values.append(fmt(e.value))
                errors.append(fmt_prob(e.std_error))
        header.append(f"{metric}_{col.label}")
        cells.append(values)
        if col.method == "mc":
            header.append(f"stderr_{col.label}")
            cells.append(errors)
    return header, [list(row) for row in zip(*cells)]


def run_sweep_command(spec: ExperimentSpec, metric: str) -> dict:
    _validate_methods(spec)
    columns = [_Column(metric, m, spec.cfg, m, spec.trials, spec.user) for m in spec.methods]
    if spec.l_list:
        if len(spec.p_dbm) != 1:
            raise SpecError("an element-count sweep needs a single power point")
        axis, xs, p_dbm = "L", spec.l_list, spec.p_dbm[0]
    elif spec.p_dbm:
        axis, xs, p_dbm = "p_dbm", spec.p_dbm, 0.0
    else:
        raise SpecError("empty power sweep")
    sweep_rho(spec.cfg, [db_to_linear(p) for p in spec.p_dbm])  # a bad rho fails before any draw
    header, rows = _sweep_table(metric, axis, xs, columns,
                                _RunGains(spec, [(axis, xs, columns)]), p_dbm)
    return {"": (header, rows, metric == "outage", _Y_LABELS[metric])}


def run_optimize(spec: ExperimentSpec) -> dict:
    _validate_methods(spec)
    if len(spec.p_dbm) != 1:
        raise SpecError("optimize needs a single power point")
    rho = float(sweep_rho(spec.cfg, [db_to_linear(spec.p_dbm[0])])[0])
    # trial t is trial t of the methods' one Monte Carlo collection, solved at rho = 1
    cfgs = [dataclasses.replace(spec.cfg, reciprocity=Reciprocity.NON_RECIPROCAL, policy=m)
            for m in spec.methods]
    gains = dict(zip(spec.methods, mc.collect_gains(cfgs, spec.trials, spec.seed, spec.workers)))
    header, cells = ["trial"], [[str(t) for t in range(spec.trials)]]
    with np.errstate(over="ignore"):  # a huge sigma2 takes the SINRs past the doubles
        if "sdp" in spec.methods:
            header.append("t_star")
            cells.append([fmt_val(t) for t in rho * gains["sdp"].t_star])
        for m in spec.methods:
            g1, g2 = rho * gains[m].g1, rho * gains[m].g2
            header.extend([f"gamma1_{m}", f"gamma2_{m}", f"min_{m}"])
            cells.extend([fmt_val(v) for v in col] for col in (g1, g2, np.minimum(g1, g2)))
    return {"": (header, [list(row) for row in zip(*cells)], False, "SINR")}


def _crossover_dbm(cfg: SystemConfig) -> str:
    """Closed-form power where the one-slot scheme overtakes, in dBm."""
    return "{:.6f}".format(analytic.scheme_crossover_dbm(cfg.L, cfg.omega, cfg.nu,
                                                        cfg.noise_mw, cfg.sigma2))


def run_crossover(spec: ExperimentSpec) -> dict:
    _validate_methods(spec)
    finders = {"analytic": _crossover_dbm,
               "mc": lambda cfg: "{:.6f}".format(mc.find_crossover(
                   cfg, spec.p_dbm, spec.trials, spec.seed, workers=spec.workers))}
    header = ["L"] + [f"crossover_{m}_dbm" for m in spec.methods]
    rows = []
    for L in spec.l_list or [spec.cfg.L]:
        cfg = dataclasses.replace(spec.cfg, L=L)
        rows.append([str(L)] + [finders[m](cfg) for m in spec.methods])
    return {"": (header, rows, False, "crossover power [dBm]")}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _grid(lo: int, hi: int) -> list[float]:
    """dBm grid from lo to hi inclusive in 2 dB steps."""
    return [float(p) for p in range(lo, hi + 1, 2)]


def _power_panels(spec: ExperimentSpec) -> dict[str, dict[str, tuple]]:
    """The power-sweep presets: preset -> panel -> (metric, dBm grid, columns).

    Every column sets its L and policy (the config's default unless it says
    otherwise), and has SystemConfig's reciprocal, one-slot, error-free, nu = 0
    channel unless it says otherwise: reproduce takes no flag for those fields.
    """
    def col(metric, label, method, trials=0, policy=None, user=1, **over):
        return _Column(metric, label, dataclasses.replace(spec.cfg, policy=policy, **over),
                       method, trials, user)

    trials = {"outage": spec.trials_outage, "se": spec.trials_se}
    deltas = (math.pi / 8, math.pi / 4, math.pi / 2, math.pi)
    nonrec = Reciprocity.NON_RECIPROCAL
    return {
        # single element across interference exponents, and the two-slot reference
        "fig3": {m: (m, _grid(-10, 40), [
            col(m, f"{k}_nu{nu:g}", k, trials[m], L=1, nu=nu)
            for nu in (0.0, 1.0) for k in ("mc", "exact")]
            + [col(m, "exact_twoslot", "exact", L=1, scheme=Scheme.TWO)])
            for m in ("outage", "se")},
        # each doubling of L shifts the outage waterfall ~12 dB down; span them all
        "fig4": {"outage": ("outage", _grid(-80, 30), [
            col("outage", f"{m}_L{L}", m, spec.trials_outage, L=L)
            for L in (2, 4, 16, 32, 64) for m in ("mc", "gamma", "clt")])},
        # low enough to show every scheme-crossover at the default noise level;
        # two-slot curves are identical across nu, so the nu=1 panel keeps one
        "fig5": {name: ("se", _grid(-50, 40), [
            col("se", f"{m}_L{L}_{scheme.value}", m, spec.trials_se, L=L, nu=nu, scheme=scheme)
            for L in (2, 16, 64) for scheme in (Scheme.ONE, Scheme.TWO)
            if not (scheme is Scheme.TWO and nu == 1.0 and L != 2)
            for m in ("mc", "gamma")])
            for nu, name in ((0.0, "a_nu0"), (1.0, "b_nu1"))},
        # phase jitter, between the fully scrambled and the error-free laws
        "fig6": {m: (m, _grid(-20, 30), [
            c for L in l_values for c in (
                [col(m, f"mc_L{L}_d{d:.3f}", "mc", trials[m], L=L,
                     phase_error=UniformPhaseError(d)) for d in deltas]
                + [col(m, f"scrambled_L{L}", "phase-error", L=L),
                   col(m, f"errorfree_L{L}", "gamma", L=L)])])
            for m, l_values in (("outage", (4, 16)), ("se", (4, 32)))},
        # (a) per-user rates of the max-min methods and baselines at L=8;
        # (b) reciprocal optimum vs non-reciprocal max-min across element counts
        "fig8": {
            "a_methods": ("se", _grid(-10, 10), [
                col("se", f"mc_{p}_u{u}", "mc", spec.trials_opt, p, u, L=8, reciprocity=nonrec)
                for p in ("sdp", "greedy", "u1", "random") for u in (1, 2)]),
            "b_reciprocity_gap": ("se", _grid(-10, 10), [
                c for L in (1, 2, 4, 16) for c in (
                    col("se", f"mc_rec_L{L}", "mc", spec.trials_se, L=L),
                    col("se", f"mc_nonrec_L{L}", "mc", spec.trials_opt, L=L,
                        reciprocity=nonrec))]),
        },
    }


def _preset_fig2(spec: ExperimentSpec) -> dict:
    # (a) divergence of the gamma fit vs sigma; (b) per-element cascade CCDF
    sigmas = [0.05 * (25 / 0.05) ** (i / 24) for i in range(25)]
    rows_a = [[fmt_val(s), fmt_prob(analytic.kl_divergence_gamma_fit(s * s))]
              for s in sigmas]
    out = {"a_kl": (["sigma", "kl_divergence"], rows_a, False, "KL divergence")}

    ts = [0.05 * i for i in range(1, 81)]
    header = ["t"]
    rows_b = [[fmt_val(t)] for t in ts]
    for s2 in (0.1, 1.0, 10.0):
        header.extend([f"ccdf_exact_s{s2:g}", f"ccdf_gamma_s{s2:g}"])
        params = analytic.gamma_approx_params(s2)
        # P(|h g| > t) is the single-element P(SINR > t^2) at rho = 1
        exact = analytic.ccdf_exact_L1(np.array([t * t for t in ts]), 1.0, s2)
        tail = regularized_gamma_q(params.k, np.array([t / params.theta for t in ts]))
        for e, g, row in zip(exact, tail, rows_b):
            row.extend([fmt_prob(float(e)), fmt_prob(float(g))])
    out["b_ccdf"] = (header, rows_b, True, "CCDF")
    return out


def _preset_fig7(spec: ExperimentSpec) -> dict:
    omegas = [10.0 ** (-12 + idx * 0.5) for idx in range(17)]
    out = {}
    for nu, name in ((0.0, "a_nu0"), (1.0, "b_nu1")):
        header = ["omega"] + [f"p_boundary_L{L}_dbm" for L in (1, 2, 16, 64)]
        rows = [[fmt_prob(w)] + [_crossover_dbm(dataclasses.replace(spec.cfg, L=L, omega=w, nu=nu))
                                 for L in (1, 2, 16, 64)] for w in omegas]
        out[name] = (header, rows, False, "boundary power [dBm]")
    return out


def _preset_out(spec: ExperimentSpec, name: str) -> str:
    base, ext = os.path.splitext(spec.out)
    prefix = base if ext.lower() == ".csv" else spec.out
    return f"{prefix}_{name}.csv"


def run_reproduce(spec: ExperimentSpec) -> dict:
    if spec.preset == "fig2":
        return _preset_fig2(spec)
    if spec.preset == "fig7":
        return _preset_fig7(spec)
    panels = _power_panels(spec)[spec.preset]
    # one collection per trial count across all of the preset's tables
    gains = _RunGains(spec, [("p_dbm", grid, columns) for _, grid, columns in panels.values()])
    return {name: (*_sweep_table(metric, "p_dbm", grid, columns, gains),
                   metric == "outage", _Y_LABELS[metric])
            for name, (metric, grid, columns) in panels.items()}


def _check_out(spec: ExperimentSpec) -> None:
    """Reject an --out the CSVs cannot be written to, before any work."""
    directory = os.path.dirname(spec.out) or "."
    if not os.path.isdir(directory):
        raise SpecError(f"output directory {directory!r} of --out {spec.out!r} "
                        "does not exist")
    if not os.access(directory, os.W_OK):
        raise SpecError(f"output directory {directory!r} of --out {spec.out!r} "
                        "is not writable")
    # reproduce takes --out as a file-name prefix, which may name a directory
    if spec.command != "reproduce" and os.path.isdir(spec.out):
        raise SpecError(f"--out {spec.out!r} is a directory")


# Each command returns its tables, {name: (header, rows, log_y, y_label)}: the
# name "" is --out itself, any other a file named after --out (_preset_out).
_COMMANDS = {"outage": lambda spec: run_sweep_command(spec, "outage"),
             "se": lambda spec: run_sweep_command(spec, "se"),
             "optimize": run_optimize, "crossover": run_crossover, "reproduce": run_reproduce}


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment; returns a process exit code."""
    try:
        _check_out(spec)
        if spec.command not in _COMMANDS:
            raise SpecError(f"unknown command {spec.command!r}")
        for name, (header, rows, log_y, y_label) in _COMMANDS[spec.command](spec).items():
            path = _preset_out(spec, name) if name else spec.out
            write_csv(path, header, rows)
            _maybe_svg(spec, path, header, rows, log_y, y_label)
    except (SpecError, ValueError) as exc:
        print(f"ris2way: invalid spec: {exc}", file=sys.stderr)
        return 2
    except SolverFailureError as exc:
        print(f"ris2way: solver failure: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"ris2way: quadrature did not converge: {exc}", file=sys.stderr)
        return 4
    except NoCrossoverError as exc:
        print(f"ris2way: {exc}", file=sys.stderr)
        return 5
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        spec = spec_from_args(args)
    except ValueError as exc:  # SpecError, or a SystemConfig field out of range
        print(f"ris2way: invalid spec: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
