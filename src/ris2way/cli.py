"""Experiment runner.

Subcommands sweep transmit power (or element count), dispatch to the
analytic / Monte Carlo / optimization layers, and write RFC-4180-style CSV
(plus optional SVG line plots).  Powers are dBm and thresholds dB at this
boundary only; everything inside is linear milliwatts.

A flat key=value config file can pre-set any long flag of the chosen
subcommand; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic, mc
from .channel import (Reciprocity, Scheme, SystemConfig, UniformPhaseError,
                      VonMisesPhaseError, sweep_rho)
from .mc import NoCrossoverError
from .numerics import NonConvergenceError, regularized_gamma_q
from .optim import GREEDY_GRID, RANDOMIZATION_K, SDP_TOL, SolverFailureError
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
    policy: Optional[str] = None
    randomization_k: int = RANDOMIZATION_K
    greedy_grid: int = GREEDY_GRID
    sdp_tol: float = SDP_TOL


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _linear_flag(flag: str, db: float) -> float:
    """db_to_linear of a dB flag's value, which must stay below double range."""
    try:
        return db_to_linear(db)
    except OverflowError:
        raise SpecError(f"{flag}: {db:g} is too large, its linear value "
                        "overflows a double") from None


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
            mu, kappa = (float(t) for t in rest.split(","))
            return VonMisesPhaseError(mu, kappa)
    except ValueError as exc:
        raise SpecError(f"bad phase error spec {text!r}: {exc}") from exc
    raise SpecError(f"bad phase error spec {text!r}: "
                    "use none, uniform:DELTA, or vonmises:MU,KAPPA")


def _env_workers() -> int:
    value = os.environ.get("RIS2WAY_WORKERS", "1")
    try:
        return int(value)
    except ValueError:
        raise SpecError(f"RIS2WAY_WORKERS must be an integer, got {value!r}") from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="FILE",
                   help="flat key=value file pre-setting any long flag; flags override")
    p.add_argument("-L", "--L", "--elements", dest="elements", type=int, default=1,
                   metavar="L", help="number of reflecting elements (count)")
    p.add_argument("--sigma2", type=float, default=1.0,
                   help="per-coefficient channel variance, linear")
    p.add_argument("--noise-dbm", type=float, default=-70.0,
                   help="receiver noise power [dBm]")
    p.add_argument("--omega", type=float, default=1e-4,
                   help="loop-interference coefficient (linear, interference = omega * P^nu mW)")
    p.add_argument("--nu", type=float, default=0.0,
                   help="loop-interference power exponent, in [0, 1]")
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="one",
                   help="one: single-slot bidirectional; two: two one-way slots (half rate)")
    p.add_argument("--reciprocity", choices=[r.value for r in Reciprocity],
                   default="reciprocal")
    p.add_argument("--gamma-th-db", type=float, default=0.0,
                   help="SINR outage threshold [dB]")
    p.add_argument("--phase-error", default="none",
                   help="none | uniform:DELTA | vonmises:MU,KAPPA (radians)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--workers", type=int, default=_env_workers(),
                   help="Monte Carlo worker processes, at most the CPUs this process "
                   "may run on (default $RIS2WAY_WORKERS or 1)")
    p.add_argument("--out", default="out.csv", help="output CSV path (or prefix)")
    p.add_argument("--svg", action="store_true",
                   help="also write an SVG line plot next to each CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ris2way",
        description="Two-way reflecting-surface link experiments: outage, spectral "
                    "efficiency, max-min phase optimization, scheme crossover.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_out = sub.add_parser("outage", help="outage probability sweep")
    _add_config_flags(p_out)
    p_out.add_argument("--p-dbm", default="-10:30:2", help="power sweep START:STOP:STEP [dBm]")
    p_out.add_argument("--l-list", default="", help="sweep element counts instead (comma list)")
    p_out.add_argument("--method", "--methods", dest="methods", default="mc,exact",
                       help=f"comma list from {','.join(OUTAGE_METHODS)}")
    p_out.add_argument("--trials", type=int, default=10**5)
    p_out.add_argument("--user", default="1", help="1, 2, or min")
    p_out.add_argument("--policy", default=None,
                       help="phase policy for MC (default: optimal, or sdp/greedy/u1/random "
                            "for non-reciprocal channels)")

    p_se = sub.add_parser("se", help="average spectral efficiency sweep")
    _add_config_flags(p_se)
    p_se.add_argument("--p-dbm", default="-10:30:2")
    p_se.add_argument("--l-list", default="")
    p_se.add_argument("--method", "--methods", dest="methods", default="mc,exact",
                      help=f"comma list from {','.join(SE_METHODS)}")
    p_se.add_argument("--trials", type=int, default=10**3)
    p_se.add_argument("--user", default="1")
    p_se.add_argument("--policy", default=None)

    p_opt = sub.add_parser("optimize", help="per-instance max-min phase design")
    _add_config_flags(p_opt)
    p_opt.add_argument("--p-dbm", default="0:0:1", help="single power point [dBm]")
    p_opt.add_argument("--method", "--methods", dest="methods", default="sdp,greedy",
                       help=f"comma list from {','.join(OPT_METHODS)}")
    p_opt.add_argument("--trials", type=int, default=50, help="independent instances")
    p_opt.add_argument("--randomization-k", type=int, default=RANDOMIZATION_K)
    p_opt.add_argument("--greedy-grid", type=int, default=GREEDY_GRID)
    p_opt.add_argument("--sdp-tol", type=float, default=SDP_TOL)

    p_x = sub.add_parser("crossover", help="power where the one-slot scheme overtakes")
    _add_config_flags(p_x)
    p_x.add_argument("--p-dbm", default="-40:40:2", help="search grid [dBm]")
    p_x.add_argument("--l-list", default="", help="element counts to report (default: -L)")
    p_x.add_argument("--method", "--methods", dest="methods", default="analytic,mc",
                     help=f"comma list from {','.join(CROSSOVER_METHODS)}")
    p_x.add_argument("--trials", type=int, default=4000)

    p_rep = sub.add_parser("reproduce", help="bundled experiment presets")
    _add_config_flags(p_rep)
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
                if value.lower() in ("true", "false"):  # boolean flags
                    if value.lower() == "true":
                        out.append(flag)
                else:
                    out.extend([flag, value])
    except OSError as exc:
        raise SpecError(f"cannot read config file {path!r}: {exc}") from exc
    return out


def _merge_negative_values(tokens: list[str]) -> list[str]:
    """Turn ["--p-dbm", "-40:40:2"] into ["--p-dbm=-40:40:2"] so argparse does
    not mistake negative values for flags."""
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        nxt = tokens[i + 1] if i + 1 < len(tokens) else None
        if (tok.startswith("--") and "=" not in tok and nxt is not None
                and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit()):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def parse_args(argv: list[str]) -> argparse.Namespace:
    if not argv:
        build_parser().parse_args(argv)  # raises with usage
    command, rest = argv[0], list(argv[1:])
    if "--config" in rest:
        i = rest.index("--config")
        try:
            path = rest[i + 1]
        except IndexError:
            raise SpecError("--config needs a file path") from None
        file_args = _load_config_args(path)
        rest = file_args + rest  # flags after the file override it
    return build_parser().parse_args([command] + _merge_negative_values(rest))


# the flag that sets each SystemConfig field, to name it in error messages
_CONFIG_FLAGS = {"L": "--L", "sigma2": "--sigma2", "noise_mw": "--noise-dbm",
                 "omega": "--omega", "nu": "--nu", "gamma_th": "--gamma-th-db"}


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    phase_error = parse_phase_error(args.phase_error)
    try:
        cfg = SystemConfig(
            L=args.elements,
            sigma2=args.sigma2,
            noise_mw=_linear_flag("--noise-dbm", args.noise_dbm),
            omega=args.omega,
            nu=args.nu,
            scheme=Scheme(args.scheme),
            reciprocity=Reciprocity(args.reciprocity),
            gamma_th=_linear_flag("--gamma-th-db", args.gamma_th_db),
            phase_error=phase_error,
        )
    except ValueError as exc:  # SystemConfig messages start with the field name
        field = str(exc).split(" ", 1)[0]
        if field not in _CONFIG_FLAGS:
            raise
        raise SpecError(f"{_CONFIG_FLAGS[field]}: {exc}") from None
    given = vars(args)
    p_dbm = parse_sweep(args.p_dbm) if "p_dbm" in given else []
    if p_dbm:
        _linear_flag("--p-dbm", p_dbm[-1])  # the sweep's largest power
    # flags whose parsed value is the spec field of the same name
    plain = {f.name for f in dataclasses.fields(ExperimentSpec)} - {
        "p_dbm", "l_list", "methods", "cfg", "user", "workers"}
    return ExperimentSpec(
        p_dbm=p_dbm,
        l_list=_parse_l_list(given.get("l_list", "")),
        methods=[m for m in given.get("methods", "").split(",") if m],
        cfg=cfg,
        user=_parse_user(given.get("user", "1")),
        workers=max(1, args.workers),
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
    ("mc") with its policy, trial count and user."""

    label: str  # header name after the metric prefix
    cfg: SystemConfig  # without transmit power
    method: str
    policy: str = "optimal"
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
            cfg.L, cfg.gamma_th, sweep_rho(cfg, p_mw), analytic.gamma_approx_params(cfg.sigma2)),
        "clt": lambda cfg, p_mw: analytic.outage_clt(
            cfg.L, cfg.gamma_th, sweep_rho(cfg, p_mw), analytic.clt_params(cfg.L, cfg.sigma2)),
        "asymptotic": lambda cfg, p_mw: [analytic.asymptotic_outage(
            cfg.L, cfg.gamma_th, p, cfg.omega, cfg.nu, cfg.noise_mw, cfg.sigma2) for p in p_mw],
        "phase-error": lambda cfg, p_mw: analytic.outage_phase_error_uniform_pi(
            cfg.L, cfg.gamma_th, sweep_rho(cfg, p_mw), cfg.sigma2),
    },
    "se": {
        "exact": lambda cfg, p_mw: analytic.se_exact_L1(
            sweep_rho(cfg, p_mw), cfg.sigma2, half_rate=cfg.scheme is Scheme.TWO),
        "gamma": lambda cfg, p_mw: analytic.se_gamma(
            cfg.L, sweep_rho(cfg, p_mw), analytic.gamma_approx_params(cfg.sigma2),
            half_rate=cfg.scheme is Scheme.TWO),
        "asymptotic": lambda cfg, p_mw: [analytic.asymptotic_se(
            cfg.L, p, cfg.omega, cfg.nu, cfg.noise_mw, cfg.sigma2, cfg.scheme) for p in p_mw],
        "phase-error": lambda cfg, p_mw: analytic.se_phase_error_uniform_pi(
            cfg.L, sweep_rho(cfg, p_mw), cfg.sigma2, half_rate=cfg.scheme is Scheme.TWO),
    },
}
OUTAGE_METHODS = ("mc", *_LAWS["outage"])
SE_METHODS = ("mc", *_LAWS["se"])
# the element counts of the closed forms not defined at every L
_L_DOMAINS = {"exact": (lambda L: L == 1, "is the single-element law (L=1)"),
              "gamma": (lambda L: L >= 2, "needs L >= 2")}


def _validate_methods(spec: ExperimentSpec, allowed: tuple[str, ...]) -> None:
    if not spec.methods:
        raise SpecError("no methods requested")
    for m in spec.methods:
        if m not in allowed:
            raise SpecError(f"method {m!r} not valid for {spec.command!r} "
                            f"(allowed: {', '.join(allowed)})")
    if spec.cfg.reciprocity is Reciprocity.NON_RECIPROCAL:
        for m in spec.methods:
            if any(m in laws for laws in _LAWS.values()):
                raise SpecError(f"analytic method {m!r} applies to reciprocal channels")
    counts = spec.l_list or [spec.cfg.L]  # every L the sweep will use
    for m in spec.methods:
        valid, why = _L_DOMAINS.get(m, (lambda L: True, ""))
        if not all(valid(L) for L in counts):
            raise SpecError(f"method {m!r} {why}")


def _power_free(col: _Column, axis: str, xs: list) -> list[SystemConfig]:
    """The power-free config of each evaluation call of `col`: the column's own
    on a power sweep, one per element count on an L sweep."""
    if axis == "p_dbm":
        return [col.cfg]
    return [dataclasses.replace(col.cfg, L=x) for x in xs]


class _RunGains:
    """The Monte Carlo gains of one run's tables, collected once per `mc.draw_key`.

    It is built from every (axis, xs, columns) table of the run before any of
    them is evaluated.  The first reduction with a key collects every config of
    the run with that key in one `mc.collect_gains` call (on a reciprocal
    channel: every scheme, nu and phase-error model at one L and trial count, in
    any of the tables), and the group is held only until its last reduction.
    """

    def __init__(self, spec: ExperimentSpec, tables: list[tuple]):
        self._seed, self._workers = spec.seed, spec.workers
        self._members = {}  # draw key -> its configs, in order of first use
        self._uses = Counter()  # draw key -> reductions left
        self._held = {}  # draw key -> {config: gains}, while the group is in use
        for axis, xs, columns in tables:
            for col in columns:
                if col.method != "mc":
                    continue
                for cfg in _power_free(col, axis, xs):
                    key = mc.draw_key(cfg, col.policy, col.trials)
                    self._members.setdefault(key, {})[cfg] = None
                    self._uses[key] += 1

    def take(self, col: _Column, cfg: SystemConfig) -> mc.TrialGains:
        """The gains of power-free `cfg` for one reduction of column `col`."""
        key = mc.draw_key(cfg, col.policy, col.trials)
        if key not in self._held:
            group = list(self._members[key])
            self._held[key] = dict(zip(group, mc.collect_gains(
                group, col.policy, col.trials, self._seed, self._workers)))
        gains = self._held[key][cfg]
        self._uses[key] -= 1
        if not self._uses[key]:
            del self._held[key]  # its last reduction: drop the group
        return gains


def _sweep_table(metric: str, axis: str, xs: list, columns: list[_Column],
                 gains: _RunGains, p_dbm: float = 0.0) -> tuple[list, list]:
    """Header and rows of one outage/SE table, one row per point of `xs`.

    axis "p_dbm" sweeps the transmit power: each column is one call of its
    closed form, or of its Monte Carlo reduction, over the whole power grid.
    axis "L" sweeps the element count at the single power `p_dbm`, one call
    per point.  Both users send at each power.  Monte Carlo gains do not depend
    on the power, so they come from the run's `gains`, collected once per draw
    key, and are reduced at every point.
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
    _validate_methods(spec, OUTAGE_METHODS if metric == "outage" else SE_METHODS)
    policy = spec.policy or ("optimal" if spec.cfg.reciprocity is Reciprocity.RECIPROCAL
                             else "greedy")
    columns = [_Column(m, spec.cfg, m, policy, spec.trials, spec.user) for m in spec.methods]
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
    _validate_methods(spec, OPT_METHODS)
    if spec.cfg.reciprocity is not Reciprocity.NON_RECIPROCAL:
        raise SpecError("optimize works on non-reciprocal channels "
                        "(pass --reciprocity non-reciprocal)")
    if len(spec.p_dbm) != 1:
        raise SpecError("optimize needs a single power point")
    if spec.trials < 1:
        raise SpecError("trials must be >= 1")
    if not 0 < spec.sdp_tol < 1:
        raise SpecError(f"--sdp-tol: relaxation tolerance must be > 0 and < 1, "
                        f"got {spec.sdp_tol!r}")
    if spec.randomization_k < 1:
        raise SpecError(f"--randomization-k: need at least one randomization sample, "
                        f"got {spec.randomization_k}")
    if spec.greedy_grid < 2:
        raise SpecError(f"--greedy-grid: the grid needs at least 2 angles, "
                        f"got {spec.greedy_grid}")
    if spec.cfg.scheme is Scheme.TWO:
        raise SpecError("optimize designs the one-slot scheme's shared phases; the "
                        "two-slot scheme co-phases each slot (see se --scheme two)")
    rho = float(sweep_rho(spec.cfg, [db_to_linear(spec.p_dbm[0])])[0])
    # trial t is trial t of each method's Monte Carlo collection, solved at rho = 1
    gains = {m: mc.collect_gains([spec.cfg], m, spec.trials, spec.seed, spec.workers,
                                 grid=spec.greedy_grid, tol=spec.sdp_tol,
                                 k=spec.randomization_k)[0] for m in spec.methods}
    header, cells = ["trial"], [[str(t) for t in range(spec.trials)]]
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
    p_mw = analytic.scheme_crossover_power(cfg.L, cfg.omega, cfg.nu, cfg.noise_mw,
                                           cfg.sigma2)
    return f"{10.0 * math.log10(p_mw):.6f}"


def run_crossover(spec: ExperimentSpec) -> dict:
    if not spec.methods or any(m not in CROSSOVER_METHODS for m in spec.methods):
        raise SpecError(f"crossover methods must come from {', '.join(CROSSOVER_METHODS)}")
    if spec.cfg.reciprocity is not Reciprocity.RECIPROCAL:
        raise SpecError("the scheme-crossover comparison is defined on reciprocal channels")
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

    Every column is on a reciprocal channel unless it says otherwise.
    """
    def col(label, method, trials=0, policy="optimal", user=1, **over):
        cfg = dataclasses.replace(spec.cfg, **{"reciprocity": Reciprocity.RECIPROCAL, **over})
        return _Column(label, cfg, method, policy, trials, user)

    trials = {"outage": spec.trials_outage, "se": spec.trials_se}
    deltas = (math.pi / 8, math.pi / 4, math.pi / 2, math.pi)
    nonrec = Reciprocity.NON_RECIPROCAL
    return {
        # single element across interference exponents, and the two-slot reference
        "fig3": {m: (m, _grid(-10, 40), [
            col(f"{k}_nu{nu:g}", k, trials[m], L=1, nu=nu)
            for nu in (0.0, 1.0) for k in ("mc", "exact")]
            + [col("exact_twoslot", "exact", L=1, scheme=Scheme.TWO)])
            for m in ("outage", "se")},
        # each doubling of L shifts the outage waterfall ~12 dB down; span them all
        "fig4": {"outage": ("outage", _grid(-80, 30), [
            col(f"{m}_L{L}", m, spec.trials_outage, L=L, nu=0.0)
            for L in (2, 4, 16, 32, 64) for m in ("mc", "gamma", "clt")])},
        # low enough to show every scheme-crossover at the default noise level;
        # two-slot curves are identical across nu, so the nu=1 panel keeps one
        "fig5": {name: ("se", _grid(-50, 40), [
            col(f"{m}_L{L}_{scheme.value}", m, spec.trials_se, L=L, nu=nu, scheme=scheme)
            for L in (2, 16, 64) for scheme in (Scheme.ONE, Scheme.TWO)
            if not (scheme is Scheme.TWO and nu == 1.0 and L != 2)
            for m in ("mc", "gamma")])
            for nu, name in ((0.0, "a_nu0"), (1.0, "b_nu1"))},
        # phase jitter, between the fully scrambled and the error-free laws
        "fig6": {m: (m, _grid(-20, 30), [
            c for L in l_values for c in (
                [col(f"mc_L{L}_d{d:.3f}", "mc", trials[m], L=L, nu=0.0,
                     phase_error=UniformPhaseError(d)) for d in deltas]
                + [col(f"scrambled_L{L}", "phase-error", L=L, nu=0.0),
                   col(f"errorfree_L{L}", "gamma", L=L, nu=0.0)])])
            for m, l_values in (("outage", (4, 16)), ("se", (4, 32)))},
        # (a) per-user rates of the max-min methods and baselines at L=8;
        # (b) reciprocal optimum vs non-reciprocal max-min across element counts
        "fig8": {
            "a_methods": ("se", _grid(-10, 10), [
                col(f"mc_{p}_u{u}", "mc", spec.trials_opt, p, u, L=8, nu=0.0,
                    reciprocity=nonrec)
                for p in ("sdp", "greedy", "u1", "random") for u in (1, 2)]),
            "b_reciprocity_gap": ("se", _grid(-10, 10), [
                c for L in (1, 2, 4, 16) for c in (
                    col(f"mc_rec_L{L}", "mc", spec.trials_se, L=L),
                    col(f"mc_nonrec_L{L}", "mc", spec.trials_opt, "greedy", L=L,
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
        # P(|h g| > t) is one minus the single-element outage at threshold t^2, rho = 1
        outage = analytic.outage_exact_L1(np.array([t * t for t in ts]), 1.0, s2)
        tail = regularized_gamma_q(params.k, np.array([t / params.theta for t in ts]))
        for o, g, row in zip(outage, tail, rows_b):
            row.extend([fmt_prob(1.0 - o), fmt_prob(float(g))])
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
    # one collection per draw key across all of the preset's tables
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
