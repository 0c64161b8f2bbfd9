"""Experiment runner: spec parsing, CSV contracts, determinism, exit codes."""

import ast
import csv
import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from ris2way import channel, cli, mc, optim
from ris2way import rng as rngmod
from ris2way.channel import (NonReciprocalChannel, UniformPhaseError, VonMisesPhaseError,
                             sample_channel_block, sinr_nonreciprocal, sweep_rho)
from ris2way.cli import (main, parse_args, parse_phase_error, parse_sweep,
                         spec_from_args)


def run_cli(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_parse_sweep_grid_arithmetic():
    grid = parse_sweep("-40:40:2")
    assert len(grid) == 41
    assert grid[0] == -40.0 and grid[-1] == 40.0
    with pytest.raises(ValueError):
        parse_sweep("10:0:1")
    with pytest.raises(ValueError):
        parse_sweep("oops")


def test_parse_phase_error_specs():
    assert parse_phase_error("none") is None
    assert parse_phase_error("uniform:0.4") == UniformPhaseError(0.4)
    assert parse_phase_error("vonmises:0.1,2.0") == VonMisesPhaseError(0.1, 2.0)
    with pytest.raises(ValueError):
        parse_phase_error("uniform")


def test_outage_exact_row_count(tmp_path):
    out = tmp_path / "o.csv"
    rc = run_cli(["outage", "--L", "1", "--method", "exact", "--p-dbm", "-40:40:2",
                  "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p_dbm", "outage_exact"]
    assert len(rows) == 41


def test_mc_columns_have_stderr_sibling(tmp_path):
    out = tmp_path / "o.csv"
    rc = run_cli(["outage", "--L", "2", "--methods", "mc,gamma", "--p-dbm", "0:10:5",
                  "--trials", "2000", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p_dbm", "outage_mc", "stderr_mc", "outage_gamma"]
    for row in rows:
        float(row[1]), float(row[2])  # parsable scientific notation
        assert "e" in row[1]


def test_csv_byte_identical_across_runs_and_workers(tmp_path):
    blobs = []
    for i, workers in enumerate((1, 4, 8)):
        out = tmp_path / f"run{i}.csv"
        rc = run_cli(["outage", "--L", "2", "--methods", "mc,gamma",
                      "--p-dbm", "-5:15:5", "--trials", "9000", "--seed", "42",
                      "--workers", str(workers), "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_config_file_flags_override(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("elements=4\ntrials=500\nmethods=gamma\np-dbm=0:10:5\n")
    out = tmp_path / "o.csv"
    rc = run_cli(["outage", "--config", str(cfgfile), "--methods", "gamma,clt",
                  "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    # file set L=4 and the sweep; the flag overrode the method list
    assert header == ["p_dbm", "outage_gamma", "outage_clt"]
    assert len(rows) == 3


def test_invalid_method_exit_code(tmp_path, capsys):
    rc = run_cli(["outage", "--L", "1", "--methods", "nonsense",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "invalid spec" in capsys.readouterr().err


def test_exact_method_requires_single_element(tmp_path):
    rc = run_cli(["outage", "--L", "4", "--methods", "exact",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_analytic_methods_rejected_for_nonreciprocal(tmp_path):
    rc = run_cli(["outage", "--L", "4", "--reciprocity", "non-reciprocal",
                  "--methods", "gamma", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_crossover_rejects_nonreciprocal(tmp_path):
    rc = run_cli(["crossover", "--L", "2", "--reciprocity", "non-reciprocal",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_crossover_no_sign_change_exit_code(tmp_path):
    rc = run_cli(["crossover", "--L", "2", "--nu", "1", "--methods", "mc",
                  "--p-dbm", "30:50:5", "--trials", "1000",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 5


def test_optimize_respects_relaxation_bound(tmp_path):
    out = tmp_path / "opt.csv"
    rc = run_cli(["optimize", "--L", "4", "--reciprocity", "non-reciprocal",
                  "--methods", "sdp,greedy,u1,random", "--trials", "5",
                  "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    i_t = header.index("t_star")
    for row in rows:
        t_star = float(row[i_t])
        for m in ("sdp", "greedy", "u1", "random"):
            assert float(row[header.index(f"min_{m}")]) <= t_star * (1 + 2e-4)
        # co-phasing for user 1 gives the largest user-1 SINR
        g1_u1 = float(row[header.index("gamma1_u1")])
        for m in ("sdp", "greedy", "random"):
            assert float(row[header.index(f"gamma1_{m}")]) <= g1_u1 * (1 + 1e-9)


def test_optimize_flags_reach_the_stacked_solvers(tmp_path):
    """Every cell at non-default settings equals the one-instance reference at
    those settings on Monte Carlo trial t, row t of block 0: the greedy search
    on 90 angles, the joint-path relaxation at tol 1e-3 rounded from 7 samples
    of the trial's STREAM_OPTIM generator, both at rho = 1, and the baselines,
    random from the block's STREAM_BASELINE generator; each SINR is its
    trial's one-row `sinr_nonreciprocal` at the sweep's rho, and t_star is
    rho times the bound at rho = 1."""
    out = tmp_path / "opt.csv"
    argv = ["optimize", "--L", "4", "--reciprocity", "non-reciprocal", "--seed", "3",
            "--methods", "sdp,greedy,u1,random", "--trials", "4", "--greedy-grid", "90",
            "--sdp-tol", "1e-3", "--randomization-k", "7", "--p-dbm", "20:20:1",
            "--out", str(out)]
    assert run_cli(argv) == 0
    _, rows = read_csv(out)
    assert len(rows) == 4
    spec = spec_from_args(parse_args(argv))
    cfg = spec.cfg
    rho = float(sweep_rho(cfg, [cli.db_to_linear(spec.p_dbm[0])])[0])
    assert rho != 1.0
    block = sample_channel_block(cfg, rngmod.block_generator(3, rngmod.STREAM_CHANNEL, 0), 4)
    randoms = rngmod.block_generator(3, rngmod.STREAM_BASELINE, 0).uniform(
        0.0, 2.0 * math.pi, size=(4, cfg.L))
    for t, row in enumerate(rows):
        ch = NonReciprocalChannel(block.h_t[t], block.h_r[t], block.g_t[t], block.g_r[t])
        forms = optim.build_quadratic_forms(ch, 1.0)
        sol = optim.sdp_maxmin(forms, tol=1e-3, method="joint")
        sdp, _ = optim.gaussian_randomization(
            sol.a_star, forms, 7, rngmod.trial_generator(3, rngmod.STREAM_OPTIM, t))
        expected = [str(t), cli.fmt_val(rho * sol.t_star)]
        u1 = -np.angle(ch.h_r * ch.g_t)
        for phases in (sdp, optim.greedy_iterative(ch, 1.0, k=90).phases, u1, randoms[t]):
            g1, g2 = sinr_nonreciprocal(ch, phases, rho)
            expected += [cli.fmt_val(g1), cli.fmt_val(g2), cli.fmt_val(min(g1, g2))]
        assert row == expected


def test_optimize_rows_are_monte_carlo_trials(tmp_path):
    """optimize's row t is trial t of `mc.collect_gains` at the same seed and
    solver settings: gamma_p = rho * g_p under every policy, min_p their
    minimum, and t_star = rho * t*, the relaxation bound at rho = 1."""
    out = tmp_path / "opt.csv"
    argv = ["optimize", "--L", "3", "--reciprocity", "non-reciprocal", "--seed", "9",
            "--methods", "sdp,greedy,u1,random", "--trials", "6", "--greedy-grid", "120",
            "--sdp-tol", "1e-3", "--randomization-k", "11", "--p-dbm", "15:15:1",
            "--nu", "0.5", "--out", str(out)]
    assert run_cli(argv) == 0
    header, rows = read_csv(out)
    spec = spec_from_args(parse_args(argv))
    rho = float(sweep_rho(spec.cfg, [cli.db_to_linear(15.0)])[0])
    assert rho != 1.0
    names, cells = ["trial", "t_star"], [[str(t) for t in range(6)], None]
    for m in spec.methods:
        [g] = mc.collect_gains([spec.cfg], m, 6, 9, grid=120, tol=1e-3, k=11)
        if m == "sdp":
            cells[1] = [cli.fmt_val(t) for t in rho * g.t_star]
        else:
            assert np.isnan(g.t_star).all()
        g1, g2 = rho * g.g1, rho * g.g2
        names += [f"gamma1_{m}", f"gamma2_{m}", f"min_{m}"]
        cells += [[cli.fmt_val(v) for v in col] for col in (g1, g2, np.minimum(g1, g2))]
    assert header == names
    assert rows == [list(row) for row in zip(*cells)]


def test_optimize_bytes_do_not_depend_on_workers(tmp_path):
    """4100 trials are two Monte Carlo blocks, so two workers run them in a pool."""
    argv = ["optimize", "--L", "2", "--reciprocity", "non-reciprocal",
            "--methods", "greedy,u1,random", "--trials", "4100"]
    for w in ("1", "2"):
        assert run_cli(argv + ["--workers", w, "--out", str(tmp_path / f"w{w}.csv")]) == 0
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_element_sweep(tmp_path):
    out = tmp_path / "l.csv"
    rc = run_cli(["outage", "--l-list", "2,4,8", "--p-dbm", "10:10:1",
                  "--methods", "gamma", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["L", "outage_gamma"]
    assert [r[0] for r in rows] == ["2", "4", "8"]


def test_single_value_l_list_is_an_element_sweep(tmp_path, capsys):
    out = tmp_path / "l.csv"
    rc = run_cli(["outage", "--l-list", "8", "--p-dbm", "10:10:1",
                  "--methods", "gamma,clt", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["L", "outage_gamma", "outage_clt"]
    rc = run_cli(["outage", "--L", "8", "--p-dbm", "10:10:1",
                  "--methods", "gamma,clt", "--out", str(tmp_path / "p.csv")])
    assert rc == 0
    assert rows == [["8"] + r[1:] for r in read_csv(tmp_path / "p.csv")[1]]
    rc = run_cli(["se", "--l-list", "8", "--p-dbm", "-10:0:10",
                  "--methods", "gamma", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "single power point" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["outage", "--user", "3", "--methods", "exact"], "--user"),
    (["se", "--user", "foo", "--methods", "exact"], "--user"),
    (["outage", "--l-list", "2,x", "--p-dbm", "0:0:1", "--methods", "gamma"], "--l-list"),
    (["crossover", "--l-list", "0", "--methods", "analytic"], "--l-list"),
])
def test_bad_user_or_l_list_exit_code(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and flag in err
    assert not out.exists()


@pytest.mark.parametrize("argv, reason", [
    (["outage", "--phase-error", "vonmises:nan,1", "--L", "4", "--methods", "mc"],
     "'vonmises:nan,1': mu must be finite, got nan"),
    (["se", "--phase-error", "vonmises:0,nan", "--L", "4", "--methods", "mc"],
     "'vonmises:0,nan': kappa must be > 0, got nan"),
    (["outage", "--p-dbm", "0:inf:1", "--methods", "exact"],
     "bad sweep '0:inf:1': START, STOP and STEP must be finite"),
    (["outage", "--p-dbm", "nan:1:1", "--methods", "exact"],
     "bad sweep 'nan:1:1': START, STOP and STEP must be finite"),
    # a count that overflows a float, and one that would build ~1e301 points
    (["outage", "--p-dbm", "0:1e308:1e-300", "--methods", "exact"],
     "bad sweep '0:1e308:1e-300': more than 100000 points"),
    (["outage", "--p-dbm", "0:10:1e-300", "--methods", "exact"],
     "bad sweep '0:10:1e-300': more than 100000 points"),
])
def test_non_finite_jitter_or_sweep_exit_code(tmp_path, capsys, argv, reason):
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--sigma2", "nan"), ("--noise-dbm", "nan"), ("--gamma-th-db", "nan"), ("--omega", "nan"),
    ("--sigma2", "inf"),
])
def test_non_finite_config_flag_exit_code(tmp_path, capsys, flag, value):
    # each used to exit 0 with outage 0.0 at every power
    out = tmp_path / "x.csv"
    argv = ["outage", "--L", "2", "--methods", "mc", "--p-dbm", "0:4:2", "--trials", "2000",
            flag, value, "--out", str(out)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and f"{flag}: " in err and f"got {value}" in err
    assert not out.exists()


_OPTIMIZE = ["optimize", "--L", "2", "--reciprocity", "non-reciprocal", "--trials", "2"]


@pytest.mark.parametrize("argv, reason", [
    (["se", "--p-dbm", "0:10:5", "--methods", "mc", "--trials", "100",
      "--noise-dbm=-inf", "--omega", "0"],
     "--noise-dbm: noise_mw must be finite and > 0, got 0.0"),
    (_OPTIMIZE + ["--noise-dbm=-inf", "--omega", "0"],
     "--noise-dbm: noise_mw must be finite and > 0, got 0.0"),
    (_OPTIMIZE + ["--noise-dbm", "inf"], "--noise-dbm: noise_mw must be finite and > 0, got inf"),
    (_OPTIMIZE + ["--omega", "inf"], "--omega: omega must be finite, got inf"),
])
def test_zero_or_infinite_noise_or_interference_exit_code(tmp_path, capsys, argv, reason):
    # a bad spec, not a crash (exit 1) or a solver failure (exit 3)
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["outage", "--L", "2", "--methods", "gamma", "--p-dbm", "4000:4000:1"], "--p-dbm"),
    (["crossover", "--methods", "mc", "--p-dbm", "0:4000:2000"], "--p-dbm"),
    (["outage", "--noise-dbm", "4000"], "--noise-dbm"),
    (["outage", "--gamma-th-db", "4000"], "--gamma-th-db"),
])
def test_db_overflow_exit_code(tmp_path, capsys, argv, flag):
    # 10^(dB/10) used to end in an OverflowError traceback (exit 1)
    out = tmp_path / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and f"{flag}: 4000 is too large" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, reason", [
    (["--trials", "0"], "trials must be >= 1"),
    (["--trials", "-3"], "trials must be >= 1"),
    (["--sdp-tol", "0"], "tolerance must be > 0"),
    (["--sdp-tol", "-1"], "tolerance must be > 0"),
    (["--sdp-tol", "nan"], "tolerance must be > 0"),
    (["--sdp-tol", "1"], "tolerance must be > 0"),
    (["--sdp-tol", "100"], "tolerance must be > 0"),
    (["--sdp-tol", "inf"], "tolerance must be > 0"),
    # checked whatever the methods, before any draw
    (["--methods", "greedy", "--sdp-tol", "100"], "--sdp-tol: relaxation tolerance must be > 0"),
    (["--methods", "greedy", "--randomization-k", "-5"], "--randomization-k: need at least one"),
    (["--methods", "sdp", "--randomization-k", "0"], "--randomization-k: need at least one"),
    (["--greedy-grid", "1"], "--greedy-grid: the grid needs at least 2 angles"),
    # the two-slot scheme co-phases each slot: there are no shared phases to design
    (["--scheme", "two"], "optimize designs the one-slot scheme's shared phases"),
])
def test_bad_optimize_input_exit_code(tmp_path, capsys, monkeypatch, flags, reason):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a channel before checking the flags")

    monkeypatch.setattr(cli.mc, "collect_gains", no_draw)
    out = tmp_path / "x.csv"
    argv = ["optimize", "--L", "2", "--reciprocity", "non-reciprocal",
            "--methods", "sdp", "--trials", "2"]
    assert run_cli(argv + flags + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and reason in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["outage", "--L", "1", "--methods", "mc,exact,asymptotic", "--trials", "100"],
    ["se", "--L", "2", "--methods", "mc,gamma", "--trials", "100"],
    ["optimize", "--L", "2", "--reciprocity", "non-reciprocal", "--trials", "2"],
])
def test_non_finite_rho_exit_code(tmp_path, capsys, monkeypatch, argv):
    """A subnormal noise power makes rho = P / (interference + noise) overflow:
    each command exits 2 naming rho and the noise, before any draw."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a channel before checking rho")

    monkeypatch.setattr(cli.mc, "collect_gains", no_draw)
    out = tmp_path / "x.csv"
    flags = ["--noise-dbm=-3200", "--omega", "0", "--p-dbm", "0:0:1", "--out", str(out)]
    assert run_cli(argv + flags) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and "rho" in err and "noise_mw" in err
    assert not out.exists()


def test_solver_failure_exit_code_names_the_trial(tmp_path, capsys, monkeypatch):
    def fail(z1, z2, budget, method, rngs=None, **kwargs):
        raise optim.SolverFailureError("interior point stalled", 2)

    monkeypatch.setattr(cli.mc, "maxmin_block", fail)
    out = tmp_path / "x.csv"
    argv = ["se", "--L", "2", "--reciprocity", "non-reciprocal", "--policy", "sdp",
            "--methods", "mc", "--p-dbm", "0:0:1", "--trials", "5", "--out", str(out)]
    assert run_cli(argv) == 3
    assert "solver failure: trial 2: interior point stalled" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_solver_failure_names_the_trial(tmp_path, capsys, monkeypatch):
    def fail(z1, z2, budget, method, rngs=None, **kwargs):
        raise optim.SolverFailureError("interior point stalled", 2)

    monkeypatch.setattr(cli.mc, "maxmin_block", fail)
    out = tmp_path / "x.csv"
    argv = ["optimize", "--L", "2", "--reciprocity", "non-reciprocal", "--trials", "5",
            "--out", str(out)]
    assert run_cli(argv) == 3
    assert "solver failure: trial 2: interior point stalled" in capsys.readouterr().err
    assert not out.exists()


def test_svg_emitted(tmp_path):
    out = tmp_path / "o.csv"
    rc = run_cli(["outage", "--L", "1", "--method", "exact", "--p-dbm", "-10:10:5",
                  "--svg", "--out", str(out)])
    assert rc == 0
    svg = tmp_path / "o.svg"
    assert svg.exists()
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def _mc(metric, tag):
    return [f"{metric}_mc_{tag}", f"stderr_mc_{tag}"]


DELTAS = ("0.393", "0.785", "1.571", "3.142")

# preset -> panel -> (row count, header)
PRESET_TABLES = {
    "fig2": {
        "a_kl": (25, ["sigma", "kl_divergence"]),
        "b_ccdf": (80, ["t"] + [f"ccdf_{k}_s{s}" for s in ("0.1", "1", "10")
                                for k in ("exact", "gamma")]),
    },
    "fig3": {m: (26, ["p_dbm"] + _mc(m, "nu0") + [f"{m}_exact_nu0"] + _mc(m, "nu1")
                 + [f"{m}_exact_nu1", f"{m}_exact_twoslot"])
             for m in ("outage", "se")},
    "fig4": {"outage": (56, ["p_dbm"] + [c for L in (2, 4, 16, 32, 64) for c in (
        _mc("outage", f"L{L}") + [f"outage_gamma_L{L}", f"outage_clt_L{L}"])])},
    "fig5": {name: (46, ["p_dbm"] + [c for tag in tags for c in (
        _mc("se", tag) + [f"se_gamma_{tag}"])])
        for name, tags in (("a_nu0", [f"L{L}_{s}" for L in (2, 16, 64) for s in ("one", "two")]),
                           ("b_nu1", ["L2_one", "L2_two", "L16_one", "L64_one"]))},
    "fig6": {m: (26, ["p_dbm"] + [c for L in ls for c in (
        [c for d in DELTAS for c in _mc(m, f"L{L}_d{d}")]
        + [f"{m}_scrambled_L{L}", f"{m}_errorfree_L{L}"])])
        for m, ls in (("outage", (4, 16)), ("se", (4, 32)))},
    "fig7": {name: (17, ["omega"] + [f"p_boundary_L{L}_dbm" for L in (1, 2, 16, 64)])
             for name in ("a_nu0", "b_nu1")},
    "fig8": {
        "a_methods": (11, ["p_dbm"] + [c for p in ("sdp", "greedy", "u1", "random")
                                       for u in (1, 2) for c in _mc("se", f"{p}_u{u}")]),
        "b_reciprocity_gap": (11, ["p_dbm"] + [c for L in (1, 2, 4, 16) for c in (
            _mc("se", f"rec_L{L}") + _mc("se", f"nonrec_L{L}"))]),
    },
}


@pytest.mark.parametrize("preset", sorted(PRESET_TABLES))
def test_reproduce_preset_writes_csvs(tmp_path, preset):
    rc = run_cli(["reproduce", preset, "--trials-outage", "200", "--trials-se", "20",
                  "--trials-opt", "1", "--seed", "3", "--out", str(tmp_path / f"{preset}.csv")])
    assert rc == 0
    tables = PRESET_TABLES[preset]
    assert sorted(os.listdir(tmp_path)) == sorted(f"{preset}_{name}.csv" for name in tables)
    for name, (n_rows, expected_header) in tables.items():
        header, rows = read_csv(tmp_path / f"{preset}_{name}.csv")
        assert header == expected_header
        assert len(rows) == n_rows
        assert all(len(row) == len(header) for row in rows)


def test_reproduce_collects_each_draw_key_once(tmp_path, monkeypatch):
    """fig6's jitter widths share one channel draw per L and panel; fig5's
    schemes and nu share one per L across both of its tables."""
    group_sizes = []
    collect = cli.mc.collect_gains

    def spy(cfgs, *args, **kwargs):
        group_sizes.append(len(cfgs))
        return collect(cfgs, *args, **kwargs)

    monkeypatch.setattr(cli.mc, "collect_gains", spy)
    monkeypatch.setattr(cli.mc, "_usable_cpus", lambda: 4)
    # 5000 outage trials are two blocks, so three workers start a pool
    flags = ["--trials-outage", "5000", "--trials-se", "20", "--seed", "3"]
    for workers in ("1", "3"):
        assert run_cli(["reproduce", "fig6", "--workers", workers, *flags,
                        "--out", str(tmp_path / f"w{workers}.csv")]) == 0
        assert multiprocessing.active_children() == []  # no worker outlives the run
    # one call per L and panel, each for the four widths
    assert group_sizes == [4] * 8
    for panel in ("outage", "se"):
        assert ((tmp_path / f"w1_{panel}.csv").read_bytes()
                == (tmp_path / f"w3_{panel}.csv").read_bytes())
    group_sizes.clear()
    assert run_cli(["reproduce", "fig5", *flags, "--out", str(tmp_path / "f5.csv")]) == 0
    # one call per L for both panels: both schemes at nu=0, and the nu=1 panel's
    # schemes (one-slot only at L=16, 64)
    assert group_sizes == [4, 3, 3]
    # each table is the bits it has as the preset's only table
    panels = cli._power_panels
    for name, alone in (("a_nu0", [2, 2, 2]), ("b_nu1", [2, 1, 1])):
        def one_table(spec, name=name):
            every = panels(spec)
            return {**every, "fig5": {name: every["fig5"][name]}}

        monkeypatch.setattr(cli, "_power_panels", one_table)
        group_sizes.clear()
        assert run_cli(["reproduce", "fig5", *flags, "--out", str(tmp_path / name)]) == 0
        assert group_sizes == alone
        assert ((tmp_path / f"{name}_{name}.csv").read_bytes()
                == (tmp_path / f"f5_{name}.csv").read_bytes())


def test_sweeps_build_no_config_per_point(tmp_path):
    """A power or element-count sweep carries one power-free config per column
    and a power vector: a config has no power to set per point, and rho has
    the one path `sweep_rho`, with no per-config budget beside it."""
    fields = {f.name for f in dataclasses.fields(cli.SystemConfig)}
    assert not {"p1_mw", "p2_mw"} & fields and not hasattr(cli.SystemConfig, "with_power")
    for module in (channel, cli, cli.mc):
        assert not hasattr(module, "sinr_budget")
    for argv in (["reproduce", "fig5", "--trials-se", "20"],
                 ["outage", "--l-list", "2,4", "--p-dbm", "10:10:1", "--trials", "500",
                  "--methods", "mc,gamma,clt,asymptotic"],
                 ["crossover", "-L", "2", "--methods", "mc", "--trials", "500"]):
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 0


def test_run_gains_drop_each_group_after_its_last_reduction():
    """A run holds a draw key's gains from its first reduction to its last and
    no longer: fig5's groups live across both tables, then go one by one."""
    spec = cli.ExperimentSpec("reproduce", trials_se=20, seed=3)
    tables = [("p_dbm", grid, columns)
              for _, grid, columns in cli._power_panels(spec)["fig5"].values()]
    gains = cli._RunGains(spec, tables)
    uses = [col for _, _, columns in tables for col in columns if col.method == "mc"]
    refs = {}  # L -> weak references to the gains handed out for it
    for i, col in enumerate(uses):
        refs.setdefault(col.cfg.L, []).append(weakref.ref(gains.take(col, col.cfg)))
        later = {c.cfg.L for c in uses[i + 1:]}
        assert {L: [r() is not None for r in rs] for L, rs in refs.items()} == {
            L: [L in later] * len(rs) for L, rs in refs.items()}
    assert [c.cfg.L for c in uses[-3:]] == [2, 16, 64]  # table b uses every group


def test_svg_skipped_when_nothing_plottable(tmp_path):
    # every outage estimate is 0, which a log axis cannot show
    out = tmp_path / "o.csv"
    rc = run_cli(["outage", "--L", "16", "--methods", "mc", "--p-dbm", "20:30:5",
                  "--trials", "2000", "--svg", "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]
    assert not (tmp_path / "o.svg").exists()


@pytest.mark.parametrize("argv, y_label", [
    (["optimize", "--L", "4", "--reciprocity", "non-reciprocal", "--methods", "greedy,u1",
      "--trials", "5"], "SINR"),
    (["crossover", "--l-list", "1,2,4", "--methods", "analytic"], "crossover power [dBm]"),
])
def test_svg_next_to_optimize_and_crossover_csv(tmp_path, argv, y_label):
    plain, plotted = tmp_path / "plain.csv", tmp_path / "plot.csv"
    assert run_cli(argv + ["--out", str(plain)]) == 0
    assert run_cli(argv + ["--svg", "--out", str(plotted)]) == 0
    assert plotted.read_bytes() == plain.read_bytes()
    assert not (tmp_path / "plain.svg").exists()
    text = (tmp_path / "plot.svg").read_text()
    assert text.startswith("<svg") and f">{y_label}</text>" in text


def test_svg_skipped_for_a_single_row(tmp_path):
    out = tmp_path / "x.csv"
    assert run_cli(["crossover", "--L", "2", "--methods", "analytic", "--svg",
                    "--out", str(out)]) == 0
    assert len(read_csv(out)[1]) == 1
    assert not (tmp_path / "x.svg").exists()


def test_crossover_has_no_user_flag(tmp_path, capsys):
    # both users' gains are one array on the reciprocal channels crossover takes
    with pytest.raises(SystemExit) as exc:
        run_cli(["crossover", "--methods", "analytic", "--user", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --user 2" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("scheme", ["one", "two"])
def test_asymptotic_se_needs_positive_growth_rate(tmp_path, capsys, scheme):
    out = tmp_path / "x.csv"
    rc = run_cli(["se", "--L", "1", "--methods", "asymptotic,exact", "--p-dbm", "-80:10:30",
                  "--scheme", scheme, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and "positive log-growth rate" in err and "P = 1e-08 mW" in err
    assert not out.exists()


def test_asymptotic_outage_single_element_needs_rho_above_one(tmp_path, capsys):
    rc = run_cli(["outage", "--L", "1", "--methods", "asymptotic", "--p-dbm", "-50:-40:5",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and "to exceed 1" in err


def test_asymptotic_outage_needs_power_above_1mw(tmp_path, capsys):
    rc = run_cli(["outage", "--L", "4", "--methods", "asymptotic",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and "exceed 0 dBm (1 mW)" in err
    rc = run_cli(["outage", "--L", "4", "--methods", "asymptotic", "--p-dbm", "2:30:2",
                  "--out", str(tmp_path / "y.csv")])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["outage", "--methods", "asymptotic"],
    ["se", "--methods", "asymptotic"],
    ["crossover", "--methods", "analytic"],
])
def test_asymptotics_without_interference_ignore_nu(tmp_path, argv):
    # omega * P^nu vanishes at omega = 0 for every nu: nu = 1 used to divide by omega
    for nu in ("0", "1"):
        assert run_cli(argv + ["--nu", nu, "--omega", "0", "--out",
                               str(tmp_path / f"nu{nu}.csv")]) == 0
    assert (tmp_path / "nu1.csv").read_bytes() == (tmp_path / "nu0.csv").read_bytes()


@pytest.mark.parametrize("argv, out, reason", [
    (["se", "--L", "2", "--methods", "gamma", "--p-dbm", "0:2:2"], "missing/x.csv",
     "does not exist"),
    (["reproduce", "fig5"], "missing/x.csv", "does not exist"),
    (["se", "--L", "2", "--methods", "gamma", "--p-dbm", "0:2:2"], "", "is a directory"),
])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv, out,
                                              reason):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "_sweep_table", no_work)
    out = str(tmp_path / out)
    assert run_cli(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and repr(out) in err and reason in err


@pytest.mark.parametrize("argv, reason", [
    (["outage", "--L", "4", "--methods", "mc,exact", "--trials", "2000000"],
     "method 'exact' is the single-element law (L=1)"),
    (["se", "--l-list", "1,2,4", "--p-dbm", "0:0:1", "--methods", "mc,gamma"],
     "method 'gamma' needs L >= 2"),
])
def test_element_count_rules_fail_before_any_work(tmp_path, capsys, monkeypatch, argv,
                                                  reason):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before checking the element count")

    monkeypatch.setattr(cli.mc, "collect_gains", no_work)
    assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err and reason in err


def test_reproduce_fig2_kl_column_scale_free(tmp_path):
    rc = run_cli(["reproduce", "fig2", "--out", str(tmp_path / "fig2.csv")])
    assert rc == 0
    _, rows = read_csv(tmp_path / "fig2_a_kl.csv")
    kls = [float(r[1]) for r in rows]
    assert all(abs(v - 2.299e-4) < 2e-6 for v in kls)  # scale-free diagnostic
    header_b, rows_b = read_csv(tmp_path / "fig2_b_ccdf.csv")
    assert header_b[0] == "t"
    # per-element tail: exact and fitted columns stay within a few 1e-3
    for row in rows_b:
        for j in range(1, len(header_b), 2):
            assert abs(float(row[j]) - float(row[j + 1])) < 1.5e-2


def test_se_command_with_phase_error(tmp_path):
    out = tmp_path / "s.csv"
    rc = run_cli(["se", "--L", "4", "--phase-error", f"uniform:{math.pi}",
                  "--methods", "mc,phase-error", "--p-dbm", "0:10:5",
                  "--trials", "3000", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p_dbm", "se_mc", "stderr_mc", "se_phase-error"]
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[3]), rel=0.1)


def test_workers_default_from_environment(monkeypatch):
    monkeypatch.setenv("RIS2WAY_WORKERS", "6")
    args = parse_args(["outage", "--L", "1"])
    assert args.workers == 6
    args = parse_args(["outage", "--L", "1", "--workers", "2"])
    assert args.workers == 2


def test_non_integer_workers_environment_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("RIS2WAY_WORKERS", "abc")
    rc = run_cli(["outage", "--L", "1", "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "RIS2WAY_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["ris2way", "ris2way.cli"])
def test_import_leaves_quadpack_unloaded(module):
    """Adaptive quadrature is only a test reference, and the special functions
    are numpy kernels; loading the package or the CLI must not import
    scipy.integrate or scipy.optimize, nor any other scipy module."""
    code = (f"import sys, {module}; "
            "print(*sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules)); "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_no_module_imports_a_private_name():
    """A private name is its module's own: no `from .x import _name` in the
    package, so a helper two modules share is public where it is defined."""
    package = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        found += [f"{name}:{node.lineno} {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").startswith("ris2way"))
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_reproduce_runs_load_no_scipy(tmp_path):
    """No figure preset imports scipy while it runs, so no lazy import can land
    in a run's wall time."""
    code = (
        "import sys\n"
        "from ris2way import cli\n"
        "for fig in sys.argv[2:]:\n"
        "    argv = ['reproduce', fig, '--trials-outage', '1000', '--trials-se', '1000',\n"
        "            '--trials-opt', '3', '--workers', '1', '--out', sys.argv[1] + fig]\n"
        "    assert cli.main(argv) == 0, fig\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    figs = [f"fig{n}" for n in range(2, 9)]
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path) + os.sep, *figs],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == ""


def test_benchmark_tracer_installs(tmp_path):
    """perfbench/tracer.py wraps library functions by name and reads
    `collect_gains`'s trials and workers by parameter name; deleting or
    renaming one must fail here, not when the benchmark starts.  The sweep's
    blocks are drawn in several row chunks, which together draw exactly the
    4*L normals per trial of one whole-block draw.  A closed-form column must
    look its law up on the `analytic` module when called: a function object
    bound at import escapes the wrapper, and `se_gamma` would read 0 calls."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(os.path.join(root, d) for d in ("src", "perfbench"))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys; from tracer import Tracer; from ris2way import cli; "
            "tracer = Tracer(); tracer.install(); "
            "assert cli.main(['outage', '--L', '64', '--methods', 'mc', '--p-dbm', "
            "'0:10:5', '--trials', '300', '--out', sys.argv[1]]) == 0; "
            "m = tracer.summary()['metrics']; "
            "assert (m['mc.trials'], m['mc.reduce.calls']) == (300, 1), m; "
            "assert m['channel.normals'] == 4 * 64 * 300, m; "
            "assert cli.main(['se', '--L', '4', '--methods', 'gamma', '--p-dbm', "
            "'0:10:5', '--out', sys.argv[1]]) == 0; "
            "m = tracer.summary()['metrics']; "
            "assert m['analytic.se_gamma.calls'] == 1, m")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o.csv")], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_spec_from_args_roundtrip():
    args = parse_args(["outage", "--L", "3", "--gamma-th-db", "3",
                       "--noise-dbm", "-100", "--p-dbm", "-5:5:5"])
    spec = spec_from_args(args)
    assert spec.cfg.L == 3
    assert spec.cfg.gamma_th == pytest.approx(10 ** 0.3)
    assert spec.cfg.noise_mw == pytest.approx(1e-10)
    assert spec.p_dbm == [-5.0, 0.0, 5.0]
