"""The byte contract: identical spec + seed reproduces the CLI's files.

The seven presets (seeds 0 and 42) and a set of command-line sweeps run at
small trial counts, and the SHA-256 of every CSV and SVG they write must equal
the digest in `golden.json`.  Each file also has a short digest per line, so a
mismatch names its first differing line.  numpy's SIMD loops may round
differently on another CPU, so the file records the python and numpy versions
and the machine it was made on.  A digest changes only with a declared change
of the contract; `python tests/make_golden.py` rewrites the file.
"""

import csv
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from ris2way import cli

GOLDEN = Path(__file__).with_name("golden.json")
BENCHMARK_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference"

# seed-0 preset outputs whose closed-form columns the benchmark stores
STORED_AS = {"seed0/fig4_outage.csv": "mc_outage/outage.csv",
             "seed0/fig5_a_nu0.csv": "closed_form_se/a_nu0.csv",
             "seed0/fig5_b_nu1.csv": "closed_form_se/b_nu1.csv",
             "seed0/fig6_outage.csv": "phase_jitter/outage.csv",
             "seed0/fig6_se.csv": "phase_jitter/se.csv"}

_PRESET_TRIALS = ["--trials-outage", "2000", "--trials-se", "200", "--trials-opt", "4"]
_NONREC = ["--reciprocity", "non-reciprocal"]

# output name -> argv; every run also writes its SVG plots
RUNS = {
    **{f"seed{seed}/{preset}": ["reproduce", preset, "--seed", str(seed), *_PRESET_TRIALS]
       for seed in (0, 42) for preset in cli.PRESETS},
    "optimize_nonrec_L8": ["optimize", "--L", "8", "--methods", "sdp,greedy,u1,random",
                           "--trials", "4"],
    **{f"se_nonrec_L3_{scheme}": ["se", "--L", "3", *_NONREC, "--scheme", scheme,
                                  "--p-dbm", "-10:30:5", "--trials", "200"]
       for scheme in ("one", "two")},
    "outage_L1": ["outage", "--L", "1", "--methods", "exact,asymptotic,phase-error",
                  "--p-dbm", "10:40:5"],
    "outage_L8": ["outage", "--L", "8", "--sigma2", "0.3", "--p-dbm", "10:40:5",
                  "--methods", "gamma,clt,asymptotic,phase-error"],
    "se_L1": ["se", "--L", "1", "--methods", "exact,asymptotic,phase-error",
              "--p-dbm", "10:40:5"],
    "se_L4_two": ["se", "--L", "4", "--scheme", "two", "--p-dbm", "10:40:5",
                  "--methods", "gamma,asymptotic,phase-error"],
    "crossover": ["crossover", "--l-list", "1,2,16", "--methods", "analytic,mc",
                  "--trials", "400"],
    "se_L4_vonmises": ["se", "--L", "4", "--phase-error", "vonmises:0.1,4",
                       "--p-dbm", "0:20:10", "--trials", "300"],
    "outage_l_list": ["outage", "--l-list", "1,2,4", "--p-dbm=-50:-50:1", "--trials", "300"],
    "se_l_list": ["se", "--l-list", "2,4", "--p-dbm", "0:0:1", "--trials", "300"],
    "se_nonrec_L3_sdp_min": ["se", "--L", "3", *_NONREC, "--policy", "sdp", "--user", "min",
                             "--p-dbm", "0:20:10", "--trials", "20"],
    # outage columns counted as their blocks are drawn, at powers where every
    # estimate lies strictly between 0 and 1
    "outage_nonrec_L3_sdp_min": ["outage", "--L", "3", *_NONREC, "--policy", "sdp",
                                 "--user", "min", "--p-dbm=-48:-36:4", "--trials", "40"],
    "outage_nonrec_L4_greedy_u2": ["outage", "--L", "4", *_NONREC, "--policy", "greedy",
                                   "--user", "2", "--p-dbm=-52:-40:3", "--trials", "300"],
    "outage_nonrec_L3_two_min": ["outage", "--L", "3", *_NONREC, "--scheme", "two",
                                 "--user", "min", "--p-dbm=-78:-60:3", "--trials", "300"],
    # two blocks, in a pool of two workers where two CPUs are usable
    "outage_L4_vonmises": ["outage", "--L", "4", "--phase-error", "vonmises:0.1,4",
                           "--p-dbm=-55:-30:5", "--trials", "5000", "--workers", "2"],
    # one draw key for both panels, each config read by an outage and an SE column
    "fig3_shared_draw": ["reproduce", "fig3", "--trials-outage", "200", "--trials-se", "200"],
    # SE tallied over three blocks, merged in block order, serially and in a pool
    "se_L4_uniform_3blocks": ["se", "--L", "4", "--phase-error", "uniform:1.0",
                              "--p-dbm", "0:20:10", "--trials", "10000"],
    "se_nonrec_L3_u1_min_3blocks": ["se", "--L", "3", *_NONREC, "--policy", "u1", "--user",
                                    "min", "--p-dbm", "0:20:10", "--trials", "9000",
                                    "--workers", "2"],
}


def produce(directory: Path) -> None:
    """Run every entry of RUNS, writing its files under `directory`."""
    for name, argv in RUNS.items():
        out = directory / f"{name}.csv"
        out.parent.mkdir(parents=True, exist_ok=True)
        rc = cli.main(argv + ["--svg", "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {rc}")


def _platform() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def record(directory: Path) -> dict:
    """{platform, files}: each file's SHA-256 and a short digest per line."""
    files = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        lines = data.split(b"\n")
        files[path.relative_to(directory).as_posix()] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "lines": " ".join(hashlib.sha256(line).hexdigest()[:8] for line in lines)}
    return {"platform": _platform(), "files": files}


def _first_difference(got: dict, want: dict) -> str:
    for name in sorted(set(got) | set(want)):
        if name not in got or name not in want:
            return f"{name} is {'missing' if name in want else 'not in golden.json'}"
        if got[name]["sha256"] != want[name]["sha256"]:
            a, b = got[name]["lines"].split(), want[name]["lines"].split()
            line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            return f"{name} differs first at line {line + 1} (of {len(a)}, golden {len(b)})"
    return ""


def _closed_form_differences(directory: Path) -> tuple[int, list[str]]:
    """(cells checked, cells off by more than 1e-9 relative) of the closed-form
    columns of each STORED_AS file against the benchmark's reference.  A column
    is closed-form when it has no stderr_ sibling, the benchmark's own rule."""
    checked, errors = 0, []
    for name, stored in STORED_AS.items():
        rows = list(csv.reader((directory / name).open(encoding="utf-8")))
        ref = list(csv.reader((BENCHMARK_REFERENCE / stored).open(encoding="utf-8")))
        if rows[0] != ref[0] or len(rows) != len(ref):
            errors.append(f"{name}: header or row count differs from {stored}")
            continue
        header = rows[0]
        closed = [j for j, h in enumerate(header) if j and not h.startswith("stderr_")
                  and "stderr_mc_" + h.partition("_mc_")[2] not in header]
        for row, ref_row in zip(rows[1:], ref[1:]):
            if row[0] != ref_row[0]:
                errors.append(f"{name}: {header[0]} {row[0]} where {stored} has {ref_row[0]}")
            for j in closed:
                a, b = float(row[j]), float(ref_row[j])
                checked += 1
                if abs(a - b) > 1e-9 * max(abs(a), abs(b)):
                    errors.append(f"{name} {header[j]} at {row[0]}: {row[j]} vs {ref_row[j]}")
    return checked, errors


def test_outputs_match_golden_digests(tmp_path):
    produce(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    diff = _first_difference(record(tmp_path)["files"], golden["files"])
    assert not diff, (f"{diff}; the produced files are under {tmp_path}. Digests were "
                      f"made on {golden['platform']}, this run is on {_platform()}")
    # the benchmark's stored digits, which only a change to the benchmark may move
    checked, errors = _closed_form_differences(tmp_path)
    assert checked and not errors, errors[:5]
