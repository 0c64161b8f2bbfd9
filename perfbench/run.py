#!/usr/bin/env python3
"""Benchmark of the ris2way CLI: one workload, timed in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Each workload in `workloads.json` is one `ris2way` CLI call.  The call is run
in a fresh interpreter, again and again with the same seed, until S seconds
have passed (at least three times).  Every call's CSVs are checked.  The
end-to-end metrics are:

- `wall_s`: wall time of the call after imports and argument parsing;
- `cpu_s`: user+sys CPU time of the call, pool children included;
- `setup_s`: spawn to ready: interpreter start, `import ris2way.cli`, parsing;
- `peak_rss_mb`: peak resident set size of the process or its largest child.

Each is the median over the run's calls. The three times are host-normalized
seconds. On a shared 2-vCPU Xeon host, a vCPU's speed changes by up to 2x for
stretches of seconds to minutes (CPU time tracks wall time, so it is
contention on the host, not waiting), far more than any bound could allow. So
this process and the calls it starts are pinned to one CPU, and while a call
runs this process times a small fixed calibration kernel on that CPU every
CAL_PERIOD_S. Each time is scaled by CAL_NOMINAL_S over the kernel's median
time in the same interval: the time the call would take on a host where the
kernel takes CAL_NOMINAL_S. A change to the program moves these figures; the
host's speed at the moment cancels. The kernel takes about a tenth of the CPU,
which adds about a tenth to `wall_s` alike on every commit; `cpu_s` excludes
it. The raw medians are printed beside them. A worker pool shares the one CPU,
so its start-up and transfer costs are measured but its parallel speed-up is
not.

Checks: closed-form columns within 1e-9 relative of the stored reference in
`reference/<workload>/`, Monte Carlo columns within K_STDERR combined standard
errors of it, every call's CSV bytes equal to the first call's, and, for
workloads marked `serial_check`, bytes equal to a `--workers 1` call.

With `--trace 1` two further calls run with every layer wrapped by
`tracer.Tracer`; the result then holds the per-layer metrics.  Their CSVs must
equal the untraced bytes and their exact counts must agree.

The last line of standard output is the JSON result; the lines before it
record the machine and repeat every metric with its unit.  Use
`--write-reference` to regenerate a workload's reference CSVs (at seed 0).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
MIN_CALLS = 3
K_STDERR = 6.0       # Monte Carlo columns: |run - ref| <= K * hypot(stderr_run, stderr_ref)
REL_TOL = 1e-9       # closed-form columns
RUN_LIMIT_S = 150.0  # never start a call after this much of a run has gone
TIMES = ("wall_s", "cpu_s", "setup_s")  # reported host-normalized
CAL_NOMINAL_S = 0.01  # calibration kernel time the normalized seconds refer to
CAL_PERIOD_S = 0.1
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# per-layer counts that must repeat exactly between two traced calls
EXACT_UNITS = ("count", "B")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or configuration)."""


def load_config() -> tuple[dict, dict]:
    for path in (SRC / "ris2way" / "cli.py", ROOT / "BENCHMARK.json", HERE / "workloads.json"):
        if not path.is_file():
            raise BenchError(f"{path.relative_to(ROOT)} not found; run from a ris2way checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    return bench, workloads


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_record(load_start: tuple) -> dict:
    import scipy

    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "blas": {"numpy": f"{blas.get('name')} {blas.get('version')}",
                 "scipy": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
                 "thread_pins": THREAD_PINS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------

_CAL_BUF = np.empty(1 << 18)  # 2 MB: cache-sized, like a Monte Carlo block


def calibration_kernel() -> None:
    """Fixed work: interpreter arithmetic and one Philox normal draw into a
    2 MB buffer, the two kinds of work the workloads spend most time in."""
    acc = 0.0
    for i in range(40_000):
        acc += math.sqrt(i)
    np.random.Generator(np.random.Philox(0)).standard_normal(out=_CAL_BUF)


def watch(proc: subprocess.Popen, timeout: float) -> list[tuple[float, float]] | None:
    """Time the calibration kernel again and again until `proc` exits.

    Returns (start, seconds) per kernel run, or None after killing the
    process group when `timeout` passed.
    """
    deadline = time.perf_counter() + timeout
    samples = []
    while proc.poll() is None:
        t0 = time.perf_counter()
        if t0 > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None
        calibration_kernel()
        t1 = time.perf_counter()
        samples.append((t0, t1 - t0))
        time.sleep(max(0.0, CAL_PERIOD_S - (t1 - t0)))
    return samples


def host_speed(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """CAL_NOMINAL_S over the median kernel time in [start, end] (or overall)."""
    inside = [d for t, d in samples if start <= t <= end] or [d for _, d in samples]
    return CAL_NOMINAL_S / statistics.median(inside) if inside else 1.0


def invoke(argv: list[str], out_dir: Path, trace: bool, timeout: float) -> dict:
    """Run one CLI call in a fresh process; returns its measurements or an error.

    The times in the result are raw; `speed_setup` and `speed_call` are the
    host speeds (see `host_speed`) over the set-up and over the call.
    """
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    err_path = out_dir / "stderr.txt"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace)), "--",
           *argv, "--out", str(out_dir / "out.csv")]
    with open(err_path, "w", encoding="utf-8") as err_fh:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err_fh, start_new_session=True)
        samples = watch(proc, timeout)
    if samples is None:
        return {"error": f"timed out after {timeout:.0f} s"}
    err = err_path.read_text(encoding="utf-8").strip()[-500:]
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"child exited {proc.returncode}: {err}"}
    res = json.loads(result_path.read_text())
    if res["rc"] != 0:
        return {"error": f"ris2way exited {res['rc']}: {err}"}
    ready = res.pop("ready")
    res["setup_s"] = ready - t_spawn
    res["speed_setup"] = host_speed(samples, t_spawn, ready)
    res["speed_call"] = host_speed(samples, ready, ready + res["wall_s"])
    return res


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name[len("out_"):]: p.read_bytes() for p in sorted(out_dir.glob("out_*.csv"))}


def compare_csv(name: str, got: bytes, ref: bytes) -> list[str]:
    rows = list(csv.reader(io.StringIO(got.decode())))
    ref_rows = list(csv.reader(io.StringIO(ref.decode())))
    if not rows or rows[0] != ref_rows[0]:
        return [f"{name}: header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows) - 1} rows, reference has {len(ref_rows) - 1}"]
    header = rows[0]
    col = {h: j for j, h in enumerate(header)}
    errors = []
    for r, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), start=1):
        if row[0] != ref_row[0]:
            errors.append(f"{name} row {r}: {header[0]} {row[0]} != {ref_row[0]}")
            continue
        for j in range(1, len(header)):
            h, a, b = header[j], float(row[j]), float(ref_row[j])
            if h.startswith("stderr_"):
                ok = math.isfinite(a) and a >= 0.0
            elif "_mc_" in h:
                k = col["stderr_mc_" + h.split("_mc_", 1)[1]]
                tol = K_STDERR * math.hypot(float(row[k]), float(ref_row[k]))
                ok = abs(a - b) <= tol
            else:
                ok = abs(a - b) <= REL_TOL * max(abs(a), abs(b))
            if not ok:
                errors.append(f"{name} row {r} {h}: {row[j]} vs reference {ref_row[j]}")
    return errors


def check_svgs(out_dir: Path, outputs: dict[str, bytes]) -> list[str]:
    errors = []
    for name, data in outputs.items():
        if data.count(b"\n") < 3:  # header plus fewer than two rows: no plot
            continue
        svg = out_dir / ("out_" + name[:-len(".csv")] + ".svg")
        try:
            if not ET.parse(svg).getroot().tag.endswith("svg"):
                errors.append(f"{svg.name}: root element is not <svg>")
        except (OSError, ET.ParseError) as exc:
            errors.append(f"{svg.name}: {exc}")
    return errors


def check_call(out_dir: Path, reference: dict[str, bytes],
               first: dict[str, bytes] | None) -> tuple[list[str], dict[str, bytes]]:
    outputs = read_outputs(out_dir)
    if sorted(outputs) != sorted(reference):
        return [f"CSV files {sorted(outputs)} != reference {sorted(reference)}"], outputs
    if first is not None and outputs != first:
        return ["CSV bytes differ from the first call at the same seed"], outputs
    errors = check_svgs(out_dir, outputs)
    if first is None:
        for name, data in outputs.items():
            try:
                errors += compare_csv(name, data, reference[name])
            except (ValueError, KeyError) as exc:  # a non-number or a missing stderr column
                errors.append(f"{name}: {exc!r}")
    return errors, outputs


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, name: str, workload: dict, seed: int, work_dir: Path):
        self.name = name
        self.argv = [*workload["argv"], "--seed", str(seed), "--svg"]
        self.serial_check = workload.get("serial_check", False)
        # calls inherit the CPU, so the calibration kernel shares it with them
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.work_dir = work_dir
        self.t0 = time.perf_counter()
        self.calls = 0
        self.failures: list[str] = []
        self.reference = {p.name: p.read_bytes()
                          for p in sorted((REFERENCE_DIR / name).glob("*.csv"))}
        if not self.reference:
            raise BenchError(f"no reference CSVs for workload {name!r}")
        self.first: dict[str, bytes] | None = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def call(self, trace: bool = False, extra: tuple[str, ...] = ()) -> dict | None:
        """One checked call; returns its measurements, or None when it failed."""
        self.calls += 1
        out_dir = self.work_dir / f"call{self.calls}"
        res = invoke([*self.argv, *extra], out_dir, trace,
                     timeout=max(5.0, 170.0 - self.elapsed()))
        errors = [res["error"]] if "error" in res else []
        if not errors:
            errors, outputs = check_call(out_dir, self.reference, self.first)
            if self.first is None and not errors:
                self.first = outputs
        shutil.rmtree(out_dir)
        if errors:
            self.failures.append(f"call {self.calls}: " + "; ".join(errors[:5]))
            return None
        return res

    def timed_calls(self, seconds: float) -> list[dict]:
        measured = []
        while (len(measured) < MIN_CALLS or self.elapsed() < seconds) \
                and self.elapsed() < RUN_LIMIT_S and len(self.failures) < MIN_CALLS:
            res = self.call()
            if res is not None:
                measured.append(res)
        if self.serial_check:
            # the reproducibility promise: CSV bytes do not depend on --workers
            self.call(extra=("--workers", "1"))
        return measured


def normalized(r: dict, key: str) -> float:
    if key not in TIMES:
        return r[key]
    return r[key] * (r["speed_setup"] if key == "setup_s" else r["speed_call"])


def median_of(results: list[dict], key: str, raw: bool = False) -> float:
    """Median over calls; times host-normalized unless `raw`."""
    if not results:
        return math.nan
    return statistics.median(r[key] if raw else normalized(r, key) for r in results)


def end_to_end(measured: list[dict]) -> tuple[dict[str, float], list[str]]:
    metrics = {k: median_of(measured, k) for k in (*TIMES, "peak_rss_mb")}
    return metrics, [
        "raw medians: " + ", ".join(f"{k} {median_of(measured, k, raw=True):.4f} s"
                                    for k in TIMES),
        "host speed per call: " + " ".join(f"{r['speed_call']:.3f}" for r in measured),
    ]


def per_layer(run: Run, measured: list[dict], units: dict[str, str]) -> tuple[dict, list[str]]:
    """Two traced calls: per-layer metrics plus report lines."""
    traced = [r for r in (run.call(trace=True), run.call(trace=True)) if r is not None]
    if len(traced) < 2:
        return {}, ["traced calls failed"]
    a, b = (r["trace"] for r in traced)
    lines = []
    unstable = [k for k, unit in units.items() if unit in EXACT_UNITS and k in a["metrics"]
                and a["metrics"][k] != b["metrics"][k]]
    if unstable:
        run.failures.append(f"trace: exact counts differ between traced calls: {unstable}")
    metrics = {k: (a["metrics"][k] + b["metrics"][k]) / 2.0 for k in a["metrics"]}
    traced_wall = median_of(traced, "wall_s")
    untraced_wall = median_of(measured, "wall_s")
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    lines.append(f"trace overhead: traced wall {traced_wall:.3f} s vs untraced "
                 f"{untraced_wall:.3f} s ({100 * metrics['trace.overhead_frac']:+.1f}%)")
    shares = {k: (a["shares"][k] + b["shares"][k]) / 2.0 for k in a["shares"]}
    lines.append("layer self-time shares: " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, (calls, total, own) in sorted(a["spans"].items(), key=lambda kv: -kv[1][2]):
        if calls:
            lines.append(f"span {name}: {calls} calls, {total:.4f} s, self {own:.4f} s")
    if metrics["mc.pool_starts"]:
        lines.append(f"note: {metrics['mc.pool_starts']:.0f} process pools ran; the channel "
                     "draws inside pool workers are not traced (mc.self_s includes the pool "
                     "wait); take channel-layer numbers from mc_outage")
    if metrics["optim.sdp.calls"]:
        lines.append(
            f"max-min: t* mean {metrics['optim.sdp.t_star_mean']:.3f}, rounding/t* mean "
            f"{metrics['optim.rounding.ratio_mean']:.3f} (p50 "
            f"{metrics['optim.rounding.ratio_p50']:.3f}), greedy/t* mean "
            f"{metrics['optim.greedy.ratio_mean']:.3f}, SDP {metrics['optim.sdp.calls']:.0f} "
            f"solves in {metrics['optim.sdp.s']:.3f} s (p50 {metrics['optim.sdp.ms_p50']:.1f} ms, "
            f"{metrics['optim.sdp.newton_steps']:.0f} Newton steps)")
    missing = [k for k in units if k not in metrics]
    if missing:
        run.failures.append(f"trace: metrics not produced: {missing}")
    return {k: metrics[k] for k in units if k in metrics}, lines


@contextlib.contextmanager
def scratch_dir():
    """A private directory under .perfbench_tmp/ in the checkout, removed on exit."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def write_reference(name: str, workload: dict) -> int:
    with scratch_dir() as tmp:
        argv = [*workload["argv"], "--seed", str(REFERENCE_SEED), "--svg"]
        res = invoke(argv, tmp / "call", False, timeout=170.0)
        if "error" in res:
            print(res["error"], file=sys.stderr)
            return 1
        outputs = read_outputs(tmp / "call")
    ref_dir = REFERENCE_DIR / name
    if ref_dir.exists():
        shutil.rmtree(ref_dir)
    ref_dir.mkdir(parents=True)
    for csv_name, data in outputs.items():
        (ref_dir / csv_name).write_bytes(data)
    print(f"wrote {len(outputs)} reference CSVs to {ref_dir.relative_to(ROOT)}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the workload's CSVs at seed 0 as its reference")
    args = ap.parse_args()
    load_start = os.getloadavg()
    try:
        bench, workloads = load_config()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; have {sorted(workloads)}")
        if args.write_reference:
            return write_reference(args.workload, workloads[args.workload])
        section = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in bench[section]}
        with scratch_dir() as work_dir:
            run = Run(args.workload, workloads[args.workload], args.seed, work_dir)
            measured = run.timed_calls(args.seconds)
            if args.trace:
                metrics, lines = per_layer(run, measured, units)
            else:
                metrics, lines = end_to_end(measured)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine_record(load_start)}))
    print(f"workload {args.workload}, seed {args.seed}: {len(measured)} timed calls, "
          f"{run.calls} calls in all, {run.elapsed():.1f} s")
    for line in lines + run.failures:
        print(line)
    for key in TIMES:
        print(f"per-call raw {key}: " + " ".join(f"{r[key]:.3f}" for r in measured))
    print(f"failed_frac = {len(run.failures) / run.calls:.4f} ({len(run.failures)}/{run.calls})")
    for key, unit in units.items():
        print(f"{key} = {metrics.get(key, math.nan):.6g} {unit}")
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    correct = not run.failures and len(metrics) == len(units)
    print(json.dumps({
        "correct": correct,
        "attempted": run.calls,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
