"""Span tracer for the ris2way layers, installed from outside the package.

`Tracer.install()` replaces public functions of the ris2way modules with
wrappers that record one span per call (name, start, end, parent) and a few
counts read from the call's arguments and result.  Many modules bind names at
import (`from .numerics import regularized_gamma_q`), so every module attribute
that refers to a wrapped function is replaced, not only the defining one.

Spans live in flat in-memory arrays until `summary()` turns them into the
per-layer metrics.  A layer's self time is the duration of its spans minus the
time covered by their direct child spans.

Work done inside process-pool workers is not seen: a forked worker records
into its own copy of the tracer, which is discarded when the pool shuts down.
"""

from __future__ import annotations

import inspect
import math
import os
import time
from array import array

import numpy as np
from ris2way import analytic, channel, cli, mc, numerics, optim, rng, svgplot
from ris2way.optim import OptimMethod

MODULES = (cli, mc, rng, channel, optim, analytic, numerics, svgplot)
LAYERS = tuple(m.__name__.rsplit(".", 1)[-1] for m in MODULES)


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []      # wrapper id -> span name
        self.name_id = array("i")            # per span: wrapper id
        self.parent = array("i")             # per span: index of the parent span, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.t_star_by_instance: dict[bytes, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, call=None, after=None):
        """Wrapper recording a span `name` around `fn`.

        `call(fn, args, kwargs)` replaces the plain call (to instrument the
        arguments); `after(args, kwargs, result)` reads counts from a result.
        """
        wid = len(self.span_names)
        self.span_names.append(name)
        name_id, parent = self.name_id, self.parent
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(wid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = call(fn, args, kwargs) if call else fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- instrumentation hooks ------------------------------------------------

    def _file_bytes(self, key: str):
        def after(args, kwargs, result):
            self.add(key, os.path.getsize(args[0]))  # the path, first in both writers
        return after

    def _after_sample(self, args, kwargs, block) -> None:
        # every complex coefficient is built from two standard normals
        fields = [getattr(block, f) for f in block.__dataclass_fields__]
        normals = 2 * sum(a.size for a in fields)
        self.add("channel.normals", normals)
        self.add("channel.bytes", 8 * normals + sum(a.nbytes for a in fields))

    def _collect_after(self, signature: inspect.Signature, block_size: int):
        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            trials, workers = bound.arguments["trials"], bound.arguments["workers"]
            blocks = -(-trials // block_size)
            self.add("mc.trials", trials)
            self.add("mc.blocks", blocks)
            self.add("mc.pool_starts", int(workers > 1 and blocks > 1))
        return after

    def _after_sdp(self, args, kwargs, sol) -> None:
        self.add("optim.sdp.newton_steps", sol.iterations)
        self.sample("optim.sdp.gap_rel", sol.feasibility_gap / sol.t_star)
        self.sample("optim.sdp.t_star", sol.t_star)

    def _after_greedy(self, args, kwargs, res) -> None:
        self.add("optim.greedy.sweeps", res.iterations)

    def _after_solve(self, args, kwargs, res) -> None:
        if res.method not in (OptimMethod.SDP_RELAX, OptimMethod.GREEDY_ITERATIVE):
            return
        ch, budget = args[0], args[1]
        key = b"".join(np.ascontiguousarray(getattr(ch, f)).tobytes()
                       for f in ch.__dataclass_fields__)
        key += np.array([budget.rho1, budget.rho2]).tobytes()
        if res.method is OptimMethod.SDP_RELAX:
            # rounding keeps the best of its candidates; t* is the relaxation bound
            self.sample("optim.rounding.ratio", min(res.achieved) / res.t_star)
            self.t_star_by_instance[key] = res.t_star
        elif key in self.t_star_by_instance:
            # greedy on an instance the relaxation already bounded
            self.sample("optim.greedy.ratio",
                        min(res.achieved) / self.t_star_by_instance[key])

    def _quad_call(self, fn, args, kwargs):
        f = args[0]
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        res = fn(counted, *args[1:], **kwargs)
        self.add("numerics.quad.evals", evals)
        self.sample("numerics.quad.abserr_rel",
                    abs(res.error_estimate) / abs(res.value) if res.value else
                    (math.inf if res.error_estimate else 0.0))
        return res

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every ris2way module that binds them."""
        targets = [
            (cli.run, "cli.run", None, None),
            (cli.write_csv, "cli.write", None, self._file_bytes("cli.csv_bytes")),
            (svgplot.write_line_svg, "svgplot.write", None, self._file_bytes("svgplot.bytes")),
            (mc.collect_gains, "mc.collect", None,
             self._collect_after(inspect.signature(mc.collect_gains), rng.BLOCK_SIZE)),
            (mc.outage_from_gains, "mc.reduce", None, None),
            (mc.se_from_gains, "mc.reduce", None, None),
            (channel.sample_channel_block, "channel.sample", None, self._after_sample),
            (channel.sample_phase_errors, "channel.phase_errors", None, None),
            (rng.block_generator, "rng.block", None, None),
            (rng.trial_generator, "rng.trial", None, None),
            (optim.solve_maxmin, "optim.solve", None, self._after_solve),
            (optim.build_quadratic_forms, "optim.forms", None, None),
            (optim.sdp_maxmin, "optim.sdp", None, self._after_sdp),
            (optim.gaussian_randomization, "optim.rounding", None, None),
            (optim.greedy_iterative, "optim.greedy", None, self._after_greedy),
            (analytic.se_gamma, "analytic.se_gamma", None, None),
            (analytic.se_phase_error_uniform_pi, "analytic.se_scrambled", None, None),
            (analytic.outage_exact_L1, "analytic.outage", None, None),
            (analytic.outage_gamma_Lge2, "analytic.outage", None, None),
            (analytic.outage_clt, "analytic.outage", None, None),
            (analytic.outage_phase_error_uniform_pi, "analytic.outage", None, None),
            (numerics.integrate_semi_infinite, "numerics.quad", self._quad_call, None),
            (numerics.regularized_gamma_q, "numerics.gamma_q", None, None),
            (numerics.log_bessel_k, "numerics.log_bessel_k", None, None),
        ]
        for fn, name, call, after in targets:
            wrapper = self.wrap(name, fn, call, after)
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    # -- summary -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics, layer self-time shares and the per-name span table."""
        names = sorted(set(self.span_names))
        to_name = np.array([names.index(n) for n in self.span_names], dtype=np.int64)
        nid = to_name[np.frombuffer(self.name_id, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child

        spans = {}
        for k, name in enumerate(names):
            mine = nid == k
            spans[name] = {"calls": int(mine.sum()),
                           "total_s": float(dur[mine].sum()),
                           "self_s": float(self_time[mine].sum()),
                           "durations": dur[mine]}
        span = spans.__getitem__  # every wrapped name has an entry, called or not

        def pct(name, q):
            d = span(name)["durations"]
            return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

        def layer_self(layer):
            return sum(s["self_s"] for n, s in spans.items() if n.split(".")[0] == layer)

        def stat(key, fn):
            v = self.samples.get(key)
            return float(fn(v)) if v else 0.0

        count = self.counts.get
        wall = span("cli.run")["total_s"]
        m = {
            "channel.sample.calls": span("channel.sample")["calls"],
            "channel.sample.s": span("channel.sample")["total_s"],
            "channel.sample.ms_p50": pct("channel.sample", 50),
            "channel.normals": count("channel.normals", 0),
            "channel.bytes": count("channel.bytes", 0),
            "channel.phase_errors.s": span("channel.phase_errors")["total_s"],
            "rng.generators": span("rng.block")["calls"],
            "rng.s": layer_self("rng"),
            "mc.collect.calls": span("mc.collect")["calls"],
            "mc.collect.s": span("mc.collect")["total_s"],
            "mc.trials": count("mc.trials", 0),
            "mc.blocks": count("mc.blocks", 0),
            "mc.self_s": span("mc.collect")["self_s"],
            "mc.reduce.calls": span("mc.reduce")["calls"],
            "mc.reduce.s": span("mc.reduce")["total_s"],
            "mc.pool_starts": count("mc.pool_starts", 0),
            "optim.solve.calls": span("optim.solve")["calls"],
            "optim.solve.s": span("optim.solve")["total_s"],
            "optim.forms.s": span("optim.forms")["total_s"],
            "optim.sdp.calls": span("optim.sdp")["calls"],
            "optim.sdp.s": span("optim.sdp")["total_s"],
            "optim.sdp.ms_p50": pct("optim.sdp", 50),
            "optim.sdp.ms_p90": pct("optim.sdp", 90),
            "optim.sdp.newton_steps": count("optim.sdp.newton_steps", 0),
            "optim.sdp.gap_rel_max": stat("optim.sdp.gap_rel", max),
            "optim.sdp.t_star_mean": stat("optim.sdp.t_star", np.mean),
            "optim.rounding.s": span("optim.rounding")["total_s"],
            "optim.rounding.ratio_p50": stat("optim.rounding.ratio", np.median),
            "optim.rounding.ratio_mean": stat("optim.rounding.ratio", np.mean),
            "optim.greedy.calls": span("optim.greedy")["calls"],
            "optim.greedy.s": span("optim.greedy")["total_s"],
            "optim.greedy.sweeps": count("optim.greedy.sweeps", 0),
            "optim.greedy.ratio_mean": stat("optim.greedy.ratio", np.mean),
            "analytic.se_gamma.calls": span("analytic.se_gamma")["calls"],
            "analytic.se_gamma.s": span("analytic.se_gamma")["total_s"],
            "analytic.se_scrambled.calls": span("analytic.se_scrambled")["calls"],
            "analytic.se_scrambled.s": span("analytic.se_scrambled")["total_s"],
            "analytic.outage.calls": span("analytic.outage")["calls"],
            "analytic.outage.s": span("analytic.outage")["total_s"],
            "analytic.self_s": layer_self("analytic"),
            "numerics.quad.calls": span("numerics.quad")["calls"],
            "numerics.quad.s": span("numerics.quad")["total_s"],
            "numerics.quad.evals": count("numerics.quad.evals", 0),
            "numerics.quad.abserr_rel_max": stat("numerics.quad.abserr_rel", max),
            "numerics.gamma_q.calls": span("numerics.gamma_q")["calls"],
            "numerics.gamma_q.s": span("numerics.gamma_q")["total_s"],
            "numerics.log_bessel_k.calls": span("numerics.log_bessel_k")["calls"],
            "numerics.log_bessel_k.s": span("numerics.log_bessel_k")["total_s"],
            "cli.self_s": layer_self("cli"),
            "cli.csv_bytes": count("cli.csv_bytes", 0),
            "cli.write_s": span("cli.write")["total_s"],
            "svgplot.write_s": span("svgplot.write")["total_s"],
            "svgplot.bytes": count("svgplot.bytes", 0),
        }
        shares = {layer: layer_self(layer) / wall if wall else 0.0 for layer in LAYERS}
        table = {n: [s["calls"], s["total_s"], s["self_s"]] for n, s in spans.items()}
        return {"metrics": m, "shares": shares, "spans": table}
