"""One fresh-process `ris2way` CLI call, timed from inside the process.

    python3 child.py RESULT_JSON TRACE -- CLI_ARGS...

Imports `ris2way.cli` and parses CLI_ARGS (the set-up), then runs the command
the way `ris2way.cli.main` does.  Writes to RESULT_JSON the monotonic clock
reading when set-up ended, the exit code, the wall and CPU time of the call
(CPU including pool children) and the peak resident set size.  With TRACE 1 the
layers are wrapped by `tracer.Tracer` after set-up, and its summary is added.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- CLI_ARGS...")
    import ris2way.cli as cli

    spec = cli.spec_from_args(cli.parse_args(argv))
    ready = time.perf_counter()
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    rc = cli.run(spec)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"ready": ready, "rc": rc, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
