"""One workload process: runs the gridrisk CLI in a closed loop.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the CLI arguments (with "{out}" standing for each operation's
CSV path), the seconds to measure, the per-operation guard and whether
to trace.  The untraced loop runs one untimed warm-up operation when
SPEC["warmup"] is true, then operations back to back until the next one
would end past the measuring time, with at least two so their outputs
can be compared.  Each timed operation runs under the host-speed probe
(hostspeed.py), which gives its time at the reference host speed.  The
traced sequence is two untraced operations (warm-up, then the overhead
baseline) and two traced ones (whose counts must agree); it runs without
the probe.  Results go to SPEC["report"] as JSON.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from hostspeed import HostProbe


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import gridrisk
    from gridrisk import cli

    if not os.path.abspath(gridrisk.__file__).startswith(spec["src"] + os.sep):
        print(f"gridrisk imported from {gridrisk.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy

    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    ops, warmup = [], []

    def op(probe=None, record=True):
        k = len(ops)
        out = os.path.join(spec["out_dir"], f"op{k}.csv" if record else "warmup.csv")
        argv = [a.replace("{out}", out) for a in spec["argv"]]
        status = "ok"
        signal.alarm(spec["guard_s"])
        if probe:
            probe.start()
        start = time.perf_counter()
        try:
            code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            if code != 0:
                status = f"exit {code}"
        except OpTimeout:
            status = f"exceeded the {spec['guard_s']} s guard"
        except Exception:
            traceback.print_exc()
            status = "raised"
        finally:
            elapsed = time.perf_counter() - start
            signal.alarm(0)
            spent, factor = probe.stop() if probe else (0.0, 1.0)
        if not record:
            warmup.append(status)
            return status == "ok"
        own = elapsed - spent
        ops.append({"csv": out, "status": status, "s": own, "speed": factor,
                    "norm_s": own / factor, "traced": tracer is not None})
        return status == "ok"

    layers = []
    if spec["trace"]:
        from tracer import Tracer

        ok = op() and op()
        tracer = Tracer()
        tracer.install()
        for run in (0, 1):
            tracer.run = run
            if not (ok and op()):
                ok = False
                break
            layers.append(tracer.metrics(run))
        tracer.restore()
        tracer.write(os.path.join(spec["out_dir"], "spans.csv"))
    elif not spec["warmup"] or op(record=False):
        probe = HostProbe()
        t0 = time.perf_counter()
        while op(probe=probe):
            typical = statistics.median(o["s"] for o in ops)
            if len(ops) >= 2 and time.perf_counter() - t0 + typical > spec["seconds"]:
                break

    report = {
        "ops": ops,
        "warmup": warmup,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "gridrisk": gridrisk.__version__},
    }
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
