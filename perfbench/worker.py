#!/usr/bin/env python3
"""One measuring process of the benchmark; run.py starts it.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [SPANS_PATH]

Runs whole batches of the workload's ops through `imverma.cli.main`, one op
at a time, until SECONDS would be overrun, and at least one batch (two with
TRACE=1, where odd batches are traced). Before each op the process moves to
the fastest allowed CPU (`Cpu`). Prints one JSON object: for each op and run
whether it was traced, its seconds, the sha1 of its stdout, why it failed
(exit code or traceback) or null, and the mean probe time over it; the
first stdout of each op; this process's peak RSS; and each batch's time and
layer stats. With TRACE=1 it also returns the kernel shape histogram and
writes every span to SPANS_PATH.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _probe():
    """Seconds for a fixed bit of dict-heavy Python, like the library's."""
    t0 = perf_counter()
    acc = {}
    for i in range(400):
        acc[i & 63] = acc.get(i & 63, 0) + i
    return perf_counter() - t0


class Cpu:
    """Pins this process to the allowed CPU that runs `_probe` fastest.

    On a small shared VM each CPU can run at about half speed for seconds at
    a time, independently of the others, and at times all of them do. Moving
    to the fastest CPU before each op avoids the first; `Speedometer`
    measures the second, which run.py divides out.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self):
        """Move to the fastest CPU."""
        best = None
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            t = min(_probe() for _ in range(5))
            if best is None or t < best[0]:
                best = (t, cpu)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best[1]})

    def release(self):
        """Allow every CPU again, so that child processes can choose."""
        os.sched_setaffinity(0, self.cpus)


class Speedometer:
    """Times `_probe` every TICK seconds while an op runs, from a SIGALRM
    handler, and just before and after it.

    `samples` then holds the probe times over the op's whole span, and
    `spent` the seconds the handler took, which the caller subtracts from
    the op's time.
    """

    TICK = 0.02

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(_probe())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples = [_probe() for _ in range(5)]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += [_probe() for _ in range(5)]
        return False


def run_op(cli, argv):
    """(error or None, seconds, stdout) of one CLI invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc = None
            tb = traceback.format_exc()
        dt = perf_counter() - t0
    if rc is None:
        error = "raised " + tb.strip().splitlines()[-1]
    elif rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    elif "Traceback" in err.getvalue():
        error = "traceback on stderr"
    else:
        error = None
    return error, dt, out.getvalue()


def main():
    workload, seed, seconds, trace = sys.argv[1:5]
    seconds, trace = float(seconds), trace == "1"
    sys.path.insert(0, str(SRC))
    import imverma.cli as cli
    import workloads

    ops = workloads.generate(workload, int(seed))
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    cpu = Cpu()
    runs = [[] for _ in ops]
    first = [None] * len(ops)
    batches = []
    start = perf_counter()
    while True:
        traced = trace and len(batches) % 2 == 1
        if traced:
            tracer.install()
        wall = 0.0
        try:
            for i, op in enumerate(ops):
                gc.collect()
                cpu.pin()
                if traced:
                    tracer.op_id += 1
                    error, dt, stdout = run_op(cli, op.argv)
                    probe = None
                else:
                    with Speedometer() as speed:
                        error, dt, stdout = run_op(cli, op.argv)
                    dt -= speed.spent
                    probe = statistics.fmean(speed.samples)
                wall += dt
                if first[i] is None:
                    first[i] = stdout
                runs[i].append((traced, dt, hashlib.sha1(stdout.encode()).hexdigest(),
                                error, probe))
        finally:
            if traced:
                tracer.uninstall()
        batches.append((traced, wall, tracer.take_stats() if traced else None))
        typical = statistics.median(b[1] for b in batches)
        if (len(batches) >= (2 if trace else 1)
                and perf_counter() - start + typical > seconds):
            break

    result = {"runs": runs, "first": first,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "batches": batches}
    if trace:
        result["kernel_shapes"] = tracer.shape_histogram()
        tracer.dump(sys.argv[5], {"workload": workload, "seed": int(seed)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
