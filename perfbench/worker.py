"""One benchmark process: import openbooks, warm up, run blocks, report.

Started by run.py, never by hand.  Prints one JSON object on stdout.
Set-up time is the import of openbooks plus the workload's warm-up; the
benchmark's own input generation is not part of it.  Peak memory is this
process's maximum resident set plus the largest one of any child process
it started and waited for.

The process times the speed probe (speed.py) after its set-up,
after the first request that ends PROBE_EVERY_S after the last probe,
and after its last block, and reports each probe as a mark (latencies
recorded so far, seconds measured so far, probe seconds), so run.py can
scale the times between two probes by the speed they read.  With
``--pause-every S`` the process also stops at the first block boundary
after each S seconds of measuring, prints ``pause`` and waits for a line
on stdin; run.py times fresh set-up processes meanwhile.  Neither probe
nor pause time is measured.
"""

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
from workloads import WORKLOADS, load_openbooks

MAX_TRACEBACKS = 3
PROBE_EVERY_S = 0.25


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="stop at the first block boundary after this long")
    parser.add_argument("--blocks", type=int, default=None,
                        help="run exactly this many blocks instead")
    parser.add_argument("--pause-every", type=float, default=None,
                        help="pause at a block boundary after this many measured seconds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = perf_counter()
    ob = load_openbooks()
    import_s = perf_counter() - t0
    origin = Path(ob.package.__file__).resolve()
    if args.src.resolve() not in origin.parents:
        sys.exit(f"openbooks was imported from {origin}, not from {args.src}")

    workload = WORKLOADS[args.workload](ob, args.seed, args.workdir)
    t0 = perf_counter()
    workload.warm_up()
    setup_s = import_s + perf_counter() - t0
    probe_s = speed.probe()  # after the timed set-up, which it must not warm
    out = {"setup_s": setup_s, "setup_probe_s": probe_s}
    if not args.setup_only:
        out.update(measure(workload, args, probe_s))
    # a sweep that hands rows to child processes keeps its memory counted
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    print(json.dumps(out))


def measure(workload, args, probe_s):
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    latencies = []  # ms per op, one sample per request
    attempted = failed = repeats = dense = blocks = 0
    seen = set()
    tracebacks = 0
    marks = [(0, 0.0, probe_s)]  # (latencies so far, measured s, probe s)
    start = last_probe = last_pause = perf_counter()
    paused = 0.0  # probe and pause time, not measured

    def mark():
        nonlocal last_probe, paused
        t = perf_counter()
        marks.append((len(latencies), t - start - paused, speed.probe()))
        last_probe = perf_counter()
        paused += last_probe - t

    for block in workload.blocks():
        for req in block:
            t = perf_counter()
            try:
                if tracer is None:
                    bad = req.run()
                else:
                    with tracer.span("bench." + req.label):
                        bad = req.run()
            except Exception:
                bad = req.ops
                if tracebacks < MAX_TRACEBACKS:
                    tracebacks += 1
                    traceback.print_exc(file=sys.stderr)
            # a request of several ops (a sweep) is one sample: its time per op
            latencies.append((perf_counter() - t) * 1000 / req.ops)
            attempted += req.ops
            failed += bad
            dense = max(dense, req.dense_dim)
            for key in req.keys:
                if key in seen:
                    repeats += 1
                else:
                    seen.add(key)
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                mark()
        blocks += 1
        if args.blocks is not None:
            done = blocks >= args.blocks
        else:
            done = perf_counter() - start - paused >= args.seconds
        if done:
            if marks[-1][0] < len(latencies):
                mark()
            break
        if args.pause_every is not None and perf_counter() - last_pause >= args.pause_every:
            t = perf_counter()
            print("pause", flush=True)
            if not sys.stdin.readline():
                sys.exit("run.py went away during a pause")
            last_pause = perf_counter()
            paused += last_pause - t
    wall_s = marks[-1][1]
    hs = [key[0] for key in seen if isinstance(key[0], int)]  # (h, k) keys
    out = {
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "latencies_ms": latencies,
        "marks": marks,
        "repeats": repeats,
        "dense_dim_max": dense,
        "h_range": [min(hs), max(hs)] if hs else None,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counters"] = tracer.counters
        out["maxima"] = tracer.maxima
        out["spans"] = len(tracer.names)
    return out


if __name__ == "__main__":
    main()
