"""openbooks benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,queries,audit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; openbooks is imported from its
``src/`` directory.  Each workload runs in fresh worker processes started
one at a time, each single-threaded.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it carries the per-layer metrics of a separate traced
run.  Every time is scaled to a reference machine speed read by the
speed probe (speed.py), timed between stretches of measured work.  The
lines before the result state the tail percentile, the sample count, the
unscaled figures and the input properties.  See perfbench/README.md for
the metric definitions.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import speed
from tracer import COUNTERS, LAYERS, MAXIMA

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "queries", "audit")
BUDGET_S = 170  # a run must end within 180 s

# setup_s is the median of fresh set-up processes spread over the run: a
# round of SETUPS_PER_ROUND before the measured work, one after each
# 1/SETUP_ROUNDS of --seconds of it, and one after it.  The speed of a
# shared machine drifts within a run; samples taken at one moment would
# read only one phase of that drift.
SETUP_ROUNDS = 8
SETUPS_PER_ROUND = 3

# probes on either side of a probe that smooth it (a probe every 0.25 s or
# after the next request)
PROBE_SMOOTHING = 2

# Tail percentile per workload.  On audit, p95: the highest of TAIL_LADDER
# with at least ten samples beyond it in a --seconds 36 run at the seed
# (330 to 400 cases).  On queries, p99 (about 200 of some 20000 requests
# beyond it), not p99.9: the costliest requests, near 11 ms at reference
# speed, are only about 0.15% of them, so p99.9 lies on the edge of that
# cluster and a burst of host load that slows a few of them moves it by a
# third from run to run; p99 lies inside the next cluster (near 9 ms).  The
# percentiles are fixed so a faster commit, which completes more ops, is
# not read at a higher one; a run with too few samples falls back down the
# ladder.  A sweep run makes only 9 to 15 run_sweep calls, one sample
# each, too few for any percentile with ten beyond it; its tail is p75,
# the highest with a quarter of them beyond it.  Every call does the same
# work, so a higher one, such as the slowest call, would read little but
# the machine's noise.
TAIL_PERCENTILE = {"sweep": 75.0, "queries": 99.0, "audit": 95.0}
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10  # or a quarter of the samples, if that is fewer

# Traced runs do a fixed amount of work per --seconds, so their per-layer
# figures compare across commits: blocks per second of --seconds.
TRACE_BLOCKS_PER_S = {"sweep": None, "queries": 5, "audit": 0.1}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def out_of_time(signum, frame):
    raise BenchError("time budget exhausted")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = load_spec()
        if not (SRC / "openbooks" / "__init__.py").is_file():
            raise BenchError(f"no openbooks sources under {SRC}")
        signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(BUDGET_S)
        runner = Runner(args)
        try:
            runner.worker("--setup-only")  # fills the bytecode cache, untimed
            result = runner.traced() if args.trace else runner.end_to_end()
        finally:
            signal.alarm(0)
            runner.close()
        names = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {}
        for name, unit in names:
            if name not in result["metrics"]:
                raise BenchError(f"metric {name!r} of BENCHMARK.json is not measured")
            metrics[name] = {"value": result["metrics"][name], "unit": unit}
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
        return {kind: [(m["name"], m["unit"]) for m in spec[kind]]
                for kind in ("end_to_end", "per_layer")}
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise BenchError(f"cannot read BENCHMARK.json: {e}") from None


class Runner:
    def __init__(self, args):
        self.args = args
        self.workdir = ROOT / ".perfbench_work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        # Workers read bytecode from a cache of their own, filled by one
        # untimed process first, so setup_s never includes compiling source,
        # whether or not the environment forbids writing bytecode.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=str(self.workdir / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def worker(self, *extra, on_pause=None):
        """Run one worker process to completion and return its JSON result.

        ``on_pause`` is called each time the worker pauses; the worker goes
        on when it returns.  The alarm set in main() bounds the wait."""
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--src", str(SRC),
               "--workdir", str(self.workdir), *map(str, extra)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            last = ""
            for line in proc.stdout:
                if line == "pause\n":
                    on_pause()
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                else:
                    last = line
            proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        try:
            return json.loads(last)
        except ValueError:
            raise BenchError("worker printed no result") from None

    def setup_round(self):
        """SETUPS_PER_ROUND set-up samples: (seconds, seconds at reference speed)."""
        samples = []
        for _ in range(SETUPS_PER_ROUND):
            r = self.worker("--setup-only")
            samples.append((r["setup_s"], r["setup_s"] * speed.scale([r["setup_probe_s"]])))
        return samples

    def measured_run(self, *extra, on_pause=None):
        """One measuring worker; its times scaled to reference speed."""
        run = self.worker(*extra, on_pause=on_pause)
        run["scaled_latencies_ms"], run["scaled_wall_s"] = scaled(run)
        return run

    def measured_runs(self, seconds=None, blocks=None, trace=False, on_pause=None):
        """Worker runs of the workload; a sweep takes one process per block.

        With ``on_pause``, it is called after each 1/SETUP_ROUNDS of
        ``seconds`` of measured work, at a block boundary."""
        flags = ["--trace"] if trace else []
        if self.args.workload != "sweep":
            if blocks is not None:
                return [self.measured_run("--blocks", blocks, *flags)]
            if on_pause is not None:
                flags += ["--pause-every", seconds / SETUP_ROUNDS]
            return [self.measured_run("--seconds", seconds, *flags, on_pause=on_pause)]
        runs = []
        since_pause = 0.0
        while True:
            runs.append(self.measured_run("--blocks", 1, *flags))
            if blocks is not None and len(runs) >= blocks:
                return runs
            if blocks is None and sum(r["wall_s"] for r in runs) >= seconds:
                return runs
            since_pause += runs[-1]["wall_s"]
            if on_pause is not None and since_pause >= seconds / SETUP_ROUNDS:
                on_pause()
                since_pause = 0.0

    def end_to_end(self):
        setups = self.setup_round()
        runs = self.measured_runs(seconds=self.args.seconds,
                                  on_pause=lambda: setups.extend(self.setup_round()))
        setups.extend(self.setup_round())
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        wall = sum(r["scaled_wall_s"] for r in runs)
        latencies = sorted(x for r in runs for x in r["scaled_latencies_ms"])
        pct, tail, beyond = tail_latency(latencies, TAIL_PERCENTILE[self.args.workload])
        raw_wall = sum(r["wall_s"] for r in runs)
        raw_latencies = sorted(x for r in runs for x in r["latencies_ms"])
        _, raw_tail, _ = tail_latency(raw_latencies, pct)
        probes = [p for r in runs for _, _, p in r["marks"]]
        print(f"{self.args.workload} seed {self.args.seed}: {attempted} ops in "
              f"{raw_wall:.3f} s over {len(runs)} worker process(es); setup_s is the "
              f"median of {len(setups)} set-up processes")
        sample = "run_sweep call (time per row)" if self.args.workload == "sweep" else "op"
        print(f"op_tail_ms is p{pct:g} of {len(latencies)} latency samples, "
              f"one per {sample} ({beyond} beyond it)")
        print(f"speed probe: median {statistics.median(probes) * 1000:.4f} ms over "
              f"{len(probes)} probes, reference {speed.REFERENCE_PROBE_S * 1000:g} ms; "
              f"unscaled: ops_per_s {(attempted - failed) / raw_wall:.6g}, "
              f"op_p50_ms {statistics.median(raw_latencies):.6g}, "
              f"op_tail_ms {raw_tail:.6g}, "
              f"setup_s {statistics.median(raw for raw, _ in setups):.6g}")
        print("inputs: " + json.dumps(input_properties(runs)))
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "ops_per_s": (attempted - failed) / wall,
                "op_p50_ms": statistics.median(latencies),
                "op_tail_ms": tail,
                "setup_s": statistics.median(s for _, s in setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
                "success_rate": (attempted - failed) / attempted,
            },
        }

    def traced(self):
        rate = TRACE_BLOCKS_PER_S[self.args.workload]
        blocks = 1 if rate is None else max(1, round(rate * self.args.seconds))
        # plain, traced, traced, plain: a drift in machine speed during the
        # run weighs on both sides of trace.overhead_ratio alike
        plain, traced = [], []
        for trace in (False, True, True, False):
            (traced if trace else plain).extend(self.measured_runs(blocks=blocks, trace=trace))
        plain_wall = sum(r["wall_s"] for r in plain)
        traced_wall = sum(r["wall_s"] for r in traced)
        overhead = (sum(r["scaled_wall_s"] for r in traced)
                    / sum(r["scaled_wall_s"] for r in plain))
        # layers that a workload never reaches read 0
        layers = {name: (0, 0.0, 0.0) for name, _, _ in LAYERS}
        counters, maxima = {}, {}
        for r in traced:
            for name, (calls, total, self_s) in r["layers"].items():
                c, t, s = layers.get(name, (0, 0.0, 0.0))
                layers[name] = (c + calls, t + total, s + self_s)
            for name, value in r["counters"].items():
                counters[name] = counters.get(name, 0) + value
            for name, value in r["maxima"].items():
                maxima[name] = max(maxima.get(name, 0), value)
        print(f"{self.args.workload} seed {self.args.seed}: {blocks} block(s) run twice "
              f"traced, twice untraced; {sum(r['spans'] for r in traced)} spans; "
              f"wall {traced_wall:.3f} s traced vs {plain_wall:.3f} s untraced")
        print(f"{'span':40} {'calls':>8} {'self s':>10} {'self %':>7} {'total s':>10}")
        for name, (calls, total, self_s) in sorted(layers.items(), key=lambda kv: -kv[1][2]):
            print(f"{name:40} {calls:8d} {self_s:10.4f} "
                  f"{100 * self_s / traced_wall:7.2f} {total:10.4f}")
        print("inputs: " + json.dumps(input_properties(plain)))
        metrics = {"trace.overhead_ratio": overhead}
        for name, _ in COUNTERS.values():
            metrics[name] = counters.get(name, 0)
        for name, _ in MAXIMA.values():
            metrics[name] = maxima.get(name, 0)
        for name, (calls, _, self_s) in layers.items():
            metrics[name + ".calls"] = calls
            metrics[name + ".s"] = self_s
        return {
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "metrics": metrics,
        }


def scaled(run):
    """A worker run's latencies and measured seconds at reference speed.

    The times between two successive probes are scaled by the mean speed
    the two read, each probe smoothed as the median of it and its
    PROBE_SMOOTHING neighbours on either side: the machine's speed drifts
    over seconds, a single probe reads it with noise of its own."""
    marks = run["marks"]
    probes = [p for _, _, p in marks]
    smooth = [statistics.median(probes[max(0, i - PROBE_SMOOTHING):i + PROBE_SMOOTHING + 1])
              for i in range(len(probes))]
    latencies, wall = [], 0.0
    for (i0, w0, _), (i1, w1, _), p0, p1 in zip(marks, marks[1:], smooth, smooth[1:]):
        factor = speed.scale((p0, p1))
        latencies += [x * factor for x in run["latencies_ms"][i0:i1]]
        wall += (w1 - w0) * factor
    return latencies, wall


def tail_latency(latencies, wanted):
    """Nearest-rank percentile, at most ``wanted``, with at least
    TAIL_MIN_BEYOND samples above it, or a quarter of them if that is fewer.

    Returns (percentile, value, samples beyond)."""
    n = len(latencies)
    for pct in (p for p in TAIL_LADDER if p <= wanted):
        idx = max(0, math.ceil(pct / 100 * n) - 1)
        beyond = n - idx - 1
        if beyond >= min(TAIL_MIN_BEYOND, n // 4):
            break
    return pct, latencies[idx], beyond


def input_properties(runs):
    """The input properties a later claim may rest on."""
    attempted = sum(r["attempted"] for r in runs)
    ranges = [r["h_range"] for r in runs if r["h_range"]]
    return {
        # ops whose key repeats an earlier op of the same process
        "repeat_share": sum(r["repeats"] for r in runs) / attempted,
        "dense_dim_max": max(r["dense_dim_max"] for r in runs),
        "h_range": [min(a for a, _ in ranges), max(b for _, b in ranges)] if ranges else None,
    }


if __name__ == "__main__":
    sys.exit(main())
