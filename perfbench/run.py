"""sylowlab benchmark: fixed CLI request lists, timed end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 10 --trace 0

A single-process, single-client closed loop.  Each pass sends the
workload's requests (`workloads.py`), in an order drawn from `--seed`,
through the public entry point `sylowlab.cli.main(argv + ["--json", "-"])`
one after another, and checks every report against its frozen answer.
Every request resolves its own groups, so each starts with cold
`PermGroup` caches, as a separate CLI process would.  With `--trace 0`
the first pass always runs whole; after it, passes go on, and each
request runs while it is expected, at its median latency so far, to end
within `--seconds`, so the run is as long as `--seconds` even when a
pass is long.  With `--trace 1`, whole passes repeat while the next one
is expected to end within `--seconds`.

`--trace 0` reports the end-to-end metrics: `wall_s` (time of one pass
over the list, each request at its median latency over the run's
passes), `latency_p50_ms` (median of all request latencies; the sample
count is in the metadata), `peak_rss_mb` and `setup_s` (median time for
a fresh interpreter to import `sylowlab.cli` and build its parser).
The three times are reported at a reference host speed (see
`PROBE_REF_NS`).  Failed requests are counted in `failed` out of
`attempted`.

`--trace 1` alternates untraced passes with passes traced by
`tracer.py`, and reports per-layer self times and counters per traced
pass, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata.  Spans and metadata are also written to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh-interpreter imports per run; the median is reported.  One more
# import runs first, untimed, so that a bytecode cache, where the
# environment allows one, is written before timing.
SETUP_REPS = 9
# The child stamps the moment it is ready on CLOCK_MONOTONIC, which on
# Linux is one clock for all processes, so process teardown and the
# parent's polling while it waits stay out of the measurement.
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import sylowlab.cli; sylowlab.cli.build_parser(); "
               "import time; print(time.monotonic_ns())")


# The host is shared, and its speed moves: on a 2-core sandbox the same
# pure-Python loop runs 10-30 % slower or faster for minutes at a time,
# alike in every process, and by some 30 % over an hour.  Each run
# therefore times `probe`, a fixed loop of the benchmark's own that no
# change to sylowlab can speed up, before every request and every set-up
# import, and reports its timings at a reference host speed: multiplied by
# PROBE_REF_NS / (the run's median probe time).  PROBE_REF_NS is the
# probe's time on that sandbox at a quiet moment (Python 3.11.7), so
# there the reported times are close to the measured ones; the measured
# ones are in the metadata.
PROBE_REF_NS = 15_000_000


def probe() -> int:
    """Nanoseconds taken by a fixed pure-Python loop."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter_ns() - start


def measure_setup(probes: list[int], reps: int = SETUP_REPS) -> float:
    """Median set-up time; appends a probe time per import to `probes`."""
    times = []
    for i in range(reps + 1):
        probes.append(probe())
        start = time.monotonic_ns()
        child = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                               stdin=subprocess.DEVNULL, capture_output=True,
                               text=True, check=True, timeout=60)
        if i:
            times.append((int(child.stdout) - start) / 1e9)
    return statistics.median(times)


def run_request(cli_main, argv: list[str]):
    """Time one CLI call; returns (ns, exit code, stdout, escaped exception)."""
    buf = io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv + ["--json", "-"])
        escaped = None
    except (Exception, SystemExit) as err:
        rc, escaped = None, f"{type(err).__name__}: {err}"
    return time.perf_counter_ns() - start, rc, buf.getvalue(), escaped


def request_problems(expect: dict, rc, stdout: str, escaped) -> list[str]:
    """Why a request failed; empty when it matches its frozen answer."""
    if escaped is not None:
        return [f"exception escaped main: {escaped}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not a JSON report"]
    problems = workloads.check_report(report, expect)
    want_rc = 0 if expect.get("ok") else 1
    if rc != want_rc:
        problems.append(f"exit code {rc} != {want_rc}")
    return problems


class Runner:
    """Runs passes over one request list and keeps what they measured."""

    def __init__(self, cli, requests: list[dict], seed: int):
        self.cli = cli
        self.requests = requests
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: list[dict] = []
        self.orders: list[list[int]] = []
        # per request, in list order: its latency in ns in every pass
        self.samples: list[list[int]] = [[] for _ in requests]
        # `probe` times, one before each request
        self.probes: list[int] = []

    def run_pass(self, admit=None) -> list[int]:
        """One pass in a seeded order; returns each request's latency in ns.

        The pass stops early, before the first request `i` for which
        `admit(i)` is false."""
        order = list(range(len(self.requests)))
        self.rng.shuffle(order)
        self.orders.append(ran := [])
        latencies = []
        for i in order:
            if admit is not None and not admit(i):
                break
            req = self.requests[i]
            # Untimed: drop the previous request's garbage, so each request
            # starts from a heap like a fresh CLI process's.  Without this,
            # cyclic garbage piles up across requests and each later
            # request pays for collecting it at unpredictable moments.
            gc.collect()
            self.probes.append(probe())
            # looked up per call, so that the tracer's wrapper is the one called
            ns, rc, stdout, escaped = run_request(self.cli.main, req["argv"])
            ran.append(i)
            latencies.append(ns)
            self.samples[i].append(ns)
            self.attempted += 1
            problems = request_problems(req["expect"], rc, stdout, escaped)
            if problems:
                self.failures.append({"request": i, "argv": req["argv"],
                                      "problems": problems})
        return latencies


def metadata(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": nproc,
        "load_start": load,
        "loaded_at_start": load > nproc,
        "commit": None,
        "dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30, stdin=subprocess.DEVNULL)
        head = git("rev-parse", "HEAD")
        if head.returncode == 0:
            meta["commit"] = head.stdout.strip()
            meta["dirty"] = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    return meta


def repeat_within(seconds: float, step) -> int:
    """Call `step` at least once, and again while the next call, judged by
    the median so far, still ends within `seconds`; returns the count."""
    start = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        step()
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) > seconds:
            return len(took)


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_s = measure_setup(runner.probes)
    start = time.perf_counter()

    def admit(i: int) -> bool:
        # every request runs at least once; after that, only while it is
        # expected, at its median so far, to end within `seconds`
        took = runner.samples[i]
        return not took or (time.perf_counter() - start
                            + statistics.median(took) / 1e9 <= seconds)

    while len(runner.run_pass(admit)) == len(runner.requests):
        pass
    per_request = runner.samples
    latencies = [ns for r in per_request for ns in r]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    measured = {
        # the list's time once, with each request at its median over passes
        "wall_s": sum(statistics.median(r) for r in per_request) / 1e9,
        "latency_p50_ms": statistics.median(latencies) / 1e6,
        "setup_s": setup_s,
    }
    probe_ns = statistics.median(runner.probes)
    speed = PROBE_REF_NS / probe_ns
    metrics = {
        "wall_s": (measured["wall_s"] * speed, "s"),
        "latency_p50_ms": (measured["latency_p50_ms"] * speed, "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "setup_s": (measured["setup_s"] * speed, "s"),
    }
    info = {"measured": measured, "probe_median_ms": probe_ns / 1e6,
            "passes": len(runner.orders), "latency_samples": len(latencies),
            "request_latencies_ms": [[ns / 1e6 for ns in r] for r in per_request]}
    return metrics, info


def traced_run(runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes; per-layer numbers are per pass."""
    spans = tracer.Tracer()
    plain, traced = [], []

    def pair():
        plain.append(sum(runner.run_pass()))
        with spans:
            traced.append(sum(runner.run_pass()))

    repeat_within(seconds, pair)
    layers = tracer.layer_metrics(spans.spans, spans.counts, len(traced))
    layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    info = {"passes": len(traced), "untraced_walls_s": [w / 1e9 for w in plain],
            "traced_walls_s": [w / 1e9 for w in traced],
            "layer_self_s": tracer.layer_shares(layers),
            "span_count": len(spans.spans)}
    return metrics, info, spans.spans


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sylowlab" / "cli.py").is_file():
        print(f"error: no sylowlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sylowlab.cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(sylowlab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sylowlab from {sylowlab.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    meta = metadata(args)
    runner = Runner(sylowlab.cli, workloads.WORKLOADS[args.workload], args.seed)
    spans = []
    if args.trace:
        metrics, info, spans = traced_run(runner, args.seconds)
    else:
        metrics, info = timed_run(runner, args.seconds)
    meta.update(info)
    meta["load_end"] = os.getloadavg()[0]
    meta["orders"] = runner.orders
    meta["failures"] = runner.failures

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"meta": meta, "spans": [list(s) for s in spans]}, fh)

    failed = len(runner.failures)
    correct = failed == 0
    print(json.dumps(meta))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
