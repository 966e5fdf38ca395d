"""Benchmark of skewlie: one client driving the library in a closed loop.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S --trace 0|1

Each request does what one CLI call does and is sent only after the previous
one has returned, on one thread of one process.  A run makes as many full
passes over the request list as the workload's nominal pass time fits into
`--seconds`, and at least enough for MIN_SAMPLES sends.  The count does not
depend on how fast the code is, so the number of samples, and with it the
percentile of req_tail_s, is the same on every commit.

Every output is checked: its own checks must be true and its mathematical
content must equal the reference stored for its input (reference.json).  A
request that raises or fails the check counts in `failed`; failed_frac, that
count over `attempted`, is printed with the failed requests by name.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
sends every request once untraced and once traced and reports the per-layer
metrics of the traced pass and the tracing overhead; the spans go to
.bench_out/.  `--workload all` runs every workload, each in a fresh
interpreter.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Nominal seconds of one pass on a 2-core x86-64 host under CPython 3.11.7.
PASS_S = {"chartab-wide": 15, "decompose-mid": 10, "verify-catalog": 30,
          "linear-sigma": 28, "selftest": 1}
SETUP_PROBES = 9
TAIL_BEYOND = 10
# On a shared 2-vCPU x86-64 host the CPU speed swings by up to 1.7x for
# seconds at a time; a median or tail resting on one send per request of a
# 20-request list then varies by a third from run to run.
MIN_SAMPLES = 50


def provenance() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def setup_seconds() -> list[float]:
    """Seconds from starting a fresh interpreter until `import skewlie` returns.

    One unmeasured probe first writes the bytecode cache, as an installed
    package has one.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", "import skewlie"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times[1:]


def judge(client, req, text, references) -> str | None:
    """Why the output of a request is wrong, or None."""
    if not client.checks_pass(req, text):
        return "a check in the output is false"
    if req.key not in references:
        return "no stored reference"
    if not client.matches(req, text, references[req.key]):
        return "content differs from the reference"
    return None


def send_one(client, req, references, tracer=None) -> tuple[float, str | None]:
    """Latency of one request, and why it failed or None."""
    if tracer:
        span = tracer.open("request")
    t0 = time.perf_counter()
    try:
        text, error = client.send(req), None
    except Exception as exc:  # a failed request is counted and the run goes on
        text, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer:
        tracer.close(span, {"key": req.key})
    return latency, error or judge(client, req, text, references)


def run_pass(client, reqs, references, send=send_one):
    """Send every request once; return the latencies and the failures by key."""
    gc.collect()
    latencies, failures = [], []
    for req in reqs:
        latency, reason = send(client, req, references)
        latencies.append(latency)
        if reason:
            failures.append((req.key, reason))
    return latencies, failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100 * rank / len(ordered)


class Run:
    """What one run measured: metrics as name -> (value, unit, note)."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, str]] = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.spans: list = []

    def add(self, latencies, failures) -> None:
        self.attempted += len(latencies)
        self.failures += failures

    def result(self) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in self.metrics.items()},
        }

    def lines(self) -> list[str]:
        out = [f"{k:48s} {v:14.6f} {u:6s} {note}" for k, (v, u, note) in self.metrics.items()]
        out.append(f"{'failed_frac':48s} {len(self.failures) / max(1, self.attempted):14.6f} "
                   f"{'ratio':6s} {len(self.failures)} of {self.attempted} requests")
        out += [f"FAILED {key}: {reason}" for key, reason in self.failures]
        return out


def measure(client, reqs, references, passes: int) -> Run:
    """End-to-end metrics of `passes` untraced passes.

    Each request's latency is its mean over the passes, so wall_s, their
    sum, is the mean time of one pass.
    """
    run = Run()
    setup = setup_seconds()
    per_pass = []
    for _ in range(passes):
        lat, failures = run_pass(client, reqs, references)
        run.add(lat, failures)
        per_pass.append(lat)
    latencies = [statistics.fmean(samples) for samples in zip(*per_pass)]
    tail_s, pct = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    note = f"{len(reqs)} requests, each at its mean of {passes} passes"
    run.metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "wall_s": (sum(latencies), "s", note),
        "req_p50_s": (statistics.median(latencies), "s", note),
        "req_tail_s": (tail_s, "s",
                       f"p{pct:.1f}: {TAIL_BEYOND} of {len(latencies)} requests beyond"),
        "peak_rss_mb": (rss_mb, "MB", "peak RSS of this process"),
    }
    return run


def measure_traced(client, reqs, references) -> Run:
    """Per-layer metrics of one traced pass, and the tracing overhead.

    Each request is sent untraced and traced, back to back, so that the
    overhead compares two sends that met the same host speed.  The order
    alternates between requests, because the second send of a request runs
    warmer than the first (allocator, caches keyed by conductor).
    """
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install(client)
    untraced, untraced_failures = [], []

    def send_twice(client, req, references):
        tracer.request += 1
        sends = {}
        for traced in (False, True) if tracer.request % 2 == 0 else (True, False):
            tracer.on = traced
            sends[traced] = send_one(client, req, references, tracer if traced else None)
        tracer.on = False
        latency, reason = sends[False]
        untraced.append(latency)
        if reason:
            untraced_failures.append((req.key, reason))
        return sends[True]

    run = Run()
    traced, failures = run_pass(client, reqs, references, send_twice)
    run.add(traced, failures)
    run.add(untraced, untraced_failures)
    run.spans = tracer.spans
    run.metrics = {k: (v["value"], v["unit"], "") for k, v in layer_metrics(tracer.spans).items()}
    run.metrics["trace.overhead_s"] = (
        sum(traced) - sum(untraced), "s",
        f"traced pass {sum(traced):.3f} s minus untraced pass {sum(untraced):.3f} s")
    return run


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import client
    import workloads

    info = provenance()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: python "
          f"{info['python']}, nproc {info['nproc']}, loadavg {info['loadavg']}", flush=True)
    reqs = workloads.requests(args.workload, args.seed)
    references = json.loads(REFERENCE.read_text())
    if args.trace:
        run = measure_traced(client, reqs, references)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "provenance": info,
            "requests": [r.to_json() for r in reqs],
            "span_fields": ["name", "start", "end", "parent", "request", "sizes"],
            "spans": run.spans,
        }))
        print(f"{len(run.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        passes = max(-(-MIN_SAMPLES // len(reqs)), int(args.seconds // PASS_S[args.workload]))
        run = measure(client, reqs, references, passes)
    print("\n".join(run.lines()))
    print(json.dumps(run.result()), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh interpreter; metric names get the workload prefix."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w for w in PASS_S if w != "selftest"]:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*PASS_S, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "skewlie" / "__init__.py").is_file():
        print(f"error: no skewlie sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
