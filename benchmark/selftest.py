"""Self-test of the benchmark harness on a tiny mix.

    python3 benchmark/selftest.py

The mix is dicyclic:2 with one request of each kind.  The test checks that an
untraced and a traced run emit exactly the metrics BENCHMARK.json names and
pass the output gate, that a deliberately wrong reference is counted as a
failure (so the gate is no tautology), and that the benchmark exits non-zero
without a result in a directory that holds only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def invoke(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmark/run.py", "--workload", "selftest", "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = invoke(ROOT, trace)
        check(proc.returncode == 0, f"--trace {trace} exits 0")
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
              f"--trace {trace} result has exactly the four keys")
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"--trace {trace} emits every {section} metric with its unit")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 4,
              f"--trace {trace} passes the output gate")


def wrong_reference_fails() -> None:
    reqs = workloads.requests("selftest", SEED)
    references = json.loads(run.REFERENCE.read_text())
    victims = {
        "decompose dicyclic:2 canonical": "0" * 64,
        "verify dicyclic:2": references["verify dicyclic:2"] + ["dicyclic:2 / no-such-check"],
    }
    for key, wrong in victims.items():
        measured = run.Run()
        measured.add(*run.run_pass(client, reqs, dict(references, **{key: wrong})))
        result = measured.result()
        check(result["failed"] == 1 and [k for k, _ in measured.failures] == [key],
              f"a wrong reference for {key!r} counts as 1 failed request of {result['attempted']}")


def bare_directory_fails() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = invoke(bare, 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the benchmark exits non-zero and prints no result")


def main() -> int:
    metrics_emitted()
    wrong_reference_fails()
    bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
