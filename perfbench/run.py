"""Benchmark for qcft: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload {report,exact,numeric} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports qcft from `src/`.  Each
round of the workload runs in a fresh interpreter (worker.py), one round after
another until S seconds have passed.  Set-up is timed in every one of those
processes, and in extra ones that stop once the first operation could run,
until there are SETUP_SAMPLES.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1, as BENCHMARK.json
names them.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15     # set-ups timed per run: one per round, topped up by set-up-only probes
WORKER_GRACE_S = 150   # a worker still running this long after its round began is stopped


def start_worker(args, round_index: int, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start worker.py and return it with the seconds until it printed READY."""
    env = {k: v for k, v in os.environ.items() if k not in ("QCFT_ORDER", "PYTHONPATH")}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_index),
           "--trace", str(args.trace)] + extra
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not set up (printed {line!r})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker overran its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qcft" / "__init__.py").is_file():
        print(f"run.py: no qcft sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    rounds, setups = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        proc, setup = start_worker(args, len(rounds), [])
        setups.append(setup)
        rounds.append(json.loads(finish(proc).splitlines()[-1]))
    while len(setups) < SETUP_SAMPLES:
        proc, setup = start_worker(args, 0, ["--setup-only"])
        finish(proc)
        setups.append(setup)

    round_s = [r["round_s"] for r in rounds]
    if args.trace:
        metrics = {m["name"]: {"value": statistics.median(r["per_layer"].get(m["name"], 0.0)
                                                          for r in rounds),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        metrics["traced.run_s"]["value"] = statistics.median(round_s)
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(round_s),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
                  "op_p50_us": 1e6 * statistics.median(t for r in rounds
                                                       for t in r["latencies"])}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"round times {[round(s, 4) for s in round_s]}, setups "
          f"{[round(s, 4) for s in setups]}", file=sys.stderr)
    print(json.dumps({"correct": all(r["wrong"] == 0 for r in rounds),
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
