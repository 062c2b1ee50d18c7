"""One round of one workload in one fresh process: set up, run, check outputs.

Started by run.py, once per round, so no cache inside qcft can carry over from
one round to the next.  It prints READY once the first operation can run, and
at the end one JSON line with the round time, the operation latencies, counts
and, with --trace 1, the per-layer metrics.  A single thread calls qcft in a
closed loop: each operation starts when the previous one and its check are done.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (timed on its own: qcft.mock imports it)

_T1 = perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import qcft  # noqa: E402,F401

_T2 = perf_counter()

import tracing  # noqa: E402
import workloads  # noqa: E402

TRACE_DIR = ROOT / "perfbench-out"


def run(ops, tracer) -> dict:
    """Every operation of the round, each timed alone and then checked."""
    latencies: list[float] = []
    failed = wrong = 0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = index
            tracer.active = True
        t = perf_counter()
        try:
            out = op.call()
        except Exception:  # a failed operation is counted, and the run goes on
            failed += 1
            print(f"operation {op.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(perf_counter() - t)
        try:
            errors = op.check(out)
        except Exception:  # an output the check cannot even read is wrong
            errors = [traceback.format_exc()]
        if errors:
            failed += 1
            wrong += 1
            print(f"operation {op.label} gave a wrong output: {errors[:3]}", file=sys.stderr)
    return {"round_s": sum(latencies), "latencies": latencies, "attempted": len(ops),
            "failed": failed, "wrong": wrong}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True, help="which round to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set-up is done (to time set-up alone)")
    args = parser.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed).round(args.round)
    t3 = perf_counter()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    result = run(ops, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        result["per_layer"].update({"setup.import_numpy.s": _T1 - _T0,
                                    "setup.import_qcft.s": _T2 - _T1,
                                    "setup.inputs.s": t3 - _T2})
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"trace-{args.workload}-{args.seed}-r{args.round}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
