"""One fresh benchmark process: set up, run operations, check each one.

Started by run.py with the program's sources on PYTHONPATH.  Operations run
one at a time (closed loop, one client) until their summed wall time
reaches the budget, and at least ``min_ops`` have run.  Each operation's
outputs are checked after its timed region.  The last line of standard
output is one JSON object with the timings, outputs and, for a traced
process, the per-layer totals.

Untraced (--trace 0): every operation runs untraced; with --probe, the
last seed is run once more under tracing afterwards, which gives one
tracing-overhead pair and checks that the wrappers leave the outputs
unchanged.  Traced (--trace 1): a first untraced warm-up operation, then
each seed runs untraced and traced in alternating order; per-layer totals
come from the traced runs only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_totals
from workloads import WORKLOADS, CheckLog


def op_seed(workload: str, seed: int, child: int, j: int) -> int:
    """Seed of operation j of a child; derived only from the workload seed."""
    return random.Random(f"{workload}/{seed}/{child}/{j}").randrange(2**31)


class Runner:
    def __init__(self, wl, inputs, child: int, scratch: Path, tracer: Tracer):
        self.wl, self.inputs, self.child = wl, inputs, child
        self.scratch, self.tracer = scratch, tracer
        self.ops: list[dict] = []

    def run(self, s: int, traced: bool) -> dict:
        rec = {"seed": s, "child": self.child, "traced": traced, "error": None}
        call = lambda: self.wl.op(self.inputs, s, self.scratch)  # noqa: E731
        if traced:
            self.tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = self.tracer.run_op(len(self.ops), call) if traced else call()
        except Exception:  # an operation that raises is a failed operation
            out = None
            rec["error"] = traceback.format_exc(limit=3)
        finally:
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = time.process_time() - c0
            if traced:
                self.tracer.uninstall()
        if out is not None:
            log = CheckLog()
            try:
                rec["outputs"] = self.wl.check(self.inputs, s, out, log)
            except Exception:
                log.errors.append(traceback.format_exc(limit=3))
            if log.errors:
                rec["error"] = "reference check: " + "; ".join(log.errors)
        self.ops.append(rec)
        return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--child", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--min-ops", type=int, default=2)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    out_dir = Path(args.out)
    scratch = out_dir / f"scratch-{args.workload}-{args.child}"
    inputs = wl.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at

    tracer = Tracer()
    runner = Runner(wl, inputs, args.child, scratch, tracer)
    seeds = (op_seed(args.workload, args.seed, args.child, j) for j in itertools.count())
    pairs = []
    busy = lambda: sum(r["wall_s"] for r in runner.ops)  # noqa: E731
    try:
        if args.trace == 0:
            while len(runner.ops) < args.min_ops or busy() < args.budget:
                runner.run(next(seeds), traced=False)
            if args.probe:
                last = runner.ops[-1]
                pairs.append((last, runner.run(last["seed"], traced=True)))
        else:
            runner.run(next(seeds), traced=False)
            while len(runner.ops) < args.min_ops or busy() < args.budget:
                s = next(seeds)
                order = (False, True) if len(pairs) % 2 == 0 else (True, False)
                first = runner.run(s, traced=order[0])
                second = runner.run(s, traced=order[1])
                pairs.append((second, first) if order[0] else (first, second))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    overhead = []
    for plain, traced in pairs:
        if plain["error"] or traced["error"]:
            continue
        if plain["outputs"]["digest"] != traced["outputs"]["digest"]:
            traced["error"] = "traced outputs differ from untraced outputs"
            continue
        overhead.append(traced["wall_s"] / plain["wall_s"] - 1.0)
    if args.trace == 1:
        tracer.dump(out_dir / f"spans-{args.workload}.json")
    result = {
        "setup_s": setup_s,
        "ops": runner.ops,
        "overhead": overhead,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "layers": layer_totals(tracer.spans) if args.trace == 1 else None,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
