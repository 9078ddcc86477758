#!/usr/bin/env python3
"""meandimlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is compiled to
bytecode from ``src/`` and driven in fresh worker processes (one at a
time, so the load is a closed loop with one client) that take the
program's sources from ``src/``.  BLAS/OpenMP threads are capped at the CPU
count.

--trace 0 runs WORKERS fresh processes, one after another, that share the
measured seconds, plus SETUP_ONLY processes that only set up, and reports
the end-to-end metrics.  --trace 1 runs one process in which every seed
runs untraced and traced, and reports the per-layer metrics from the
traced runs together with the tracing overhead.
The last line of standard output is the JSON result; the full record
(machine, per-seed outputs and digests, errors) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics, unit_of

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline-default", "bulk-suites", "products")
# Fresh processes per untraced run.  Each of the WORKERS gives one sample of
# setup_s and first_verdict_s and shares the measured seconds with the
# others; each SETUP_ONLY process gives one more sample of setup_s.
WORKERS = 6
SETUP_ONLY = 6
DEADLINE_S = 170.0  # every run must end within 180 s


def machine_info() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next(
        (ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{idx}/level").strip(), read(f"{idx}/type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{idx}/size").strip()
    mem = next(
        (ln.split(":", 1)[1].strip() for ln in read("/proc/meminfo").splitlines()
         if ln.startswith("MemTotal")),
        "",
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
        "mem_total": mem,
        "python": platform.python_version(),
    }


def spawn(base_cmd: list, env: dict, deadline: float, child: int, budget: float,
          min_ops: int, probe: bool = False) -> dict:
    """Run one worker to completion; a crash or timeout is one failed op."""
    spawned = time.monotonic()
    cmd = [
        *base_cmd, "--child", str(child), "--budget", repr(budget),
        "--min-ops", str(min_ops), "--spawned-at", repr(spawned),
    ] + (["--probe"] if probe else [])
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = "worker timed out"
    return {"ops": [{"seed": None, "traced": False, "error": error}], "crashed": True}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(children) -> tuple[dict, dict]:
    """Metrics as (value, unit), and the sample count behind each median."""
    ok = [c for c in children if not c.get("crashed")]
    first = [c["ops"][0]["wall_s"] for c in ok if c["ops"]]
    steady = [r for c in ok for r in c["ops"][1:] if not r["traced"]]
    ops = [r for c in children for r in c["ops"]]
    failed = sum(r["error"] is not None for r in ops)
    return {
        "verdict_s": (median([r["wall_s"] for r in steady]), "s"),
        "verdict_cpu_s": (median([r["cpu_s"] for r in steady]), "s"),
        "first_verdict_s": (median(first), "s"),
        "setup_s": (median([c["setup_s"] for c in ok]), "s"),
        "peak_rss_mb": (max((c["peak_rss_mb"] for c in ok), default=0.0), "MB"),
        "ok_op_share": ((len(ops) - failed) / len(ops), "share"),
    }, {"steady_ops": len(steady), "first_ops": len(first), "setups": len(ok)}


def per_layer(child) -> dict:
    if child.get("crashed") or not child["layers"].get("trace.ops"):
        return {}
    m = layer_metrics(child["layers"], median(child["overhead"]))
    return {k: (v, unit_of(k)) for k, v in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    # On SIGTERM, exit through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    src = root / "src"
    if not (src / "meandimlab" / "pipeline.py").is_file():
        print(f"no meandimlab sources under {src}", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    if not compileall.compile_dir(src, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("compiling the sources failed", file=sys.stderr)
        return 2
    threads = str(os.cpu_count() or 1)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(src), str(HERE)]),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    worker = functools.partial(spawn, [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(out),
    ], env, t_start + DEADLINE_S)

    if args.trace == 0:
        children = []
        for k in range(WORKERS):
            used = sum(r["wall_s"] for c in children for r in c["ops"] if "wall_s" in r)
            budget = (args.seconds - used) / (WORKERS - k)
            children.append(worker(k, budget, 2, probe=k == WORKERS - 1))
        children += [worker(k, 0.0, 0) for k in range(WORKERS, WORKERS + SETUP_ONLY)]
        metrics, samples = end_to_end(children)
    else:
        children = [worker(0, args.seconds, 3)]
        metrics, samples = per_layer(children[0]), {}

    ops = [r for c in children for r in c["ops"]]
    failed = sum(r["error"] is not None for r in ops)
    overhead = [x for c in children for x in c.get("overhead", [])]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_info(), "numpy": next((c["numpy"] for c in children if "numpy" in c), "")},
        "samples": samples,
        "tracing_overhead_share": {"median": median(overhead), "pairs": len(overhead)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops,
    }
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for r in ops:
        if r["error"]:
            print(f"FAILED op seed={r['seed']}: {r['error']}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k:<28}{v:>16.6g} {u}")
    print(f"record {path.relative_to(root)}; machine {json.dumps(record['machine'])}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
