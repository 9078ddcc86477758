"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Checks that the tracing wrappers are transparent (same report digest traced
and untraced, originals restored afterwards), that the printed metric names
and units are exactly those of BENCHMARK.json, and that the harness refuses
to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracing import LAYERS, Tracer, _modules, layer_metrics, layer_totals  # noqa: E402
from workloads import WORKLOADS, CheckLog  # noqa: E402


def _snapshot():
    mods = _modules()
    state = {(name, attr): obj for name, m in mods.items() for attr, obj in vars(m).items()}
    state["StarMap.__call__"] = mods["pipeline"].StarMap.__call__
    return state


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_matches_untraced(name, tmp_path):
    wl = WORKLOADS[name]
    inputs = wl.setup(5)
    before = _snapshot()
    digests = []
    tracer = Tracer()
    for traced in (False, True):
        call = lambda: wl.op(inputs, 17, tmp_path)  # noqa: E731
        if traced:
            tracer.install()
            try:
                out = tracer.run_op(0, call)
            finally:
                tracer.uninstall()
        else:
            out = call()
        log = CheckLog()
        digests.append(wl.check(inputs, 17, out, log)["digest"])
        assert log.errors == []
    assert digests[0] == digests[1]
    assert _snapshot() == before

    tot = layer_totals(tracer.spans)
    m = layer_metrics(tot, 0.0)
    assert tot["trace.ops"] == 1
    assert m["pipeline.self_s"] > 0.0
    assert 0.98 <= m["trace.accounted_share"] <= 1.0
    assert m["marker.sequence_calls"] > 0 and m["marker.visits"] > 0
    assert {f"{layer}.self_s" for layer in LAYERS} <= set(m)


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "bulk-suites", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert [w["name"] for w in spec["workloads"]] == ["pipeline-default", "bulk-suites", "products"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "bulk-suites", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
