"""Self-check of the benchmark harness.

    python3 -m pytest perfbench/test_bench.py

Runs every workload at its tiny size through the benchmark's command line,
checks span self times on overlapping threads, checks that a tampered
output counts as a failed pass, and checks that the benchmark refuses to
report without the rnasel sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import bench
import spans

COMMAND = [sys.executable, str(bench.ROOT / "perfbench" / "bench.py")]


def _run(args, cwd=bench.ROOT):
    return subprocess.run(COMMAND + args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = bench.load_metric_table(trace)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_overlapping_threads_count_as_busy_time_not_wall_time():
    main, t1, t2 = 1, 2, 3
    recorded = [
        spans.Span(0, spans.ROOT, 0.0, 10.0, None, main),
        spans.Span(1, "ingest.load_matrix", 1.0, 3.0, 0, main),
        spans.Span(2, "annealer.run", 2.0, 8.0, 0, t1),
        spans.Span(3, "annealer.run", 2.0, 9.0, 0, t2),
        spans.Span(4, "clustering.cut", 3.0, 4.0, 2, t1),
    ]
    busy = spans.self_times(recorded)
    assert busy["annealer.run"] == pytest.approx(5.0 + 7.0)
    assert busy["clustering.cut"] == pytest.approx(1.0)
    assert busy["ingest.load_matrix"] == pytest.approx(2.0)
    assert spans.uncovered(recorded) == pytest.approx(2.0)


def test_tampered_selection_counts_as_failure(tmp_path):
    bench.import_rnasel()
    from rnasel import synth

    size = bench.WORKLOADS["quickstart"].tiny
    matrix, meta, truth = synth.generate(synth.SynthSpec(seed=5, **size.synth))
    synth.write_dataset(tmp_path / "data", matrix, meta, truth)
    passes = []
    for k in range(2):
        out = tmp_path / f"pass{k}"
        seconds, error = bench.run_pass(bench.run_argv(size, tmp_path / "data", 5, out))
        passes.append(bench.Pass(out, seconds, False, error))
    expected = bench.expected_for(size, 5, matrix, meta)
    assert bench.check_passes(passes, expected) == 0

    selection = sorted(passes[1].out.glob("*/selection.json"))[0]
    payload = json.loads(selection.read_text(encoding="utf-8"))
    payload["u"] += 1e-6
    selection.write_text(json.dumps(payload), encoding="utf-8")
    for p in passes:
        p.failures.clear()
    assert bench.check_passes(passes, expected) == 1
    assert not passes[0].failures
    assert any("eval_u" in f for f in passes[1].failures)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
