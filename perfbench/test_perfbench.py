"""Tests for the benchmark's own pieces.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness

harness.require_source()

from gate import GateResult, outcome_codes, digest  # noqa: E402
from report import PER_LAYER, SELF_TIME_METRICS, END_TO_END  # noqa: E402
from servemix import phase_plan, saturation_rps  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

RUN = [sys.executable, str(harness.BENCH_DIR / "run.py")]


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [30, 20, 10, 40]


def test_self_times_and_remainder_add_up_to_the_window():
    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(1000))

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    import time

    began = time.perf_counter_ns()
    layer = Layer()
    for _ in range(5):
        layer.outer()
        sum(range(2000))  # untraced work: lands in the remainder
    tracer.windows.append((began, time.perf_counter_ns()))
    tracer.restore()
    summary = tracer.summarize()
    assert summary["outer"].calls == 5
    assert summary["inner"].calls == 10
    assert list(tracer.parent[:3]) == [-1, 0, 0]
    total_self = sum(s.self_ns for s in summary.values())
    assert total_self + tracer.remainder_ns(summary) == tracer.wall_ns()
    assert tracer.remainder_ns(summary) > 0


def test_wrap_restores_originals_and_numbers_batches():
    class Worker:
        def commit(self, batch):
            return self.step()

        def step(self):
            return 1

    original_commit, original_step = Worker.commit, Worker.step
    tracer = Tracer()
    tracer.wrap(Worker, "commit", "worker.commit")
    tracer.wrap(Worker, "step", "step")
    worker = Worker()
    worker.commit([])
    worker.step()
    worker.commit([])
    tracer.restore()
    assert Worker.commit is original_commit and Worker.step is original_step
    # Spans under a commit carry its batch id; the bare call carries -1.
    assert list(tracer.batch) == [0, 0, -1, 1, 1]


def test_spans_outside_windows_are_not_summarized():
    tracer = Tracer()
    tracer.names = ["a"]
    tracer.name_id.extend([0, 0])
    tracer.start.extend([0, 200])
    tracer.end.extend([50, 260])
    tracer.parent.extend([-1, -1])
    tracer.batch.extend([-1, -1])
    tracer.windows.append((100, 300))
    summary = tracer.summarize()
    assert summary["a"].calls == 1 and summary["a"].self_ns == 60
    assert tracer.remainder_ns(summary) == 140


# -- latency from due time ----------------------------------------------------


def test_latency_counts_from_the_datagram_due_time():
    due = [0.0, 1.0, 2.0]
    # Batch one: 40 records (datagram 0 and the first 10 of datagram 1),
    # ending at 1.5 s; batch two: the remaining 50, ending at 3.0 s.
    latencies = harness.latencies_from_due(due, [1.5, 3.0], [40, 50], 30)
    assert len(latencies) == 90
    assert latencies[:30] == [1500.0] * 30
    assert latencies[30:40] == [500.0] * 10
    assert latencies[40:60] == [2000.0] * 20
    assert latencies[60:] == [1000.0] * 30


def test_latency_rejects_more_records_than_datagrams_carry():
    with pytest.raises(ValueError):
        harness.latencies_from_due([0.0], [1.0], [31], 30)


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 1.0) == 100
    assert harness.median([3, 1, 2, 10]) == 2.5


def test_saturation_counts_commits_after_the_first():
    assert saturation_rps([1.0, 2.0, 3.0], [100, 256, 256]) == 256.0
    with pytest.raises(ValueError):
        saturation_rps([1.0], [256])


def test_phase_plan_sends_whole_datagrams_and_never_overfills_the_queue():
    from repro.serve import ServeConfig

    for quick in (False, True):
        phases = phase_plan(10.0, quick)
        assert [p.name for p in phases] == ["r10k", "r20k", "over"]
        for phase in phases:
            assert phase.records % harness.RECORDS_PER_DATAGRAM == 0
        # The backlog left by a loop committing 28k records/s stays below
        # the queue's capacity, so the over-capacity phase sheds nothing.
        over = phases[-1]
        assert over.records * (1 - 28_000 / over.rate) < ServeConfig().queue_capacity


# -- the correctness gate -----------------------------------------------------


@pytest.fixture(scope="module")
def small_flood():
    from repro.obs import MetricsRegistry

    records = harness.flood_trace(600, 3, unique=True)
    batched = harness.build_flood_detector(MetricsRegistry())
    batched.enable_fastpath()
    committed = []
    for start in range(0, len(records), 256):
        committed.extend(batched.process_batch(records[start : start + 256]).decisions)
    serial = harness.build_flood_detector(MetricsRegistry()).process_all(records)
    return committed, serial


def test_gate_passes_the_production_stream(small_flood):
    committed, serial = small_flood
    gate = GateResult()
    gate.check_stream("flood", committed, serial)
    gate.check_digest("flood", digest(committed), outcome_codes(committed), serial)
    gate.check_fates("flood", sent=600, committed=600, lost=0, shed=0)
    assert gate.correct and gate.failed == 0 and gate.attempted == 600


def test_gate_fails_on_a_perturbed_decision_stream(small_flood):
    committed, serial = small_flood
    flipped = "benign" if committed[7].verdict == "attack" else "attack"
    perturbed = list(committed)
    perturbed[7] = dataclasses.replace(committed[7], verdict=flipped)
    gate = GateResult()
    gate.check_stream("flood", perturbed, serial)
    assert not gate.correct and gate.failed == 1

    gate = GateResult()
    gate.check_digest("flood", digest(perturbed), outcome_codes(perturbed), serial)
    assert not gate.correct and gate.failed == 1

    # A difference the outcome codes cannot see still fails the digest.
    perturbed[7] = dataclasses.replace(committed[7], protocol_class="elsewhere")
    gate = GateResult()
    gate.check_digest("flood", digest(perturbed), outcome_codes(perturbed), serial)
    assert not gate.correct and gate.failed == 1


def test_gate_fails_when_record_fates_do_not_reconcile():
    gate = GateResult()
    gate.check_fates("serve", sent=100, committed=90, lost=5, shed=0)
    assert not gate.correct and gate.failed == 10
    gate = GateResult()
    gate.check_fates("serve", sent=100, committed=95, lost=5, shed=0)
    assert gate.correct and gate.failed == 5


# -- end to end ---------------------------------------------------------------


def _results(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_quick_mode_runs_every_workload_end_to_end():
    done = subprocess.run(
        RUN + ["--workload", "all", "--quick", "--seconds", "1", "--seed", "3"],
        cwd=harness.CHECKOUT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    results = _results(done.stdout)
    assert len(results) == 3
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0
        assert list(result["metrics"]) == [name for name, _ in END_TO_END]
        for name, unit in END_TO_END:
            assert result["metrics"][name]["unit"] == unit
            assert result["metrics"][name]["value"] > 0


def test_quick_traced_run_accounts_for_the_wall_time():
    done = subprocess.run(
        RUN + ["--workload", "all", "--quick", "--seconds", "1", "--trace", "1"],
        cwd=harness.CHECKOUT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    results = _results(done.stdout)
    assert len(results) == 3
    for workload, result in zip(("flood-repeat", "flood-unique", "serve-mix"), results):
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert list(metrics) == [name for name, _ in PER_LAYER]
        accounted = sum(metrics[m] for m in SELF_TIME_METRICS.values())
        assert accounted + metrics["trace.remainder_s"] == pytest.approx(
            metrics["trace.wall_s"], rel=1e-9
        ), workload
        assert metrics["pipeline.flows"] > 0
    assert (harness.WORK_DIR / "spans-serve-mix.json").is_file()


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flood-repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not _results(done.stdout)


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((harness.CHECKOUT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["flood-repeat", "flood-unique", "serve-mix"]
