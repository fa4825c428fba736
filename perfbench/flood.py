"""The offline flood workloads: ``flood-repeat`` and ``flood-unique``.

One process drives back-to-back batches: each round builds and trains a
fresh detector (the set-up sample), then routes the flood's v5
datagrams one at a time through ``DatagramRouter.route`` and commits a
``batch_size`` batch through ``CommitWorker.commit`` whenever one is
queued.  Rounds repeat the identical input on an identically built
detector, so every round must commit the identical decision stream;
round one is also compared with a serial ``process`` replay.  Rounds
continue until the timed regions add up to ``--seconds``.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import harness
from gate import GateResult, digest, outcome_codes
from report import SERVE_ONLY, Result, build_result, span_metrics
from spans import Tracer

#: Flows per round: the E15/E19 flood size.
ROUND_FLOWS = 20_000
QUICK_ROUND_FLOWS = 2_000
#: A run always measures at least this many rounds per traced/untraced kind.
MIN_ROUNDS = 3
#: Give up adding rounds after this much wall time, whatever ``--seconds`` says.
WALL_CAP_S = 100.0


class _Round:
    """What one round measured."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        #: Reference-loop times around the set-up.
        self.setup_loops: List[float] = []
        self.clock = harness.ScaledClock()
        self.decisions: List = []
        self.counts: Dict[str, float] = {}


def _drive(datagrams, daemon, captured) -> _Round:
    """The timed region: route every datagram, commit every full batch,
    closing a scaled-clock slice every ``harness.SLICE_S``."""
    router, queue, worker = daemon.router, daemon.queue, daemon.worker
    batch_size = daemon.config.batch_size
    result = _Round()
    clock = result.clock
    now = time.perf_counter_ns
    began = now()
    for datagram in datagrams:
        router.route(datagram)
        while len(queue) >= batch_size:
            worker.commit(queue.take_nowait(batch_size))
        if now() - began >= harness.SLICE_S * 1e9:
            ended = now()
            clock.windows.append((began, ended))
            clock.add((ended - began) / 1e9)
            began = now()
    while len(queue):
        worker.commit(queue.take_nowait(batch_size))
    ended = now()
    clock.windows.append((began, ended))
    clock.add((ended - began) / 1e9)
    result.decisions = [d for batch in captured for d in batch]
    return result


def _object_counts(detector, daemon) -> Dict[str, float]:
    """Per-layer counts read from the objects after a round."""
    stats = detector.stats
    router = daemon.router
    memo = detector.fastpath.stats() if detector.fastpath is not None else {}
    probes = memo.get("hits", 0) + memo.get("misses", 0)
    worker = daemon.worker
    return {
        "listener.datagrams": router.stats.v5_datagrams,
        "listener.records": router.collector.stats.records,
        "listener.lost": router.collector.stats.lost_flows,
        "queue.depth_max": daemon.queue.stats.high_watermark,
        "queue.shed": daemon.queue.stats.shed,
        "worker.batches": worker.batches,
        "worker.batch_mean": worker.committed / worker.batches if worker.batches else 0.0,
        "pipeline.flows": stats.processed,
        "pipeline.legal": stats.legal,
        "pipeline.benign": stats.benign,
        "pipeline.attacks": stats.attacks,
        "pipeline.absorbed": stats.absorbed,
        "fastpath.hit_ratio": memo.get("hits", 0) / probes if probes else 0.0,
        "fastpath.invalidations": memo.get("invalidations", 0),
        "nns.scales_built": sum(
            sub.structure.scales_built
            for sub in detector.model.subclusters.values()
        ),
        "alerts.retained": len(detector.alert_sink.alerts),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> Result:
    from repro.netflow.v5 import datagrams_for
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig, ServeDaemon

    unique = workload == "flood-unique"
    n_flows = QUICK_ROUND_FLOWS if quick else ROUND_FLOWS
    records = harness.flood_trace(n_flows, seed, unique=unique)
    datagrams = list(datagrams_for(records, sys_uptime=0, unix_secs=0))
    gate = GateResult()
    tracer = Tracer() if trace else None
    queue_waits: List[float] = []

    def note_waits(tr: Tracer, index: int, args: tuple, _result: object) -> None:
        began = tr.start[index] / 1e9
        queue_waits.extend((began - q.enqueued_s) * 1000.0 for q in args[1])

    fired = [0]

    def note_scan(_tr: Tracer, _index: int, _args: tuple, result) -> None:
        fired[0] += bool(result.is_scan)

    plain: List[_Round] = []
    traced: List[_Round] = []
    reference = None
    peak_rss = 0.0
    wall_start = time.perf_counter()
    while True:
        measured = sum(r.clock.raw_s for r in plain + traced)
        enough = len(plain) >= MIN_ROUNDS and (not trace or len(traced) >= MIN_ROUNDS)
        if enough and (
            measured >= seconds or time.perf_counter() - wall_start > WALL_CAP_S
        ):
            break
        with_trace = tracer is not None and len(plain) > len(traced)
        gc.collect()
        registry = MetricsRegistry()
        loops = [harness.reference_loop()]
        began = time.perf_counter()
        detector = harness.build_flood_detector(registry)
        setup_s = time.perf_counter() - began
        loops.append(harness.reference_loop())
        daemon = ServeDaemon(detector, ServeConfig(), registry=registry)
        captured: List[list] = []

        def capture(batch_records, _det=detector, _out=captured, **kwargs):
            result = type(_det).process_batch(_det, batch_records, **kwargs)
            _out.append(result.decisions)
            return result

        detector.process_batch = capture
        if with_trace:
            tracer.install_layers({"worker.commit": note_waits, "scan.observe": note_scan})
        try:
            measured_round = _drive(datagrams, daemon, captured)
        finally:
            if with_trace:
                tracer.restore()
        if with_trace:
            tracer.windows.extend(measured_round.clock.windows)
        measured_round.setup_s = setup_s
        measured_round.setup_loops = loops
        measured_round.counts = _object_counts(detector, daemon)
        label = f"round {len(plain) + len(traced) + 1}"
        gate.check_fates(
            label,
            sent=len(records),
            committed=daemon.worker.committed,
            lost=daemon.router.collector.stats.lost_flows,
            shed=daemon.queue.stats.shed,
        )
        if reference is None:
            reference = measured_round
        else:
            gate.check_stream(label, measured_round.decisions, reference.decisions)
        (traced if with_trace else plain).append(measured_round)
        if len(plain) + len(traced) == MIN_ROUNDS:
            # Peak memory after a fixed amount of work: later rounds only
            # add allocator fragmentation, and their number varies.
            peak_rss = harness.peak_rss_mb()
        if reference is not measured_round:
            measured_round.decisions = []

    # The serial reference, outside the timed region: process() on an
    # identically built detector, flow by flow.
    assert reference is not None
    serial = harness.build_flood_detector(MetricsRegistry())
    serial_decisions = serial.process_all(records)
    gate.check_stream("round 1 vs serial process", reference.decisions, serial_decisions)

    # Compute-bound timings at the reference host's speed (harness.
    # reference_loop); the raw medians go into the metadata.
    fps = [n_flows / r.clock.scaled_s for r in plain]
    values: Dict[str, float] = {
        "flows_per_s": harness.median(fps),
        "setup_s": harness.median(
            [harness.at_reference_speed(r.setup_s, r.setup_loops) for r in plain + traced]
        ),
        "peak_rss_mb": peak_rss,
        "detection_rate": sum(d.is_attack for d in reference.decisions) / n_flows,
    }
    meta: Dict[str, object] = {
        "workload": workload,
        "host": harness.host_metadata(seed),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "flows_per_round": n_flows,
        "raw_medians": {
            "flows_per_s": harness.median([n_flows / r.clock.raw_s for r in plain]),
            "setup_s": harness.median([r.setup_s for r in plain + traced]),
            "reference_loop_s": harness.median(
                [x for r in plain for x in r.setup_loops]
            ),
        },
        "decision_digest": digest(reference.decisions),
        "repetition_profile": harness.repetition_profile(
            records,
            outcome_codes(reference.decisions),
            serial.config.eia.granularity,
        ),
    }
    if tracer is not None:
        per = float(len(traced))
        values.update(span_metrics(tracer, per))
        for name in traced[0].counts:
            values[name] = sum(r.counts[name] for r in traced) / per
        values.update(dict.fromkeys(SERVE_ONLY, 0.0))
        values.update(
            {
                "queue.wait_p50_ms": harness.percentile(queue_waits, 0.50),
                "queue.wait_p99_ms": harness.percentile(queue_waits, 0.99),
                "scan.fired": fired[0] / per,
                "trace.overhead_frac": harness.median(fps)
                / harness.median([n_flows / r.clock.scaled_s for r in traced])
                - 1.0,
            }
        )
        meta["spans"] = len(tracer.start)
        tracer.dump(harness.work_dir() / f"spans-{workload}.json")
    return build_result(
        workload,
        trace,
        values,
        correct=gate.correct,
        attempted=gate.attempted,
        failed=gate.failed,
        meta=meta,
        problems=gate.problems,
    )
