"""The ``serve-mix`` workload: open-loop UDP traffic into a live daemon.

A ``ServeDaemon`` runs in this process on a detector restored with
``load_checkpoint`` (as ``infilter serve --load-state`` does), with
batch-boundary checkpoints on.  One generator process (``servegen.py``)
sends the seed's §6.3 testbed traffic over loopback UDP on a fixed
schedule, in three phases with a drain between them:

* ``r10k`` — 10k records/s, where the batch linger sets the latency;
* ``r20k`` — 20k records/s, about two thirds of what the serve loop
  sustains on a 2-core host, where queueing shows;
* ``over`` — 60k records/s, above capacity: the backlog shows the commit
  rate, stays below the queue's capacity, and holds the checkpoint.

A record's latency runs from the moment its datagram was due to be sent
to the end of the ``CommitWorker.commit`` call that produced its verdict.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

import harness
import servegen
from gate import GateResult, StreamDigest, outcome_codes, ATTACK
from report import Result, build_result, span_metrics
from spans import Tracer

#: Offered rate and share of ``--seconds`` of the two timed-rate phases.
RATE_PHASES = (("r10k", 10_000, 0.3), ("r20k", 20_000, 0.4))
#: The over-capacity phase: offered rate and records.  The backlog peaks
#: at OVER_RECORDS * (1 - commit rate / OVER_RATE), below the queue's
#: 65,536-record capacity for any commit rate above 28k records/s.
OVER_RATE = 60_000
OVER_RECORDS = 120_000
QUICK_OVER_RECORDS = 6_000
#: How the daemon is run: a default ServeConfig except these.  One
#: checkpoint lands in the over-capacity phase (the rate phases commit
#: about 460 batches); a stall inside a rate phase would hold up a
#: quarter of its records and set its median latency.
CHECKPOINT_EVERY = 500
RECV_BUFFER_BYTES = 8 << 20
#: While a phase runs, the serve loop's busy time is scaled to reference
#: speed in slices this long (each costs the loop a ~2 ms reference loop).
SERVE_SLICE_S = 0.1
#: Restore-and-bind repetitions behind ``setup_s``.
SETUP_REPEATS = 5
#: Time from a phase command to the phase's first due datagram.
LEAD_S = 0.05
GEN_READY_TIMEOUT_S = 100.0
PHASE_TIMEOUT_S = 40.0


@dataclass(frozen=True)
class Phase:
    name: str
    rate: float
    records: int

    @property
    def datagrams(self) -> int:
        return self.records // harness.RECORDS_PER_DATAGRAM


def phase_plan(seconds: float, quick: bool) -> List[Phase]:
    per = harness.RECORDS_PER_DATAGRAM
    phases = [
        Phase(name, rate, max(per, int(rate * share * seconds) // per * per))
        for name, rate, share in RATE_PHASES
    ]
    phases.append(Phase("over", OVER_RATE, QUICK_OVER_RECORDS if quick else OVER_RECORDS))
    return phases


def saturation_rps(ends: List[float], sizes: List[int]) -> float:
    """Records per second committed while a backlog waited: every commit
    after the first, over the time since the first ended."""
    if len(ends) < 2 or ends[-1] <= ends[0]:
        raise ValueError("the over-capacity phase needs at least two commits")
    return sum(sizes[1:]) / (ends[-1] - ends[0])


def _calibrate_span_cost_ns() -> float:
    """Cost of one traced call beyond the call itself, in ns."""

    class Probe:
        def work(self) -> None:
            return None

    probe = Probe()
    n = 50_000
    began = time.perf_counter_ns()
    for _ in range(n):
        probe.work()
    plain = time.perf_counter_ns() - began
    tracer = Tracer()
    tracer.wrap(Probe, "work", "probe")
    try:
        began = time.perf_counter_ns()
        for _ in range(n):
            probe.work()
        traced = time.perf_counter_ns() - began
    finally:
        tracer.restore()
    return max(traced - plain, 0) / n


class _Observed:
    """What every run records around the live daemon's public calls.

    Wrappers on the daemon's own router, worker and detector (instance
    attributes, nothing under ``src/`` changes) keep the committed
    decision lists, each commit's end time and size, and the time the
    serve loop spends inside route and commit calls.  That busy time is
    also scaled to the reference host's speed slice by slice.
    """

    def __init__(self, daemon) -> None:
        self.captured: List[list] = []
        self.ends: List[float] = []
        self.sizes: List[int] = []
        self.busy_s = 0.0
        self.scaled = harness.ScaledClock()
        self._mark = 0.0

        detector = daemon.detector

        def process_batch(batch_records, **kwargs):
            result = type(detector).process_batch(detector, batch_records, **kwargs)
            self.captured.append(result.decisions)
            return result

        inner_route = daemon.router.route

        def route(data, source=0):
            began = time.perf_counter()
            try:
                return inner_route(data, source)
            finally:
                self.busy_s += time.perf_counter() - began

        inner_commit = daemon.worker.commit

        def commit(batch) -> None:
            began = time.perf_counter()
            inner_commit(batch)
            self.busy_s += time.perf_counter() - began
            self.ends.append(time.monotonic())
            self.sizes.append(len(batch))

        detector.process_batch = process_batch
        daemon.router.route = route
        daemon.worker.commit = commit

    def close_slice(self) -> None:
        self.scaled.add(self.busy_s - self._mark)
        self._mark = self.busy_s

    async def slices(self) -> None:
        while True:
            await asyncio.sleep(SERVE_SLICE_S)
            self.close_slice()


async def _send(gen, message) -> None:
    gen.stdin.write((json.dumps(message) + "\n").encode())
    await gen.stdin.drain()


async def _receive(gen, timeout: float) -> Dict:
    line = await asyncio.wait_for(gen.stdout.readline(), timeout)
    if not line:
        raise RuntimeError("the serve-mix generator exited early")
    return json.loads(line)


async def _serve(gen, seed: int, phases: List[Phase], trace: bool) -> Result:
    from repro.core import persistence
    from repro.netflow.v5 import decode_datagram
    from repro.obs import MetricsRegistry
    from repro.serve import ServeConfig, ServeDaemon

    work = harness.work_dir()
    seed_path = work / "serve-mix-seed.json"
    live_path = work / "serve-mix-live.json"
    persistence.save_detector(harness.build_serve_detector(), seed_path)
    config = ServeConfig(
        port=0,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_path=str(live_path),
        recv_buffer_bytes=RECV_BUFFER_BYTES,
    )

    tracer = Tracer() if trace else None
    queue_waits: List[float] = []
    fired = [0]

    def note_waits(tr: Tracer, index: int, args: tuple, _result: object) -> None:
        began = tr.start[index] / 1e9
        queue_waits.extend((began - q.enqueued_s) * 1000.0 for q in args[1])

    def note_scan(_tr: Tracer, _index: int, _args: tuple, result) -> None:
        fired[0] += bool(result.is_scan)

    if tracer is not None:
        tracer.install_layers({"worker.commit": note_waits, "scan.observe": note_scan})
    try:
        ready = await _receive(gen, GEN_READY_TIMEOUT_S)
        expected = sum(p.datagrams for p in phases)
        if ready.get("event") != "ready" or ready.get("datagrams") != expected:
            raise RuntimeError(f"unexpected generator greeting {ready!r}")

        # Set-up, once the generator is idle: restore the checkpoint and
        # bind, several times; the last daemon serves the run.
        setups: List[float] = []
        setup_loops = [harness.reference_loop()]
        for attempt in range(SETUP_REPEATS):
            began = time.perf_counter()
            detector, cursor = persistence.load_checkpoint(seed_path)
            daemon = ServeDaemon(
                detector, config, registry=MetricsRegistry(), cursor_base=cursor or 0
            )
            task = asyncio.ensure_future(daemon.run())
            await asyncio.wait_for(daemon.wait_started(), PHASE_TIMEOUT_S)
            setups.append(time.perf_counter() - began)
            if attempt < SETUP_REPEATS - 1:
                daemon.request_shutdown()
                await asyncio.wait_for(task, PHASE_TIMEOUT_S)
        setup_loops.append(harness.reference_loop())
        assert daemon.address is not None

        observed = _Observed(daemon)
        worker = daemon.worker

        def settled() -> int:
            return (
                worker.committed
                + daemon.router.collector.stats.lost_flows
                + daemon.queue.stats.shed
            )

        stream = StreamDigest()
        codes = bytearray()
        due: List[float] = []
        lateness: List[float] = []
        commits_per_phase: List[int] = []
        sent = 0
        first = 0
        #: Per phase: (records, busy seconds, busy seconds at reference speed).
        phase_work: List[tuple] = []
        for phase in phases:
            observed.close_slice()
            busy_before = (observed.busy_s, observed.scaled.scaled_s)
            slicer = asyncio.ensure_future(observed.slices())
            t0 = time.monotonic() + LEAD_S
            window_start = time.perf_counter_ns() + int(LEAD_S * 1e9)
            interval = harness.RECORDS_PER_DATAGRAM / phase.rate
            due.extend(t0 + j * interval for j in range(phase.datagrams))
            await _send(gen, {
                "cmd": "phase", "first": first, "count": phase.datagrams,
                "rate": phase.rate, "t0": t0, "port": daemon.address[1],
            })
            done = await _receive(gen, PHASE_TIMEOUT_S)
            lateness.extend(done["lateness_ms"])
            sent += done["count"] * harness.RECORDS_PER_DATAGRAM
            first += phase.datagrams
            deadline = time.monotonic() + PHASE_TIMEOUT_S
            while settled() < sent and time.monotonic() < deadline:
                await asyncio.sleep(0.002)
            if tracer is not None:
                tracer.windows.append((window_start, time.perf_counter_ns()))
            slicer.cancel()
            await asyncio.gather(slicer, return_exceptions=True)
            observed.close_slice()
            phase_work.append((
                phase.records,
                observed.busy_s - busy_before[0],
                observed.scaled.scaled_s - busy_before[1],
            ))
            commits_per_phase.append(len(observed.ends))
            # Between phases the daemon is idle: fold the phase's
            # decisions into the digest and outcome codes, then drop them.
            for decisions in observed.captured:
                stream.update(decisions)
                codes.extend(outcome_codes(decisions))
            observed.captured.clear()

        daemon.request_shutdown()
        report = await asyncio.wait_for(task, PHASE_TIMEOUT_S)
        await _send(gen, {"cmd": "quit"})
        await asyncio.wait_for(gen.wait(), PHASE_TIMEOUT_S)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss = harness.peak_rss_mb()

    # -- the gate, outside every measured window ----------------------------
    gate = GateResult()
    gate.check_fates(
        "serve-mix",
        sent=sent,
        committed=report.records_committed,
        lost=report.lost_flows,
        shed=report.records_shed,
    )
    datagrams = servegen.read_datagrams(work / servegen.DATAGRAMS_FILE)
    labels = (work / servegen.LABELS_FILE).read_bytes()
    records = [r for datagram in datagrams for r in decode_datagram(datagram)[1]]
    serial, _cursor = persistence.load_checkpoint(seed_path)
    if report.lost_flows or report.records_shed:
        gate.problems.append(
            "serve-mix: records were lost or shed, so the committed stream"
            " cannot be compared with a serial replay of what was sent"
        )  # the lost and shed records already count in gate.failed
    else:
        reference = serial.process_all(records[:sent])
        gate.check_digest("serve-mix vs serial process", stream.hexdigest(), codes, reference)

    # -- metrics --------------------------------------------------------------
    ends, sizes = observed.ends, observed.sizes
    latencies = harness.latencies_from_due(
        due, ends, sizes, harness.RECORDS_PER_DATAGRAM
    )
    by_phase: Dict[str, List[float]] = {}
    start = 0
    for phase in phases:
        by_phase[phase.name] = latencies[start : start + phase.records]
        start += phase.records
    over_from = commits_per_phase[-2]
    attack = [code & 3 == ATTACK for code in codes]
    n_attack = sum(labels[: len(codes)])
    n_normal = len(codes) - n_attack
    # Throughput and set-up are compute-bound: report them at the
    # reference host's speed (harness.reference_loop).
    saturation = saturation_rps(ends[over_from:], sizes[over_from:])
    values: Dict[str, float] = {
        "flows_per_s": report.records_committed / observed.scaled.scaled_s,
        "setup_s": harness.at_reference_speed(harness.median(setups), setup_loops),
        "peak_rss_mb": peak_rss,
        "detection_rate": sum(a for a, l in zip(attack, labels) if l) / max(n_attack, 1),
    }
    meta: Dict[str, object] = {
        "workload": "serve-mix",
        "host": harness.host_metadata(seed),
        "phases": [
            {"name": p.name, "offered_rps": p.rate, "records": p.records} for p in phases
        ],
        "serve_report": report.describe(),
        "latency_ms": {
            name: {
                "p50": harness.percentile(values_ms, 0.50),
                "p99": harness.percentile(values_ms, 0.99),
            }
            for name, values_ms in by_phase.items()
        },
        "decision_digest": stream.hexdigest(),
        "repetition_profile": harness.repetition_profile(
            records[: len(codes)], codes, serial.config.eia.granularity
        ),
        "label_attack_share": n_attack / max(len(codes), 1),
        "flows_per_busy_s_by_phase": {
            phase.name: {"raw": records / busy, "at_reference_speed": records / scaled}
            for phase, (records, busy, scaled) in zip(phases, phase_work)
        },
        "raw": {
            "flows_per_s": report.records_committed / observed.busy_s,
            "setup_s": harness.median(setups),
            "reference_loop_s": harness.median(setup_loops),
        },
    }
    if tracer is not None:
        values.update(span_metrics(tracer, 1.0))
        fastpath = detector.fastpath.stats() if detector.fastpath is not None else {}
        probes = fastpath.get("hits", 0) + fastpath.get("misses", 0)
        stats = detector.stats
        load_spans = [
            (tracer.end[i] - tracer.start[i]) / 1e9
            for i, nid in enumerate(tracer.name_id)
            if tracer.names[nid] == "persistence.load"
        ]
        # No untraced run to compare with here: estimate the tracing cost
        # as spans recorded while serving times the cost of one span, a
        # share of the serve loop's work (route + commit) without it.
        spans = sum(s.calls for s in tracer.summarize().values())
        overhead_s = spans * _calibrate_span_cost_ns() / 1e9
        values.update(
            {
                "listener.datagrams": daemon.router.stats.v5_datagrams,
                "listener.records": daemon.router.collector.stats.records,
                "listener.lost": report.lost_flows,
                "queue.wait_p50_ms": harness.percentile(queue_waits, 0.50),
                "queue.wait_p99_ms": harness.percentile(queue_waits, 0.99),
                "queue.depth_max": daemon.queue.stats.high_watermark,
                "queue.shed": report.records_shed,
                "worker.batches": report.batches,
                "worker.batch_mean": report.records_committed / max(report.batches, 1),
                "persistence.checkpoint_bytes": live_path.stat().st_size,
                "persistence.load_s": harness.median(load_spans),
                "pipeline.flows": stats.processed,
                "pipeline.legal": stats.legal,
                "pipeline.benign": stats.benign,
                "pipeline.attacks": stats.attacks,
                "pipeline.absorbed": stats.absorbed,
                "fastpath.hit_ratio": fastpath.get("hits", 0) / probes if probes else 0.0,
                "fastpath.invalidations": fastpath.get("invalidations", 0),
                "scan.fired": fired[0],
                "nns.scales_built": sum(
                    sub.structure.scales_built
                    for sub in detector.model.subclusters.values()
                ),
                "alerts.retained": len(detector.alert_sink.alerts),
                "gen.lateness_p99_ms": harness.percentile(lateness, 0.99),
                "trace.overhead_frac": overhead_s / (observed.busy_s - overhead_s),
                "quality.false_positive_rate": sum(
                    a for a, l in zip(attack, labels) if not l
                ) / max(n_normal, 1),
                "serve.records_failed_frac": gate.failed / max(sent, 1),
                "serve.latency_p50_ms.r10k": harness.percentile(by_phase["r10k"], 0.50),
                "serve.latency_p99_ms.r10k": harness.percentile(by_phase["r10k"], 0.99),
                "serve.saturation_rps": saturation,
                "serve.latency_p50_ms.r20k": harness.percentile(by_phase["r20k"], 0.50),
                "serve.latency_p99_ms.r20k": harness.percentile(by_phase["r20k"], 0.99),
            }
        )
        meta["spans"] = len(tracer.start)
        tracer.dump(work / "spans-serve-mix.json")
    meta["gen_lateness_p99_ms"] = harness.percentile(lateness, 0.99)
    return build_result(
        "serve-mix",
        trace,
        values,
        correct=gate.correct,
        attempted=gate.attempted,
        failed=gate.failed,
        meta=meta,
        problems=gate.problems,
    )


async def _main(seed: int, seconds: float, trace: bool, quick: bool) -> Result:
    phases = phase_plan(seconds, quick)
    gen = await asyncio.create_subprocess_exec(
        sys.executable,
        str(harness.BENCH_DIR / "servegen.py"),
        "--seed", str(seed),
        "--records", str(sum(p.records for p in phases)),
        "--out", str(harness.work_dir()),
        stdin=asyncio.subprocess.PIPE,
        stdout=asyncio.subprocess.PIPE,
        limit=1 << 24,
    )
    try:
        return await _serve(gen, seed, phases, trace)
    finally:
        if gen.returncode is None:
            gen.kill()
        await gen.wait()


def run(seed: int, seconds: float, trace: bool, quick: bool) -> Result:
    return asyncio.run(_main(seed, seconds, trace, quick))
