"""Tests for the Enhanced InFilter pipeline orchestration."""

import pytest

from repro.core import (
    EIAConfig,
    EnhancedInFilter,
    PipelineConfig,
    ScanConfig,
    Stage,
    Verdict,
)
from repro.flowgen import Dagflow, generate_attack, synthesize_trace
from repro.obs import MetricsRegistry, use_registry
from repro.util import Prefix, SeededRng
from repro.util.errors import TrainingError

from tests.conftest import (
    eia_signature,
    make_detector,
    make_mixed_detector,
    stats_signature,
)

TARGET = Prefix.parse("198.18.0.0/16")


def spoofed_records(eia_plan, *, into_peer=0, attack="slammer", seed=9):
    rng = SeededRng(seed, "spoof")
    foreign = [
        block
        for peer, blocks in eia_plan.items()
        if peer != into_peer
        for block in blocks
    ]
    dagflow = Dagflow(
        "spoof", target_prefix=TARGET, udp_port=9000,
        source_blocks=foreign, rng=rng,
    )
    flows = generate_attack(attack, rng=rng.fork("atk"))
    return [lr.record.with_key(input_if=into_peer) for lr in dagflow.replay(flows)]


def legit_records(eia_plan, peer=1, count=200, seed=10):
    rng = SeededRng(seed, "legit")
    dagflow = Dagflow(
        "legit", target_prefix=TARGET, udp_port=9001,
        source_blocks=eia_plan[peer], rng=rng,
    )
    trace = synthesize_trace(count, rng=rng.fork("trace"))
    return [lr.record.with_key(input_if=peer) for lr in dagflow.replay(trace)]


class TestBasicConfiguration:
    def test_basic_flags_every_suspect(self, eia_plan, target_prefix):
        detector = EnhancedInFilter(PipelineConfig.basic())
        for peer, blocks in eia_plan.items():
            detector.preload_eia(peer, blocks)
        for record in spoofed_records(eia_plan):
            decision = detector.process(record)
            assert decision.is_attack
            assert decision.stage == Stage.EIA

    def test_basic_needs_no_training(self, eia_plan):
        detector = EnhancedInFilter(PipelineConfig.basic())
        for peer, blocks in eia_plan.items():
            detector.preload_eia(peer, blocks)
        decision = detector.process(legit_records(eia_plan)[0])
        assert decision.verdict == Verdict.LEGAL

    def test_basic_emits_alerts(self, eia_plan):
        detector = EnhancedInFilter(PipelineConfig.basic())
        for peer, blocks in eia_plan.items():
            detector.preload_eia(peer, blocks)
        records = spoofed_records(eia_plan)
        for record in records:
            detector.process(record)
        assert len(detector.alert_sink) == len(records)
        assert detector.alert_sink.alerts[0].classification == "spoofed-source"


class TestEnhancedConfiguration:
    def test_enhanced_requires_training_for_suspects(self, eia_plan):
        detector = EnhancedInFilter(PipelineConfig())
        for peer, blocks in eia_plan.items():
            detector.preload_eia(peer, blocks)
        # Disable scan stage contribution by sending one lone flow.
        with pytest.raises(TrainingError):
            detector.process(spoofed_records(eia_plan, attack="dns_exploit")[0])

    def test_legal_flow_skips_analysis_even_untrained(self, eia_plan):
        detector = EnhancedInFilter(PipelineConfig())
        for peer, blocks in eia_plan.items():
            detector.preload_eia(peer, blocks)
        decision = detector.process(legit_records(eia_plan)[0])
        assert decision.verdict == Verdict.LEGAL
        assert decision.stage == Stage.EIA

    def test_scan_stage_catches_sweep(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        decisions = [
            detector.process(record)
            for record in spoofed_records(eia_plan, attack="network_scan")
        ]
        scan_hits = [d for d in decisions if d.is_attack and d.stage == Stage.SCAN]
        assert scan_hits
        assert scan_hits[0].alert.classification in ("network_scan", "host_scan")

    def test_nns_stage_catches_anomalous_exploit(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        decisions = [
            detector.process(record)
            for record in spoofed_records(eia_plan, attack="http_exploit")
        ]
        assert any(d.is_attack and d.stage == Stage.NNS for d in decisions)

    def test_benign_suspect_cleared_by_nns(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        # Normal-looking traffic arriving via the wrong peer: suspect but
        # most flows should be cleared as benign by the NNS stage.
        records = legit_records(eia_plan, peer=1)
        wrong_peer = [r.with_key(input_if=2) for r in records]
        decisions = [detector.process(r) for r in wrong_peer]
        benign = [d for d in decisions if d.verdict == Verdict.BENIGN]
        assert benign
        assert all(d.stage == Stage.NNS for d in benign)

    def test_absorption_learns_route_change(self, eia_plan, target_prefix):
        config = PipelineConfig(eia=EIAConfig(learning_threshold=3))
        detector = make_detector(eia_plan, target_prefix, config=config)
        block = eia_plan[1][0]
        # Persistent benign flows from one /11 block at the wrong peer.
        base = legit_records(eia_plan, peer=1, count=120)
        from_block = [
            r.with_key(
                src_addr=block.nth_address(5 + i), input_if=2
            )
            for i, r in enumerate(base)
        ]
        absorbed = False
        for record in from_block:
            decision = detector.process(record)
            absorbed = absorbed or decision.absorbed
            if decision.verdict == Verdict.LEGAL:
                break
        assert absorbed
        assert detector.stats.absorbed >= 1

    def test_unmodelled_class_flagged_by_default(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        # GRE (protocol 47) has no training subcluster; the default is to
        # treat suspects without a model as attacks.
        from repro.netflow.records import FlowKey, FlowRecord
        gre = FlowRecord(
            key=FlowKey(
                src_addr=eia_plan[1][0].nth_address(1),
                dst_addr=target_prefix.nth_address(1),
                protocol=47,
                input_if=0,
            ),
            packets=3,
            octets=300,
            first=0,
            last=10,
        )
        decision = detector.process(gre)
        assert decision.is_attack

    def test_unmodelled_class_passes_when_configured(self, eia_plan, target_prefix):
        config = PipelineConfig(flag_unmodelled_classes=False)
        detector = make_detector(eia_plan, target_prefix, config=config)
        from repro.netflow.records import FlowKey, FlowRecord
        gre = FlowRecord(
            key=FlowKey(src_addr=eia_plan[1][0].nth_address(1), dst_addr=1,
                        protocol=47, input_if=0),
            packets=3,
            octets=300,
            first=0,
            last=10,
        )
        decision = detector.process(gre)
        assert decision.verdict == Verdict.BENIGN


class TestStats:
    def test_counters_consistent(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        records = legit_records(eia_plan) + spoofed_records(eia_plan)
        for record in records:
            detector.process(record)
        stats = detector.stats
        assert stats.processed == len(records)
        assert stats.legal + stats.suspects == stats.processed
        assert stats.benign + stats.attacks == stats.suspects
        assert sum(stats.attacks_by_stage.values()) == stats.attacks

    def test_latency_recorded(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        for record in legit_records(eia_plan)[:50]:
            detector.process(record)
        assert detector.stats.mean_latency_s > 0
        assert detector.stats.latency_max_s >= detector.stats.mean_latency_s

    def test_latency_percentiles(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        for record in legit_records(eia_plan)[:50]:
            detector.process(record)
        stats = detector.stats
        p50 = stats.latency_percentile(0.5)
        p99 = stats.latency_percentile(0.99)
        assert 0 < p50 <= p99 <= stats.latency_max_s
        with pytest.raises(ValueError):
            stats.latency_percentile(1.5)

    def test_latency_percentile_empty(self):
        from repro.core.pipeline import PipelineStats

        assert PipelineStats().latency_percentile(0.5) == 0.0

    def test_process_all(self, eia_plan, target_prefix):
        detector = make_detector(eia_plan, target_prefix)
        decisions = detector.process_all(legit_records(eia_plan)[:20])
        assert len(decisions) == 20


class TestReservoirSampling:
    def test_caps_and_counts_the_whole_stream(self):
        from repro.core.pipeline import PipelineStats

        stats = PipelineStats(latency_sample_cap=50)
        for i in range(500):
            stats.sample_latency(float(i))
        assert len(stats.latency_samples) == 50
        assert stats.latency_samples_seen == 500
        # The reservoir must not be just the first 50 values.
        assert max(stats.latency_samples) >= 50.0

    def test_is_deterministic_across_runs(self):
        from repro.core.pipeline import PipelineStats

        def run():
            stats = PipelineStats(latency_sample_cap=20)
            for i in range(300):
                stats.sample_latency(float(i))
            return stats.latency_samples

        assert run() == run()

    def test_percentiles_reflect_late_stream(self):
        from repro.core.pipeline import PipelineStats

        stats = PipelineStats(latency_sample_cap=100)
        for i in range(10_000):
            stats.sample_latency(float(i))
        # The old first-N cap would put p90 at 90; a uniform reservoir
        # over 0..9999 puts it in the thousands.
        assert stats.latency_percentile(0.9) > 1000.0


def _signature(decision):
    return (
        decision.verdict,
        decision.stage,
        decision.eia,
        decision.absorbed,
        decision.protocol_class,
    )


class TestBatchEquivalence:
    """``process_batch`` over any split of a stream equals serial
    ``process_all``: decisions, stats, EIA state and alert stream."""

    def test_mixed_trace_absorbs(self, mixed_serial):
        """The trace genuinely exercises online learning (guards the suite
        against a quiet regression where nothing absorbs and the
        equivalence checks trivially pass)."""
        serial_detector, _ = mixed_serial
        assert serial_detector.stats.absorbed >= 2

    def test_batch_decision_stream_is_identical(
        self, eia_plan, target_prefix, mixed_trace, mixed_serial
    ):
        """Per-decision equality, not just aggregate counts."""
        _, serial_decisions = mixed_serial
        detector = make_mixed_detector(eia_plan, target_prefix)
        batched = []
        for start in range(0, len(mixed_trace), 97):
            result = detector.process_batch(mixed_trace[start:start + 97])
            batched.extend(result.decisions)
        assert list(map(_signature, batched)) == list(
            map(_signature, serial_decisions)
        )

    @pytest.mark.parametrize("batch_size", [1, 64, 10_000])
    def test_batch_size_does_not_matter(
        self, eia_plan, target_prefix, mixed_trace, mixed_serial, batch_size
    ):
        serial_detector, _ = mixed_serial
        detector = make_mixed_detector(eia_plan, target_prefix)
        for start in range(0, len(mixed_trace), batch_size):
            detector.process_batch(mixed_trace[start:start + batch_size])
        assert stats_signature(detector) == stats_signature(serial_detector)
        assert eia_signature(detector) == eia_signature(serial_detector)
        assert [a.ident for a in detector.alert_sink.alerts] == [
            a.ident for a in serial_detector.alert_sink.alerts
        ]


def _run_on_own_registry(eia_plan, target_prefix, records, batch_size=None):
    """Assess ``records`` serially (``batch_size=None``) or in batches on
    a detector whose metrics land in a fresh registry."""
    registry = MetricsRegistry()
    with use_registry(registry):
        detector = make_mixed_detector(eia_plan, target_prefix)
    if batch_size is None:
        detector.process_all(records)
    else:
        for start in range(0, len(records), batch_size):
            detector.process_batch(records[start:start + batch_size])
    return detector, registry


class TestReferenceAndTimingContract:
    """Serial ``process`` is the memo-free, per-stage-timed reference;
    ``process_batch`` shares its decision kernel but not its timing."""

    def test_serial_path_uses_no_memo(self, eia_plan, target_prefix, mixed_trace):
        detector, _ = _run_on_own_registry(eia_plan, target_prefix, mixed_trace)
        assert detector.stats.suspects > 0
        assert detector.fastpath is None
        assert detector._nns_memo == {}
        assert detector._nns_raw_memo == {}

    def test_only_serial_path_laps_stages(
        self, eia_plan, target_prefix, mixed_trace
    ):
        serial, serial_registry = _run_on_own_registry(
            eia_plan, target_prefix, mixed_trace
        )
        _, batch_registry = _run_on_own_registry(
            eia_plan, target_prefix, mixed_trace, batch_size=64
        )
        serial_stages = serial_registry.get(
            "infilter_pipeline_stage_latency_seconds"
        )
        assert serial_stages.labels(stage=Stage.EIA).count == len(mixed_trace)
        assert serial_stages.labels(stage=Stage.SCAN).count == (
            serial.stats.suspects
        )
        assert serial_stages.labels(stage=Stage.NNS).count > 0
        batch_stages = batch_registry.get(
            "infilter_pipeline_stage_latency_seconds"
        )
        for stage in (Stage.EIA, Stage.SCAN, Stage.NNS):
            assert batch_stages.labels(stage=stage).count == 0

    def test_flow_metrics_agree_across_paths(
        self, eia_plan, target_prefix, mixed_trace
    ):
        _, serial_registry = _run_on_own_registry(
            eia_plan, target_prefix, mixed_trace
        )
        _, batch_registry = _run_on_own_registry(
            eia_plan, target_prefix, mixed_trace, batch_size=64
        )

        def flow_counts(registry):
            flows = registry.get("infilter_pipeline_flows_total")
            return {labels: child.value for labels, child in flows.samples()}

        serial_counts = flow_counts(serial_registry)
        assert ("attack", Stage.SCAN) in serial_counts
        assert flow_counts(batch_registry) == serial_counts
        latency = "infilter_pipeline_flow_latency_seconds"
        assert serial_registry.get(latency).count == len(mixed_trace)
        assert batch_registry.get(latency).count == len(mixed_trace)
