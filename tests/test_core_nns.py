"""Tests for the KOR approximate nearest-neighbour structure."""

import pytest

from repro.core.config import FeatureSpec, NNSConfig
from repro.core.encoding import UnaryEncoder, hamming
from repro.core.nns import NNSStructure, TrainingFlow, _ball_deltas
from repro.netflow.records import FlowStats
from repro.util.errors import TrainingError
from repro.util.rng import SeededRng


def small_config(**overrides):
    defaults = dict(
        features=(
            FeatureSpec("octets", 0, 100, 16),
            FeatureSpec("packets", 0, 100, 16),
            FeatureSpec("duration_ms", 0, 100, 16),
            FeatureSpec("bit_rate", 0, 100, 16),
            FeatureSpec("packet_rate", 0, 100, 16),
        ),
        m1=2,
        m2=8,
        m3=3,
    )
    defaults.update(overrides)
    return NNSConfig(**defaults)


def flow(index, octets, packets=50):
    stats = FlowStats(
        octets=octets,
        packets=packets,
        duration_ms=50,
        bit_rate=50.0,
        packet_rate=50.0,
    )
    return stats


def build(values, config=None):
    config = config or small_config()
    encoder = UnaryEncoder(config.features)
    flows = [
        TrainingFlow(index=i, stats=flow(i, v), encoded=encoder.encode(flow(i, v)))
        for i, v in enumerate(values)
    ]
    structure = NNSStructure(encoder, config, flows, rng=SeededRng(55))
    return encoder, structure


class TestBallDeltas:
    def test_counts(self):
        # radius < 3 over 12 bits: C(12,0)+C(12,1)+C(12,2) = 79.
        assert len(_ball_deltas(12, 3)) == 79
        assert len(_ball_deltas(8, 1)) == 1

    def test_weights_below_radius(self):
        deltas = _ball_deltas(10, 3)
        assert all(d.bit_count() < 3 for d in deltas)
        assert len(set(deltas)) == len(deltas)


class TestConstruction:
    def test_rejects_empty_training(self):
        config = small_config()
        encoder = UnaryEncoder(config.features)
        with pytest.raises(TrainingError):
            NNSStructure(encoder, config, [], rng=SeededRng(1))

    def test_scales_built_lazily(self):
        _encoder, structure = build([10, 20, 30])
        assert structure.scales_built == 0
        structure.nearest(structure.flows[0].encoded)
        assert 0 < structure.scales_built <= structure.dimension

    def test_default_paper_parameters(self):
        config = NNSConfig()
        assert config.dimension == 720
        assert (config.m1, config.m2, config.m3) == (1, 12, 3)


class TestSearch:
    def test_exact_match_found_at_distance_zero(self):
        _encoder, structure = build([10, 40, 70])
        for training in structure.flows:
            result = structure.nearest(training.encoded)
            assert result is not None
            assert result.distance == 0
            assert result.flow.encoded == training.encoded

    def test_near_query_finds_close_neighbour(self):
        encoder, structure = build([10, 50, 90])
        query = encoder.encode(flow(99, 52))
        result = structure.nearest(query)
        assert result is not None
        exact = structure.nearest_exact(query)
        # The KOR search is approximate; it must come close to the true
        # nearest neighbour (within a small factor at these scales).
        assert result.distance <= max(3 * exact.distance, 10)

    def test_far_query_reports_large_distance(self):
        encoder, structure = build([10, 12, 14])
        query = encoder.encode(flow(99, 100, packets=100))
        result = structure.nearest(query)
        exact = structure.nearest_exact(query)
        assert exact.distance > 0
        if result is not None:
            assert result.distance >= exact.distance

    def test_search_is_deterministic_for_same_structure(self):
        encoder, structure = build([10, 30, 50, 70], small_config(m1=1))
        query = encoder.encode(flow(99, 42))
        first = structure.nearest(query)
        second = structure.nearest(query)
        assert first == second

    def test_multi_table_search_is_a_pure_function(self):
        """With M1 > 1 the table pick is a hash of (query, scale), not a
        draw: repeating, reordering or skipping searches changes no
        answer, on this structure or on a twin built from the same seed."""
        values = [5, 20, 35, 50, 65, 80, 95]
        encoder, structure = build(values, small_config(m1=3))
        _, twin = build(values, small_config(m1=3))
        queries = [encoder.encode(flow(99, v)) for v in (3, 27, 42, 58, 91)]
        forward = [structure.nearest(q) for q in queries]
        assert [structure.nearest(q) for q in queries] == forward
        assert [twin.nearest(q) for q in reversed(queries)] == forward[::-1]
        assert twin.nearest(queries[2]) == forward[2]

    def test_restore_ignores_a_legacy_pick_rng_section(self):
        """Checkpoints from before the pure table pick carry a
        ``pick_rng`` cursor; the reader accepts it and changes nothing."""
        encoder, structure = build([10, 30, 50, 70], small_config(m1=3))
        state = structure.state_dict()
        assert "pick_rng" not in state
        legacy = dict(state, pick_rng=SeededRng(55).fork("structure-pick").state_dict())
        restored = NNSStructure.from_state(encoder, small_config(m1=3), legacy)
        assert restored.state_dict() == state
        query = encoder.encode(flow(99, 42))
        assert restored.nearest(query) == structure.nearest(query)

    def test_nearest_exact_brute_force(self):
        encoder, structure = build([10, 50, 90])
        query = encoder.encode(flow(99, 48))
        exact = structure.nearest_exact(query)
        distances = [hamming(f.encoded, query) for f in structure.flows]
        assert exact.distance == min(distances)

    def test_single_flow_cluster(self):
        encoder, structure = build([42])
        result = structure.nearest(encoder.encode(flow(0, 42)))
        assert result is not None and result.distance == 0

    def test_approximation_quality_over_many_queries(self):
        values = list(range(0, 100, 5))
        encoder, structure = build(values)
        worst_ratio = 0.0
        for probe in range(0, 100, 3):
            query = encoder.encode(flow(999, probe))
            got = structure.nearest(query)
            exact = structure.nearest_exact(query)
            assert got is not None
            if exact.distance:
                worst_ratio = max(worst_ratio, got.distance / exact.distance)
            else:
                assert got.distance <= small_config().m3
        # KOR guarantees (1+eps) approximation w.h.p.; allow a loose bound.
        assert worst_ratio <= 6.0


class TestEagerMode:
    def test_build_all_scales(self):
        config = small_config(
            features=(
                FeatureSpec("octets", 0, 10, 4),
                FeatureSpec("packets", 0, 10, 4),
                FeatureSpec("duration_ms", 0, 10, 4),
                FeatureSpec("bit_rate", 0, 10, 4),
                FeatureSpec("packet_rate", 0, 10, 4),
            )
        )
        _encoder, structure = build([1, 5, 9], config)
        structure.build_all_scales()
        assert structure.scales_built == structure.dimension
