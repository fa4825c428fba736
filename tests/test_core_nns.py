"""Tests for the KOR approximate nearest-neighbour structure."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FeatureSpec, NNSConfig
from repro.core.encoding import UnaryEncoder, hamming
from repro.core.nns import NNSStructure, TrainingFlow, _ball_deltas, _fold64
from repro.netflow.records import FlowStats
from repro.util.errors import TrainingError
from repro.util.rng import SeededRng, mix64


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


def figure8_reference(structure, encoded):
    """Figure 8 written out literally: probe every visited scale in full,
    rank its hits by (Hamming distance, index), keep the last non-empty
    scale.  The table pick is the structure's (query, scale) hash."""
    query_hash = _fold64(encoded) if structure.config.m1 > 1 else 0
    low, high = 1, structure.dimension
    best = None
    while low <= high:
        scale = (low + high) // 2
        tables = structure._tables_for(scale)
        table = (
            tables[0]
            if len(tables) == 1
            else tables[mix64(query_hash ^ scale) % len(tables)]
        )
        hits = table.probe(encoded, structure._deltas)
        if hits:
            chosen = min(hits, key=lambda f: (hamming(f.encoded, encoded), f.index))
            best = (chosen.index, hamming(chosen.encoded, encoded), scale)
            high = scale - 1
        else:
            low = scale + 1
    return best


_field = st.integers(min_value=0, max_value=100)
_point = st.tuples(_field, _field, _field, _field, _field)


def _stats_of(point):
    octets, packets, duration_ms, bit_rate, packet_rate = point
    return FlowStats(
        octets=octets,
        packets=packets,
        duration_ms=duration_ms,
        bit_rate=float(bit_rate),
        packet_rate=float(packet_rate),
    )


@st.composite
def _searches(draw):
    config = small_config(
        m1=draw(st.integers(1, 3)),
        m2=draw(st.integers(6, 16)),
        m3=draw(st.integers(1, 4)),
    )
    # A small pool drawn with repetition: duplicate encodings make ties.
    pool = draw(st.lists(_point, min_size=1, max_size=6))
    corpus = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    near = [
        tuple(min(100, max(0, v + draw(st.integers(-6, 6)))) for v in point)
        for point in draw(st.lists(st.sampled_from(corpus), max_size=4))
    ]
    # Mirrored corpus points sit as far from the corpus as the lanes
    # allow; with a small M3 no visited scale may answer them.
    far = [
        tuple(100 - v for v in point)
        for point in draw(st.lists(st.sampled_from(corpus), max_size=2))
    ] + draw(st.lists(_point, max_size=2))
    return config, corpus, near + far, draw(st.integers(0, 2**32))


class TestReferenceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_searches())
    def test_nearest_matches_literal_figure8(self, search):
        config, corpus, queries, seed = search
        encoder = UnaryEncoder(config.features)
        flows = [
            TrainingFlow(index=i, stats=stats, encoded=encoder.encode(stats))
            for i, stats in enumerate(map(_stats_of, corpus))
        ]
        structure = NNSStructure(encoder, config, flows, rng=SeededRng(seed))
        for point in queries:
            query = encoder.encode(_stats_of(point))
            got = structure.nearest(query)
            expected = figure8_reference(structure, query)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert (got.flow.index, got.distance, got.scale) == expected

    def test_both_answer_none_when_no_scale_answers(self):
        config = small_config(m1=1, m2=16, m3=1)
        encoder = UnaryEncoder(config.features)
        origin = _stats_of((0, 0, 0, 0, 0))
        structure = NNSStructure(
            encoder,
            config,
            [TrainingFlow(0, origin, encoder.encode(origin))],
            rng=SeededRng(0),
        )
        query = encoder.encode(_stats_of((100, 100, 100, 100, 100)))
        assert figure8_reference(structure, query) is None
        assert structure.nearest(query) is None


class TestVectorStream:
    # Computed on the code that drew test vectors one bernoulli() at a time.
    # Checkpoints rebuild their tables from the RNG seed, so a change to
    # this stream silently changes every restored detector's answers.
    GOLDEN = "17dae9e65457649252ffc5fc2d31b2efc3a3f79d6ef59b80f738b3de0dc25f55"

    def test_test_vectors_match_the_golden_digest(self):
        config = NNSConfig(m1=2)
        encoder = UnaryEncoder(config.features)
        stats = FlowStats(
            octets=1000, packets=10, duration_ms=100, bit_rate=80.0, packet_rate=1.0
        )
        structure = NNSStructure(
            encoder,
            config,
            [TrainingFlow(0, stats, encoder.encode(stats))],
            rng=SeededRng(2005, "golden"),
        )
        digest = hashlib.sha256()
        for scale in (1, 2, 360, 720):
            for table in structure._tables_for(scale):
                for vector in table.test_vectors:
                    digest.update(vector.to_bytes(90, "big"))
        assert digest.hexdigest() == self.GOLDEN
