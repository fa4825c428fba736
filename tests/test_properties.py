"""Cross-module property-based tests on system invariants.

These complement the per-module suites with whole-subsystem invariants:
valley-freeness of every computed BGP path on randomly generated
topologies, packet/byte conservation through the exporter, scan-counter
consistency against a brute-force recount, the address plan's
partition property under arbitrary parameters, and batch ≡ serial
decision streams across the NNS/EIA and pipeline configuration spaces.
"""

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.core.config import (
    EIAConfig,
    NNSConfig,
    OverloadConfig,
    PipelineConfig,
    ScanConfig,
)
from repro.core.detector import ENSEMBLE_POLICIES
from repro.core.scan import ScanAnalyzer
from repro.flowgen.addressing import SubBlockSpace, route_change_allocations
from repro.netflow.exporter import ExporterConfig, FlowExporter, Packet
from repro.netflow.records import FlowKey
from repro.routing.bgp import best_paths
from repro.routing.topology import TopologyParams, generate_internet
from repro.util.rng import SeededRng


# --- BGP: every selected path is valley-free --------------------------------


@st.composite
def small_topologies(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    params = TopologyParams(
        n_tier1=draw(st.integers(min_value=2, max_value=4)),
        n_tier2=draw(st.integers(min_value=3, max_value=8)),
        n_stub=draw(st.integers(min_value=4, max_value=12)),
    )
    return generate_internet(params, rng=SeededRng(seed, "prop-topo"))


def _is_valley_free(topology, holder, path):
    """Check Gao-Rexford validity of ``(holder,) + path``.

    Legal shapes: zero or more customer->provider steps (uphill), at most
    one peer step, then zero or more provider->customer steps (downhill).
    """
    full = (holder,) + tuple(path)
    phase = "up"
    for here, there in zip(full, full[1:]):
        role = topology.adjacency(here, there).role_of(here)
        if phase == "up":
            if role == "customer":
                continue  # still climbing
            if role == "peer":
                phase = "down"
                continue
            phase = "down"  # provider->customer step starts the descent
            if role != "provider":
                return False
        else:
            if role != "provider":
                return False
    return True


@given(small_topologies(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_all_best_paths_are_valley_free(topology, pick_seed):
    rng = SeededRng(pick_seed, "prop-origin")
    origins = sorted(topology.nodes)
    origin = rng.choice(origins)
    routes = best_paths(topology, origin)
    assert origin in routes
    for holder, route in routes.items():
        if holder == origin:
            continue
        full = (holder,) + route.path
        # No loops.
        assert len(full) == len(set(full))
        # Ends at the origin.
        assert full[-1] == origin
        # Valley-free.
        assert _is_valley_free(topology, holder, route.path), (
            holder,
            route.path,
        )


@given(small_topologies(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_best_paths_cover_connected_nodes(topology, pick_seed):
    rng = SeededRng(pick_seed, "prop-origin2")
    origin = rng.choice(sorted(topology.nodes))
    routes = best_paths(topology, origin)
    # The generator always attaches every AS to the hierarchy, so every
    # node must have a route to every origin.
    assert set(routes) == set(topology.nodes)


# --- Exporter: conservation of packets and octets ---------------------------


@st.composite
def packet_batches(draw):
    count = draw(st.integers(min_value=1, max_value=80))
    packets = []
    timestamp = 0
    for _ in range(count):
        timestamp += draw(st.integers(min_value=0, max_value=2_000))
        packets.append(
            Packet(
                key=FlowKey(
                    src_addr=draw(st.integers(min_value=1, max_value=50)),
                    dst_addr=draw(st.integers(min_value=1, max_value=5)),
                    protocol=draw(st.sampled_from([6, 17])),
                    src_port=draw(st.integers(min_value=1, max_value=8)),
                    dst_port=80,
                ),
                length=draw(st.integers(min_value=20, max_value=1_500)),
                timestamp_ms=timestamp,
                tcp_flags=draw(st.sampled_from([0, 0x02, 0x10, 0x01, 0x04])),
            )
        )
    return packets


@given(packet_batches())
@settings(max_examples=40, deadline=None)
def test_exporter_conserves_packets_and_octets(batch):
    exporter = FlowExporter(
        ExporterConfig(idle_timeout_ms=500, active_timeout_ms=3_000, cache_size=16)
    )
    records = []
    for packet in batch:
        records.extend(exporter.observe(packet))
    records.extend(exporter.flush())
    assert sum(r.packets for r in records) == len(batch)
    assert sum(r.octets for r in records) == sum(p.length for p in batch)
    for record in records:
        assert record.first <= record.last


# --- Scan analysis: counters match a brute-force recount --------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),     # dst host
            st.integers(min_value=0, max_value=6),     # dst port
        ),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=40, deadline=None)
def test_scan_counters_match_bruteforce(events):
    from repro.netflow.records import FlowRecord

    config = ScanConfig(buffer_size=20, network_scan_threshold=4, host_scan_threshold=4)
    analyzer = ScanAnalyzer(config)
    window = []
    for host, port in events:
        record = FlowRecord(
            key=FlowKey(src_addr=1, dst_addr=host, protocol=6, dst_port=port),
            packets=1,
            octets=40,
            first=0,
            last=0,
        )
        verdict = analyzer.observe(record)
        window.append((host, port))
        window = window[-config.buffer_size :]
        hosts_on_port = len({h for h, p in window if p == port})
        ports_on_host = len({p for h, p in window if h == host})
        expected = (
            hosts_on_port >= config.network_scan_threshold
            or ports_on_host >= config.host_scan_threshold
        )
        assert verdict.is_scan == expected, (window, host, port)


# --- Address plan: every allocation is a partition --------------------------


@given(
    st.integers(min_value=3, max_value=10),    # sources
    st.integers(min_value=4, max_value=40),    # blocks per source
    st.integers(min_value=1, max_value=2),     # change blocks (bounded by sources)
    st.integers(min_value=1, max_value=5),     # allocations
)
@settings(max_examples=30, deadline=None)
def test_route_change_allocations_partition(n_sources, per_source, change, n_allocs):
    space = SubBlockSpace()
    if n_sources * per_source > len(space) or change >= min(per_source, n_sources):
        return
    allocations = route_change_allocations(
        space,
        n_sources=n_sources,
        blocks_per_source=per_source,
        change_blocks=change,
        n_allocations=n_allocs,
    )
    assert len(allocations) == n_allocs
    for table in allocations:
        blocks = [b for allocation in table.values() for b in allocation.blocks]
        # Partition: no duplicates, right count per source.
        assert len(blocks) == len(set(blocks)) == n_sources * per_source
        for allocation in table.values():
            assert len(allocation.blocks) == per_source


# --- Pipeline: process_batch == process_all for every accepted config -------


def _sweep_trace(eia_plan, target_prefix):
    """Legal, route-changed and attack flows: the route-changed suspects
    repeat NNS encodings (so the batch path's memo skips searches) and
    keep reaching new ones after the first repeat."""
    from repro.flowgen import Dagflow, generate_attack, synthesize_trace

    rng = SeededRng(6061, "nns-sweep")
    legal = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("legal"),
    )
    moved = Dagflow(
        "moved", target_prefix=target_prefix, udp_port=9001,
        source_blocks=[eia_plan[1][0], eia_plan[2][0]], rng=rng.fork("moved"),
    )
    attack = Dagflow(
        "attack", target_prefix=target_prefix, udp_port=9002,
        source_blocks=eia_plan[3], rng=rng.fork("attack"),
    )
    records = [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(100, rng=rng.fork("t-legal")))
    ]
    records += [
        lr.record.with_key(input_if=0)
        for lr in moved.replay(synthesize_trace(300, rng=rng.fork("t-moved")))
    ]
    records += [
        lr.record.with_key(input_if=0)
        for lr in attack.replay(generate_attack("slammer", rng=rng.fork("a")))
    ][:100]
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records


def _sweep_detector(eia_plan, target_prefix, nns, granularity):
    from repro.core.config import EIAConfig, PipelineConfig

    from tests.conftest import make_detector

    config = PipelineConfig(
        nns=nns, eia=EIAConfig(granularity=granularity, learning_threshold=3)
    )
    return make_detector(
        eia_plan, target_prefix, seed=7, config=config, n_train=300
    )


def _decision_signature(decision):
    neighbour = decision.neighbour
    return (
        decision.verdict,
        decision.stage,
        decision.eia,
        decision.absorbed,
        decision.protocol_class,
        None if neighbour is None
        else (neighbour.flow.index, neighbour.distance, neighbour.scale),
        None if decision.alert is None else decision.alert.ident,
    )


@st.composite
def nns_configs(draw):
    m2 = draw(st.integers(min_value=4, max_value=12))
    return NNSConfig(
        m1=draw(st.integers(min_value=1, max_value=3)),
        m2=m2,
        m3=draw(st.integers(min_value=1, max_value=min(3, m2))),
    )


@given(
    nns=nns_configs(),
    granularity=st.sampled_from([8, 11, 16]),
    batch_size=st.integers(min_value=1, max_value=300),
)
# The search-consuming configuration ROADMAP measured diverging, pinned
# so every run covers it.
@example(nns=NNSConfig(m1=3), granularity=11, batch_size=256)
# A counterexample costs seconds per replay; report it unshrunk.
@settings(
    max_examples=12,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
def test_batch_decisions_equal_serial_across_nns_configs(
    eia_plan, target_prefix, nns, granularity, batch_size
):
    """The NNS search is a pure function of model and query for every
    ``m1``, so the memoised batch path and serial ``process_all`` agree
    decision for decision — neighbour included."""
    records = _sweep_trace(eia_plan, target_prefix)
    serial = _sweep_detector(eia_plan, target_prefix, nns, granularity)
    expected = serial.process_all(records)
    batched = _sweep_detector(eia_plan, target_prefix, nns, granularity)
    got = []
    for start in range(0, len(records), batch_size):
        got.extend(batched.process_batch(records[start:start + batch_size]).decisions)
    assert list(map(_decision_signature, got)) == list(
        map(_decision_signature, expected)
    )


def _unmodelled_flows(eia_plan, target_prefix, count=24):
    """GRE flows (protocol class ``other``, which training never sees)
    from a block foreign to peer 0, spread over the sweep trace's 13.5 s.
    One destination host and port, so Scan Analysis never fires on them
    and every one reaches the unmodelled-class policy."""
    from repro.netflow.records import FlowKey, FlowRecord

    source = eia_plan[4][0]
    return [
        FlowRecord(
            key=FlowKey(
                src_addr=source.nth_address(index + 1),
                dst_addr=target_prefix.nth_address(7),
                protocol=47,
                input_if=0,
            ),
            packets=3 + index % 4,
            octets=600 + 40 * index,
            first=index * 560,
            last=index * 560 + 90,
        )
        for index in range(count)
    ]


@st.composite
def pipeline_configs(draw):
    return PipelineConfig(
        enhanced=draw(st.booleans()),
        flag_unmodelled_classes=draw(st.booleans()),
        overload=OverloadConfig(
            suspect_capacity_per_s=draw(st.sampled_from([None, 2, 20, 200])),
            drop_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        ),
        detectors=draw(
            st.sampled_from([("infilter",), ("infilter", "ttl_profile", "bogon")])
        ),
        ensemble_policy=draw(st.sampled_from(ENSEMBLE_POLICIES)),
        eia=EIAConfig(learning_threshold=3),
    )


def _stats_state(detector):
    """Every stats counter except the timing ones (they are measured)."""
    state = detector.stats.state_dict()
    return {
        key: value for key, value in state.items()
        if not key.startswith("latency") and key != "reservoir_rng"
    }


@given(
    config=pipeline_configs(),
    batch_size=st.integers(min_value=1, max_value=300),
)
# BI, EI with the unmodelled class flagged, and EI past capacity under a
# three-detector majority vote, pinned so every run covers each branch.
@example(config=PipelineConfig(enhanced=False), batch_size=64)
@example(
    config=PipelineConfig(flag_unmodelled_classes=False), batch_size=256
)
@example(
    config=PipelineConfig(
        overload=OverloadConfig(suspect_capacity_per_s=20, drop_fraction=0.3),
        detectors=("infilter", "ttl_profile", "bogon"),
        ensemble_policy="majority",
    ),
    batch_size=97,
)
@settings(
    max_examples=30,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
def test_batch_decisions_equal_serial_across_pipeline_configs(
    eia_plan, target_prefix, config, batch_size
):
    """BI cut-off, overload gate, unmodelled-class policy and ensemble
    votes run in one decision kernel for both paths, so ``process_batch``
    and ``process_all`` agree decision for decision — alert idents and
    overload counters included — for every such configuration."""
    from tests.conftest import make_detector

    records = sorted(
        _sweep_trace(eia_plan, target_prefix)
        + _unmodelled_flows(eia_plan, target_prefix),
        key=lambda r: (r.first, r.key.src_addr, r.key.protocol),
    )
    serial = make_detector(
        eia_plan, target_prefix, seed=7, config=config, n_train=300
    )
    expected = serial.process_all(records)
    batched = make_detector(
        eia_plan, target_prefix, seed=7, config=config, n_train=300
    )
    got = []
    for start in range(0, len(records), batch_size):
        got.extend(batched.process_batch(records[start:start + batch_size]).decisions)
    assert list(map(_decision_signature, got)) == list(
        map(_decision_signature, expected)
    )
    assert _stats_state(batched) == _stats_state(serial)
