"""Shared pieces of the benchmark: paths, statistics, detectors, traces.

Every workload drives the production commit path the way ``infilter
serve`` does: datagrams enter through ``DatagramRouter.route`` and
batches are committed through ``CommitWorker.commit`` (which calls
``EnhancedInFilter.process_batch``), all wired by a ``ServeDaemon``
built from a default ``ServeConfig`` so the serve-default memos are on.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
#: Scratch space for checkpoints, span dumps and result documents.
WORK_DIR = CHECKOUT / ".perfbench-run"
#: Every datagram the workloads send is a full NetFlow v5 datagram.
RECORDS_PER_DATAGRAM = 30


def require_source() -> None:
    """Make ``src/`` importable, or exit 2 when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC.name}/repro; run from a"
            " checkout of the repository",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return WORK_DIR


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the sample at or below it (``q`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def latencies_from_due(
    due_s: Sequence[float],
    commit_end_s: Sequence[float],
    batch_sizes: Sequence[int],
    records_per_datagram: int,
) -> List[float]:
    """Per-record latency in ms: end of the commit that produced the
    record's verdict minus the due time of the datagram that carried it.

    Records are committed in arrival (FIFO) order, so record ``k`` sits
    in datagram ``k // records_per_datagram`` and in the batch whose
    cumulative size first exceeds ``k``.
    """
    total = sum(batch_sizes)
    if total > len(due_s) * records_per_datagram:
        raise ValueError("more committed records than datagrams carried")
    out: List[float] = []
    k = 0
    for end, size in zip(commit_end_s, batch_sizes):
        for _ in range(size):
            out.append((end - due_s[k // records_per_datagram]) * 1000.0)
            k += 1
    return out


#: What :func:`reference_loop` takes for REFERENCE_ITERATIONS on the
#: reference host: a shared 2-core x86_64 machine running CPython 3.11.
REFERENCE_LOOP_S = 0.017
REFERENCE_ITERATIONS = 60_000


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds a fixed pure-Python workload takes right now.

    The loop uses nothing from the program (integer arithmetic, dict
    updates, small tuples), so it tracks only how fast the shared host
    runs Python at the moment.  Compute-bound timings are reported at
    the reference host's speed: measured time * REFERENCE_LOOP_S / loop
    time taken next to the measurement.
    """
    began = time.perf_counter()
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc += (i * i) % 7
        key = i & 1023
        counts[key] = counts.get(key, 0) + 1
        if not i & 7:
            acc += len((i, key, acc))
    return time.perf_counter() - began


def at_reference_speed(
    seconds: float,
    loop_s: Sequence[float],
    iterations: int = REFERENCE_ITERATIONS,
) -> float:
    """``seconds`` measured while ``reference_loop(iterations)`` took
    ``loop_s`` (the loops run around the measurement, averaged), scaled
    to the reference host's speed."""
    reference = REFERENCE_LOOP_S * iterations / REFERENCE_ITERATIONS
    return seconds * reference / (sum(loop_s) / len(loop_s))


#: Timed work is scaled in slices of about this length, each by a short
#: reference loop (SLICE_LOOP_ITERATIONS, about 2 ms) run right after it;
#: the host's speed moves faster than a whole round or phase lasts.
SLICE_S = 0.05
SLICE_LOOP_ITERATIONS = 6_000


class ScaledClock:
    """Accumulates timed slices, raw and at the reference host's speed.

    ``windows`` collects each slice's (start, end) in ``perf_counter_ns``
    so a tracer can exclude the reference loops from its wall time.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self.windows: List[Tuple[int, int]] = []

    def add(self, seconds: float) -> None:
        """Account one slice of ``seconds``, then time the reference loop."""
        loop_s = reference_loop(SLICE_LOOP_ITERATIONS)
        self.raw_s += seconds
        self.scaled_s += at_reference_speed(seconds, [loop_s], SLICE_LOOP_ITERATIONS)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_metadata(seed: int) -> Dict[str, object]:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {
        "usable_cores": cores,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "seed": seed,
    }


# -- detectors and traces -----------------------------------------------------


#: Detector seeds are fixed so that ``--seed`` varies only the traffic:
#: which flood shapes the trained model calls normal decides most of a
#: flood's cost, and a per-seed model would spread the figures widely.
FLOOD_DETECTOR_SEED = 20150
SERVE_DETECTOR_SEED = 2005


def build_flood_detector(registry):
    """The E15/E19 detector: Table 3 EIA plan, 1,200 training flows."""
    from repro.core import EnhancedInFilter, PipelineConfig
    from repro.flowgen import Dagflow, SubBlockSpace, eia_allocation, synthesize_trace
    from repro.util import Prefix, SeededRng

    plan = eia_allocation(SubBlockSpace())
    target = Prefix.parse("198.18.0.0/16")
    rng = SeededRng(FLOOD_DETECTOR_SEED, "perfbench-detector")
    detector = EnhancedInFilter(
        PipelineConfig(), rng=rng.fork("det"), registry=registry
    )
    for peer, blocks in plan.items():
        detector.preload_eia(peer, blocks)
    dagflow = Dagflow(
        "trainer",
        target_prefix=target,
        udp_port=9000,
        source_blocks=plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(1_200, rng=rng.fork("trace"))
    detector.train(
        [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    )
    return detector


#: The flood's repeated (packets, octets, duration_ms) shapes, as in E15/E19.
FLOOD_SHAPES = [
    (1, 40 + 24 * i, 1 + 7 * (i % 5)) for i in range(8)
] + [
    (2 + i, 90 * (2 + i), 40 + 11 * i) for i in range(8)
]


def flood_trace(n_flows: int, seed: int, *, unique: bool):
    """A spoofed single-victim UDP flood arriving at the wrong ingress.

    ``unique=False`` cycles the 16 repeating shapes of E15/E19;
    ``unique=True`` draws packets, octets and duration per flow, so the
    NNS memos see almost no repeated keys.
    """
    from repro.flowgen import SubBlockSpace, eia_allocation
    from repro.netflow.records import FlowKey, FlowRecord
    from repro.util import Prefix, SeededRng

    plan = eia_allocation(SubBlockSpace())
    target = Prefix.parse("198.18.0.0/16")
    rng = SeededRng(seed, "perfbench-flood")
    foreign = [b for peer, blocks in plan.items() if peer != 0 for b in blocks]
    victim = target.network + 0x99
    records = []
    for i in range(n_flows):
        block = foreign[i % len(foreign)]
        src = block.network + rng.randint(1, max(block.size() - 2, 1))
        if unique:
            packets = rng.randint(1, 64)
            octets = packets * rng.randint(28, 1_500)
            duration = rng.randint(0, 30_000)
        else:
            packets, octets, duration = FLOOD_SHAPES[i % len(FLOOD_SHAPES)]
        first = i * 3
        records.append(
            FlowRecord(
                key=FlowKey(
                    src_addr=src,
                    dst_addr=victim,
                    protocol=17,
                    src_port=1024 + (i % 32_000),
                    dst_port=9999,
                    input_if=0,
                ),
                packets=packets,
                octets=octets,
                first=first,
                last=first + duration,
            )
        )
    return records


def repetition_profile(records, codes: bytes, granularity: int) -> Dict[str, object]:
    """How much work the workload's flows share (ROADMAP aim 1)."""
    from gate import ABSORBED, ATTACK, LEGAL

    raw_keys = {
        (r.key.protocol, r.key.dst_port, r.packets, r.octets, r.last - r.first)
        for r, code in zip(records, codes)
        if code & 3 != LEGAL
    }
    shift = 32 - granularity
    pairs = {(r.key.src_addr >> shift, r.key.input_if) for r in records}
    n = max(len(codes), 1)
    return {
        "flows": len(codes),
        "distinct_nns_raw_keys_of_suspects": len(raw_keys),
        "distinct_block_ingress_pairs": len(pairs),
        "suspect_share": sum(code & 3 != LEGAL for code in codes) / n,
        "attack_share": sum(code & 3 == ATTACK for code in codes) / n,
        "absorptions": sum(bool(code & ABSORBED) for code in codes),
    }


def build_serve_detector():
    """The Section 6.3 testbed detector (EI, 4,000 training flows)."""
    from repro.core.config import PipelineConfig
    from repro.testbed.emulation import Testbed, TestbedConfig
    from repro.util.rng import SeededRng

    testbed = Testbed(
        TestbedConfig(use_wire=False),
        rng=SeededRng(SERVE_DETECTOR_SEED, "perfbench-serve-detector"),
    )
    return testbed.build_detector(PipelineConfig.enhanced_default())


#: Serve-mix traffic: route changes on 2 of each peer's 100 blocks,
#: rotated through 4 Table 2 allocations; the 12-type attack catalog at
#: 4% of one peer's volume enters through each of peers 0 and 1.
ROUTE_CHANGE_BLOCKS = 2
ALLOCATION_EPOCHS = 4
ATTACK_VOLUME = 0.04
ATTACK_PEERS = (0, 1)


def _attack_flows(rng, flow_budget: int, horizon_ms: int):
    """Attack instances cycling the 12-type catalog up to ``flow_budget``
    flows, each starting at a random point of the normal traffic."""
    from repro.flowgen import ATTACK_NAMES, generate_attack

    flows = []
    sequence = 0
    while len(flows) < flow_budget:
        name = ATTACK_NAMES[sequence % len(ATTACK_NAMES)]
        start = rng.randint(0, max(horizon_ms - 1, 1))
        flows.extend(generate_attack(name, rng=rng.fork(f"i{sequence}"), start_ms=start))
        sequence += 1
    flows.sort(key=lambda flow: flow.start_ms)
    return flows


def _rotating_replay(dagflow, trace, allocations, peer: int):
    """Replay ``trace`` in equal chunks, one Table 2 allocation each."""
    size = max(1, len(trace) // len(allocations))
    for epoch, allocation in enumerate(allocations):
        last = epoch == len(allocations) - 1
        dagflow.set_blocks(allocation[peer].blocks)
        yield from dagflow.replay(trace[epoch * size : None if last else (epoch + 1) * size])


def serve_mix_trace(seed: int, n_records: int):
    """The first ``n_records`` flows of the §6.3 testbed traffic, in time
    order, and one label byte per flow (1 = attack)."""
    from repro.flowgen import synthesize_trace
    from repro.testbed.emulation import Testbed, TestbedConfig
    from repro.util.rng import SeededRng

    rng = SeededRng(seed, "perfbench-serve-mix")
    testbed = Testbed(TestbedConfig(use_wire=False), rng=rng.fork("testbed"))
    n_peers = testbed.config.n_peers
    per_peer = math.ceil(n_records / (n_peers + ATTACK_VOLUME * len(ATTACK_PEERS))) + 1
    allocations = testbed.allocations_for(ROUTE_CHANGE_BLOCKS, ALLOCATION_EPOCHS)
    streams = []
    horizon_ms = 1
    for peer in range(n_peers):
        trace = synthesize_trace(per_peer, rng=rng.fork(f"trace-{peer}"))
        horizon_ms = max(horizon_ms, trace[-1].start_ms)
        dagflow = testbed.normal_dagflow(peer, testbed.eia_plan[peer])
        streams.append((peer, _rotating_replay(dagflow, trace, allocations, peer)))
    for peer in ATTACK_PEERS:
        flows = _attack_flows(
            rng.fork(f"attacks-{peer}"), int(ATTACK_VOLUME * per_peer), horizon_ms
        )
        streams.append((peer, testbed.attack_dagflow(peer).replay(flows)))
    records = []
    labels = bytearray()
    for timed in testbed.merge_streams(streams):
        records.append(timed.record)
        labels.append(1 if timed.is_attack else 0)
        if len(records) == n_records:
            break
    if len(records) < n_records:
        raise RuntimeError(f"serve-mix trace has {len(records)} < {n_records} flows")
    return records, labels
