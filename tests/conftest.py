"""Shared fixtures: deterministic RNGs, a small topology, a trained detector."""

from __future__ import annotations

import pytest

from repro.core import EIAConfig, EnhancedInFilter, PipelineConfig
from repro.flowgen import (
    Dagflow,
    SubBlockSpace,
    eia_allocation,
    generate_attack,
    synthesize_trace,
)
from repro.routing import TopologyParams, generate_internet
from repro.util import Prefix, SeededRng


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(12345, "tests")


@pytest.fixture(scope="session")
def small_topology_params() -> TopologyParams:
    return TopologyParams(n_tier1=4, n_tier2=10, n_stub=24)


@pytest.fixture(scope="session")
def small_topology(small_topology_params):
    return generate_internet(
        small_topology_params, rng=SeededRng(777, "topology")
    )


@pytest.fixture(scope="session")
def subblock_space() -> SubBlockSpace:
    return SubBlockSpace()


@pytest.fixture(scope="session")
def target_prefix() -> Prefix:
    return Prefix.parse("198.18.0.0/16")


@pytest.fixture(scope="session")
def eia_plan(subblock_space):
    return eia_allocation(subblock_space)


@pytest.fixture(scope="session")
def trained_detector(eia_plan, target_prefix):
    """A session-scoped trained EI detector over the Table 3 plan.

    Tests that mutate detector state must NOT use this fixture; it exists
    for read-mostly assessments (training is the expensive part).
    """
    rng = SeededRng(424242, "trained")
    detector = EnhancedInFilter(PipelineConfig(), rng=rng.fork("det"))
    for peer, blocks in eia_plan.items():
        detector.preload_eia(peer, blocks)
    dagflow = Dagflow(
        "trainer",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(2500, rng=rng.fork("trace"))
    detector.train(
        [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    )
    return detector


def make_detector(eia_plan, target_prefix, *, seed=5150, config=None, n_train=1500):
    """Factory for tests that need a private, mutable detector."""
    rng = SeededRng(seed, "factory")
    detector = EnhancedInFilter(
        config if config is not None else PipelineConfig(), rng=rng.fork("det")
    )
    for peer, blocks in eia_plan.items():
        detector.preload_eia(peer, blocks)
    dagflow = Dagflow(
        "trainer",
        target_prefix=target_prefix,
        udp_port=9000,
        source_blocks=eia_plan[0],
        rng=rng.fork("df"),
    )
    trace = synthesize_trace(n_train, rng=rng.fork("trace"))
    detector.train(
        [lr.record.with_key(input_if=0) for lr in dagflow.replay(trace)]
    )
    return detector


#: Seed of :func:`make_mixed_detector`, the detector ``mixed_trace`` is
#: assessed with.
MIXED_SEED = 90210


def make_mixed_detector(eia_plan, target_prefix):
    """A private detector that learns fast enough for ``mixed_trace`` to
    trigger EIA absorptions (learning threshold 3)."""
    config = PipelineConfig(eia=EIAConfig(learning_threshold=3))
    return make_detector(
        eia_plan, target_prefix, seed=MIXED_SEED, config=config, n_train=900
    )


@pytest.fixture(scope="session")
def mixed_trace(eia_plan, target_prefix):
    """Legal + route-changed (absorbable) + attack traffic, interleaved.

    The shared serial-equivalence workload: legal traffic, two blocks
    whose routes changed so online learning must absorb them, and a
    Slammer flood, sorted into one stream.
    """
    rng = SeededRng(5150, "engine-equiv")
    records = []
    legal = Dagflow(
        "legal", target_prefix=target_prefix, udp_port=9000,
        source_blocks=eia_plan[0], rng=rng.fork("legal"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in legal.replay(synthesize_trace(500, rng=rng.fork("t-legal")))
    ]
    # Two blocks whose routes "changed": benign traffic now enters at
    # peer 0 although other peers expect them -> learning-rule food.
    moved = Dagflow(
        "moved", target_prefix=target_prefix, udp_port=9001,
        source_blocks=[eia_plan[1][0], eia_plan[2][0]], rng=rng.fork("moved"),
    )
    records += [
        lr.record.with_key(input_if=0)
        for lr in moved.replay(synthesize_trace(250, rng=rng.fork("t-moved")))
    ]
    foreign = [
        block
        for peer, blocks in eia_plan.items()
        if peer != 2
        for block in blocks
    ]
    attack = Dagflow(
        "attack", target_prefix=target_prefix, udp_port=9002,
        source_blocks=foreign, rng=rng.fork("attack"),
    )
    records += [
        lr.record.with_key(input_if=2)
        for lr in attack.replay(generate_attack("slammer", rng=rng.fork("a")))
    ]
    records.sort(key=lambda r: (r.first, r.key.src_addr, r.key.dst_addr))
    return records


@pytest.fixture(scope="session")
def mixed_serial(eia_plan, target_prefix, mixed_trace):
    """``(detector, decisions)`` of serial ``process_all`` over
    ``mixed_trace`` — the reference every batched path must equal."""
    detector = make_mixed_detector(eia_plan, target_prefix)
    decisions = detector.process_all(mixed_trace)
    return detector, decisions


def stats_signature(detector):
    """The decision-derived counters two equivalent runs must share."""
    s = detector.stats
    return (s.processed, s.legal, s.suspects, s.benign, s.attacks,
            s.absorbed, s.attacks_by_stage)


def eia_signature(detector):
    """Every peer's EIA set, as sorted prefix strings."""
    return {
        peer: sorted(map(str, detector.infilter.eia_set(peer).prefixes()))
        for peer in detector.infilter.peers()
    }


class DetectKilled(Exception):
    """Stands in for a SIGKILL of ``infilter detect`` right after a
    periodic checkpoint landed on disk."""


def record_checkpoints(monkeypatch, *, kill_after=None):
    """Spy on every checkpoint ``infilter detect`` writes.

    Returns the list the cursors are appended to, in write order.  With
    ``kill_after=k`` the ``k``-th write is the run's last act: it lands
    atomically, then :class:`DetectKilled` unwinds the run.
    """
    from repro.core import persistence

    real_save = persistence.save_detector
    cursors = []

    def save(detector, destination, *, cursor=None):
        real_save(detector, destination, cursor=cursor)
        cursors.append(cursor)
        if kill_after is not None and len(cursors) == kill_after:
            raise DetectKilled(cursor)

    monkeypatch.setattr(persistence, "save_detector", save)
    return cursors


def kill_and_resume_detect(
    monkeypatch, capsys, tmp_path, detector, records, *, every, kill_after
):
    """Drive ``infilter detect --idmef`` over ``records`` from a saved
    ``detector``, kill it right after its ``kill_after``-th checkpoint,
    and resume it from that checkpoint to the end of the input.

    Returns ``(alert XML printed across both runs, restored final
    detector, cursor the killed run left behind)``.
    """
    from repro.cli import main
    from repro.core.persistence import load_checkpoint, save_detector
    from repro.netflow.files import write_flow_file

    flows = tmp_path / "flows.bin"
    write_flow_file(flows, records)
    initial = tmp_path / "initial.json"
    save_detector(detector, initial)
    checkpoint = tmp_path / "detect.ckpt"
    common = ["--save-state", str(checkpoint),
              "--checkpoint-every", str(every), "--idmef"]
    capsys.readouterr()
    with monkeypatch.context() as patch:
        cursors = record_checkpoints(patch, kill_after=kill_after)
        try:
            main(["detect", str(flows), "--load-state", str(initial)] + common)
        except DetectKilled:
            pass
        else:
            raise AssertionError("the detect run was never killed")
    killed_alerts = capsys.readouterr().out
    _detector, killed_cursor = load_checkpoint(checkpoint)
    assert killed_cursor == cursors[-1]
    assert main(
        ["detect", str(flows), "--load-state", str(checkpoint), "--resume"]
        + common
    ) == 0
    resumed_alerts = capsys.readouterr().out
    final, final_cursor = load_checkpoint(checkpoint)
    assert final_cursor == len(records)
    return killed_alerts + resumed_alerts, final, killed_cursor
