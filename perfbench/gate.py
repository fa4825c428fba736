"""The correctness gate every run passes through.

The committed decision stream must equal a serial
``EnhancedInFilter.process`` replay on an identically built detector,
compared field by field on (verdict, stage, eia, absorbed,
protocol_class), and every record sent must have exactly one fate:
committed, lost in transport, or shed at the queue.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence


def signature(decision) -> tuple:
    """The fields the gate compares for one decision."""
    return (
        decision.verdict,
        decision.stage,
        decision.eia,
        decision.absorbed,
        decision.protocol_class,
    )


class StreamDigest:
    """Order-sensitive digest of a decision stream's signatures, fed in
    pieces so a long stream need not be kept."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)

    def update(self, decisions: Iterable) -> None:
        for decision in decisions:
            self._hash.update(repr(signature(decision)).encode())
            self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def digest(decisions: Iterable) -> str:
    stream = StreamDigest()
    stream.update(decisions)
    return stream.hexdigest()


#: Compact per-decision outcome codes (``outcome_codes``).
LEGAL, BENIGN, ATTACK, ABSORBED = 0, 1, 2, 4
_VERDICT_CODES = {"legal": LEGAL, "benign": BENIGN, "attack": ATTACK}


def outcome_codes(decisions: Iterable) -> bytearray:
    """One byte per decision: verdict code, plus ``ABSORBED`` if set."""
    return bytearray(
        _VERDICT_CODES[d.verdict] | (ABSORBED if d.absorbed else 0)
        for d in decisions
    )


def mismatches(committed: Sequence, reference: Sequence) -> int:
    """Decisions that differ, position by position (length gap counts)."""
    differing = sum(
        signature(a) != signature(b) for a, b in zip(committed, reference)
    )
    return differing + abs(len(committed) - len(reference))


@dataclass
class GateResult:
    """Outcome of one run's checks; ``failed`` feeds the result line."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check_stream(self, label: str, committed: Sequence, reference: Sequence) -> None:
        """Compare a committed stream with its reference stream."""
        bad = mismatches(committed, reference)
        if bad:
            self.failed += bad
            self.problems.append(
                f"{label}: {bad} of {len(reference)} decisions differ from"
                " the reference stream"
            )

    def check_digest(
        self, label: str, committed_digest: str, committed_codes: bytes, reference: Sequence
    ) -> None:
        """Compare a committed stream, kept only as its digest and outcome
        codes, with its serial reference; differing codes locate the
        mismatches (at least one is counted when only the digest differs)."""
        if digest(reference) == committed_digest:
            return
        codes = outcome_codes(reference)
        bad = sum(a != b for a, b in zip(committed_codes, codes))
        bad = max(1, bad + abs(len(committed_codes) - len(codes)))
        self.failed += bad
        self.problems.append(
            f"{label}: the committed stream differs from the serial replay"
            f" ({bad} of {len(reference)} outcomes differ)"
        )

    def check_fates(
        self, label: str, *, sent: int, committed: int, lost: int, shed: int
    ) -> None:
        """Every sent record committed, lost or shed; the last two fail."""
        self.attempted += sent
        self.failed += lost + shed + max(sent - committed - lost - shed, 0)
        if sent != committed + lost + shed:
            self.problems.append(
                f"{label}: record fates do not reconcile: sent {sent} !="
                f" committed {committed} + lost {lost} + shed {shed}"
            )
