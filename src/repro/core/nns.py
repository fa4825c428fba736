"""Approximate nearest-neighbour search in Hamming space (Section 4.2).

Implements the Kushilevitz–Ostrovsky–Rabani construction the paper uses
([KOR], Figures 6–8): per distance scale ``t`` in ``[1, d]`` a
substructure holds ``M1`` trace tables; each table is keyed by an
``M2``-bit *trace* — the GF(2) inner products of the flow's unary encoding
with ``M2`` random test vectors whose bits are one with probability
``b/2 = 1/(4t)``; a training flow occupies every table entry within
Hamming ball radius ``M3`` of its own trace.  The search (Figure 8) binary
searches the scale axis: a non-empty entry at scale ``t`` means a training
flow is probably within distance ~``t``, so the search continues on
smaller scales, and the flow in the last non-empty entry visited is
returned.

Four engineering notes:

* tables store each flow under its *exact* trace and the probe walks the
  radius-``M3`` ball around the query trace — set-equivalent to the
  paper's ball *insertion*, but O(1) instead of O(ball) per flow insert;
* one ranking per search: while binary searching, a scale is only asked
  whether any entry in the query's ball is occupied (stopping at the
  first); the flows in the ball at the last occupied scale are collected
  and ranked once, after the loop.  Figure 8 returns a flow from that
  scale only, so ranking the scales visited before it is wasted work;
* scales are built lazily on first probe: a binary search touches
  O(log d) of the ``d`` scales.  Eager construction would build
  720 x ``M1`` tables per structure, 5,040 for a detector's seven
  protocol subclusters at ``M1 = 1``, where a whole flood round builds
  about 62; it would move seconds of test-vector draws into start-up.
  ``build_all_scales`` exists for exhaustive tests;
* where Figure 8 picks one of a scale's ``M1`` tables at random, the
  search derives the pick from a splitmix64 hash of (query encoding,
  scale).  Every table is an independent random draw, so a fixed pick
  is as good as a random one, and it makes a search a pure function of
  the structure and the query: memoised and serial paths agree for
  every ``M1``.  At the paper default ``M1 = 1`` nothing changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import NNSConfig
from repro.core.encoding import UnaryEncoder, hamming
from repro.core.state import StateDict, stateful
from repro.fastpath.bitpack import PackedCodes
from repro.netflow.records import FlowStats
from repro.util.errors import TrainingError
from repro.util.rng import SeededRng, mix64

__all__ = ["TrainingFlow", "SearchResult", "NNSStructure"]


@dataclass(frozen=True)
class TrainingFlow:
    """One training point: its statistics and unary encoding."""

    index: int
    stats: FlowStats
    encoded: int


@dataclass(frozen=True)
class SearchResult:
    """The neighbour the search returned, with its exact distance."""

    flow: TrainingFlow
    distance: int
    scale: int


def _ball_deltas(m2: int, m3: int) -> Tuple[int, ...]:
    """All m2-bit XOR masks with fewer than ``m3`` bits set.

    XORing the query trace with each delta enumerates exactly the table
    entries whose Hamming distance from the trace is < m3.
    """
    deltas: List[int] = [0]
    for weight in range(1, m3):
        for positions in combinations(range(m2), weight):
            mask = 0
            for position in positions:
                mask |= 1 << position
            deltas.append(mask)
    return tuple(deltas)


class _TraceTable:
    """One T_ij: M2 test vectors plus the trace-keyed flow table."""

    __slots__ = ("test_vectors", "table")

    def __init__(
        self,
        flows: Sequence[TrainingFlow],
        dimension: int,
        m2: int,
        b: float,
        rng: SeededRng,
    ) -> None:
        self.test_vectors = [rng.bits(dimension, b / 2.0) for _ in range(m2)]
        self.table: Dict[int, List[TrainingFlow]] = {}
        for flow in flows:
            trace = self._trace(flow.encoded)
            self.table.setdefault(trace, []).append(flow)

    def _trace(self, encoded: int) -> int:
        # Bit i is the GF(2) inner product of test vector i and the query.
        trace = 0
        for bit_index, vector in enumerate(self.test_vectors):
            if (vector & encoded).bit_count() & 1:
                trace |= 1 << bit_index
        return trace

    def occupied(self, encoded: int, deltas: Tuple[int, ...]) -> bool:
        """Whether any entry in the M3-ball of the query's trace holds a flow.

        Stops at the first non-empty entry: the binary search only needs
        to know *whether* the scale answers, not with which flows.
        """
        trace = self._trace(encoded)
        table = self.table
        for delta in deltas:
            if trace ^ delta in table:
                return True
        return False

    def probe(self, encoded: int, deltas: Tuple[int, ...]) -> List[TrainingFlow]:
        """Flows stored within the M3-ball of the query's trace."""
        trace = self._trace(encoded)
        hits: List[TrainingFlow] = []
        for delta in deltas:
            bucket = self.table.get(trace ^ delta)
            if bucket:
                hits.extend(bucket)
        return hits


def _fold64(value: int) -> int:
    """Fold an arbitrary-width non-negative integer into 64 bits."""
    folded = 0
    while True:
        folded = mix64(folded ^ value)
        value >>= 64
        if not value:
            return folded


def _flow_from_state(entry: StateDict) -> TrainingFlow:
    values = entry["stats"]
    return TrainingFlow(
        index=int(entry["index"]),
        stats=FlowStats(
            octets=int(values[0]),
            packets=int(values[1]),
            duration_ms=int(values[2]),
            bit_rate=float(values[3]),
            packet_rate=float(values[4]),
        ),
        encoded=int(entry["encoded"]),
    )


@stateful("nns")
class NNSStructure:
    """The full KOR search structure over one training cluster."""

    def __init__(
        self,
        encoder: UnaryEncoder,
        config: NNSConfig,
        flows: Sequence[TrainingFlow],
        *,
        rng: SeededRng,
    ) -> None:
        if not flows:
            raise TrainingError("cannot build an NNS structure with no flows")
        self.encoder = encoder
        self.config = config
        self.flows = list(flows)
        self._rng = rng
        self._deltas = _ball_deltas(config.m2, config.m3)
        self._scales: Dict[int, List[_TraceTable]] = {}
        self.scales_built = 0
        # Derived cache: the training codes bit-packed for popcount
        # distance sweeps.  Built lazily, never checkpointed, dropped
        # whenever `flows` is replaced (load_state).
        self._packed: Optional[PackedCodes] = None

    @property
    def dimension(self) -> int:
        return self.encoder.dimension

    def _tables_for(self, scale: int) -> List[_TraceTable]:
        tables = self._scales.get(scale)
        if tables is None:
            b = 1.0 / (2.0 * scale)
            scale_rng = self._rng.fork(f"scale-{scale}")
            tables = [
                _TraceTable(
                    self.flows,
                    self.dimension,
                    self.config.m2,
                    b,
                    scale_rng.fork(f"table-{j}"),
                )
                for j in range(self.config.m1)
            ]
            self._scales[scale] = tables
            self.scales_built += 1
        return tables

    def build_all_scales(self) -> None:
        """Eagerly build every scale (exhaustive-test / offline mode)."""
        for scale in range(1, self.dimension + 1):
            self._tables_for(scale)

    def nearest(self, encoded: int) -> Optional[SearchResult]:
        """Figure 8: binary search over distance scales.

        Returns the flow from the last non-empty entry visited, or None
        when every probed scale came up empty (possible only for queries
        far from all training data at every scale).  With ``M1 > 1``
        tables per scale, the table probed is a fixed hash of (query
        encoding, scale) rather than a draw, so the search is a pure
        function of structure and query.
        """
        deltas = self._deltas
        low, high = 1, self.dimension
        # The last occupied table visited and its scale: the answer comes
        # from that table's ball, so only its flows are ranked, once,
        # after the search.
        last: Optional[Tuple[_TraceTable, int]] = None
        query_hash = _fold64(encoded) if self.config.m1 > 1 else 0
        while low <= high:
            scale = (low + high) // 2
            tables = self._tables_for(scale)
            table = (
                tables[0]
                if len(tables) == 1
                else tables[mix64(query_hash ^ scale) % len(tables)]
            )
            if table.occupied(encoded, deltas):
                last = (table, scale)
                high = scale - 1
            else:
                low = scale + 1
        if last is None:
            return None
        table, scale = last
        # Deterministic pick inside the entry: the closest by true Hamming
        # distance, ties to the earliest training index.
        flow = min(
            table.probe(encoded, deltas),
            key=lambda f: ((f.encoded ^ encoded).bit_count(), f.index),
        )
        return SearchResult(
            flow=flow, distance=hamming(flow.encoded, encoded), scale=scale
        )

    # -- the stage-state protocol --------------------------------------------

    def state_dict(self) -> StateDict:
        """Training flows plus the RNG the tables derive from.

        The trace tables are *not* stored: scales are a pure function of
        ``self._rng``'s seed (``fork`` derives children from seed and name
        alone, never the cursor), so a restored structure rebuilds the
        same tables lazily on first probe.  A search consumes no
        randomness, so there is no per-search cursor to capture.
        """
        return {
            "rng": self._rng.state_dict(),
            "flows": [
                {
                    "index": flow.index,
                    "stats": list(flow.stats.as_tuple()),
                    "encoded": flow.encoded,
                }
                for flow in self.flows
            ],
        }

    def load_state(self, state: StateDict) -> None:
        self.flows = [_flow_from_state(entry) for entry in state["flows"]]
        if not self.flows:
            raise TrainingError("cannot restore an NNS structure with no flows")
        # Checkpoints from before the pure table pick also carry a
        # "pick_rng" cursor; nothing consumes it any more.
        self._rng.load_state(state["rng"])
        self._scales = {}
        self.scales_built = 0
        self._packed = None

    @classmethod
    def from_state(
        cls, encoder: UnaryEncoder, config: NNSConfig, state: StateDict
    ) -> "NNSStructure":
        """Rebuild a structure from a captured state section.

        The placeholder RNG is immediately overwritten by ``load_state``,
        which restores the saved seed, name, and cursor.
        """
        flows = [_flow_from_state(entry) for entry in state["flows"]]
        structure = cls(encoder, config, flows, rng=SeededRng(0, "restoring"))
        structure.load_state(state)
        return structure

    def packed_codes(self) -> PackedCodes:
        """The training codes packed for popcount distance sweeps.

        A derived cache over ``self.flows`` — positions match the flows
        list, so a ``distances()`` sweep lines up with it index for
        index.
        """
        if self._packed is None:
            self._packed = PackedCodes(
                [flow.encoded for flow in self.flows], self.dimension
            )
        return self._packed

    def nearest_exact(self, encoded: int) -> SearchResult:
        """Brute-force exact nearest neighbour (calibration & testing).

        One packed popcount sweep over the corpus; the winner (ties to
        the earliest training index) is identical to a per-flow
        ``min(..., key=(hamming, index))`` scan.
        """
        flows = self.flows
        distances = self.packed_codes().distances(encoded)
        position = min(
            range(len(distances)),
            key=lambda i: (distances[i], flows[i].index),
        )
        return SearchResult(
            flow=flows[position], distance=distances[position], scale=0
        )
