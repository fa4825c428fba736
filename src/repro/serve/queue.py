"""The bounded ingest queue between the UDP listener and the committer.

UDP delivers datagrams at whatever rate the network produces them; the
commit plane drains at whatever rate the detector sustains.  The queue
is the only coupling between the two, and it is explicitly *bounded*:
when ingest outruns commit the queue sheds load by policy instead of
growing without limit, and every shed is counted so operators can see
exactly what was sacrificed (``infilter_serve_shed_total``).

The queue is single-loop: producers call :meth:`put_many` (one
datagram's records) or :meth:`put` from event-loop callbacks (the
datagram protocol), the one consumer awaits :meth:`get_batch`.  No
locks are needed because asyncio callbacks and coroutine steps
interleave only at await points.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, NamedTuple, Optional, Sequence

import asyncio

from repro.netflow.records import FlowRecord
from repro.obs import MetricsRegistry, get_registry
from repro.serve.config import SHED_DROP_OLDEST, SHED_POLICIES
from repro.util.errors import ConfigError, ServeError

__all__ = ["QueuedRecord", "QueueStats", "IngestQueue"]


class QueuedRecord(NamedTuple):
    """One admitted flow record plus its ingest timestamp.

    ``enqueued_s`` is a monotonic (``perf_counter``) instant, used only
    to measure ingest-to-verdict latency — observability, not simulation
    input, so it never feeds a detector decision.  All records admitted
    by one :meth:`IngestQueue.put_many` call (one datagram) share it.
    """

    record: FlowRecord
    enqueued_s: float


@dataclass
class QueueStats:
    """What the queue admitted and what it sacrificed."""

    enqueued: int = 0
    dequeued: int = 0
    shed: int = 0
    #: Highest depth ever observed, for capacity tuning.
    high_watermark: int = 0


class IngestQueue:
    """Bounded record queue with an explicit load-shedding policy.

    ``drop-oldest`` evicts the head to admit the newest record (the
    detector tracks the live edge of the traffic); ``reject-newest``
    refuses the incoming record (everything already admitted commits in
    order).  Both count into ``stats.shed`` and the shed counter metric,
    labelled by policy.
    """

    def __init__(
        self,
        capacity: int,
        *,
        shed_policy: str = SHED_DROP_OLDEST,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if shed_policy not in SHED_POLICIES:
            raise ConfigError(
                f"shed_policy must be one of {'/'.join(SHED_POLICIES)},"
                f" got {shed_policy!r}"
            )
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.stats = QueueStats()
        self._items: Deque[QueuedRecord] = deque()
        self._closed = False
        self._wakeup: Optional[asyncio.Event] = None
        registry = registry if registry is not None else get_registry()
        self._m_enqueued = registry.counter(
            "infilter_serve_records_enqueued_total",
            "Flow records admitted to the ingest queue.",
        )
        self._m_shed = registry.counter(
            "infilter_serve_shed_total",
            "Flow records sacrificed by the bounded-queue shed policy.",
            ("policy",),
        ).labels(policy=shed_policy)
        self._m_depth = registry.gauge(
            "infilter_serve_queue_depth",
            "Flow records currently queued between listener and committer.",
        )

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called (drain mode)."""
        return self._closed

    def _event(self) -> asyncio.Event:
        # Created lazily so the queue can be built outside a running
        # loop (asyncio.Event binds to the loop it is first awaited on).
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
        return self._wakeup

    def put(self, record: FlowRecord) -> bool:
        """Admit one record; returns False when it was shed.

        The one-record case of :meth:`put_many`: a full queue under
        ``drop-oldest`` evicts the head and admits ``record`` (True — the
        *new* record was admitted); under ``reject-newest`` ``record``
        is counted as shed (False).
        """
        return self.put_many((record,)) == 1

    def put_many(self, records: Sequence[FlowRecord]) -> int:
        """Admit one datagram's records in order; returns how many were
        admitted.

        The outcome and the accounting are exactly those of putting the
        records one at a time, but decided once: ``drop-oldest`` admits
        all ``n`` records, sheds ``max(0, depth + n - capacity)`` and
        keeps the newest ``capacity``; ``reject-newest`` admits the first
        ``capacity - depth`` and sheds the rest.  All admitted records
        share one enqueue instant.  Putting records into a closed queue
        is a contract violation — the listener must be stopped before
        the drain.
        """
        n = len(records)
        if n == 0:
            return 0
        if self._closed:
            raise ServeError("cannot enqueue into a closed ingest queue")
        items = self._items
        room = self.capacity - len(items)
        stats = self.stats
        if n <= room:
            admitted = n
            shed = 0
        elif self.shed_policy == SHED_DROP_OLDEST:
            admitted = n
            shed = n - room
            if n >= self.capacity:
                # Everything queued is evicted, then the oldest of the
                # incoming records too: only the newest `capacity` stay.
                items.clear()
                records = records[n - self.capacity:]
            else:
                for _ in range(shed):
                    items.popleft()
        else:
            admitted = room
            shed = n - room
            records = records[:room]
        now = time.perf_counter()
        items.extend([QueuedRecord(record, now) for record in records])
        if shed:
            stats.shed += shed
            self._m_shed.inc(shed)
        stats.enqueued += admitted
        self._m_enqueued.inc(admitted)
        depth = len(items)
        if depth > stats.high_watermark:
            stats.high_watermark = depth
        self._m_depth.set(depth)
        if admitted:
            self._event().set()
        return admitted

    def close(self) -> None:
        """Enter drain mode: no new records, consumers see the rest.

        After close, :meth:`get_batch` keeps returning queued records
        until the queue is empty, then returns an empty batch — the
        consumer's signal that the drain is complete.
        """
        self._closed = True
        self._event().set()

    def take_nowait(self, limit: int) -> List[QueuedRecord]:
        """Dequeue up to ``limit`` records without waiting."""
        taken: List[QueuedRecord] = []
        while self._items and len(taken) < limit:
            taken.append(self._items.popleft())
        if taken:
            self.stats.dequeued += len(taken)
            self._m_depth.set(len(self._items))
        if not self._items and not self._closed:
            self._event().clear()
        return taken

    async def get_batch(
        self, max_batch: int, *, linger_s: float = 0.0
    ) -> List[QueuedRecord]:
        """Await the next micro-batch (empty batch = closed and drained).

        Waits until at least one record is queued (or the queue closes),
        then — if the batch is short of ``max_batch`` and the queue is
        still open — lingers once for up to ``linger_s`` to let the
        batch fill.  The linger is what amortises per-batch overhead at
        low traffic rates without adding latency at high rates, where
        batches fill instantly.
        """
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        while not self._items:
            if self._closed:
                return []
            event = self._event()
            event.clear()
            await event.wait()
        if (
            linger_s > 0
            and len(self._items) < max_batch
            and not self._closed
        ):
            await asyncio.sleep(linger_s)
        return self.take_nowait(max_batch)
