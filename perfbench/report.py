"""Metric catalogue and the result line every run ends with."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from spans import SpanSummary, Tracer

#: End-to-end metrics: every workload reports each of them (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("flows_per_s", "flows/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("detection_rate", "ratio"),
)

#: Per-layer metrics: every workload reports each of them (``--trace 1``).
#: ``*_s`` layer times are self times (children excluded), except
#: ``pipeline.batch_s``, which is the inclusive ``process_batch`` time.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("listener.route_s", "s"),
    ("listener.datagrams", "count"),
    ("listener.records", "count"),
    ("listener.lost", "count"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.wait_p99_ms", "ms"),
    ("queue.depth_max", "count"),
    ("queue.shed", "count"),
    ("worker.commit_s", "s"),
    ("worker.batches", "count"),
    ("worker.batch_mean", "count"),
    ("persistence.checkpoint_s", "s"),
    ("persistence.checkpoint_max_s", "s"),
    ("persistence.checkpoint_bytes", "bytes"),
    ("persistence.load_s", "s"),
    ("pipeline.batch_s", "s"),
    ("pipeline.self_s", "s"),
    ("pipeline.flows", "count"),
    ("pipeline.legal", "count"),
    ("pipeline.benign", "count"),
    ("pipeline.attacks", "count"),
    ("pipeline.absorbed", "count"),
    ("eia.check_calls", "count"),
    ("eia.check_s", "s"),
    ("eia.note_benign_s", "s"),
    ("fastpath.hit_ratio", "ratio"),
    ("fastpath.invalidations", "count"),
    ("scan.observe_calls", "count"),
    ("scan.observe_s", "s"),
    ("scan.fired", "count"),
    ("nns.assess_calls", "count"),
    ("nns.assess_s", "s"),
    ("nns.search_calls", "count"),
    ("nns.search_s", "s"),
    ("nns.search_max_ms", "ms"),
    ("nns.memo_hit_ratio", "ratio"),
    ("nns.scales_built", "count"),
    ("alerts.emitted", "count"),
    ("alerts.consume_s", "s"),
    ("alerts.retained", "count"),
    ("gen.lateness_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("quality.false_positive_rate", "ratio"),
    ("serve.records_failed_frac", "ratio"),
    ("serve.saturation_rps", "records/s"),
    ("serve.latency_p50_ms.r10k", "ms"),
    ("serve.latency_p99_ms.r10k", "ms"),
    ("serve.latency_p50_ms.r20k", "ms"),
    ("serve.latency_p99_ms.r20k", "ms"),
)

#: Per-layer metrics only the live daemon of ``serve-mix`` produces; the
#: offline floods report them as 0.
SERVE_ONLY: Tuple[str, ...] = (
    "persistence.checkpoint_bytes",
    "persistence.load_s",
    "gen.lateness_p99_ms",
    "quality.false_positive_rate",
    "serve.records_failed_frac",
    "serve.saturation_rps",
    "serve.latency_p50_ms.r10k",
    "serve.latency_p99_ms.r10k",
    "serve.latency_p50_ms.r20k",
    "serve.latency_p99_ms.r20k",
)

#: Span name -> per-layer self-time metric.  Together with
#: ``trace.remainder_s`` these add up to ``trace.wall_s``.
SELF_TIME_METRICS: Dict[str, str] = {
    "listener.route": "listener.route_s",
    "worker.commit": "worker.commit_s",
    "persistence.checkpoint": "persistence.checkpoint_s",
    "pipeline.process_batch": "pipeline.self_s",
    "eia.check": "eia.check_s",
    "eia.note_benign": "eia.note_benign_s",
    "scan.observe": "scan.observe_s",
    "nns.assess": "nns.assess_s",
    "nns.search": "nns.search_s",
    "alerts.consume": "alerts.consume_s",
}


def span_metrics(tracer: Tracer, per: float) -> Dict[str, float]:
    """Per-layer metrics that come from the spans alone, divided by
    ``per`` (the number of measured rounds; 1 for a whole run)."""
    summary = tracer.summarize()

    def get(name: str) -> SpanSummary:
        return summary.get(name, SpanSummary())

    out = {
        metric: get(span).self_ns / 1e9 / per
        for span, metric in SELF_TIME_METRICS.items()
    }
    out["pipeline.batch_s"] = get("pipeline.process_batch").inclusive_ns / 1e9 / per
    out["persistence.checkpoint_max_s"] = get("persistence.checkpoint").max_ns / 1e9
    out["eia.check_calls"] = get("eia.check").calls / per
    out["scan.observe_calls"] = get("scan.observe").calls / per
    assess = get("nns.assess").calls
    search = get("nns.search").calls
    out["nns.assess_calls"] = assess / per
    out["nns.search_calls"] = search / per
    out["nns.search_max_ms"] = get("nns.search").max_ns / 1e6
    out["nns.memo_hit_ratio"] = 1.0 - search / assess if assess else 0.0
    out["alerts.emitted"] = get("alerts.consume").calls / per
    out["trace.wall_s"] = tracer.wall_ns() / 1e9 / per
    out["trace.remainder_s"] = tracer.remainder_ns(summary) / 1e9 / per
    return out


@dataclass
class Result:
    """One run: the gate's verdict, the metrics and the run's metadata."""

    workload: str
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    meta: Dict[str, object] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def build_result(
    workload: str,
    trace: bool,
    values: Dict[str, float],
    *,
    correct: bool,
    attempted: int,
    failed: int,
    meta: Dict[str, object],
    problems: Optional[List[str]] = None,
) -> Result:
    """Select the catalogue the run reports; a missing value is an error."""
    catalogue = PER_LAYER if trace else END_TO_END
    missing = [name for name, _unit in catalogue if name not in values]
    if missing:
        raise KeyError(f"{workload}: no value for {', '.join(missing)}")
    return Result(
        workload=workload,
        correct=correct,
        attempted=attempted,
        failed=failed,
        metrics={name: float(values[name]) for name, _unit in catalogue},
        units=dict(catalogue),
        meta=meta,
        problems=list(problems or []),
    )
