"""Per-layer metrics from a traced run's spans.

Counts and busy times are per measured cycle: one cold pass plus its
re-run for the cold workloads, the burst and paced phases for
warm-serve.  A ratio whose base is zero reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from tracing import Span, layer_stats, union_length

#: (metric, unit) in the order the benchmark reports them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("explain.seed.count", "count"),
    ("explain.seed.self_s", "s"),
    ("synthesis.encode.count", "count"),
    ("synthesis.encode.busy_s", "s"),
    ("explain.simplify.busy_s", "s"),
    ("explain.project.busy_s", "s"),
    ("bgp.simulate.count", "count"),
    ("bgp.simulate.busy_s", "s"),
    ("explain.lift.busy_s", "s"),
    ("explain.family.seed_for.busy_s", "s"),
    ("explain.family.seed_hit_ratio", "fraction"),
    ("explain.family.certify.count", "count"),
    ("explain.family.certify.busy_s", "s"),
    ("smt.sat.solve.count", "count"),
    ("smt.sat.solve.busy_s", "s"),
    ("farm.readset.record.count", "count"),
    ("farm.readset.record.busy_s", "s"),
    ("farm.readset.payload.busy_s", "s"),
    ("farm.store.save.count", "count"),
    ("farm.store.save.busy_s", "s"),
    ("farm.store.load.count", "count"),
    ("farm.store.load.busy_s", "s"),
    ("farm.store.hit_ratio", "fraction"),
    ("farm.invalidate.readset_valid.count", "count"),
    ("farm.invalidate.readset_valid.busy_s", "s"),
    ("farm.invalidate.valid_ratio", "fraction"),
    ("farm.keys.job_key.busy_s", "s"),
    ("farm.worker.run_job.count", "count"),
    ("farm.worker.run_job.busy_s", "s"),
    ("farm.worker.utilization", "fraction"),
    ("farm.supervise.busy_s", "s"),
    ("farm.supervise.retries", "count"),
    ("farm.fleet.spawn_s", "s"),
    ("farm.fleet.dispatch_wait_s", "s"),
    ("farm.fleet.utilization", "fraction"),
    ("api.resolve_inputs.busy_s", "s"),
    ("api.report_build.busy_s", "s"),
    ("farm.report.dump.busy_s", "s"),
    ("serve.http.post.count", "count"),
    ("serve.http.post.busy_s", "s"),
    ("serve.http.get.count", "count"),
    ("serve.http.get.busy_s", "s"),
    ("serve.http.refused", "count"),
    ("serve.queue.wait_p50_s", "s"),
    ("serve.queue.wait_tail_s", "s"),
    ("serve.queue.batch_s", "s"),
    ("serve.queue.depth_max", "count"),
    ("audit.suite.busy_s", "s"),
    ("audit.oracle.truth.count", "count"),
    ("audit.oracle.truth.busy_s", "s"),
    ("audit.adjudicate.busy_s", "s"),
    ("process.import_s", "s"),
    ("loadgen.lag_max_s", "s"),
    ("loadgen.sent", "count"),
    ("loadgen.completed", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
)

#: Span name behind each ``<prefix>.count`` / ``.busy_s`` / ``.self_s``
#: metric whose prefix differs from the span name.
_SPAN_OF = {
    "farm.supervise": "farm.supervise.run",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def tail_percentile(samples: int, beyond: int = 10) -> Optional[float]:
    """The highest whole percentile with at least ``beyond`` samples above it."""
    if samples <= beyond:
        return None
    return float(int(100 * (samples - beyond) / samples))


def percentile(values: Sequence[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(pct / 100 * len(ordered))) - 1))
    return ordered[index]


def _fifo_waits(submits: List[Span], runs: List[Span]) -> List[float]:
    """Claim waits: each family's worker start minus its submit, in order."""
    pending: Dict[object, List[float]] = defaultdict(list)
    for span in sorted(submits, key=lambda s: s.end):
        pending[span.attrs.get("family")].append(span.end)
    waits = []
    for span in sorted(runs, key=lambda s: s.start):
        queue = pending.get(span.attrs.get("family"))
        if queue:
            waits.append(max(0.0, span.start - queue.pop(0)))
    return waits


def compute(
    spans: List[Span],
    cycles: int,
    workers: int,
    measured_wall_s: float,
    served: Iterable[Span] = (),
    extra: Optional[Dict[str, float]] = None,
    since: Optional[float] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans.

    ``measured_wall_s`` is the wall time the benchmark measured over
    the traced cycles; ``since`` drops spans that started before the
    timed phase (warm-serve's set-up); ``served`` are the queue records
    of the timed requests; ``extra`` supplies the load generator and
    overhead figures and the supervisor's retry count, which the batch
    documents carry.
    """
    fleet_inits = [s for s in spans if s.name == "farm.fleet.init"]
    server_procs = {s.proc for s in fleet_inits}
    worker_imports = [
        s for s in spans
        if s.name == "process.import" and s.proc not in server_procs
    ]
    spawn_s = 0.0
    if fleet_inits and worker_imports:
        first = min(s.start for s in fleet_inits)
        ready = [s.end for s in worker_imports if s.end >= first]
        spawn_s = max(ready) - first if ready else 0.0
    if since is not None:
        spans = [s for s in spans if s.start >= since]
    stats = layer_stats(spans)
    per = float(max(1, cycles))

    def stat(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0.0)

    out: Dict[str, float] = {}
    for metric, unit in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if field in ("count", "busy_s", "self_s"):
            out[metric] = stat(_SPAN_OF.get(prefix, prefix), field) / per
    of = lambda name: [s for s in spans if s.name == name]  # noqa: E731

    seed_for = of("explain.family.seed_for")
    encode_parents = {(s.proc, s.parent) for s in of("synthesis.encode")}
    hits = sum(1 for s in seed_for if (s.proc, s.sid) not in encode_parents)
    out["explain.family.seed_hit_ratio"] = _ratio(hits, len(seed_for))
    loads = of("farm.store.load")
    out["farm.store.hit_ratio"] = _ratio(
        sum(1 for s in loads if s.attrs.get("hit")), len(loads)
    )
    checks = of("farm.invalidate.readset_valid")
    out["farm.invalidate.valid_ratio"] = _ratio(
        sum(1 for s in checks if s.attrs.get("valid")), len(checks)
    )
    family_busy = stat("farm.worker.run_family", "busy_s")
    out["farm.worker.utilization"] = _ratio(
        family_busy, workers * stat("farm.supervise.run", "busy_s")
    )
    fleet_size = workers if server_procs else 0
    out["farm.fleet.spawn_s"] = spawn_s
    waits = _fifo_waits(of("farm.fleet.submit"), of("farm.worker.run_family"))
    out["farm.fleet.dispatch_wait_s"] = statistics.fmean(waits) if waits else 0.0
    out["farm.fleet.utilization"] = _ratio(
        family_busy, fleet_size * measured_wall_s
    ) if fleet_size else 0.0
    out["serve.http.refused"] = sum(
        1 for s in of("serve.tenants.admit") if not s.attrs.get("admitted")
    ) / per

    served = list(served)
    waits = [s.end - s.start for s in served if s.end is not None]
    tail = tail_percentile(len(waits))
    out["serve.queue.wait_p50_s"] = statistics.median(waits) if waits else 0.0
    out["serve.queue.wait_tail_s"] = percentile(waits, tail) if tail else 0.0
    batches = [
        s.attrs["finished"] - s.end for s in served
        if s.end is not None and s.attrs.get("finished") is not None
    ]
    out["serve.queue.batch_s"] = statistics.fmean(batches) if batches else 0.0
    events = sorted(
        [(s.start, 1) for s in served]
        + [(s.end, -1) for s in served if s.end is not None]
    )
    depth = depth_max = 0
    for _when, step in events:
        depth += step
        depth_max = max(depth_max, depth)
    out["serve.queue.depth_max"] = float(depth_max)

    imports = of("process.import")
    out["process.import_s"] = (
        statistics.fmean(s.duration for s in imports) if imports else 0.0
    )
    # Top-level spans of the processes that took requests: the
    # launchers (cold) or the server (warm-serve).
    entry_procs = {s.proc for s in of("api.explain_batch")} - {
        s.proc for s in of("farm.worker.run_family")
    } | server_procs
    covered = 0.0
    for proc in entry_procs:
        covered += union_length(
            (s.start, s.end) for s in spans
            if s.proc == proc and s.parent is None and s.end is not None
        )
    out["trace.coverage_frac"] = _ratio(covered, measured_wall_s)
    for name in ("farm.supervise.retries", "loadgen.lag_max_s", "loadgen.sent",
                 "loadgen.completed", "trace.overhead_frac"):
        out[name] = float((extra or {}).get(name, 0.0))
    return {metric: out[metric] for metric, _unit in PER_LAYER}
