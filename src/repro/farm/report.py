"""The single source of truth for batch-report vocabulary and shape.

Three consumers need to agree on what a batch run *says*: the
``explain-all`` CLI (summary table, ``--json`` document, exit code),
the HTTP serving layer (job status and result documents), and the
typed :mod:`repro.api` facade.  Before this module each of them
hand-rolled its own status strings and dict plumbing; now everything
-- the status taxonomy (``EXACT`` / ``DEGRADED_*`` / ``FAILED`` /
``ERROR`` / ``CACHED`` / ``QUARANTINED``), the process exit codes
(3/4/5/6/7/70), the ``repro-farm-report/2`` JSON document and the
human summary table -- is defined here once and imported everywhere
else.

:class:`BatchReport`, the outcome of one batch, lives here too.  The
functions are duck-typed over it and over
:class:`repro.farm.worker.JobResult` (this module sits *below* the
worker in the import graph), and the document/table output is
regression-tested byte-for-byte against goldens captured before the
extraction (``tests/farm/test_report.py``): moving the code must not
move the bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..obs import BenchReport, MetricsRegistry, SPAN_PREFIX, StageRecord, percentile

if TYPE_CHECKING:
    from .worker import JobResult

__all__ = [
    "BatchReport",
    "REPORT_SCHEMA",
    "STATUS_EXACT",
    "STATUS_DEGRADED_LIFT",
    "STATUS_DEGRADED_RAW",
    "STATUS_FAILED",
    "STATUS_ERROR",
    "STATUS_CACHED",
    "STATUS_QUARANTINED",
    "OK_STATUSES",
    "DEGRADED_STATUSES",
    "ALL_STATUSES",
    "EXIT_OK",
    "EXIT_FAILURE",
    "EXIT_USAGE",
    "EXIT_TIMEOUT",
    "EXIT_BUDGET",
    "EXIT_CANCELLED",
    "EXIT_UNSAT",
    "EXIT_PARTIAL",
    "EXIT_INTERNAL",
    "audit_totals",
    "job_row",
    "report_document",
    "report_totals",
    "summary_table",
    "summary_from_document",
    "exit_code",
    "normalize_document",
    "dump_document",
]

#: Bumped whenever the ``--json`` document shape changes.  ``/2``
#: added the per-job ``audit`` field, the top-level ``audit`` section
#: and the ``audited``/``audit_refuted`` totals.
REPORT_SCHEMA = "repro-farm-report/2"

# ---------------------------------------------------------------------------
# The status taxonomy.
#
# The first four mirror repro.explain.ExplanationStatus (the engine's
# degradation ladder); the rest are farm-level outcomes a job can have
# without the engine ever running.  The enum values are duplicated here
# as plain strings on purpose: this module is the vocabulary the wire
# formats promise, and must not drift silently with engine internals
# (``tests/farm/test_report.py`` pins the correspondence).

STATUS_EXACT = "EXACT"
STATUS_DEGRADED_LIFT = "DEGRADED_LIFT"
STATUS_DEGRADED_RAW = "DEGRADED_RAW"
STATUS_FAILED = "FAILED"
#: The job raised (worker-side); ``error_kind`` says transient/permanent.
STATUS_ERROR = "ERROR"
#: Served whole from the artifact store (answer + valid read-set).
STATUS_CACHED = "CACHED"
#: Exhausted its supervised retries; in the quarantine ledger.
STATUS_QUARANTINED = "QUARANTINED"

#: Statuses counting as a successful answer.
OK_STATUSES = frozenset({STATUS_EXACT, STATUS_CACHED})
#: Statuses meaning "the engine ran but was cut short".
DEGRADED_STATUSES = frozenset(
    {STATUS_DEGRADED_LIFT, STATUS_DEGRADED_RAW, STATUS_FAILED}
)
ALL_STATUSES = frozenset(
    {
        STATUS_EXACT,
        STATUS_DEGRADED_LIFT,
        STATUS_DEGRADED_RAW,
        STATUS_FAILED,
        STATUS_ERROR,
        STATUS_CACHED,
        STATUS_QUARANTINED,
    }
)

# ---------------------------------------------------------------------------
# Exit codes (shared by the CLI and the serving layer's job documents).
# argparse itself uses 2 for usage errors.

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_BUDGET = 4
EXIT_CANCELLED = 5
EXIT_UNSAT = 6
#: A supervised batch completed, but some jobs were quarantined after
#: exhausting their retries: the report is partial but honest.
EXIT_PARTIAL = 7
EXIT_INTERNAL = 70


# ---------------------------------------------------------------------------
# The JSON document (the CLI's --json file, the server's result body)


def job_row(result: Any) -> Dict[str, object]:
    """One summary-table / JSON-report row for a ``JobResult``."""
    return {
        "job": result.job.job_id,
        "status": result.status,
        "cached": result.cached,
        "duration_s": round(result.duration_s, 4),
        "key": result.key,
        "error": result.error,
        "error_kind": result.error_kind,
        "attempts": result.attempts,
        "quarantined": result.quarantined,
        "audit": getattr(result, "audit", None),
    }


def report_totals(report: Any) -> Dict[str, int]:
    """The ``totals`` section of the document."""
    return {
        "jobs": len(report.results),
        "completed": report.completed,
        "cached": report.cached,
        "degraded": report.degraded,
        "failed": report.failed,
        "quarantined": report.quarantined,
        "retried": report.retried,
    }


def audit_totals(rows: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    """The top-level ``audit`` section, aggregated over job rows.

    ``None`` when no job carried an audit payload (the batch ran with
    auditing off), so non-audit documents stay recognisably audit-free
    rather than growing a section of zeroes.
    """
    audits = [row.get("audit") for row in rows]
    payloads = [audit for audit in audits if isinstance(audit, dict)]
    if not payloads:
        return None
    verdicts: Dict[str, int] = {}
    refuted = repaired = relifts = 0
    for payload in payloads:
        verdict = str(payload.get("verdict"))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        relifts += int(payload.get("relifts", 0))  # type: ignore[arg-type]
        if payload.get("repaired"):
            repaired += 1
        elif verdict in ("too-weak", "too-strong"):
            refuted += 1
    return {
        "audited": len(payloads),
        "verdicts": dict(sorted(verdicts.items())),
        "refuted": refuted,
        "repaired": repaired,
        "relifts": relifts,
    }


def report_document(report: Any) -> Dict[str, object]:
    """The schema-versioned ``--json`` report document.

    Accepts a :class:`BatchReport`; this is the one place its JSON
    shape is defined.
    """
    farm_counters = {
        name: value
        for name, value in sorted(report.metrics.counters.items())
        if name.startswith(("farm.", "smt.", "engine.", "audit."))
    }
    rows = [job_row(result) for result in report.results]
    return {
        "schema": REPORT_SCHEMA,
        "scenario": report.scenario,
        "workers": report.workers,
        "wall_s": round(report.wall_s, 4),
        "cpu_s": round(report.cpu_s, 4),
        "jobs": rows,
        "totals": report_totals(report),
        "audit": audit_totals(rows),
        "stage_cache_rate": report.stage_cache_rate(),
        "counters": farm_counters,
        "bench": report.to_bench_report().to_dict(),
    }


def dump_document(document: Dict[str, object]) -> str:
    """The byte-exact serialization ``--json`` writes to disk."""
    return json.dumps(document, indent=2) + "\n"


def _render_table(
    rows: List[tuple],
    totals: Dict[str, int],
    wall_s: float,
    cpu_s: float,
    workers: int,
    rate: Optional[float],
    audit: Optional[Dict[str, object]] = None,
) -> str:
    rows = [("job", "status", "cached", "tries", "time")] + rows
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    lines.append("")
    lines.append(
        f"{totals['jobs']} jobs: {totals['completed']} ok "
        f"({totals['cached']} from cache), {totals['degraded']} degraded, "
        f"{totals['failed']} failed, {totals['quarantined']} quarantined"
    )
    if audit is not None:
        verdicts = audit.get("verdicts") or {}
        confirmed = verdicts.get("confirmed", 0)  # type: ignore[union-attr]
        lines.append(
            f"audit: {audit['audited']} audited, {confirmed} confirmed, "
            f"{audit['refuted']} refuted, {audit['repaired']} repaired"
        )
    lines.append(f"wall {wall_s:.2f}s, cpu {cpu_s:.2f}s, workers {workers}")
    if rate is not None:
        lines.append(f"stage cache hit rate: {rate:.0%}")
    return "\n".join(lines)


def summary_table(report: Any) -> str:
    """The human-readable per-job table plus batch totals."""
    rows = [
        (
            result.job.job_id,
            result.status,
            "yes" if result.cached else "no",
            str(result.attempts),
            f"{result.duration_s:.2f}s",
        )
        for result in report.results
    ]
    return _render_table(
        rows,
        report_totals(report),
        report.wall_s,
        report.cpu_s,
        report.workers,
        report.stage_cache_rate(),
        audit_totals([job_row(result) for result in report.results]),
    )


def summary_from_document(document: Dict[str, object]) -> str:
    """:func:`summary_table` recomputed from a report *document*.

    Front-ends holding only the JSON document (the typed facade, the
    serving layer) render the same table the CLI prints, without
    needing the live ``BatchReport``.
    """
    rows = [
        (
            str(row["job"]),
            str(row["status"]),
            "yes" if row["cached"] else "no",
            str(row["attempts"]),
            f"{float(row['duration_s']):.2f}s",  # type: ignore[arg-type]
        )
        for row in document.get("jobs", ())  # type: ignore[union-attr]
    ]
    totals = document.get("totals")
    if not isinstance(totals, dict):
        totals = {
            "jobs": 0, "completed": 0, "cached": 0,
            "degraded": 0, "failed": 0, "quarantined": 0,
        }
    audit = document.get("audit")
    return _render_table(
        rows,
        totals,
        float(document.get("wall_s", 0.0)),  # type: ignore[arg-type]
        float(document.get("cpu_s", 0.0)),  # type: ignore[arg-type]
        int(document.get("workers", 1)),  # type: ignore[arg-type]
        document.get("stage_cache_rate"),  # type: ignore[arg-type]
        audit if isinstance(audit, dict) else None,
    )


def exit_code(
    report: Any,
    timeout: Optional[float] = None,
    budget: Optional[int] = None,
) -> int:
    """The process exit code a finished batch maps to.

    This is the ``explain-all`` contract, verbatim: failures dominate
    quarantine dominates degradation; a degraded batch blames the
    timeout when only a timeout was set (per-job governors live in the
    workers, so the batch cannot ask which limit actually fired and
    maps from the flags instead).  A refuted audit -- the explanation
    itself was proven wrong -- counts as failure even when every job
    nominally succeeded.
    """
    if report.failed:
        return EXIT_FAILURE
    if getattr(report, "audit_refuted", 0):
        return EXIT_FAILURE
    if report.quarantined:
        return EXIT_PARTIAL
    if report.degraded:
        if timeout is not None and budget is None:
            return EXIT_TIMEOUT
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# Run-to-run comparison


#: Timing fields that legitimately differ between two runs computing
#: the same answers.
_VOLATILE_TOP = ("wall_s", "cpu_s")
_VOLATILE_ROW = ("duration_s",)
_VOLATILE_STAGE = ("median_s", "p95_s", "total_s")


def normalize_document(document: Dict[str, object]) -> Dict[str, object]:
    """A copy of ``document`` with run-specific timings zeroed.

    Two batches that computed identical *answers* -- same jobs, same
    statuses, same cache behaviour, same work counters -- produce
    byte-identical normalized documents even though their wall clocks
    differ.  This is what the serve-vs-CLI equivalence tests and the CI
    smoke compare.
    """
    normalized: Dict[str, object] = dict(document)
    for name in _VOLATILE_TOP:
        if name in normalized:
            normalized[name] = 0.0
    rows: List[Dict[str, object]] = []
    for row in normalized.get("jobs", ()):  # type: ignore[union-attr]
        row = dict(row)
        for name in _VOLATILE_ROW:
            if name in row:
                row[name] = 0.0
        rows.append(row)
    normalized["jobs"] = rows
    bench = normalized.get("bench")
    if isinstance(bench, dict):
        bench = dict(bench)
        bench["calibration_s"] = None
        stages = []
        for stage in bench.get("stages", ()):
            stage = dict(stage)
            for name in _VOLATILE_STAGE:
                if name in stage:
                    stage[name] = 0.0
            stages.append(stage)
        bench["stages"] = stages
        normalized["bench"] = bench
    return normalized


# ---------------------------------------------------------------------------
# The batch report


@dataclass
class BatchReport:
    """Everything one ``explain-all`` invocation produced."""

    scenario: str
    results: List["JobResult"]
    workers: int
    wall_s: float
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    # -- aggregate views -----------------------------------------------

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.results if r.degraded)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == STATUS_ERROR)

    @property
    def quarantined(self) -> int:
        return sum(1 for r in self.results if r.quarantined)

    @property
    def retried(self) -> int:
        """Jobs that needed more than one attempt."""
        return sum(1 for r in self.results if r.attempts > 1)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def audited(self) -> int:
        """Jobs whose answer went through the adversarial audit."""
        return sum(1 for r in self.results if r.audit is not None)

    @property
    def audit_refuted(self) -> int:
        """Audited jobs whose final verdict refutes the subspec (a
        repaired re-lift does not count: the record keeps the refuting
        label, but the served answer was proven good)."""
        return sum(
            1
            for r in self.results
            if r.audit is not None
            and r.audit.get("verdict") in ("too-weak", "too-strong")
            and not r.audit.get("repaired")
        )

    @property
    def audit_repaired(self) -> int:
        return sum(
            1
            for r in self.results
            if r.audit is not None and r.audit.get("repaired")
        )

    @property
    def cpu_s(self) -> float:
        """Summed per-job runtime (compare against ``wall_s`` for the
        parallel speedup actually realized)."""
        return sum(r.duration_s for r in self.results)

    def stage_cache_rate(self) -> Optional[float]:
        """Fraction of per-stage store probes that hit, or ``None``
        when the batch ran without a store."""
        hits = sum(
            value
            for name, value in self.metrics.counters.items()
            if name.startswith("farm.store.hit.")
        )
        misses = sum(
            value
            for name, value in self.metrics.counters.items()
            if name.startswith("farm.store.miss.")
        )
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    # -- rendering ------------------------------------------------------

    def summary_table(self) -> str:
        """The human-readable per-job table plus batch totals."""
        return summary_table(self)

    def stage_records(self) -> List[StageRecord]:
        """Per-stage records in the benchmark harness's shape."""
        records: List[StageRecord] = []
        for name in self.metrics.histogram_names:
            if not name.startswith(SPAN_PREFIX):
                continue
            stage = name[len(SPAN_PREFIX):]
            samples = self.metrics.samples(name)
            counters = {
                counter[len(stage) + 1:]: value
                for counter, value in self.metrics.counters.items()
                if counter.startswith(stage + ":")
            }
            records.append(
                StageRecord(
                    scenario=self.scenario,
                    stage=stage,
                    runs=len(samples),
                    median_s=percentile(samples, 0.50),
                    p95_s=percentile(samples, 0.95),
                    total_s=sum(samples),
                    counters=counters,
                )
            )
        records.sort(key=lambda record: record.stage)
        return records

    def to_bench_report(self) -> BenchReport:
        return BenchReport(
            stages=self.stage_records(), source="repro.farm", repeat=1
        )

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` report document."""
        return report_document(self)
