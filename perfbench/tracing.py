"""Outside-in span tracing for the benchmark's traced runs.

:func:`install` rebinds public functions of the program at every place
the program looks them up (the defining module, every module that
imported the name, or the class that owns the method), so no file of
the program changes.  Each wrapper records one span: name, start, end,
parent span and request id, plus a few attributes read off the result
(a store load hit, a valid read-set, a refused admission).

Spans stay in memory.  A process writes them when it exits, and a
worker process also writes them after every job family it answers,
because fleet workers can be terminated without running exit hooks.
:func:`load_spans` reads every span file of a trace directory back;
:func:`layer_stats` turns them into per-name counts, busy time (the
union of a name's outermost spans) and self time (a span's duration
minus the part its child spans cover).

Times are ``time.perf_counter()`` readings, which on Linux come from
the system-wide monotonic clock, so spans of different processes and
the benchmark's own timestamps share one time base.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import uuid
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Environment variable naming the directory span files go to; the
#: launcher installs the wrappers whenever it is set.
TRACE_ENV = "PERFBENCH_TRACE_DIR"

#: Reads span attributes off a call: ``(args, result) -> attrs``.
Extractor = Optional[Callable[[tuple, object], Dict[str, object]]]


def _hit(args: tuple, result: object) -> Dict[str, object]:
    return {"hit": result is not None}


def _valid(args: tuple, result: object) -> Dict[str, object]:
    return {"valid": bool(result)}


def _admitted(args: tuple, result: object) -> Dict[str, object]:
    return {"admitted": bool(result[0])}  # type: ignore[index]


def _family_of(jobs) -> Dict[str, object]:
    return {"family": jobs[0].job_id if jobs else None}


def _submitted_family(args: tuple, result: object) -> Dict[str, object]:
    # WorkerFleet.submit(self, fn, config, specification, jobs, ...)
    return _family_of(args[4]) if len(args) > 4 else {}


def _run_family(args: tuple, result: object) -> Dict[str, object]:
    # run_family(config, specification, jobs, ...)
    return _family_of(args[2])


#: (span name, defining module, attribute path, attribute extractor).
#: A dotted attribute path names a method on a class.
TARGETS: Tuple[Tuple[str, str, str, Extractor], ...] = (
    ("api.explain_batch", "repro.api", "explain_batch", None),
    ("api.resolve_inputs", "repro.api", "resolve_inputs", None),
    ("api.report_build", "repro.api", "BatchReport.from_farm_report", None),
    ("farm.report.dump", "repro.farm.report", "dump_document", None),
    ("farm.supervise.run", "repro.farm.supervise", "Supervisor.run", None),
    ("farm.worker.run_family", "repro.farm.worker", "run_family", _run_family),
    ("farm.worker.run_job", "repro.farm.worker", "run_job", None),
    ("farm.keys.job_key", "repro.farm.keys", "job_key", None),
    ("farm.store.load", "repro.farm.store", "ArtifactStore.load", _hit),
    ("farm.store.save", "repro.farm.store", "ArtifactStore.save", None),
    ("farm.invalidate.readset_valid", "repro.farm.invalidate",
     "readset_valid", _valid),
    ("farm.readset.record", "repro.farm.readset",
     "TransferRecorder.symbolic", None),
    ("farm.readset.record", "repro.farm.readset",
     "TransferRecorder.concrete", None),
    ("farm.readset.payload", "repro.farm.readset",
     "TransferRecorder.payload", None),
    ("farm.fleet.init", "repro.farm.fleet", "WorkerFleet.__init__", None),
    ("farm.fleet.submit", "repro.farm.fleet", "WorkerFleet.submit",
     _submitted_family),
    ("explain.seed", "repro.explain.seed", "extract_seed", None),
    ("synthesis.encode", "repro.synthesis.encoder", "Encoder.encode", None),
    ("explain.simplify", "repro.explain.simplifier", "simplify_seed", None),
    ("explain.project", "repro.explain.project", "project", None),
    ("bgp.simulate", "repro.bgp.simulation", "simulate", None),
    ("explain.lift", "repro.explain.lift", "lift", None),
    ("explain.family.seed_for", "repro.explain.family",
     "SharedCaches.seed_for", None),
    ("explain.family.certify", "repro.explain.family",
     "SharedCaches.certify", None),
    ("smt.sat.solve", "repro.smt.sat", "SatSolver.solve", None),
    ("audit.suite", "repro.audit.suite", "generate_suite", None),
    ("audit.oracle.truth", "repro.audit.oracle", "Oracle.truth", None),
    ("audit.adjudicate", "repro.audit.adjudicator",
     "Adjudicator.adjudicate", None),
    ("serve.http.post", "repro.serve.server", "ExplainHandler.do_POST", None),
    ("serve.http.get", "repro.serve.server", "ExplainHandler.do_GET", None),
    ("serve.tenants.admit", "repro.serve.tenants", "TenantBook.admit",
     _admitted),
    ("serve.queue.submit", "repro.serve.queue", "JobQueue.submit", None),
)

#: Spans after which a worker process writes its buffer out.
_FLUSH_AFTER = "farm.worker.run_family"


class _Recorder:
    """The process's span buffer; reset in a forked child."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.token = uuid.uuid4().hex[:8]
        self.ids = itertools.count(1)
        self.done: List[list] = []
        self.local = threading.local()
        #: Served jobs (``JobQueue.submit`` results), read at exit for
        #: their queue wait and batch time.
        self.served: List[object] = []

    def stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def flush(self) -> None:
        with self.lock:
            records, self.done = self.done, []
            records.extend(self._served_records())
        if not records:
            return
        path = os.path.join(
            self.directory, f"spans-{self.pid}-{self.token}.jsonl"
        )
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def _served_records(self) -> List[list]:
        """Queue records of the served jobs; ``end`` is the dispatch
        time, ``None`` for a job never dispatched."""
        records = [
            ["serve.queue.job", job.submitted_at, job.started_at, None, job.id,
             {"tenant": job.tenant, "finished": job.finished_at}, None]
            for job in self.served
        ]
        self.served = []
        return records


_RECORDER: Optional[_Recorder] = None


def _wrap(name: str, fn: Callable, extract: Extractor) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        recorder = _RECORDER
        stack = recorder.stack()
        parent, rid = stack[-1] if stack else (None, None)
        span_id = next(recorder.ids)
        if rid is None:
            rid = f"{recorder.pid}:{span_id}"
        stack.append((span_id, rid))
        attrs = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if extract is not None:
                attrs = extract(args, result)
            if name == "serve.queue.submit":
                recorder.served.append(result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            recorder.done.append([name, start, end, parent, rid, attrs, span_id])
            if name == _FLUSH_AFTER and not stack:
                recorder.flush()

    return traced


def _rebind(original: object, wrapper: object) -> None:
    """Point every loaded program module's reference at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _import_program() -> None:
    for module in ("repro.api", "repro.serve", "repro.audit", "repro.cli"):
        importlib.import_module(module)


def install(directory: str) -> None:
    """Wrap every target and start recording into ``directory``."""
    global _RECORDER
    if _RECORDER is not None:
        return
    os.makedirs(directory, exist_ok=True)
    _RECORDER = _Recorder(directory)
    started = time.perf_counter()
    _import_program()
    _RECORDER.done.append(
        ["process.import", started, time.perf_counter(), None, None, None,
         next(_RECORDER.ids)]
    )
    for name, module_name, path, extract in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(name, raw.__func__, extract)))
            else:
                setattr(owner, attr, _wrap(name, raw, extract))
        else:
            original = getattr(module, attr)
            _rebind(original, _wrap(name, original, extract))
    os.register_at_fork(after_in_child=_RECORDER._reset)
    atexit.register(_RECORDER.flush)


# ---------------------------------------------------------------------------
# Reading spans back


class Span:
    __slots__ = ("name", "start", "end", "parent", "rid", "attrs", "sid", "proc")

    def __init__(self, record: list, proc: str) -> None:
        (self.name, self.start, self.end, self.parent, self.rid,
         self.attrs, self.sid) = record
        self.attrs = self.attrs or {}
        self.proc = proc

    @property
    def duration(self) -> float:
        return self.end - self.start


def load_spans(directory: str) -> List[Span]:
    spans: List[Span] = []
    if not os.path.isdir(directory):
        return spans
    for entry in sorted(os.listdir(directory)):
        if not entry.startswith("spans-"):
            continue
        proc = entry[len("spans-"):-len(".jsonl")]
        with open(os.path.join(directory, entry), encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    spans.append(Span(json.loads(line), proc))
    return spans


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def layer_stats(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``busy_s`` and ``self_s``.

    ``busy_s`` sums the union of each process's spans of that name, so
    nested or concurrent spans of one name count once; ``self_s`` sums
    every span's duration minus the union of its children.
    """
    timed = [span for span in spans if span.end is not None and span.sid]
    by_key = {(span.proc, span.sid): span for span in timed}
    children: Dict[Tuple[str, int], List[Span]] = defaultdict(list)
    for span in timed:
        if span.parent is not None:
            children[(span.proc, span.parent)].append(span)
    intervals: Dict[Tuple[str, str], List[Tuple[float, float]]] = defaultdict(list)
    stats: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for key, span in by_key.items():
        entry = stats[span.name]
        entry["count"] += 1
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(key, ())
        )
        entry["self_s"] += span.duration - covered
        intervals[(span.name, span.proc)].append((span.start, span.end))
    for (name, _proc), spans_of in intervals.items():
        stats[name]["busy_s"] += union_length(spans_of)
    return dict(stats)
