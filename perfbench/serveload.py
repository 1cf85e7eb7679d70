"""The warm-serve workload: ``repro serve`` under burst and paced load.

Set-up fills the server's store with direct ``explain_batch`` runs (the
second of which gives the reference document of every request kind),
starts ``repro serve`` with a warm fleet and sends each kind once from
a warm-up tenant.  Two timed phases follow:

* ``burst`` -- :data:`BURST_REQUESTS` requests due at the same instant;
* ``paced`` -- an open loop of :data:`PACED_REQUESTS` requests at
  :data:`PACED_RATE` per second with seeded exponential gaps.

The load generator is this one process with two threads on two
connections: one submits on the schedule, the other follows
completions by polling ``GET /v1/jobs`` every :data:`POLL_S` seconds.
Latency runs from each request's due time to the poll that first sees
it finished, so a server that stalls a submit charges the stall to
every request it delays.  Each tenant's first request arrives inside a timed
phase; no tenant is registered ahead of time.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import harness
import layers
import procs
import tracing
from workloads import WORKERS

#: (scenario, per_line) request kinds of the mix.
KINDS: Tuple[Tuple[str, bool], ...] = (
    ("scenario1", False), ("scenario1", True),
    ("campus", False), ("campus", True),
    ("scenario2", True), ("scenario3", True),
)
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
WARMUP_TENANT = "warmup"

BURST_REQUESTS = 24
PACED_REQUESTS = 100
#: Paced arrivals per second; see NOTES.md for how it was derived.
PACED_RATE = 2.0
#: The paced phase's latency limit on ``latency_tail_s`` and per request.
LATENCY_LIMIT_S = 2.0
#: Percentile ``latency_tail_s`` reports: 10 of 100 samples lie beyond.
TAIL_PERCENTILE = 90.0
#: A request not finished this long after its due time has failed.
DEADLINE_S = 30.0
#: Completion poll period of the follower thread.
POLL_S = 0.02
#: A run whose generator itself sent a request later than this is void.
LAG_BOUND_S = 0.1

TENANT_CONFIG = {
    "schema": "repro-serve-tenants/1",
    # Raises the rate limits so the offered load is admitted; the
    # worker cap is the CLI's default.
    "tenants": {"default": {"rate": 1000.0, "burst": 1000, "max_workers": WORKERS}},
}


def _payload(kind: Tuple[str, bool]) -> dict:
    scenario, per_line = kind
    return {"schema": "repro-api-request/1", "scenario": scenario,
            "per_line": per_line, "workers": WORKERS}


def _level(kind: Tuple[str, bool]) -> str:
    return "per_line" if kind[1] else "router"


@dataclass
class Request:
    due: float
    kind: Tuple[str, bool]
    tenant: str
    sent: Optional[float] = None
    #: How late the generator itself sent: past the due time or past
    #: the previous submit's return, whichever is later.  A server
    #: that stalls a submit delays the next send too, but that wait is
    #: the server's and shows in latency, which runs from the due time.
    lag: Optional[float] = None
    code: Optional[int] = None
    job: Optional[str] = None
    done: Optional[float] = None
    status: Optional[dict] = None

    @property
    def latency(self) -> Optional[float]:
        return None if self.done is None else self.done - self.due


class Client:
    """One keep-alive connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE_S)

    def call(self, method: str, path: str, body: Optional[dict] = None,
             tenant: Optional[str] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Tenant"] = tenant
        data = json.dumps(body).encode() if body is not None else None
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=DEADLINE_S
            )
            return 0, b""

    def close(self) -> None:
        self.conn.close()


def drive(port: int, requests: List[Request]) -> None:
    """Submit ``requests`` on schedule and follow them to completion."""
    lock = threading.Lock()
    submitted = threading.Event()

    def submit() -> None:
        client = Client(port)
        free = 0.0  # when the previous submit returned
        try:
            for request in requests:
                delay = request.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request.sent = time.perf_counter()
                request.lag = request.sent - max(request.due, free)
                code, body = client.call(
                    "POST", "/v1/jobs", _payload(request.kind), request.tenant
                )
                free = time.perf_counter()
                with lock:
                    request.code = code
                    if code == 202:
                        request.job = json.loads(body)["id"]
        finally:
            client.close()
            submitted.set()

    def follow() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    open_ = [
                        r for r in requests
                        if r.done is None
                        and (r.code is None or r.code == 202)
                        and time.perf_counter() < r.due + DEADLINE_S
                    ]
                if not open_ and submitted.is_set():
                    return
                code, body = client.call("GET", "/v1/jobs")
                seen = time.perf_counter()
                if code == 200:
                    statuses = {s["id"]: s for s in json.loads(body)["jobs"]}
                    with lock:
                        for request in open_:
                            status = statuses.get(request.job)
                            if status is not None and status["state"] in (
                                "DONE", "FAILED", "DRAINED"
                            ):
                                request.done = seen
                                request.status = status
                time.sleep(POLL_S)
        finally:
            client.close()

    threads = [threading.Thread(target=submit), threading.Thread(target=follow)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _normalized(document: dict) -> str:
    from repro.farm.report import dump_document, normalize_document

    return dump_document(normalize_document(document))


class Server:
    """``repro serve`` as a child process; :meth:`stop` drains it with SIGTERM."""

    def __init__(self, work: str, store: str, trace_dir: Optional[str]) -> None:
        self.port = _free_port()
        config = os.path.join(work, "tenants.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump(TENANT_CONFIG, handle)
        self.log = open(os.path.join(work, "serve.log"), "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, harness.LAUNCH, "serve", "--port", str(self.port),
             "--cache-dir", store, "--fleet-workers", str(WORKERS),
             "--concurrency", str(WORKERS), "--tenant-config", config],
            env=harness.program_env(trace_dir), cwd=harness.ROOT,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        client = Client(self.port)
        deadline = time.perf_counter() + 60
        try:
            while client.call("GET", "/v1/healthz")[0] != 200:
                if self.process.poll() is not None or time.perf_counter() > deadline:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.05)
        finally:
            client.close()

    def stop(self) -> str:
        """Stop the server; returns its exceptions, if it logged any."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                procs.kill_tree(self.process)
        self.log.close()
        with open(self.log.name, encoding="utf-8") as handle:
            errors = [line for line in handle if "Error" in line]
        return "".join(errors)


def _schedule(rng: random.Random, start: float) -> Tuple[List[Request], List[Request]]:
    burst = [
        Request(start, rng.choice(KINDS), rng.choice(TENANTS))
        for _ in range(BURST_REQUESTS)
    ]
    paced, due = [], 0.0
    for _ in range(PACED_REQUESTS):
        due += rng.expovariate(PACED_RATE)
        paced.append(Request(due, rng.choice(KINDS), rng.choice(TENANTS)))
    return burst, paced


def _session(seed: int, work: str, expected: dict, tally, trace: bool) -> dict:
    """One set-up plus both timed phases; returns what was measured."""
    store = os.path.join(work, "store")
    trace_dir = os.path.join(work, "trace") if trace else None
    setup_started = time.perf_counter()
    payloads = [dict(_payload(kind), cache_dir=store) for kind in KINDS]
    references: Dict[Tuple[str, bool], str] = {}
    for tag, status in (("fill", "EXACT"), ("reference", "CACHED")):
        outcome, out = harness.launch_batch(payloads, work, tag)
        if out is None:
            raise SystemExit(f"warm-serve {tag} failed:\n{outcome.stderr}")
        checked = harness.Tally()
        for kind, batch in zip(KINDS, out["batches"]):
            want = expected[kind[0]][_level(kind)]
            harness.check_jobs(batch, want, status, False, checked, f"{tag} {kind}")
            references[kind] = batch["document"]
        if checked.failed:
            raise SystemExit("warm-serve set-up answers are wrong:\n"
                             + "\n".join(checked.problems))
    server = Server(work, store, trace_dir)
    try:
        warmup = [Request(time.perf_counter(), kind, WARMUP_TENANT) for kind in KINDS]
        drive(server.port, warmup)
        if any(r.done is None for r in warmup):
            raise SystemExit("warm-serve warm-up did not complete")
        rng = random.Random(seed)
        start = time.perf_counter()
        setup_s = start - setup_started
        burst, paced = _schedule(rng, start)
        sampler = procs.TreeSampler(server.process.pid)
        cpu_before = procs.tree_cpu(server.process.pid)
        drive(server.port, burst)
        paced_start = time.perf_counter()
        for request in paced:
            request.due += paced_start
        drive(server.port, paced)
        end = time.perf_counter()
        cpu = procs.tree_cpu(server.process.pid) - cpu_before
        peak = sampler.stop()
        retries = _check(server.port, burst + paced, references, tally)
    finally:
        errors = server.stop()
    if errors:
        print(f"repro serve logged:\n{errors}", file=sys.stderr)
    return {
        "setup_s": setup_s, "start": start, "end": end, "cpu": cpu,
        "retries": retries,
        "peak": peak, "burst": burst, "paced": paced, "trace_dir": trace_dir,
    }


def _check(port: int, requests: List[Request], references, tally) -> int:
    """Fail every request that did not end in the reference document.

    Returns the supervisor retries the served documents count.
    """
    retries = 0
    client = Client(port)
    try:
        for request in requests:
            tally.attempted += 1
            label = f"{request.tenant} {request.kind} {request.job}"
            if request.code != 202:
                tally.fail(f"{label}: submit answered {request.code}")
            elif request.done is None:
                tally.fail(f"{label}: not finished within {DEADLINE_S}s")
            elif request.status["state"] != "DONE" or request.status["exit_code"] != 0:
                tally.fail(f"{label}: {request.status['state']} "
                           f"exit {request.status['exit_code']}")
            else:
                code, body = client.call("GET", f"/v1/jobs/{request.job}/result")
                document = json.loads(body) if code == 200 else {}
                retries += document.get("counters", {}).get("farm.supervise.retry", 0)
                if code == 200 and _normalized(document) == references[request.kind]:
                    continue
                tally.fail(f"{label}: served document differs from direct run")
            request.done = None  # failed requests have no latency
    finally:
        client.close()
    return retries


def run_warm_serve(
    seed: int, trace: int, work: str, expected: dict, tally
) -> Optional[Dict[str, float]]:
    """warm-serve's metrics, or ``None`` for a void run.

    A traced run first measures one untraced session, whose burst sets
    the baseline of ``trace.overhead_frac``.
    """
    sys.path.insert(0, os.path.join(harness.ROOT, "src"))
    if trace:
        plain = _session(seed, work, expected, tally, trace=False)
        _reset_work(work)
    measured = _session(seed, work, expected, tally, trace=bool(trace))
    paced = measured["paced"]
    lag = max((r.lag for r in paced if r.lag is not None), default=0.0)
    if lag > LAG_BOUND_S:
        print(f"warm-serve: void run, generator lagged {lag:.3f}s "
              f"(bound {LAG_BOUND_S}s)", file=sys.stderr)
        return None
    burst = measured["burst"]
    burst_wall = _burst_wall(measured)
    latencies = [r.latency for r in paced if r.latency is not None]
    completed = [r for r in burst + paced if r.done is not None]
    jobs = sum(r.status["total"] for r in completed)
    if trace:
        spans = tracing.load_spans(measured["trace_dir"])
        jobs_ids = {r.job for r in burst + paced if r.job is not None}
        served = [s for s in spans if s.name == "serve.queue.job" and s.rid in jobs_ids]
        return layers.compute(
            spans, cycles=1, workers=WORKERS,
            measured_wall_s=measured["end"] - measured["start"],
            served=served, since=measured["start"],
            extra={
                "farm.supervise.retries": measured["retries"],
                "loadgen.lag_max_s": lag,
                "loadgen.sent": sum(1 for r in burst + paced if r.sent is not None),
                "loadgen.completed": len(completed),
                "trace.overhead_frac": burst_wall / _burst_wall(plain) - 1.0
                if _burst_wall(plain) else 0.0,
            },
        )
    misses = sum(
        1 for r in paced if r.latency is None or r.latency > LATENCY_LIMIT_S
    )
    return {
        "burst_rps": sum(1 for r in burst if r.done is not None) / burst_wall
        if burst_wall else 0.0,
        "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_s": layers.percentile(latencies, TAIL_PERCENTILE)
        if latencies else 0.0,
        "slo_miss_frac": misses / len(paced),
        "cpu_per_job_s": measured["cpu"] / max(1, jobs),
        "peak_rss_mb": measured["peak"] / 2**20,
        "setup_s": measured["setup_s"],
        "fail_frac": tally.failed / max(1, tally.attempted),
    }


def _burst_wall(measured: dict) -> float:
    """Seconds from the burst's start to its last completion."""
    done = [r.done for r in measured["burst"] if r.done is not None]
    return max(done) - measured["start"] if done else 0.0


def _reset_work(work: str) -> None:
    for entry in os.listdir(work):
        path = os.path.join(work, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)
