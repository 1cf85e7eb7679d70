"""The repository benchmark: one command, every workload, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-perline --seed 1 --seconds 30 --trace 0

Workloads (see NOTES.md for why each exists and what it loads):

* ``cold-perline`` -- per-line jobs of the four inputs, each input in a
  fresh interpreter against a new empty store, then re-run against the
  filled store.
* ``cold-audit`` -- router-level jobs of the four inputs with the
  adversarial audit on, the same two passes.
* ``warm-serve`` -- the HTTP service under a burst and a paced open
  loop from four tenants; every job is a cache hit.

The command repeats its workload for ``--seconds``, checks every answer
against ``expected.json`` (and, for warm-serve, every served document
against a direct ``repro.api.explain_batch`` document), prints each
metric as ``name value unit`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs
the program through span wrappers and reports per-layer metrics
instead.  A wrong answer makes the command exit 1 after printing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import procs  # noqa: E402
import tracing  # noqa: E402
from harness import (  # noqa: E402
    HERE, LAUNCH, PROCESS_TIMEOUT_S, ROOT, Tally, check_jobs, compile_program,
    launch_batch, program_env,
)
from workloads import INPUTS, WORKERS  # noqa: E402

WORKLOADS = ("cold-perline", "cold-audit", "warm-serve")

#: Fresh-interpreter set-up probes before the first cycle; one more
#: runs before every cycle, so the median spans the whole run.
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "rerun_jobs_per_s": "jobs/s",
    "cpu_per_job_s": "s/job",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "fail_frac": "fraction",
    "burst_rps": "req/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "slo_miss_frac": "fraction",
}


def probe(scenarios) -> float:
    """Wall of one fresh interpreter that only imports and resolves inputs."""
    outcome = procs.run(
        [sys.executable, LAUNCH, "probe", *scenarios],
        program_env(), ROOT, PROCESS_TIMEOUT_S,
    )
    if outcome.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{outcome.stderr}")
    return outcome.wall_s


# ---------------------------------------------------------------------------
# The cold workloads


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss: int = 0
    correct: int = 0
    jobs: int = 0
    retries: int = 0


class ColdWorkload:
    """One input per fresh interpreter: a cold pass, then a re-run."""

    def __init__(self, name: str, seed: int, work: str, expected: dict) -> None:
        self.per_line = name == "cold-perline"
        self.level = "per_line" if self.per_line else "router"
        self.audit = not self.per_line
        self.seed = seed
        self.work = work
        self.expected = expected
        # The seed only permutes the input order (and seeds the audit).
        self.order = list(INPUTS)
        random.Random(seed).shuffle(self.order)
        self.cycles = 0

    def _payload(self, scenario: str, store: str) -> dict:
        payload = {"scenario": scenario, "per_line": self.per_line,
                   "workers": WORKERS, "cache_dir": store}
        if self.audit:
            payload.update(audit=True, audit_seed=self.seed)
        return payload

    def _pass(self, stores, status, tally, trace_dir, tag) -> Pass:
        result = Pass()
        for scenario in self.order:
            want = self.expected[scenario][self.level]
            tally.attempted += len(want)
            result.jobs += len(want)
            outcome, out = launch_batch(
                [self._payload(scenario, stores[scenario])], self.work,
                f"{tag}-{scenario}", trace_dir,
            )
            result.wall_s += outcome.wall_s
            result.cpu_s += outcome.cpu_s
            result.peak_rss = max(result.peak_rss, outcome.peak_rss)
            if out is None:
                tally.fail(
                    f"{tag} {scenario}: exit {outcome.returncode}: "
                    f"{outcome.stderr.strip()[-400:]}",
                    len(want),
                )
                continue
            result.retries += out["batches"][0]["retries"]
            result.correct += check_jobs(
                out["batches"][0], want, status, self.audit, tally,
                f"{tag} {scenario}",
            )
        return result

    def cycle(self, tally: Tally, trace_dir: Optional[str] = None) -> Tuple[Pass, Pass]:
        self.cycles += 1
        tag = f"c{self.cycles}"
        stores = {}
        for scenario in self.order:
            stores[scenario] = os.path.join(self.work, f"{tag}-store-{scenario}")
            os.makedirs(stores[scenario])
        cold = self._pass(stores, "EXACT", tally, trace_dir, f"{tag}-cold")
        rerun = self._pass(stores, "CACHED", tally, trace_dir, f"{tag}-rerun")
        for store in stores.values():
            shutil.rmtree(store, ignore_errors=True)
        return cold, rerun


def run_cold(args, work: str, expected: dict, tally: Tally) -> Dict[str, float]:
    workload = ColdWorkload(args.workload, args.seed, work, expected)
    if not args.trace:
        setups = [probe(workload.order) for _ in range(SETUP_PROBES)]
        started = time.perf_counter()
        cycles = []
        while not cycles or time.perf_counter() - started < args.seconds:
            setups.append(probe(workload.order))
            cycles.append(workload.cycle(tally))
        return {
            "jobs_per_s": statistics.median(c.correct / c.wall_s for c, _ in cycles),
            "rerun_jobs_per_s": statistics.median(r.correct / r.wall_s for _, r in cycles),
            "cpu_per_job_s": statistics.median(c.cpu_s / c.jobs for c, _ in cycles),
            "peak_rss_mb": statistics.median(
                max(c.peak_rss, r.peak_rss) / 2**20 for c, r in cycles
            ),
            "setup_s": statistics.median(setups),
            "fail_frac": tally.failed / max(1, tally.attempted),
        }
    # Traced: untraced cycles alternate with traced ones and set the
    # baseline of the tracing overhead.
    started = time.perf_counter()
    trace_dir = os.path.join(work, "trace")
    plain: List[Pass] = []
    traced: List[Tuple[Pass, Pass]] = []
    while not traced or time.perf_counter() - started < args.seconds:
        plain.append(workload.cycle(tally)[0])
        traced.append(workload.cycle(tally, trace_dir))
    cold_wall = statistics.median(c.wall_s for c, _ in traced)
    plain_wall = statistics.median(c.wall_s for c in plain)
    return layers.compute(
        tracing.load_spans(trace_dir),
        cycles=len(traced),
        workers=WORKERS,
        measured_wall_s=sum(c.wall_s + r.wall_s for c, r in traced),
        extra={
            "trace.overhead_frac": cold_wall / plain_wall - 1.0,
            "farm.supervise.retries":
                sum(c.retries + r.retries for c, r in traced) / len(traced),
        },
    )


# ---------------------------------------------------------------------------


def emit(metrics: Dict[str, float], units: Dict[str, str], tally: Tally) -> None:
    """Print every metric, then the result line.

    ``fail_frac`` is printed but left out of the result line, whose
    ``attempted`` and ``failed`` carry it.
    """
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name != "fail_frac"
        },
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api.py")):
        print("perfbench: no program source under src/; nothing to measure",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    try:
        compile_program()
        if args.workload == "warm-serve":
            import serveload

            metrics = serveload.run_warm_serve(args.seed, args.trace, work, expected, tally)
        else:
            metrics = run_cold(args, work, expected, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:  # a voided run prints no result
        return 3
    units = (
        dict(layers.PER_LAYER) if args.trace else END_TO_END_UNITS
    )
    emit(metrics, units, tally)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
