"""What the benchmark's workloads share: launching the program, checking answers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import procs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
#: Longest one launcher process may take before it counts as failed.
PROCESS_TIMEOUT_S = 120.0


@dataclass
class Tally:
    """Attempted and failed jobs (or requests) over a whole run."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def program_env(trace_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop(tracing.TRACE_ENV, None)
    if trace_dir is not None:
        env[tracing.TRACE_ENV] = trace_dir
    return env


def compile_program() -> None:
    """Byte-compile the program so timed imports do not compile."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
        check=True, stdout=subprocess.DEVNULL,
    )


def launch_batch(
    payloads: List[dict], work: str, tag: str, trace_dir: Optional[str] = None
) -> Tuple[procs.Run, Optional[dict]]:
    requests = os.path.join(work, f"{tag}.requests.json")
    out = os.path.join(work, f"{tag}.out.json")
    with open(requests, "w", encoding="utf-8") as handle:
        json.dump(payloads, handle)
    outcome = procs.run(
        [sys.executable, LAUNCH, "batch", requests, out],
        program_env(trace_dir), ROOT, PROCESS_TIMEOUT_S,
    )
    if outcome.returncode != 0 or not os.path.exists(out):
        return outcome, None
    with open(out, encoding="utf-8") as handle:
        return outcome, json.load(handle)


def check_jobs(
    batch: dict, expected: Dict[str, dict], status: str, audit: bool,
    tally: Tally, label: str,
) -> int:
    """Count the batch's correct jobs; every other expected job fails."""
    got = {job["job_id"]: job for job in batch["jobs"]}
    correct = 0
    for job_id, want in expected.items():
        job = got.get(job_id)
        if job is None:
            tally.fail(f"{label}: {job_id} missing")
        elif job["status"] != status:
            tally.fail(f"{label}: {job_id} status {job['status']} != {status}")
        elif job["subspec"] != want["subspec"]:
            tally.fail(f"{label}: {job_id} subspec differs from expected.json")
        elif audit and job["verdict"] != "confirmed":
            tally.fail(f"{label}: {job_id} audit verdict {job['verdict']}")
        else:
            correct += 1
    for job_id in set(got) - set(expected):
        tally.fail(f"{label}: unexpected job {job_id}")
    return correct
