"""One dispatch loop: every backend, and ``--since``, through the supervisor.

The supervisor runs a batch in this thread (``-j 1``), on a per-batch
process pool (``-j N``) or on a long-lived worker fleet.  Whichever it
is, one batch must come out the same: statuses, subspecs, keys,
explanation payloads and journal records, timings aside.  An
incremental (``since``) batch is a pre-filter in front of the same
loop, so it gets progress events, the drain, retries and the fleet.
"""

import glob
import json
import threading

import pytest

from repro import api
from repro.bgp.render import render_network
from repro.farm import enumerate_jobs
from repro.farm.fleet import WorkerFleet
from repro.farm.keys import canonical_json
from repro.farm.supervise import SupervisePolicy, run_incremental, run_supervised
from repro.runtime import ChaosPlan

from .test_pool import _renumber_r2


def _outcome(report):
    """job id -> everything a run decides about the job, timings aside."""
    return {
        r.job.job_id: (
            r.status,
            r.subspec,
            r.key,
            r.attempts,
            canonical_json({**r.explanation, "timings": {}}),
        )
        for r in report.results
    }


def _journal(cache_dir):
    """(header, job -> settled record without its duration)."""
    (path,) = glob.glob(f"{cache_dir}/journal/*.jsonl")
    with open(path, encoding="ascii") as handle:
        header, *lines = [json.loads(line) for line in handle]
    records = {}
    for line in lines:
        done = dict(line["done"])
        done.pop("duration_s")
        records[canonical_json(done["job"])] = done
    return header, records


def test_backends_agree(s1, tmp_path):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)

    def run(name, workers=1, fleet=None):
        cache = str(tmp_path / name)
        report = run_supervised(
            s1.paper_config, s1.specification, jobs, cache_dir=cache,
            workers=workers, fleet=fleet,
        )
        return _outcome(report), _journal(cache)

    inline = run("inline")
    pool = run("pool", workers=2)
    with WorkerFleet(2) as fleet:
        fleet_run = run("fleet", workers=2, fleet=fleet)
        assert fleet.stats().tasks_done >= 1
    assert len(inline[0]) == len(jobs)
    assert all(status == "EXACT" for status, *_ in inline[0].values())
    assert pool == inline
    assert fleet_run == inline


# -- since through the supervisor ---------------------------------------


@pytest.fixture()
def warm(s1, tmp_path):
    """A cache warmed on scenario1's per-line jobs, and an old config
    under which R2's jobs are dirty and R1's clean."""
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    cache = str(tmp_path / "cache")
    run_supervised(s1.paper_config, s1.specification, jobs, cache_dir=cache)
    return jobs, cache, _renumber_r2(s1.paper_config)


def test_since_reports_every_job_through_progress(s1, warm):
    jobs, cache, old = warm
    seen = []
    report = run_incremental(
        old, s1.paper_config, s1.specification, jobs, cache_dir=cache,
        progress=seen.append,
    )
    counters = report.metrics.counters
    assert counters["farm.incremental.dirty"] >= 1
    assert counters["farm.incremental.clean"] >= 1
    assert sorted(r.job.job_id for r in seen) == sorted(j.job_id for j in jobs)
    assert [r.job for r in report.results] == jobs


def test_since_drains_on_stop(s1, warm):
    jobs, cache, old = warm
    stop = threading.Event()
    seen = []

    def progress(result):
        seen.append(result)
        stop.set()

    report = run_incremental(
        old, s1.paper_config, s1.specification, jobs, cache_dir=cache,
        progress=progress, stop=stop,
    )
    # The first settled job requests the drain: nothing after it runs.
    assert len(seen) == 1 and len(report.results) == 1
    assert report.metrics.counters["farm.supervise.drained"] == len(jobs) - 1


def test_since_retries_a_transient_error_on_a_dirty_job(s1, warm):
    jobs, cache, old = warm
    dirty = next(job for job in jobs if job.device == "R2")
    report = run_incremental(
        old, s1.paper_config, s1.specification, jobs, cache_dir=cache,
        policy=SupervisePolicy(
            backoff_base=0.0, chaos=ChaosPlan.parse(f"flaky@{dirty.job_id}")
        ),
    )
    assert report.failed == 0 and len(report.results) == len(jobs)
    by_id = {r.job.job_id: r for r in report.results}
    assert by_id[dirty.job_id].attempts == 2
    assert report.metrics.counters["farm.supervise.retry"] == 1


def test_served_since_request_runs_on_the_fleet(s1, warm):
    jobs, cache, old = warm
    request = api.ExplainRequest(
        scenario="scenario1", per_line=True, cache_dir=cache, workers=2,
        since=render_network(old),
    )
    seen = []
    with WorkerFleet(2) as fleet:
        report = api.explain_batch(request, progress=seen.append, fleet=fleet)
        assert fleet.stats().tasks_done >= 1
    assert len(seen) == len(jobs) == len(report.results)
    assert all(result.ok for result in report.results)
    assert report.document["counters"]["farm.incremental.clean"] >= 1
