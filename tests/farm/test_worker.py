"""The per-job runner: isolation, degradation, cache interaction."""

import pickle

from repro.farm import ExplainJob, FarmOptions, enumerate_jobs, run_job
from repro.farm.supervise import run_supervised


def test_failing_job_is_contained(s1):
    """A device with nothing to symbolize errors out by itself."""
    result = run_job(s1.paper_config, s1.specification, ExplainJob("R3"))
    assert result.status == "ERROR"
    assert result.error is not None and "R3" in result.error
    assert result.key is None and result.explanation is None


def test_failing_job_does_not_kill_the_batch(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    poisoned = jobs + [ExplainJob("R3")]
    report = run_supervised(s1.paper_config, s1.specification, poisoned)
    assert report.failed == 1
    assert report.completed == len(jobs)


def test_job_result_is_picklable(s1, tmp_path):
    result = run_job(
        s1.paper_config, s1.specification,
        ExplainJob("R1", requirement="Req1"),
        FarmOptions(), str(tmp_path),
    )
    clone = pickle.loads(pickle.dumps(result))
    assert clone.job == result.job
    assert clone.explanation == result.explanation
    assert clone.metrics.counters == result.metrics.counters


def test_degraded_answers_are_never_cached(s1, tmp_path):
    job = ExplainJob("R1", requirement="Req1")
    starved = run_job(
        s1.paper_config, s1.specification, job, FarmOptions(),
        str(tmp_path), budget=20,
    )
    assert starved.degraded and not starved.cached
    # The next run must not be served the truncated answer.
    rerun = run_job(
        s1.paper_config, s1.specification, job, FarmOptions(), str(tmp_path)
    )
    assert rerun.status == "EXACT" and not rerun.cached


def test_partial_stage_hits_resume_mid_pipeline(s1, tmp_path):
    """Deleting only the final artifacts forces a re-run that resumes
    from the persisted intermediate stages."""
    import os

    from repro.farm import ArtifactStore, job_key

    job = ExplainJob("R1", requirement="Req1")
    options = FarmOptions()
    first = run_job(
        s1.paper_config, s1.specification, job, options, str(tmp_path)
    )
    key = job_key(s1.paper_config, s1.specification, job, options)
    store = ArtifactStore(str(tmp_path))
    os.unlink(store.path_for(key, "explanation"))
    os.unlink(store.path_for(key, "readset"))

    second = run_job(
        s1.paper_config, s1.specification, job, options, str(tmp_path)
    )
    assert second.status == "EXACT" and not second.cached
    hits = {
        name: value
        for name, value in second.metrics.counters.items()
        if name.startswith("farm.store.hit.")
    }
    assert set(hits) >= {
        "farm.store.hit.simplify",
        "farm.store.hit.projected",
        "farm.store.hit.lift",
    }
    assert {**first.explanation, "timings": {}} == {
        **second.explanation, "timings": {},
    }



def test_engine_without_store_builds_no_stage_payloads(s1, monkeypatch):
    """Stage payloads exist only to be stored: an engine with no stage
    store must not serialize its intermediate artifacts."""
    import repro.explain.serialize as serialize
    from repro.explain import ExplanationEngine

    def forbidden(*args, **kwargs):
        raise AssertionError("built a stage payload nothing stores")

    for name in ("simplified_to_dict", "projected_to_dict", "lift_result_to_dict"):
        monkeypatch.setattr(serialize, name, forbidden)
    engine = ExplanationEngine(s1.paper_config, s1.specification)
    explanation = engine.explain_router("R1", requirement="Req1")
    assert explanation.status.value == "EXACT"


def test_job_without_store_records_no_read_set(s1, monkeypatch):
    import repro.farm.worker as worker

    def forbidden(*args, **kwargs):
        raise AssertionError("recorded a read-set nothing stores")

    monkeypatch.setattr(worker, "TransferRecorder", forbidden)
    result = run_job(
        s1.paper_config, s1.specification, ExplainJob("R1", requirement="Req1")
    )
    assert result.status == "EXACT"
