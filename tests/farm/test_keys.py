"""Content-addressed job keys: determinism and sensitivity."""

from repro.bgp.routemap import RouteMap, RouteMapLine
from repro.farm import ExplainJob, FarmOptions, enumerate_jobs, job_key
from repro.farm.keys import (
    canonical_digest,
    canonical_json,
    digest,
    spliced_json,
    spliced_member,
    text_digest,
)


def _renumber(config, router, direction, neighbor, offset):
    """A copy of ``config`` with one map's line seqs shifted by
    ``offset`` (order-preserving, behavior-preserving)."""
    edited = config.copy()
    routemap = edited.get_map(router, direction, neighbor)
    lines = tuple(
        RouteMapLine(
            seq=line.seq + offset,
            action=line.action,
            match_attr=line.match_attr,
            match_value=line.match_value,
            sets=line.sets,
        )
        for line in routemap.lines
    )
    edited.set_map(router, direction, neighbor, RouteMap(routemap.name, lines))
    return edited


def test_canonical_json_is_order_independent():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert digest({"b": 1, "a": 2}) == digest({"a": 2, "b": 1})


def test_spliced_json_equals_canonical_json_of_the_whole():
    value = {"é": ['"q"\n', None, 1.5], "b": {}}
    text, sha = canonical_digest(value)
    assert (text, sha) == (canonical_json(value), digest(value))
    fields = {"zeta": "Zürich", "a\"b": 3, "m": [True], "payload0": "x"}
    assert spliced_json(fields, "payload", text) == canonical_json(
        {**fields, "payload": value}
    )


def test_spliced_member_inverts_spliced_json():
    value = {"é": ['"q"\n', None, 1.5], "b": {}}
    text, sha = canonical_digest(value)
    assert text_digest(text) == sha
    fields = {"zeta": "Zürich", "a\"b": 3, "payload0": "x"}
    whole = spliced_json(fields, "payload", text)
    assert spliced_member(whole, fields, "payload") == text
    # Another member's value, a missing member or non-canonical
    # framing is not the same document.
    assert spliced_member(whole, {**fields, "zeta": "Zurich"}, "payload") is None
    assert spliced_member(whole, {"zeta": "Zürich"}, "payload") is None
    assert spliced_member(whole.replace(":", ": ", 1), fields, "payload") is None
    assert spliced_member(spliced_json(fields, "payload", ""), fields, "payload") is None


def test_job_key_is_deterministic(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    options = FarmOptions()
    first = job_key(s1.paper_config, s1.specification, job, options)
    second = job_key(s1.paper_config, s1.specification, job, options)
    assert first == second
    assert len(first) == 64 and set(first) <= set("0123456789abcdef")


def test_job_key_separates_jobs_and_options(s1):
    options = FarmOptions()
    r1 = job_key(
        s1.paper_config, s1.specification, ExplainJob("R1", requirement="Req1"), options
    )
    r2 = job_key(
        s1.paper_config, s1.specification, ExplainJob("R2", requirement="Req1"), options
    )
    assert r1 != r2
    tighter = FarmOptions(projection_limit=16)
    assert r1 != job_key(
        s1.paper_config, s1.specification, ExplainJob("R1", requirement="Req1"), tighter
    )


def test_job_key_ignores_other_routers_config(s1):
    """Editing R2 must not move R1's cache slot (that dependency is
    tracked by the read-set, not the key)."""
    job = ExplainJob(device="R1", requirement="Req1")
    options = FarmOptions()
    before = job_key(s1.paper_config, s1.specification, job, options)
    edited = _renumber(s1.paper_config, "R2", "out", "P2", 7)
    assert job_key(edited, s1.specification, job, options) == before


def test_job_key_tracks_own_config(s1):
    job = ExplainJob(device="R2", requirement="Req1")
    options = FarmOptions()
    before = job_key(s1.paper_config, s1.specification, job, options)
    edited = _renumber(s1.paper_config, "R2", "out", "P2", 7)
    assert job_key(edited, s1.specification, job, options) != before


def test_enumerate_jobs_skips_unsymbolizable_routers(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification)
    devices = {job.device for job in jobs}
    # R3 is managed but carries no route-map lines in scenario 1.
    assert devices == {"R1", "R2"}
    assert [job.job_id for job in jobs] == sorted(job.job_id for job in jobs)


def test_enumerate_jobs_per_line(s1):
    jobs = enumerate_jobs(s1.paper_config, s1.specification, per_line=True)
    assert all(job.granularity == "line" for job in jobs)
    assert {job.device for job in jobs} == {"R1", "R2"}
    router_jobs = enumerate_jobs(s1.paper_config, s1.specification)
    assert len(jobs) >= len(router_jobs)
