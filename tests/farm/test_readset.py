"""Read-set recording and replay-based validation."""

from repro.bgp.announcement import Announcement
from repro.bgp.routemap import DENY, PERMIT, RouteMap, RouteMapLine
from repro.farm import ExplainJob, TransferRecorder, readset_valid, sketch_universe
from repro.topology.prefixes import Prefix


def _record_readset(config, specification, job):
    """Run the pipeline with a recorder attached; return its payload."""
    from repro.explain.engine import ExplanationEngine

    recorder = TransferRecorder(job.device)
    engine = ExplanationEngine(config, specification, recorder=recorder)
    job.run(engine)
    universe = sketch_universe(config, job)
    return recorder.payload(config, universe)


def _edit_map(config, router, direction, neighbor, transform):
    edited = config.copy()
    routemap = edited.get_map(router, direction, neighbor)
    edited.set_map(router, direction, neighbor, transform(routemap))
    return edited


def _renumber(routemap, offset):
    return RouteMap(
        routemap.name,
        tuple(
            RouteMapLine(
                seq=line.seq + offset,
                action=line.action,
                match_attr=line.match_attr,
                match_value=line.match_value,
                sets=line.sets,
            )
            for line in routemap.lines
        ),
    )


def _flip_actions(routemap):
    return RouteMap(
        routemap.name,
        tuple(
            RouteMapLine(
                seq=line.seq,
                action=DENY if line.action == PERMIT else PERMIT,
                match_attr=line.match_attr,
                match_value=line.match_value,
                sets=line.sets,
            )
            for line in routemap.lines
        ),
    )


def test_recorder_skips_own_device(s1):
    recorder = TransferRecorder("R1")
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    recorder.concrete("R1", "out", "P1", ann, ann)
    assert len(recorder) == 0
    recorder.concrete("R2", "out", "P2", ann, ann)
    assert len(recorder) == 1


def test_recorder_dedupes_identical_transfers(s1):
    recorder = TransferRecorder("R1")
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    recorder.concrete("R2", "out", "P2", ann, ann)
    recorder.concrete("R2", "out", "P2", ann, ann)
    assert len(recorder) == 1
    recorder.concrete("R2", "out", "P2", ann, None)  # same input: still deduped
    assert len(recorder) == 1


def test_recorder_captures_identity_transfers(s1):
    """Sessions without maps are recorded too, so *adding* a map later
    is a visible change."""
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    absent = [entry for entry in readset["maps"] if entry[3] is None]
    assert absent, "expected at least one recorded map-less seam"


def test_readset_valid_against_unchanged_config(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    universe = sketch_universe(s1.paper_config, job)
    assert readset_valid(readset, s1.paper_config, universe)


def test_readset_survives_seq_renumbering(s1):
    """A behavior-preserving edit (seq renumber) changes the rendered
    text but replays to identical fingerprints."""
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    edited = _edit_map(
        s1.paper_config, "R2", "out", "P2", lambda rm: _renumber(rm, 11)
    )
    universe = sketch_universe(edited, job)
    assert readset_valid(readset, edited, universe)


def test_readset_detects_behavior_change(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    edited = _edit_map(s1.paper_config, "R2", "out", "P2", _flip_actions)
    universe = sketch_universe(edited, job)
    assert not readset_valid(readset, edited, universe)


def test_readset_detects_removed_map(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    readset = _record_readset(s1.paper_config, s1.specification, job)
    edited = s1.paper_config.copy()
    edited.router_config("R2").remove_map("out", "P2")
    universe = sketch_universe(edited, job)
    assert not readset_valid(readset, edited, universe)


def test_garbage_readset_is_invalid(s1):
    job = ExplainJob(device="R1", requirement="Req1")
    universe = sketch_universe(s1.paper_config, job)
    assert not readset_valid(None, s1.paper_config, universe)
    assert not readset_valid({}, s1.paper_config, universe)
    assert not readset_valid(
        {"schema": "repro-farm-readset/1"}, s1.paper_config, universe
    )


# -- identity-keyed recording and the cross-job memo --------------------


def _originated(universe, origin="C"):
    from repro.synthesis.symexec import SymbolicRoute

    return SymbolicRoute.originated(Prefix("10.0.0.0/8"), origin, universe)


def test_structurally_equal_inputs_dedupe_to_one_entry(s1):
    """Routes built separately but equal in every attribute are one
    input: hash-consed terms compare by identity, prefixes and
    announcements by value, community maps regardless of order."""
    from dataclasses import replace

    from repro.smt.builders import TRUE

    universe = sketch_universe(s1.paper_config, ExplainJob(device="R1"))
    first, second = _originated(universe), _originated(universe)
    assert first is not second and first.communities is not second.communities
    reordered = replace(
        second, communities=dict(reversed(list(second.communities.items())))
    )
    recorder = TransferRecorder("R1")
    for state in (first, second, reordered):
        recorder.symbolic("R2", "out", "P2", state, TRUE, state)
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    twin = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    recorder.concrete("R2", "out", "P2", ann, ann)
    recorder.concrete("R2", "out", "P2", twin, twin)
    assert len(recorder) == 2
    assert len(recorder.payload(s1.paper_config, universe)["entries"]) == 2


def test_first_recorded_output_wins(s1):
    from repro.farm.readset import (
        concrete_output_fingerprint,
        symbolic_output_fingerprint,
    )
    from repro.smt.builders import FALSE, TRUE

    universe = sketch_universe(s1.paper_config, ExplainJob(device="R1"))
    state = _originated(universe)
    ann = Announcement.originate(Prefix("10.0.0.0/8"), "C")
    recorder = TransferRecorder("R1")
    recorder.symbolic("R2", "out", "P2", state, TRUE, state)
    recorder.symbolic("R2", "out", "P2", state, FALSE, state)
    recorder.concrete("R2", "out", "P2", ann, ann)
    recorder.concrete("R2", "out", "P2", ann, None)
    outputs = {
        entry["seam"]: entry["output"]
        for entry in recorder.payload(s1.paper_config, universe)["entries"]
    }
    assert outputs == {
        "symbolic": symbolic_output_fingerprint(TRUE, state),
        "concrete": concrete_output_fingerprint(ann),
    }


def test_memo_never_grows_past_its_limit(s1):
    from repro.farm import readset

    universe = sketch_universe(s1.paper_config, ExplainJob(device="R1"))
    recorder = TransferRecorder("R1")
    for index in range(readset.MEMO_LIMIT + 10):
        ann = Announcement(
            prefix=Prefix("10.0.0.0/8"), path=("C",), next_hop="C", med=index
        )
        recorder.concrete("R2", "out", "P2", ann, ann)
    assert len(recorder) == readset.MEMO_LIMIT + 10
    payload = recorder.payload(s1.paper_config, universe)
    assert len(payload["entries"]) == readset.MEMO_LIMIT + 10
    assert len(readset._INPUT_MEMO) <= readset.MEMO_LIMIT
    assert len(readset._OUTPUT_MEMO) <= readset.MEMO_LIMIT


def test_payload_after_memo_clear_is_byte_identical(s1):
    from repro.farm import readset
    from repro.farm.keys import canonical_json

    job = ExplainJob(device="R1", requirement="Req1")
    warm = canonical_json(_record_readset(s1.paper_config, s1.specification, job))
    readset._INPUT_MEMO.clear()
    readset._OUTPUT_MEMO.clear()
    cold = canonical_json(_record_readset(s1.paper_config, s1.specification, job))
    assert cold == warm


def test_concurrent_payloads_share_a_bounded_memo(s1, monkeypatch):
    """Serving threads build read-sets concurrently over one memo: every
    payload matches the serial one and the memo stays within bounds
    while it is cleared and refilled under contention."""
    import sys
    import threading

    from repro.farm import readset
    from repro.farm.keys import canonical_json

    monkeypatch.setattr(readset, "MEMO_LIMIT", 16)
    universe = sketch_universe(s1.paper_config, ExplainJob(device="R1"))
    announcements = [
        Announcement(
            prefix=Prefix("10.0.0.0/8"), path=("C",), next_hop="C", med=index
        )
        for index in range(50)
    ]

    def build(order):
        recorder = TransferRecorder("R1")
        for ann in order:
            recorder.concrete("R2", "out", "P2", ann, ann)
        return canonical_json(recorder.payload(s1.paper_config, universe))

    reference = build(announcements)
    results, sizes = [], []

    def worker(shift):
        for _ in range(20):
            results.append(build(announcements[shift:] + announcements[:shift]))
            sizes.append(max(len(readset._INPUT_MEMO), len(readset._OUTPUT_MEMO)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i * 7,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 * 20
    assert set(results) == {reference}
    assert max(sizes) <= 16
