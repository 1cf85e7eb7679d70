"""The on-disk artifact store: integrity, atomicity, corruption."""

import json
import os

import pytest

from repro.farm import ArtifactStore, JobStore, StoreError

KEY = "ab" * 32


def test_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    payload = {"answer": 42, "nested": {"list": [1, 2, 3]}}
    store.save(KEY, "seed", payload)
    assert store.load(KEY, "seed") == payload
    assert store.stats == {"store.seed": 1, "hit.seed": 1}


def test_miss_on_absent_entry(tmp_path):
    store = ArtifactStore(str(tmp_path))
    assert store.load(KEY, "seed") is None
    assert store.stats == {"miss.seed": 1}


def test_corrupt_json_reads_as_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path, "w") as handle:
        handle.write("{not json")
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1


def test_tampered_payload_fails_integrity(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["payload"]["v"] = 2  # integrity hash now stale
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1


def test_wrong_schema_reads_as_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        envelope = json.load(handle)
    envelope["schema"] = "repro-farm-store/0"
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert store.load(KEY, "seed") is None


def test_redumped_envelope_is_a_corrupt_miss(tmp_path):
    """Loads hash the payload's slice of the file, so a file whose
    envelope was re-serialized with ``json.dump`` defaults (same
    content, different framing) reads as corrupt."""
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1, "w": [1, 2]})
    path = store.path_for(KEY, "seed")
    with open(path) as handle:
        envelope = json.load(handle)
    with open(path, "w") as handle:
        json.dump(envelope, handle)
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1


def test_envelope_under_another_key_is_a_corrupt_miss(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1})
    other = "cd" * 32
    os.makedirs(os.path.dirname(store.path_for(other, "seed")), exist_ok=True)
    os.replace(store.path_for(KEY, "seed"), store.path_for(other, "seed"))
    assert store.load(other, "seed") is None
    assert store.stats["corrupt.seed"] == 1


def test_load_keeps_the_payload_slice_as_hot_text(tmp_path):
    from repro.farm.keys import canonical_json

    payload = {"b": [1, {"é": None}], "a": "x"}
    ArtifactStore(str(tmp_path)).save(KEY, "lift", payload)
    reader = ArtifactStore(str(tmp_path), hot_artifacts=4)
    assert reader.load(KEY, "lift") == payload
    assert reader._recall(KEY, "lift") == canonical_json(payload)


def test_malformed_key_and_stage_rejected(tmp_path):
    store = ArtifactStore(str(tmp_path))
    with pytest.raises(StoreError):
        store.path_for("../escape", "seed")
    with pytest.raises(StoreError):
        store.path_for(KEY, "seed/../../etc")
    with pytest.raises(StoreError):
        store.save(KEY, "seed", "not a dict")  # type: ignore[arg-type]


def test_unwritable_cache_degrades_to_no_cache(tmp_path):
    missing = os.path.join(str(tmp_path), "file-not-dir")
    with open(missing, "w") as handle:
        handle.write("occupied")
    store = ArtifactStore(os.path.join(missing, "cache"))
    store.save(KEY, "seed", {"v": 1})  # must not raise
    assert store.load(KEY, "seed") is None


def test_truncated_envelope_reads_as_miss(tmp_path):
    """A torn write (crash mid-copy, truncated download) is a miss --
    and the slot is immediately writable again."""
    store = ArtifactStore(str(tmp_path))
    store.save(KEY, "seed", {"v": 1, "pad": list(range(64))})
    path = store.path_for(KEY, "seed")
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)
    assert store.load(KEY, "seed") is None
    assert store.stats["corrupt.seed"] == 1
    store.save(KEY, "seed", {"v": 2})
    assert store.load(KEY, "seed") == {"v": 2}


def test_disk_full_leaves_no_half_written_file(tmp_path, monkeypatch):
    """ENOSPC at the atomic-replace step: the write degrades silently
    and neither the target nor any temp file becomes visible."""
    store = ArtifactStore(str(tmp_path))

    def full_disk(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", full_disk)
    store.save(KEY, "seed", {"v": 1})  # must not raise
    monkeypatch.undo()
    assert not os.path.exists(store.path_for(KEY, "seed"))
    leftovers = [
        name
        for _, _, names in os.walk(str(tmp_path))
        for name in names
        if name.endswith(".tmp")
    ]
    assert leftovers == []
    assert "store.seed" not in store.stats
    assert store.load(KEY, "seed") is None


def test_tmp_creation_failure_degrades(tmp_path, monkeypatch):
    import tempfile

    store = ArtifactStore(str(tmp_path))

    def no_fd(*args, **kwargs):
        raise OSError(24, "Too many open files")

    monkeypatch.setattr(tempfile, "mkstemp", no_fd)
    store.save(KEY, "seed", {"v": 1})  # must not raise
    monkeypatch.undo()
    assert store.load(KEY, "seed") is None


def test_quarantine_ledger_round_trip(tmp_path):
    store = ArtifactStore(str(tmp_path))
    assert store.quarantine_entries() == []
    store.quarantine_add({"job": "a", "attempts": 3})
    store.quarantine_add({"job": "b", "attempts": 2})
    entries = ArtifactStore(str(tmp_path)).quarantine_entries()
    assert [e["job"] for e in entries] == ["a", "b"]
    assert store.stats["quarantine.ledger"] == 2


def test_corrupt_quarantine_ledger_degrades_to_empty(tmp_path):
    store = ArtifactStore(str(tmp_path))
    store.quarantine_add({"job": "a"})
    with open(store.quarantine_path, "w") as handle:
        handle.write('{"schema": "repro-farm-quarant')  # torn write
    assert store.quarantine_entries() == []
    store.quarantine_add({"job": "b"})  # re-seeds a fresh ledger
    assert [e["job"] for e in store.quarantine_entries()] == ["b"]


def test_job_store_scopes_one_key(tmp_path):
    store = ArtifactStore(str(tmp_path))
    scoped = JobStore(store, KEY)
    scoped.save("simplify", {"v": 1})
    assert scoped.load("simplify") == {"v": 1}
    other = JobStore(store, "cd" * 32)
    assert other.load("simplify") is None


@pytest.mark.parametrize("hot_artifacts", [0, 4])
def test_save_writes_the_canonical_envelope(tmp_path, hot_artifacts):
    """The single-pass envelope equals the canonical JSON of the
    envelope dict, non-ASCII escapes included, and loads back whether
    the hot cache is on or off."""
    from repro.farm.keys import canonical_json, digest
    from repro.farm.store import STORE_SCHEMA

    payload = {
        "name": "Zürich → \U0001f310",
        "nested": {"quote": 'say "hi"\n', "list": [1, "é", None, 2.5]},
        "empty": {},
    }
    writer = ArtifactStore(str(tmp_path), hot_artifacts=hot_artifacts)
    writer.save(KEY, "lift", payload)
    with open(writer.path_for(KEY, "lift"), "rb") as handle:
        written = handle.read()
    expected = canonical_json(
        {
            "schema": STORE_SCHEMA,
            "key": KEY,
            "stage": "lift",
            "integrity": digest(payload),
            "payload": payload,
        }
    )
    assert written == expected.encode("ascii")
    assert writer.load(KEY, "lift") == payload
    reader = ArtifactStore(str(tmp_path), hot_artifacts=hot_artifacts)
    assert reader.load(KEY, "lift") == payload
    assert reader.load(KEY, "lift") == payload
    assert reader.stats == {"hit.lift": 2}
