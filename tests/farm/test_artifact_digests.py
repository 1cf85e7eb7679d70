"""Stored answer bytes must not move across commits.

``golden/artifact_digests.json`` holds the sha256 of every stored
``explanation`` and ``readset`` artifact file of a cold, serial
(``workers=1``) scenario1 batch, once per granularity (router and
per-line jobs).  Job keys are content-addressed, so the golden pins
the key set too.  Any change to how answers or read-sets are built or
serialized -- dedup order, envelope layout, JSON escaping -- shows up
here as a digest mismatch.

Regenerate (only for a deliberate, documented format change) with::

    PYTHONPATH=src python tests/farm/test_artifact_digests.py
"""

import hashlib
import json
import os
import tempfile

from repro.api import ExplainRequest, explain_batch

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "artifact_digests.json"
)
PINNED_STAGES = ("explanation", "readset")
GRANULARITIES = (("router", False), ("per_line", True))


def stored_digests(cache_dir):
    """``{"<key>.<stage>": sha256 of the file}`` for the pinned stages."""
    digests = {}
    for root, _dirs, files in os.walk(cache_dir):
        for name in files:
            stem, _, ext = name.rpartition(".")
            if ext != "json" or stem.rpartition(".")[2] not in PINNED_STAGES:
                continue
            with open(os.path.join(root, name), "rb") as handle:
                digests[stem] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(digests.items()))


def capture():
    document = {}
    for label, per_line in GRANULARITIES:
        with tempfile.TemporaryDirectory() as cache_dir:
            report = explain_batch(
                ExplainRequest(
                    scenario="scenario1", per_line=per_line, workers=1,
                    cache_dir=cache_dir,
                )
            )
            assert report.exit_code() == 0, report.summary_table()
            document[f"scenario1/{label}"] = stored_digests(cache_dir)
    return document


def test_stored_artifact_bytes_match_golden():
    with open(GOLDEN, encoding="ascii") as handle:
        golden = json.load(handle)
    assert capture() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="ascii") as handle:
        json.dump(capture(), handle, indent=1, sort_keys=True)
        handle.write("\n")
