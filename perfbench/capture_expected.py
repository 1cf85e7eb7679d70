"""Record the expected answer of every benchmark job into expected.json.

Usage (from the root of a checkout)::

    python3 perfbench/capture_expected.py

Answers the benchmark's four inputs at per-line and router level with
no cache and writes each job's status and subspec text.  The benchmark
checks every answer it gets against this file, so rerun it only when
the program's answers are meant to change, and say so.
"""

import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro import api  # noqa: E402

from workloads import INPUTS  # noqa: E402


def main() -> int:
    expected = {}
    for scenario in INPUTS:
        expected[scenario] = {}
        for level, per_line in (("per_line", True), ("router", False)):
            report = api.explain_batch(api.ExplainRequest(
                scenario=scenario, per_line=per_line, workers=2, no_cache=True,
            ))
            expected[scenario][level] = {
                result.job_id: {"status": result.status, "subspec": result.subspec}
                for result in report.results
            }
    path = os.path.join(_HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
