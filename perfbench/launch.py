"""Fresh-interpreter entry point the benchmark runs the program through.

Usage (from the root of a checkout)::

    python3 perfbench/launch.py batch REQUESTS.json OUT.json
    python3 perfbench/launch.py probe SCENARIO [SCENARIO ...]
    python3 perfbench/launch.py serve [repro serve flags ...]

``batch`` answers each ``repro-api-request/1`` payload of REQUESTS.json
with :func:`repro.api.explain_batch` and writes, per request, every
job's status, subspec, attempts and audit verdict plus the batch
document with its timings normalized.  ``probe`` imports the program
and resolves the named scenarios, nothing more: the fixed cost of a
fresh interpreter.  ``serve`` runs ``repro serve``.

When ``PERFBENCH_TRACE_DIR`` is set, importing this file installs the
span wrappers of :mod:`tracing`.  Fleet workers are spawned processes
that re-import this file as ``__mp_main__``, so they are traced too;
pool workers are forked and inherit the wrappers.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_HERE, _SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import tracing  # noqa: E402

if os.environ.get(tracing.TRACE_ENV):
    tracing.install(os.environ[tracing.TRACE_ENV])


def _batch(requests_path: str, out_path: str) -> int:
    imported = time.perf_counter()
    from repro import api
    from repro.farm.report import dump_document, normalize_document

    import_s = time.perf_counter() - imported
    with open(requests_path, encoding="utf-8") as handle:
        payloads = json.load(handle)
    batches = []
    for payload in payloads:
        report = api.explain_batch(api.ExplainRequest.from_payload(payload))
        counters = report.document.get("counters", {})
        batches.append({
            "scenario": report.scenario,
            "jobs": [
                {
                    "job_id": result.job_id,
                    "status": result.status,
                    "subspec": result.subspec,
                    "attempts": result.attempts,
                    "verdict": (result.audit or {}).get("verdict"),
                }
                for result in report.results
            ],
            "retries": counters.get("farm.supervise.retry", 0),
            "document": dump_document(normalize_document(dict(report.document))),
        })
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"started": _STARTED, "import_s": import_s,
                   "batches": batches}, handle)
    return 0


def _probe(scenarios) -> int:
    from repro import api

    for scenario in scenarios:
        api.resolve_inputs(api.ExplainRequest(scenario=scenario))
    return 0


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "batch" and len(rest) == 2:
        return _batch(*rest)
    if command == "probe" and rest:
        return _probe(rest)
    if command == "serve":
        from repro.cli import main as cli_main

        return cli_main(["serve", *rest])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
