"""Runs one pass of benchmark operations in a fresh process.

    python perfbench/worker.py SPEC.json
        Run the ``report`` operations listed in SPEC and write their
        timings, digests and checked fields to the file SPEC names.
    python perfbench/worker.py --cli OUT.json KEY -- ARGS...
        Run ``liecs.cli.main(ARGS)`` traced, as operation KEY, and write the
        spans to OUT.json; stdout and the exit status are the CLI's own.

``liecs`` is imported first, with nothing but ``sys`` and ``time`` loaded
before it, so the recorded import time is that of a cold process.
Library functions are looked up through the ``liecs`` package at call
time, so the traced wrappers installed after import are the ones called.
"""

import sys
import time

_start = time.perf_counter()
import liecs  # noqa: E402

IMPORT_S = time.perf_counter() - _start
NUMPY_ON_IMPORT = "numpy" in sys.modules

import hashlib  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import liecs.cli  # noqa: E402
from liecs.search import DEFAULT_THRESHOLD  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import report_invariants  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_op(op: dict, data: bytes, tracer: Tracer | None) -> dict:
    """Parse, report, serialize as JSON and markdown; check outside the timed region."""
    if tracer is not None:
        tracer.op = op["key"]
    start = time.perf_counter()
    parsed = liecs.parse_algebra_file(data)
    cs = parsed.complex_structure
    report = liecs.build_report(
        "report", op["key"], parsed.algebra, cs, "file" if cs else None, parsed.stratification
    )
    as_json = liecs.serialize_report(report, "json")
    as_markdown = liecs.serialize_report(report, "markdown")
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    return {
        "seconds": seconds,
        "digest": _sha256(as_json) + _sha256(as_markdown),
        "invariants": report_invariants(json.loads(as_json)),
    }


def run_spec(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    records = []
    for op in spec["ops"]:
        data = Path(op["path"]).read_bytes()
        try:
            record = _report_op(op, data, tracer)
        except Exception:
            if tracer is not None:
                tracer.op = None
            record = {"seconds": None, "error": traceback.format_exc(limit=3)}
        records.append({"key": op["key"], **record})
    process = {"import_s": IMPORT_S, "numpy_on_import": NUMPY_ON_IMPORT}
    if tracer is not None:
        process["spans"] = tracer.spans
        process["counters"] = tracer.counters
    Path(spec["out"]).write_text(json.dumps({"ops": records, "processes": [process]}))
    return 0


def run_cli(out_path: str, key: str, argv: list[str]) -> int:
    if "search" in argv:
        # Loaded here only so that install() can wrap the optimizer; the
        # search would import it on its first call anyway.
        import scipy.optimize  # noqa: F401
    tracer = Tracer(DEFAULT_THRESHOLD)
    tracer.install()
    tracer.op = key
    try:
        status = liecs.cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    tracer.op = None
    sys.stdout.flush()
    process = {
        "import_s": IMPORT_S,
        "numpy_on_import": NUMPY_ON_IMPORT,
        "spans": tracer.spans,
        "counters": tracer.counters,
    }
    Path(out_path).write_text(json.dumps(process))
    return status


if __name__ == "__main__":
    if sys.argv[1] == "--cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3], sys.argv[5:]))
    sys.exit(run_spec(sys.argv[1]))
