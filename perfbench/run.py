"""liecs benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/liecs``; nothing needs to
be built.  It generates the workload's inputs from the seed
(several times, to time set-up), then runs whole passes of the workload's
operations, each pass in a fresh worker process, for about ``--seconds``
seconds.  It checks every output, prints the workload's figures under the
names used in ``perfbench/README.md``, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run first makes one untraced pass, then traced passes, and the metrics
are the per-layer ones taken from the spans; the report digests of both
kinds of pass must agree.  Inputs, results and spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from tracing import LAYERS, OPTIMIZER_SPAN, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

SETUP_REPEATS = 5
# A run must end within 180 s; child processes still running this long
# after the start are stopped and their operations count as failed.
RUN_DEADLINE_S = 170
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    # nproc is 2 on the reference machine; keep BLAS from adding threads.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.numpy_on_import": "flag",
    "serialization.parse_s": "s",
    "serialization.parse_calls": "count",
    "serialization.serialize_s": "s",
    "serialization.report_bytes": "bytes",
    "report.build_report_s": "s",
    "algebra.validate_s": "s",
    "algebra.validate_calls": "count",
    "algebra.bracket_subspaces_s": "s",
    "algebra.bracket_subspaces_calls": "count",
    "algebra.change_of_basis_s": "s",
    "complex_structure.is_integrable_s": "s",
    "complex_structure.is_integrable_calls": "count",
    "complex_structure.classify_special_s": "s",
    "j_series.nilpotent_step_s": "s",
    "j_series.containment_audit_s": "s",
    "j_series.center_dim_bounds_s": "s",
    "stratification.classify_step2_s": "s",
    "stratification.theorem_suite_s": "s",
    "stratification.obstructions_s": "s",
    "stratification.verify_stratification_calls": "count",
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "linalg.subspace_ops_calls": "count",
    "linalg.max_bits": "bits",
    "catalog.builtin_s": "s",
    "search.find_s": "s",
    "search.optimize_s": "s",
    "search.optimize_calls": "count",
    "search.residual_evals": "count",
    "search.optimizer_hit_ratio": "ratio",
    "search.gate_s": "s",
    "search.gate_calls": "count",
    "search.gate_accept_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
}

# Per-layer metric -> spans whose inclusive time (``_s``) or count
# (``_calls``) it sums, per operation.
SPAN_SUMS = {
    "serialization.parse": ("serialization.parse_algebra_file",),
    "serialization.serialize": ("serialization.serialize_report",),
    "report.build_report": ("report.build_report",),
    "algebra.validate": ("algebra.validate",),
    "algebra.bracket_subspaces": ("algebra.bracket_subspaces",),
    "complex_structure.is_integrable": ("complex_structure.is_integrable",),
    "complex_structure.classify_special": ("complex_structure.classify_special",),
    "j_series.nilpotent_step": ("j_series.nilpotent_step",),
    "j_series.containment_audit": ("j_series.containment_audit",),
    "j_series.center_dim_bounds": ("j_series.center_dim_bounds",),
    "stratification.classify_step2": ("stratification.classify_step2",),
    "stratification.theorem_suite": ("stratification.theorem_suite",),
    "stratification.obstructions": ("stratification.stratification_obstructions",),
    "stratification.verify_stratification": ("stratification.verify_stratification",),
    "linalg.rref": ("linalg.rref",),
    "linalg.subspace_ops": (
        "linalg.subspace_sum",
        "linalg.subspace_intersection",
        "linalg.image_subspace",
    ),
    "search.find": ("search.find_complex_structure",),
    "search.optimize": (OPTIMIZER_SPAN,),
}
COUNTED_CALLS = ("algebra.validate", "complex_structure.is_integrable")
GATE_SPANS = ("complex_structure.validate_almost_complex", "complex_structure.is_integrable")


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile as the smallest value with at least a share q at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def provenance() -> dict:
    """Interpreter, library versions, cores and source identity of this run."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    sources = hashlib.sha256()
    for path in sorted((SRC / "liecs").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


class Run:
    """One invocation: set-up, timed passes, checks and metrics for one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        # Traces the set-up only; the passes trace themselves in their workers.
        self.tracer = Tracer() if trace else None
        self.setup_times: list[float] = []
        self.ops: list = []
        self.passes: list[dict] = []
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def timeout(self) -> float:
        """Seconds a child process may still take."""
        return max(1.0, self.deadline - time.monotonic())

    def set_up(self, setups) -> None:
        """Generate the inputs SETUP_REPEATS times; every repetition must give the same files."""
        from workloads import Setup

        previous = None
        for _ in range(SETUP_REPEATS):
            directory = self.work / "inputs"
            shutil.rmtree(directory, ignore_errors=True)
            if self.tracer is not None:
                self.tracer.op = "setup"
            start = time.perf_counter()
            ops = setups[self.workload](Setup(directory, self.seed))
            self.setup_times.append(time.perf_counter() - start)
            if self.tracer is not None:
                self.tracer.op = None
            files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
            if previous is not None and files != previous:
                raise RuntimeError("set-up is not deterministic for a fixed seed")
            previous = files
        self.ops = ops

    def _worker_pass(self, traced: bool) -> dict:
        index = len(self.passes)
        spec = self.work / f"pass{index}.spec.json"
        out = self.work / f"pass{index}.out.json"
        spec.write_text(
            json.dumps(
                {
                    "ops": [dataclasses.asdict(op) for op in self.ops],
                    "trace": traced,
                    "out": str(out),
                }
            )
        )
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), str(spec)],
                cwd=ROOT,
                env=CHILD_ENV,
                capture_output=True,
                timeout=self.timeout(),
            )
            failure = None if proc.returncode == 0 else proc.stderr.decode()[-2000:]
        except subprocess.TimeoutExpired:
            failure = f"worker still running {RUN_DEADLINE_S} s after the start"
        if failure is None and out.is_file():
            return json.loads(out.read_text())
        return {
            "ops": [{"key": op.key, "seconds": None, "error": failure} for op in self.ops],
            "processes": [],
        }

    def _cli_pass(self, traced: bool) -> dict:
        from workloads import check_cli

        index = len(self.passes)
        records, processes = [], []
        for op in self.ops:
            spans_file = self.work / f"pass{index}.{op.key}.spans.json"
            if traced:
                cmd = [sys.executable, str(WORKER), "--cli", str(spans_file), op.key, "--", *op.argv]
            else:
                cmd = [sys.executable, "-m", "liecs.cli", *op.argv]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=self.timeout()
                )
            except subprocess.TimeoutExpired:
                records.append({"key": op.key, "seconds": None, "error": "CLI timed out"})
                continue
            seconds = time.perf_counter() - start
            records.append(
                {
                    "key": op.key,
                    "seconds": seconds,
                    "digest": _sha256(proc.stdout),
                    "error": check_cli(op, proc.returncode, proc.stdout),
                }
            )
            if traced and spans_file.is_file():
                processes.append(json.loads(spans_file.read_text()))
        return {"ops": records, "processes": processes}

    def measure(self) -> None:
        """Whole passes while the next one is expected to end within the time budget.

        A traced run makes one untraced pass first, to compare digests and
        to measure the tracing overhead.
        """
        run_pass = self._cli_pass if self.workload == "cli-cold" else self._worker_pass
        start = time.perf_counter()
        if self.trace:
            self.passes.append({**run_pass(False), "traced": False})
        while True:
            begin = time.perf_counter()
            self.passes.append({**run_pass(self.trace), "traced": self.trace})
            now = time.perf_counter()
            if now - start + (now - begin) > self.seconds:
                break

    def check(self) -> list[dict]:
        """Every operation record, with ``failed`` set by the correctness gate."""
        from workloads import check_report

        by_key = {op.key: op for op in self.ops}
        records = []
        digests: dict[str, str] = {}
        counts: dict[str, Counter] = {}
        for index, done in enumerate(self.passes):
            invariants = {r["key"]: r.get("invariants") for r in done["ops"]}
            span_counts: dict[str, Counter] = {}
            for process in done["processes"]:
                for name, _, _, _, _, op in process.get("spans", []):
                    span_counts.setdefault(op, Counter())[name] += 1
            for record in done["ops"]:
                key = record["key"]
                error = record.get("error")
                if error is None and record.get("invariants") is not None:
                    like = by_key[key].expect.get("like")
                    error = check_report(by_key[key], record["invariants"], invariants.get(like))
                if error is None and digests.setdefault(key, record["digest"]) != record["digest"]:
                    error = "output bytes differ from an earlier repetition"
                if error is None and done["traced"]:
                    seen = span_counts.get(key, Counter())
                    if counts.setdefault(key, seen) != seen:
                        error = "call counts differ from an earlier traced repetition"
                records.append({**record, "pass": index, "failed": error is not None, "error": error})
        return records

    def untraced_times(self, records: list[dict]) -> dict[str, list[float]]:
        """Each operation's times over the untraced passes."""
        by_key: dict[str, list[float]] = {}
        for r in records:
            if r["seconds"] is not None and not self.passes[r["pass"]]["traced"]:
                by_key.setdefault(r["key"], []).append(r["seconds"])
        return by_key

    def end_to_end(self, by_key: dict[str, list[float]]) -> dict:
        """Quantiles over every untraced operation of every pass."""
        times = [t for per_key in by_key.values() for t in per_key]
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_times),
            "op_s_p50": nearest_rank(times, 0.5),
            "op_s_p90": nearest_rank(times, 0.9),
            "ops_per_s": len(times) / sum(times),
            "peak_rss_mb": peak_kb / 1024,
        }

    def named(self, records: list[dict], by_key: dict[str, list[float]], metrics: dict) -> dict:
        """The workload's figures under the names of the benchmark's README."""
        out = {
            "setup_s": (metrics["setup_s"], "s"),
            "failed_ratio": (sum(r["failed"] for r in records) / len(records), "ratio"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        }
        if self.workload == "catalog":
            out["report_s_p50"] = (metrics["op_s_p50"], "s")
            out["report_s_p90"] = (metrics["op_s_p90"], "s")
            out["reports_per_s"] = (metrics["ops_per_s"], "1/s")
        elif self.workload == "ladder":
            dim12 = [t for key, times in by_key.items() if key.startswith("ch6x2~") for t in times]
            out["report_dim12_s"] = (statistics.median(dim12) if dim12 else None, "s")
            for name, key in (("report_dim18_s", "ch6x3~"), ("report_dim18_sparse_s", "ch6x3")):
                out[name] = (statistics.median(by_key[key]) if key in by_key else None, "s")
            out["reports_per_s"] = (metrics["ops_per_s"], "1/s")
        elif self.workload == "cli-cold":
            out["cli_s_p50"] = (metrics["op_s_p50"], "s")
            out["cli_s_p90"] = (metrics["op_s_p90"], "s")
        return out

    def per_layer(self, records: list[dict]) -> dict:
        """Per-operation means of span times and counts over the traced passes."""
        traced = [p for p in self.passes if p["traced"]]
        n_ops = sum(len(p["ops"]) for p in traced)
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        own: Counter = Counter()
        counters: Counter = Counter()
        gate_s, max_bits = 0.0, 0
        imports, numpy_flags = [], []
        for done in traced:
            for process in done["processes"]:
                imports.append(process["import_s"])
                numpy_flags.append(process["numpy_on_import"])
                spans = process["spans"]
                for span, self_s in zip(spans, self_times(spans)):
                    name, caller, start, end = span[:4]
                    inclusive[name] += end - start
                    calls[name] += 1
                    own[name.split(".")[0]] += self_s
                    if caller == "liecs.search" and name in GATE_SPANS:
                        gate_s += end - start
                        calls["search.gate"] += name == GATE_SPANS[0]
                for per_op in process["counters"].values():
                    max_bits = max(max_bits, per_op.pop("max_bits", 0))
                    counters.update(per_op)
        setup_spans = Counter()
        for name, _, start, end, _, _ in self.tracer.spans:
            setup_spans[name] += end - start

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        metrics = {
            "cli.import_s": statistics.median(imports) if imports else 0.0,
            "cli.numpy_on_import": float(any(numpy_flags)),
            "serialization.report_bytes": counters["report_bytes"] / n_ops,
            "algebra.change_of_basis_s": setup_spans["algebra.change_of_basis"] / SETUP_REPEATS,
            "catalog.builtin_s": setup_spans["catalog.builtin"] / SETUP_REPEATS,
            "linalg.max_bits": float(max_bits),
            "search.residual_evals": counters["residual_evals"] / n_ops,
            "search.optimizer_hit_ratio": ratio(counters["optimizer_hits"], calls[OPTIMIZER_SPAN]),
            "search.gate_s": gate_s / n_ops,
            "search.gate_calls": calls["search.gate"] / n_ops,
            "search.gate_accept_ratio": ratio(counters["gate_accepts"], calls["search.gate"]),
        }
        for metric, names in SPAN_SUMS.items():
            metrics[f"{metric}_s"] = sum(inclusive[n] for n in names) / n_ops
            metrics[f"{metric}_calls"] = sum(calls[n] for n in names) / n_ops
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = own[layer] / n_ops
        times: dict[bool, list[float]] = {False: [], True: []}
        for r in records:
            if r["seconds"] is not None:
                times[self.passes[r["pass"]]["traced"]].append(r["seconds"])
        metrics["trace.overhead_s"] = (
            statistics.mean(times[True]) - statistics.mean(times[False])
            if times[True] and times[False]
            else 0.0
        )
        return {name: metrics[name] for name in PER_LAYER}

    def calls_per_op(self, names: tuple[str, ...]) -> dict[str, list[int]]:
        """Calls of each named function per operation, in the first traced pass."""
        first = next(p for p in self.passes if p["traced"])
        counts: dict[str, Counter] = {r["key"]: Counter() for r in first["ops"]}
        for process in first["processes"]:
            for name, _, _, _, _, op in process["spans"]:
                counts[op][name] += 1
        return {key: [c[name] for name in names] for key, c in counts.items()}


def _print_table(title: str, rows: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"#   {name:<44} {shown:>14} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-cold", "catalog", "ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liecs" / "__init__.py").is_file():
        print(f"error: no liecs sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liecs

    if Path(liecs.__file__).resolve().parent != (SRC / "liecs").resolve():
        print(f"error: liecs was imported from {liecs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.tracer is not None:
        run.tracer.install()
    # Imported after install(), so the set-up's ``from liecs import ...``
    # binds the traced wrappers.
    from workloads import SETUPS

    try:
        run.set_up(SETUPS)
        run.measure()
        records = run.check()
        by_key = run.untraced_times(records)
        e2e = run.end_to_end(by_key)
        failed = sum(r["failed"] for r in records)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "provenance": provenance(),
            "setup_times_s": run.setup_times,
            "named": run.named(records, by_key, e2e),
            "operations": records,
        }
        print(f"# provenance: {json.dumps(result['provenance'])}")
        _print_table(f"{args.workload}, seed {args.seed}, {len(run.passes)} passes", result["named"])
        for r in records:
            if r["failed"]:
                print(f"# FAILED {r['key']} (pass {r['pass']}): {str(r['error']).strip()[:300]}")
        if run.trace:
            layers = run.per_layer(records)
            result["per_layer"] = layers
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
            _print_table("per layer, per operation", {n: (v["value"], v["unit"]) for n, v in metrics.items()})
            result["calls_per_op"] = run.calls_per_op(COUNTED_CALLS)
            print(f"# calls per operation of {', '.join(COUNTED_CALLS)}:")
            print("#   " + ", ".join(f"{k} {'/'.join(map(str, v))}" for k, v in result["calls_per_op"].items()))
            spans = {
                "setup": run.tracer.spans,
                "passes": [p["processes"] for p in run.passes if p["traced"]],
            }
            (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans))
        else:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1)
        )
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
