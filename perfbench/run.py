#!/usr/bin/env python3
"""Benchmark of the tsplocal toolkit: seeded batch workloads, checked outputs.

    python3 perfbench/run.py --workload search --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
An untraced run (`--trace 0`) prints the end-to-end metrics, a traced run
(`--trace 1`) the per-layer metrics. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from importlib import metadata
from typing import NamedTuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
REFERENCE_SEED = 0
SETUP_SAMPLES = 5

from bench_jobs import CROSS_MODULE, WORKLOADS, Api, rounds_for, setup  # noqa: E402
from bench_metrics import compare_round, digest, tail_percentile  # noqa: E402
from bench_spans import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}

# Spans whose busy and self time are per-layer metrics; True adds `.calls`.
SPAN_METRICS = {
    "localsearch.k_opt": False,
    "localsearch.find_improving_kmove": True,
    "localsearch.lin_kernighan": False,
    "localsearch.k_improv": False,
    "localsearch.find_improving_improv_move": True,
    "localsearch.count_structure": True,
    "certify.held_karp": True,
    "certify.length_class_report": False,
    "certify.build_g2": True,
    "certify.extract_improving_move": False,
    "certify.verify_k_optimal": False,
    "certify.verify_k_improv_optimal": False,
    "certify.verify_k_improv_optimal.key_eval": False,
    "adversarial.build_12tsp_lower": False,
    "adversarial.build_graph_tsp_lower": False,
    "adversarial.extend_graph_tsp": False,
    "adversarial.write_bundle": False,
    "adversarial.read_bundle": False,
    "extremal.load_cage": False,
    "extremal.girth": True,
    "extremal.bipartite_edge_coloring": False,
    "extremal.eulerian_walk": False,
    "core.random_metric_instance": False,
    "core.random_one_two_instance": False,
    "core.graph_instance": False,
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for span, with_calls in SPAN_METRICS.items():
        if with_calls:
            units[span + ".calls"] = "count"
        units[span + ".busy_s"] = "s"
        units[span + ".self_s"] = "s"
    units.update(
        {
            "localsearch.lin_kernighan.augmentations": "count",
            "certify.held_karp.dp_cells": "count",
            "certify.build_g2.violations": "count",
            "certify.verify_k_optimal.searched": "count",
            "certify.verify_k_optimal.searched_per_s": "1/s",
            "certify.verify_k_improv_optimal.searched": "count",
            "certify.verify_k_improv_optimal.key_evals": "count",
            "certify.verify_k_improv_optimal.key_evals_per_searched": "ratio",
            "adversarial.bundle_bytes": "B",
            "trace.overhead_frac": "fraction",
            "trace.top_level_frac": "fraction",
        }
    )
    return units


# -- the timed phase ----------------------------------------------------------


class JobRecord(NamedTuple):
    round: int
    name: str
    seconds: float
    output: object
    error: str | None


def timed_pass(workload, api, inputs, tracer=None):
    """Run every job of every round; checks come later.

    Returns the job records, the wall time of the pass and, when traced, the
    span index and counts at each round boundary.
    """
    clock = time.perf_counter
    jobs = workload.jobs()
    records, marks = [], []
    gc.collect()
    start = clock()
    for r, x in enumerate(inputs):
        if tracer is not None:
            marks.append((len(tracer.name), Counter(tracer.counts)))
        done = {}
        for name, fn in jobs:
            span = tracer.open("job." + name) if tracer is not None else -1
            t0 = clock()
            try:
                out, err = fn(api, x, done), None
            except Exception:  # a failing job is counted, the run goes on
                out, err = None, traceback.format_exc(limit=-3)
            t1 = clock()
            if tracer is not None:
                tracer.close(span)
            done[name] = out
            records.append(JobRecord(r, name, t1 - t0, out, err))
    wall = clock() - start
    if tracer is not None:
        marks.append((len(tracer.name), Counter(tracer.counts)))
    return records, wall, marks


def check_pass(workload, api, inputs, records, reference):
    """Fingerprint and check every job output.

    Returns per-round fingerprints and the failures as (round, job, reason).
    """
    fingerprints = [dict() for _ in inputs]
    done_by_round = [dict() for _ in inputs]
    for rec in records:
        done_by_round[rec.round][rec.name] = rec.output
    failures = []
    for rec in records:
        if rec.error is not None:
            failures.append((rec.round, rec.name, "raised: " + rec.error.strip()))
            continue
        x = inputs[rec.round]
        try:
            fp = digest(workload.fingerprint(api, rec.name, x, rec.output))
            fingerprints[rec.round][rec.name] = fp
            workload.check(api, rec.name, x, done_by_round[rec.round], rec.output)
        except Exception as exc:  # any check error is a failed job
            failures.append((rec.round, rec.name, f"check: {type(exc).__name__}: {exc}"))
    for r, fps in enumerate(fingerprints):
        expected = reference[r]["fingerprints"] if r < len(reference) else None
        for name in compare_round(fps, expected):
            failures.append((r, name, "fingerprint differs from the reference"))
    return fingerprints, failures


def round_counts(tracer, marks) -> list[dict[str, int]]:
    """Deterministic work counts of each round of a traced pass."""
    out = []
    for (first, before), (last, after) in zip(marks, marks[1:]):
        calls = Counter(tracer.names[tracer.name[i]] for i in range(first, last))
        counts = {
            f"{name}.calls": n for name, n in calls.items() if not name.startswith("job.")
        }
        counts.update(
            {name: after[name] - before[name] for name in after if after[name] != before[name]}
        )
        out.append(dict(sorted(counts.items())))
    return out


# -- metrics ------------------------------------------------------------------


def end_to_end(records, wall, setup_samples) -> tuple[dict, dict]:
    times = [rec.seconds for rec in records]
    tail, pct, count = tail_percentile(times)
    values = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(records) / wall,
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"job_tail_s": f"percentile {pct:.1f} of {count} jobs"}
    return values, notes


def per_layer(tracer, wall_traced, wall_untraced) -> dict:
    spans = tracer.by_name()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for span, with_calls in SPAN_METRICS.items():
        agg = spans.get(span, empty)
        if with_calls:
            values[span + ".calls"] = agg["calls"]
        values[span + ".busy_s"] = agg["busy_s"]
        values[span + ".self_s"] = agg["self_s"]
    counts = tracer.counts
    kopt_searched = counts["certify.verify_k_optimal.searched"]
    kopt_busy = values["certify.verify_k_optimal.busy_s"]
    improv_searched = counts["certify.verify_k_improv_optimal.searched"]
    key_evals = spans.get("certify.verify_k_improv_optimal.key_eval", empty)["calls"]
    values.update(
        {
            "localsearch.lin_kernighan.augmentations": spans.get(
                "localsearch.lin_kernighan.augment", empty
            )["calls"],
            "certify.held_karp.dp_cells": counts["certify.held_karp.dp_cells"],
            "certify.build_g2.violations": counts["certify.build_g2.violations"],
            "certify.verify_k_optimal.searched": kopt_searched,
            "certify.verify_k_optimal.searched_per_s": (
                kopt_searched / kopt_busy if kopt_busy else 0.0
            ),
            "certify.verify_k_improv_optimal.searched": improv_searched,
            "certify.verify_k_improv_optimal.key_evals": key_evals,
            "certify.verify_k_improv_optimal.key_evals_per_searched": (
                key_evals / improv_searched if improv_searched else 0.0
            ),
            "adversarial.bundle_bytes": counts["adversarial.bundle_bytes"],
            "trace.overhead_frac": wall_traced / wall_untraced - 1,
            "trace.top_level_frac": tracer.top_level_s(exclude=("setup",)) / wall_traced,
        }
    )
    return values


# -- environment and reference --------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace or args.record),
    }


def load_reference(workload_name: str, seed: int) -> list[dict]:
    if seed != REFERENCE_SEED or not os.path.exists(REFERENCE_PATH):
        return []
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)["workloads"].get(workload_name, [])


def save_reference(workload_name: str, fingerprints, counts) -> None:
    data = {"seed": REFERENCE_SEED, "workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="ascii") as fh:
            data = json.load(fh)
    data["workloads"][workload_name] = [
        {"fingerprints": fp, "counts": c} for fp, c in zip(fingerprints, counts)
    ]
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- the run ------------------------------------------------------------------


def probe_setup_s(workload_name: str, seed: int, rounds: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    code = (
        f"import sys; sys.path[:0] = [{BENCH_DIR!r}, {SRC!r}]; import bench_jobs; "
        f"print(bench_jobs.probe_setup({workload_name!r}, {seed}, {rounds}, {OUT_DIR!r}))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def print_fingerprints(workload_name, seed, fingerprints) -> None:
    for r, fps in enumerate(fingerprints):
        jobs = " ".join(f"{name}={fp}" for name, fp in fps.items())
        print(f"fingerprint {workload_name} round={r} seed={seed} {jobs}")


def run_untraced(workload, args):
    rounds = rounds_for(workload, args.seconds)
    samples = [probe_setup_s(workload.name, args.seed, rounds) for _ in range(SETUP_SAMPLES)]
    api, inputs = setup(workload, args.seed, rounds, OUT_DIR)
    records, wall, _ = timed_pass(workload, api, inputs)
    values, notes = end_to_end(records, wall, samples)
    fingerprints, failures = check_pass(
        workload, api, inputs, records, load_reference(workload.name, args.seed)
    )
    print_fingerprints(workload.name, args.seed, fingerprints)
    notes["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in samples)
    return values, END_TO_END_UNITS, notes, len(records), failures


def run_traced(workload, args):
    """An untraced and a traced pass over the same inputs, half a run each."""
    rounds = rounds_for(workload, args.seconds) // (1 if args.record else 2)
    rounds = max(1, rounds)
    tracer = Tracer()
    span = tracer.open("setup")
    _, inputs = setup(workload, args.seed, rounds, OUT_DIR, tracer, CROSS_MODULE)
    tracer.close(span)
    tracer.uninstall()
    plain = Api()
    records_u, wall_u, _ = timed_pass(workload, plain, inputs)
    tracer.install(CROSS_MODULE)
    try:
        records_t, wall_t, marks = timed_pass(workload, Api(tracer), inputs, tracer)
    finally:
        tracer.uninstall()
    reference = load_reference(workload.name, args.seed)
    fps_u, failures = check_pass(workload, plain, inputs, records_u, reference)
    fps_t, failures_t = check_pass(workload, plain, inputs, records_t, reference)
    failures += failures_t
    for r, (a, b) in enumerate(zip(fps_u, fps_t)):
        for name in compare_round(b, a):
            failures.append((r, name, "traced output differs from untraced output"))
    counts = round_counts(tracer, marks)
    for r, (got, want) in enumerate(zip(counts, reference)):
        if got != want["counts"]:
            drift = sorted(k for k in set(got) | set(want["counts"])
                           if got.get(k) != want["counts"].get(k))
            failures.append((r, "counts", "work counts drifted: " + ", ".join(drift)))
    print_fingerprints(workload.name, args.seed, fps_t)
    total = Counter()
    for c in counts:
        total.update(c)
    print("counts " + json.dumps(dict(sorted(total.items()))))
    if args.record:
        save_reference(workload.name, fps_t, counts)
        print(f"recorded {len(counts)} rounds of {workload.name} in {REFERENCE_PATH}")
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.jsonl.gz")
    tracer.write(trace_path)
    print(f"trace written to {trace_path}")
    values = per_layer(tracer, wall_t, wall_u)
    attempted = len(records_u) + len(records_t)
    return values, per_layer_units(), {}, attempted, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help=f"traced run that stores seed {REFERENCE_SEED}'s fingerprints and "
        "counts as the reference",
    )
    args = parser.parse_args(argv)
    if args.record and args.seed != REFERENCE_SEED:
        parser.error(f"--record needs --seed {REFERENCE_SEED}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tsplocal")):
        print(f"error: no tsplocal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tsplocal

    if not os.path.abspath(tsplocal.__file__).startswith(SRC + os.sep):
        print(f"error: tsplocal was imported from {tsplocal.__file__}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args)))
    run = run_traced if args.trace or args.record else run_untraced
    values, units, notes, attempted, failures = run(workload, args)
    for r, name, reason in failures:
        print(f"FAILED {workload.name} round={r} job={name}: {reason}")
    failed = len({(r, name) for r, name, _ in failures})
    print(f"failed_frac {failed / attempted} ({failed} of {attempted} jobs)")
    for name, value in values.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
