"""Batch experiment runner.

Subcommands: construct, solve, certify, analyze, ratio-sweep. Every run
writes one JSON report with a stable field order; identical configuration
and seed produce byte-identical reports. Wall-clock timings go to stderr
only, so they never break report determinism. Cages come from the catalog
files shipped in the package, verified on load.

Exit codes: 0 success; 1 a counterexample or violation was found; 2 a bad
command line or a malformed input file, reported on one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .adversarial import (
    build_12tsp_lower,
    build_graph_tsp_lower,
    extend_graph_tsp,
    write_bundle,
)
from .certify import (
    HELD_KARP_LIMIT,
    build_g2,
    held_karp,
    length_class_report,
    verify_k_improv_optimal,
    verify_k_optimal,
)
from .core import ParseError, read_instance, read_tour, tour_cost
from .core.rand import random_metric_instance, random_tour
from .extremal import load_cage
from .localsearch import (
    k_improv,
    k_opt,
    lin_kernighan,
    tour_to_two_matching,
)


def _ratio_fields(num: int, den: int) -> dict:
    frac = Fraction(num, den)
    return {
        "ratio": f"{frac.numerator}/{frac.denominator}",
        "ratio_decimal": f"{num / den:.6f}",
    }


def _write_report(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if out_path:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_cage(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("cage must be 'delta,girth'")
    return int(parts[0]), int(parts[1])


def cmd_construct(args) -> int:
    cage = load_cage(*args.cage)
    if args.family == "one-two":
        g = args.g if args.g is not None else args.cage[1]
        bundle = build_12tsp_lower(args.k, g, cage)
    else:
        bundle = build_graph_tsp_lower(args.f, args.k, cage)
        if args.a != 1 or args.b != 0:
            bundle = extend_graph_tsp(bundle, args.a, args.b)
    report = {
        "task": "construct",
        "family": args.family,
        "cage": list(args.cage),
        "params": {key: str(val) for key, val in sorted(bundle.params.items())},
        "n": bundle.instance.n,
        "engineered_cost": bundle.engineered_cost(),
        "witness_cost": bundle.witness_cost(),
        **_ratio_fields(bundle.engineered_cost(), bundle.witness_cost()),
    }
    if args.out_bundle:
        write_bundle(bundle, args.out_bundle)
        report["bundle_dir"] = args.out_bundle
    _write_report(report, args.out)
    return 0


def cmd_solve(args) -> int:
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        inst = random_metric_instance(args.n, seed=seed, max_cost=args.max_cost)
        start = random_tour(args.n, seed=seed + 10_000)
        if args.algorithm == "k-opt":
            out = k_opt(inst, start, args.k)
        elif args.algorithm == "lk":
            out = lin_kernighan(inst, start, args.p1, args.p2)
        else:
            raise ValueError(f"unknown algorithm {args.algorithm!r}")
        row = {
            "seed": seed,
            "start_cost": tour_cost(inst, start),
            "final_cost": tour_cost(inst, out),
        }
        if args.n <= HELD_KARP_LIMIT:
            _, opt = held_karp(inst)
            row["optimum"] = opt
            row.update(_ratio_fields(row["final_cost"], opt))
        rows.append(row)
    report = {
        "task": "solve",
        "algorithm": args.algorithm,
        "n": args.n,
        "k": args.k,
        "p1": args.p1,
        "p2": args.p2,
        "seed": args.seed,
        "trials": args.trials,
        "rows": rows,
    }
    _write_report(report, args.out)
    return 0


def _read_file(path: str, parse):
    """parse(contents of path); a malformed file exits 2, as a bad argument does."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except ParseError as exc:
        print(f"tsplocal: {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_certify(args) -> int:
    instance = _read_file(args.instance, lambda data: read_instance(data, args.format))
    tour = _read_file(args.tour, read_tour)
    if args.mode == "k-opt":
        cert = verify_k_optimal(instance, tour, args.k, budget=args.budget)
        counter = None
        if cert.counterexample is not None:
            counter = {
                "removed": sorted(sorted(e) for e in cert.counterexample.removed),
                "added": sorted(sorted(e) for e in cert.counterexample.added),
                "delta": cert.counterexample.delta,
            }
        report = {
            "task": "certify",
            "mode": "k-opt",
            "k": args.k,
            "certified": cert.certified,
            "searched": cert.searched,
            "counterexample": counter,
        }
    else:
        tm = tour_to_two_matching(instance, tour)
        cert = verify_k_improv_optimal(instance, tm, args.k, budget=args.budget)
        counter = None
        if cert.counterexample is not None:
            counter = {
                "deleted": sorted(sorted(e) for e in cert.counterexample.deleted),
                "added": sorted(sorted(e) for e in cert.counterexample.added),
            }
        report = {
            "task": "certify",
            "mode": "k-improv",
            "k": args.k,
            "certified": cert.certified,
            "searched": cert.searched,
            "counterexample": counter,
        }
    _write_report(report, args.out)
    return 0 if cert.certified else 1


def cmd_analyze(args) -> int:
    rows = []
    violations = 0
    for trial in range(args.trials):
        seed = args.seed + trial
        inst = random_metric_instance(args.n, seed=seed, max_cost=args.max_cost)
        ref, opt = held_karp(inst)
        tour = k_opt(inst, random_tour(args.n, seed=seed + 10_000), args.k)
        rep = length_class_report(inst, tour, ref, args.k)
        class_rows = []
        for l in rep.nonempty_classes():
            cert = build_g2(inst, tour, ref, args.k, l)
            if cert.has_violation():
                violations += 1
            class_rows.append(
                {
                    "l": l,
                    "q_l": cert.q_l,
                    "arcs": cert.contraction.arc_count,
                    "retained": cert.retained,
                    "girth": (
                        "inf"
                        if cert.girth_value == float("inf")
                        else int(cert.girth_value)
                    ),
                    "violation": cert.has_violation(),
                }
            )
        rows.append(
            {
                "seed": seed,
                "tour_cost": tour_cost(inst, tour),
                "optimum": opt,
                "classes": class_rows,
            }
        )
    report = {
        "task": "analyze",
        "n": args.n,
        "k": args.k,
        "seed": args.seed,
        "trials": args.trials,
        "violations": violations,
        "rows": rows,
    }
    _write_report(report, args.out)
    return 0 if violations == 0 else 1


def cmd_ratio_sweep(args) -> int:
    rows = []
    for cage_key in args.cages:
        cage = load_cage(*cage_key)
        if args.family == "one-two":
            bundle = build_12tsp_lower(args.k, cage_key[1], cage)
        else:
            f = cage_key[0] // 2
            bundle = build_graph_tsp_lower(f, args.k, cage)
        rows.append(
            {
                "cage": list(cage_key),
                "n": bundle.instance.n,
                "engineered_cost": bundle.engineered_cost(),
                "witness_cost": bundle.witness_cost(),
                **_ratio_fields(
                    bundle.engineered_cost(), bundle.witness_cost()
                ),
            }
        )
    report = {
        "task": "ratio-sweep",
        "family": args.family,
        "k": args.k,
        "rows": rows,
    }
    _write_report(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsplocal",
        description="TSP local search experiments: adversarial constructions, "
        "solvers, certifiers and tour analyzers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an adversarial instance bundle")
    p.add_argument("--family", choices=("one-two", "graph"), required=True)
    p.add_argument("--cage", type=_parse_cage, default=(4, 6), help="delta,girth")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--g", type=int, default=None, help="girth target (one-two)")
    p.add_argument("--f", type=int, default=2, help="marking stride (graph)")
    p.add_argument("--a", type=int, default=1, help="copies (graph extension)")
    p.add_argument("--b", type=int, default=0, help="path vertices (graph extension)")
    p.add_argument("--out-bundle", default=None, help="directory for the bundle files")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("solve", help="run a local search over seeded instances")
    p.add_argument("--algorithm", choices=("k-opt", "lk"), default="k-opt")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p1", type=int, default=5)
    p.add_argument("--p2", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--max-cost", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="certify local optimality of a tour file")
    p.add_argument("--mode", choices=("k-opt", "k-improv"), default="k-opt")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--format", choices=("full-matrix", "edge-list", "unit-edge-list"),
        required=True,
    )
    p.add_argument("--tour", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("analyze", help="length-class girth analysis of k-opt tours")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-cost", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ratio-sweep", help="ratio floors across catalog cages")
    p.add_argument("--family", choices=("one-two", "graph"), default="one-two")
    p.add_argument("--k", type=int, default=2)
    p.add_argument(
        "--cages",
        type=_parse_cage,
        nargs="+",
        default=[(4, 6), (4, 8), (4, 12)],
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ratio_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    code = args.func(args)
    elapsed = time.monotonic() - start
    print(f"[tsplocal] {args.command} finished in {elapsed:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
