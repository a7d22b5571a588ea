"""The benchmark's workloads: seeded inputs, jobs, fingerprints and checks.

Each workload is a list of rounds. A round takes its inputs from one round
seed and runs a fixed list of jobs; a job replays the calls of the matching
`tsplocal` CLI command through the public functions of the layers (`core`,
`extremal`, `localsearch`, `adversarial`, `certify`). Jobs return their
outputs; fingerprints and checks are computed after the timed phase.

This module imports no `tsplocal` code at import time, so that set-up time
includes importing the package.
"""

from __future__ import annotations

import importlib
import os
import random
import tempfile
import time

from bench_metrics import digest, edge_list, tour_fingerprint

# Public functions the jobs call directly, with the span each gets in a
# traced run: attribute -> (module, span name).
LAYER_CALLS = {
    "random_metric_instance": ("tsplocal.core.rand", "core.random_metric_instance"),
    "random_one_two_instance": ("tsplocal.core.rand", "core.random_one_two_instance"),
    "load_cage": ("tsplocal.extremal", "extremal.load_cage"),
    "k_opt": ("tsplocal.localsearch", "localsearch.k_opt"),
    "lin_kernighan": ("tsplocal.localsearch", "localsearch.lin_kernighan"),
    "k_improv": ("tsplocal.localsearch", "localsearch.k_improv"),
    "held_karp": ("tsplocal.certify", "certify.held_karp"),
    "length_class_report": ("tsplocal.certify", "certify.length_class_report"),
    "build_g2": ("tsplocal.certify", "certify.build_g2"),
    "extract_improving_move": ("tsplocal.certify", "certify.extract_improving_move"),
    "verify_k_optimal": ("tsplocal.certify", "certify.verify_k_optimal"),
    "verify_k_improv_optimal": ("tsplocal.certify", "certify.verify_k_improv_optimal"),
    "build_12tsp_lower": ("tsplocal.adversarial", "adversarial.build_12tsp_lower"),
    "build_graph_tsp_lower": ("tsplocal.adversarial", "adversarial.build_graph_tsp_lower"),
    "extend_graph_tsp": ("tsplocal.adversarial", "adversarial.extend_graph_tsp"),
    "write_bundle": ("tsplocal.adversarial", "adversarial.write_bundle"),
    "read_bundle": ("tsplocal.adversarial", "adversarial.read_bundle"),
}

# Calls from one tsplocal module into a public function of another (or into
# its own public function), seen in a traced run by wrapping the calling
# module's attribute: (calling module, attribute, span name).
CROSS_MODULE = [
    ("tsplocal.localsearch.moves", "find_improving_kmove", "localsearch.find_improving_kmove"),
    ("tsplocal.localsearch.improv", "find_improving_improv_move",
     "localsearch.find_improving_improv_move"),
    ("tsplocal.localsearch.improv", "count_structure", "localsearch.count_structure"),
    ("tsplocal.localsearch.lk", "tour_from_edge_set", "localsearch.lin_kernighan.augment"),
    ("tsplocal.certify.improv_cert", "count_structure", "certify.verify_k_improv_optimal.key_eval"),
    ("tsplocal.extremal.cages", "girth", "extremal.girth"),
    ("tsplocal.adversarial.onetwo", "girth", "extremal.girth"),
    ("tsplocal.adversarial.graphtsp", "girth", "extremal.girth"),
    ("tsplocal.adversarial.onetwo", "bipartite_edge_coloring", "extremal.bipartite_edge_coloring"),
    ("tsplocal.adversarial.graphtsp", "eulerian_walk", "extremal.eulerian_walk"),
    ("tsplocal.adversarial.graphtsp", "GraphInstance", "core.graph_instance"),
]

# Used to build inputs and to check outputs; never traced.
HELPERS = {
    "Tour": "tsplocal.core",
    "tour_cost": "tsplocal.core",
    "line_metric": "tsplocal.core.rand",
    "random_tour": "tsplocal.core.rand",
    "apply_kmove": "tsplocal.localsearch",
    "apply_improv_move": "tsplocal.localsearch",
    "tour_to_two_matching": "tsplocal.localsearch",
    "TwoMatching": "tsplocal.localsearch",
}


class Api:
    """The tsplocal functions a workload calls, traced or not."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for attr, (module, span) in LAYER_CALLS.items():
            fn = getattr(importlib.import_module(module), attr)
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn))
        for attr, module in HELPERS.items():
            setattr(self, attr, getattr(importlib.import_module(module), attr))

    def count(self, name: str, amount: int) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r in a run with --seed `seed`."""
    return seed * 100_000 + r


# -- search: mirrors `tsplocal solve` -----------------------------------------


class Search:
    """Local search from random starts: k-Opt, Lin-Kernighan and k-improv."""

    name = "search"
    nominal_round_s = 4.8
    cages: list[tuple[int, int]] = []

    def make_round(self, api, s: int, r: int, workdir: str) -> dict:
        return {
            "m100": api.random_metric_instance(100, seed=s),
            "m40": api.random_metric_instance(40, seed=s),
            "m200": api.random_metric_instance(200, seed=s),
            "u100": api.random_one_two_instance(100, seed=s, unit_prob=0.05),
            "t100": api.random_tour(100, seed=s + 10_000),
            "t40": api.random_tour(40, seed=s + 10_000),
            "t200": api.random_tour(200, seed=s + 10_000),
        }

    # (job, instance key, start key, call, k certified by verify_k_optimal)
    JOBS = [
        ("k_opt2_n100", "m100", "t100", lambda api, i, t: api.k_opt(i, t, 2), 2),
        ("k_opt3_n40", "m40", "t40", lambda api, i, t: api.k_opt(i, t, 3), 3),
        ("lin_kernighan52_n200", "m200", "t200",
         lambda api, i, t: api.lin_kernighan(i, t, 5, 2), None),
        ("k_improv3_n100", "u100", "t100", lambda api, i, t: api.k_improv(i, t, 3), None),
    ]
    BY_NAME = {job[0]: job for job in JOBS}

    def jobs(self):
        return [
            (name, lambda api, x, done, f=f, ik=ik, tk=tk: f(api, x[ik], x[tk]))
            for name, ik, tk, f, _ in self.JOBS
        ]

    def fingerprint(self, api, name, x, out) -> dict:
        inst = x[self.BY_NAME[name][1]]
        return tour_fingerprint(out.order, api.tour_cost(inst, out))

    def check(self, api, name, x, done, out) -> None:
        _, ik, tk, _, k = self.BY_NAME[name]
        inst = x[ik]
        require(
            api.tour_cost(inst, out) <= api.tour_cost(inst, x[tk]),
            f"{name}: final tour costs more than the start",
        )
        if k is not None:
            cert = api.verify_k_optimal(inst, out, k)
            require(cert.certified, f"{name}: output is not {k}-optimal")


# -- analyze: mirrors `tsplocal analyze` and witness extraction ---------------

ANALYZE_K = 3
CLUSTER_EVERY = 4  # trial t with t % 4 == 3 uses a clustered instance
REVERSALS = 8  # seeded segment reversals applied to the clustered optimum


def cluster_points(seed: int, n: int) -> list[int]:
    """Two tight clusters of collinear integer points far apart."""
    rng = random.Random(seed)
    half = n // 2
    pts = sorted(rng.randrange(0, 4) for _ in range(half))
    pts += sorted(50 + rng.randrange(0, 4) for _ in range(n - half))
    return pts


class Analyze:
    """Length-class analysis of k-Opt tours against the Held-Karp optimum.

    One trial is one job. Every fourth trial analyses a segment-reversed
    optimum of a clustered line metric instead, so that violations occur and
    the move extractor runs.
    """

    name = "analyze"
    nominal_round_s = 0.25
    cages: list[tuple[int, int]] = []

    def make_round(self, api, s: int, t: int, workdir: str) -> dict:
        n = 14 + t % 3
        if t % CLUSTER_EVERY == CLUSTER_EVERY - 1:
            rng = random.Random(s + 77_000)
            segments = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(REVERSALS)]
            return {"inst": api.line_metric(cluster_points(s, n)), "segments": segments}
        return {
            "inst": api.random_metric_instance(n, seed=s),
            "start": api.random_tour(n, seed=s + 10_000),
        }

    def jobs(self):
        return [("trial", self._trial)]

    def _trial(self, api, x, done):
        inst = x["inst"]
        ref, opt = api.held_karp(inst)
        api.count("certify.held_karp.dp_cells", (1 << (inst.n - 1)) * (inst.n - 1))
        if "segments" in x:
            order = list(ref.order)
            for i, j in x["segments"]:
                order[i : j + 1] = reversed(order[i : j + 1])
            tour = api.Tour(order)
        else:
            tour = api.k_opt(inst, x["start"], ANALYZE_K)
        rep = api.length_class_report(inst, tour, ref, ANALYZE_K)
        classes, moves = [], []
        for l in rep.nonempty_classes():
            cert = api.build_g2(inst, tour, ref, ANALYZE_K, l)
            classes.append(cert)
            if cert.has_violation():
                api.count("certify.build_g2.violations", 1)
                moves.append((cert, api.extract_improving_move(inst, tour, cert)))
        return {"ref": ref, "opt": opt, "tour": tour, "classes": classes, "moves": moves}

    def fingerprint(self, api, name, x, out) -> dict:
        inst = x["inst"]
        return {
            "reference": tour_fingerprint(out["ref"].order, out["opt"]),
            "tour": tour_fingerprint(out["tour"].order, api.tour_cost(inst, out["tour"])),
            "classes": [
                [c.l, c.q_l, c.contraction.arc_count, c.retained, str(c.girth_value),
                 c.has_violation()]
                for c in out["classes"]
            ],
            "moves": [
                [edge_list(m.removed), edge_list(m.added), m.delta] for _, m in out["moves"]
            ],
        }

    def check(self, api, name, x, done, out) -> None:
        inst, tour = x["inst"], out["tour"]
        cost = api.tour_cost(inst, tour)
        require(api.tour_cost(inst, out["ref"]) == out["opt"], "optimum cost mismatch")
        require(out["opt"] <= cost, "tour beats the Held-Karp optimum")
        if "segments" not in x:
            cert = api.verify_k_optimal(inst, tour, ANALYZE_K)
            require(cert.certified, "k-Opt output is not 3-optimal")
            require(not out["moves"], "violation found on a 3-optimal tour")
        for g2, move in out["moves"]:
            h = len(g2.violating_cycle) // 2
            require(len(move.removed) <= h + 1, "extracted move is too large")
            improved = api.apply_kmove(inst, tour, move)
            require(api.tour_cost(inst, improved) < cost, "extracted move does not improve")


# -- construct-certify: mirrors `construct`, `ratio-sweep` and `certify` ------

# Exhaustive neighbourhood sizes of the certifier jobs; they do not depend on
# the seed.
EXPECTED_SEARCHED = {
    "verify_kopt2_7280": 26_488_280,
    "verify_kopt3_graph_4_8": 2_253_740,
    "verify_improv2_7280": 23_320_752,
    "verify_improv3_260": 4_300_348,
    "counterexample_improv3_260": 2_126_437,
}

# job -> (n, engineered cost, witness bound) of the (1,2)-TSP constructions:
# n = 10 s over s gadget copies, engineered cost 11 s, witness at most
# 10 s + 10 s / g.
ONE_TWO = {
    "build_12tsp_4_6": (260, 286, 260 + 260 // 6),
    "build_12tsp_4_8": (800, 880, 800 + 800 // 8),
    "build_12tsp_4_12": (7280, 8008, 7886),
}


class ConstructCertify:
    """Adversarial constructions, bundle IO and exhaustive certification."""

    name = "construct-certify"
    nominal_round_s = 23.0
    cages = [(4, 6), (4, 8), (4, 12)]

    def make_round(self, api, s: int, r: int, workdir: str) -> dict:
        rng = random.Random(s)
        # candidate segments for the seeded reversal of the 7280 tour
        segments = []
        for _ in range(64):
            i = rng.randrange(1, 7000)
            segments.append((i, i + rng.randrange(2, 7279 - i)))
        return {"segments": segments, "workdir": workdir}

    def jobs(self):
        def one_two(g, cage):
            return lambda api, x, d: api.build_12tsp_lower(2, g, x["cages"][cage])

        def graph_tsp(k, cage):
            return lambda api, x, d: api.build_graph_tsp_lower(2, k, x["cages"][cage])

        def kopt(k, source):
            return lambda api, x, d: self._kopt(api, d[source], k)

        def improv(k, source):
            return lambda api, x, d: self._improv(api, d[source], k)

        return [
            ("build_12tsp_4_6", one_two(6, (4, 6))),
            ("build_12tsp_4_8", one_two(8, (4, 8))),
            ("build_12tsp_4_12", one_two(12, (4, 12))),
            ("build_graph_tsp_4_8", graph_tsp(2, (4, 8))),
            ("build_graph_tsp_4_12", graph_tsp(3, (4, 12))),
            ("extend_graph_tsp",
             lambda api, x, d: api.extend_graph_tsp(d["build_graph_tsp_4_8"], 2, 3)),
            ("bundle_roundtrip", self._roundtrip),
            ("verify_kopt2_7280", kopt(2, "build_12tsp_4_12")),
            ("verify_kopt3_graph_4_8", kopt(3, "build_graph_tsp_4_8")),
            ("verify_improv2_7280", improv(2, "build_12tsp_4_12")),
            ("verify_improv3_260", improv(3, "build_12tsp_4_6")),
            ("counterexample_improv3_260", self._improv_counterexample),
            ("counterexample_kopt2_7280", self._kopt_counterexample),
        ]

    @staticmethod
    def _roundtrip(api, x, done):
        bundle = done["build_12tsp_4_12"]
        with tempfile.TemporaryDirectory(dir=x["workdir"]) as d:
            api.write_bundle(bundle, d)
            size = sum(os.path.getsize(os.path.join(d, f)) for f in os.listdir(d))
            api.count("adversarial.bundle_bytes", size)
            return api.read_bundle(d), size

    @staticmethod
    def _kopt(api, bundle, k, tour=None):
        if tour is None:
            tour = bundle.engineered_tour
        cert = api.verify_k_optimal(bundle.instance, tour, k)
        api.count("certify.verify_k_optimal.searched", cert.searched)
        return cert

    @staticmethod
    def _improv(api, bundle, k, tm=None):
        if tm is None:
            tm = api.tour_to_two_matching(bundle.instance, bundle.engineered_tour)
        cert = api.verify_k_improv_optimal(bundle.instance, tm, k)
        api.count("certify.verify_k_improv_optimal.searched", cert.searched)
        return cert

    def _improv_counterexample(self, api, x, done):
        """k=3 on the 260 2-matching with its middle edge (sorted) deleted."""
        bundle = done["build_12tsp_4_6"]
        tm = api.tour_to_two_matching(bundle.instance, bundle.engineered_tour)
        middle = sorted(tm.edges, key=sorted)[len(tm.edges) // 2]
        cut = api.TwoMatching.from_edges(tm.n, tm.edges - {middle})
        return self._improv(api, bundle, 3, cut), cut

    def _kopt_counterexample(self, api, x, done):
        """k=2 on the 7280 tour with one seeded segment reversed.

        The segment is the first candidate whose two boundary edges are unit
        edges and whose two replacement edges are not, so the reversal costs
        2 more and reversing it back is an improving 2-move.
        """
        bundle = done["build_12tsp_4_12"]
        inst, order = bundle.instance, list(bundle.engineered_tour.order)
        for i, j in x["segments"]:
            a, b, c, d = order[i - 1], order[i], order[j], order[j + 1]
            if inst.c(a, b) == inst.c(c, d) == 1 and inst.c(a, c) == inst.c(b, d) == 2:
                break
        else:
            raise CheckFailed("no candidate segment reverses two unit edges")
        order[i : j + 1] = reversed(order[i : j + 1])
        tour = api.Tour(order)
        return self._kopt(api, bundle, 2, tour), tour

    def fingerprint(self, api, name, x, out) -> dict:
        if name.startswith(("build_", "extend_")):
            return bundle_fingerprint(out)
        if name == "bundle_roundtrip":
            bundle, size = out
            return {"bundle": bundle_fingerprint(bundle), "bytes": size}
        cert = out[0] if isinstance(out, tuple) else out
        data = {"certified": cert.certified, "searched": cert.searched, "counterexample": None}
        move = cert.counterexample
        if move is not None:
            if hasattr(move, "removed"):
                data["counterexample"] = [
                    edge_list(move.removed), edge_list(move.added), move.delta
                ]
            else:
                data["counterexample"] = [edge_list(move.deleted), edge_list(move.added)]
        if isinstance(out, tuple) and name == "counterexample_kopt2_7280":
            data["tour"] = digest(list(out[1].order))
        return data

    def check(self, api, name, x, done, out) -> None:
        if name in ONE_TWO:
            n, eng, wit = ONE_TWO[name]
            require(out.instance.n == n, f"{name}: n={out.instance.n}, expected {n}")
            require(out.engineered_cost() == eng, f"{name}: engineered cost != {eng}")
            require(out.witness_cost() <= wit, f"{name}: witness costs more than {wit}")
        elif name == "build_graph_tsp_4_8":
            require(out.engineered_cost() == 160 and out.instance.n < 160, f"{name}: wrong costs")
        elif name == "build_graph_tsp_4_12":
            require(
                out.engineered_cost() == 1456 and out.instance.n < 1456, f"{name}: wrong costs"
            )
        elif name == "extend_graph_tsp":
            # a*f*|V(base)| + 2(a+b-1) with a=2, b=3, f=2 over the 80-vertex base
            require(out.engineered_cost() == 2 * 2 * 80 + 2 * 4, f"{name}: wrong cost")
        elif name == "bundle_roundtrip":
            bundle, orig = out[0], done["build_12tsp_4_12"]
            require(bundle.instance == orig.instance, "round trip changed the instance")
            require(bundle.engineered_tour == orig.engineered_tour, "round trip changed the tour")
            require(bundle.witness_tour == orig.witness_tour, "round trip changed the witness")
            require(
                bundle.params == {k: str(v) for k, v in orig.params.items()},
                "round trip changed the params",
            )
        elif name.startswith("verify_"):
            require(out.certified, f"{name}: not certified")
            require(out.searched == EXPECTED_SEARCHED[name], f"{name}: searched {out.searched}")
        elif name == "counterexample_improv3_260":
            cert, cut = out
            require(not cert.certified and cert.counterexample is not None, f"{name}: certified")
            require(cert.searched == EXPECTED_SEARCHED[name], f"{name}: searched {cert.searched}")
            inst = done["build_12tsp_4_6"].instance
            after = api.apply_improv_move(inst, cut, cert.counterexample)
            require(after.key() < cut.key(), f"{name}: counterexample does not improve")
        elif name == "counterexample_kopt2_7280":
            cert, tour = out
            require(not cert.certified and cert.counterexample is not None, f"{name}: certified")
            inst = done["build_12tsp_4_12"].instance
            improved = api.apply_kmove(inst, tour, cert.counterexample)
            require(
                api.tour_cost(inst, improved) < api.tour_cost(inst, tour),
                f"{name}: counterexample does not improve",
            )


def bundle_fingerprint(bundle) -> dict:
    return {
        "n": bundle.instance.n,
        "engineered": tour_fingerprint(bundle.engineered_tour.order, bundle.engineered_cost()),
        "witness": tour_fingerprint(bundle.witness_tour.order, bundle.witness_cost()),
        "params": {k: str(v) for k, v in sorted(bundle.params.items())},
    }


WORKLOADS = {w.name: w for w in (Search(), Analyze(), ConstructCertify())}


def rounds_for(workload, seconds: int) -> int:
    """Rounds in one measured pass: about `seconds` of work at the defining
    commit. The count depends only on `seconds`, so every commit does the
    same work and the work counts repeat exactly."""
    return max(1, int(seconds / workload.nominal_round_s))


def setup(workload, seed: int, rounds: int, workdir: str, tracer=None, patches=()):
    """Import tsplocal, load the workload's cages and make its inputs.

    With a tracer, `patches` are installed right after the import so that
    cross-module calls made during set-up are recorded too.
    """
    importlib.import_module("tsplocal")
    for module in sorted({m for m, _ in LAYER_CALLS.values()} | set(HELPERS.values())):
        importlib.import_module(module)
    if tracer is not None:
        tracer.install(patches)
    api = Api(tracer)
    cages = {key: api.load_cage(*key) for key in workload.cages}
    inputs = []
    for r in range(rounds):
        x = workload.make_round(api, round_seed(seed, r), r, workdir)
        x["cages"] = cages
        inputs.append(x)
    return api, inputs


def probe_setup(workload_name: str, seed: int, rounds: int, workdir: str) -> float:
    """Set-up time in a fresh interpreter, which pays every import."""
    start = time.perf_counter()
    setup(WORKLOADS[workload_name], seed, rounds, workdir)
    return time.perf_counter() - start
