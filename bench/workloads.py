"""The benchmark's three workloads: inputs from a seed, one pass, correctness.

Each workload is a `Workload` with three functions:

- ``setup(seed)`` imports what it needs from spherig and builds the inputs;
  the same seed gives the same inputs.
- ``run_pass(inputs, clock)`` calls into spherig once per query and returns
  a `Pass` timed with `clock`.  It looks every program function up at call
  time, through its module, so a span recorder installed around the pass
  sees the calls.
- ``check(inputs, passes)`` compares the outputs with values the benchmark
  derives without spherig's rank engine and returns (attempted, failed,
  notes).  Mismatches are failed items.

Why each workload exists is written down in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable


Clock = Callable[[], float]


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    seconds: float
    items: int
    latencies: list[float]  # seconds per query, in input order
    outputs: list
    starts: list[float]  # clock at each query's start


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    query: str
    setup: Callable
    run_pass: Callable[..., Pass]
    check: Callable[..., tuple[int, int, list[str]]]


def _module(name: str):
    return importlib.import_module(f"spherig.{name}")


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds go through sha512, so the stream is the same in every process
    return random.Random(f"{workload}:{seed}")


# -- verify-default -----------------------------------------------------------


def verify_setup(seed: int) -> list[str]:
    _module("cli")
    return ["verify", "--seed", str(seed), "--machine", "-"]


def verify_pass(argv: list[str], clock: Clock = time.perf_counter) -> Pass:
    cli = _module("cli")
    buf = io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    seconds = clock() - t0
    report = buf.getvalue()
    return Pass(seconds, report.count("\n"), [seconds], [(rc, report)], [t0])


def verify_check(argv: list[str], passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Exit 0, no fail record, and the same report from every pass.

    The report's digest is printed for information only: planned changes to
    the seed and rank columns will change it legitimately.
    """
    attempted = failed = 0
    first_rc, first = passes[0].outputs[0]
    first_lines = Counter(first.splitlines())
    for p in passes:
        rc, report = p.outputs[0]
        lines = report.splitlines()
        bad = sum(1 for line in lines if line.split("\t")[2:3] == ["fail"])
        if report != first:
            bad = max(bad, sum((Counter(lines) - first_lines).values()), 1)
        if rc != 0:
            bad = max(bad, 1)
        attempted += len(lines)
        failed += bad
    verdicts = Counter(line.split("\t")[2] for line in first.splitlines())
    notes = [
        f"exit code {first_rc}; records per pass {sum(verdicts.values())}: "
        + ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items())),
        f"report sha256 {hashlib.sha256(first.encode()).hexdigest()} (information only)",
    ]
    return attempted, failed, notes


# -- rank-queries -------------------------------------------------------------

RANK_DIMS = (4, 5, 6)
RANK_SIZES = range(4, 17)  # n - d for both halves
DENSE_EDGES_PER_GRAPH = 2
STACK_CHAINS = 2


@dataclass(frozen=True)
class Query:
    graph: object
    d: int
    seed: int
    expect: tuple[bool, int]  # (is_rigid, rank)
    kind: str


def _target(n: int, d: int) -> int:
    return d * n - comb(d + 1, 2)


def rank_setup(seed: int) -> list[Query]:
    """About 160 one-shot decisions on distinct graphs, d = 4..6.

    Dense half: the neighborly cyclic polytope C(n, d) has the complete
    graph, and K_n minus an edge with n >= d+2 is rigid (rank = target).
    Sparse half: chains of stackings over a facet of C(d+2, d).  The last
    stacked vertex has degree d; deleting one of its edges leaves the rigid
    sphere before that stacking plus a vertex on d-1 bars, so rank =
    target - 1.  C(d+2, d) has g2 = 1, so the graph keeps one stress, has
    target edges after the deletion, and the engine runs every trial.
    """
    generators, graphs = _module("generators"), _module("graphs")
    rng = _rng("rank-queries", seed)
    queries: list[Query] = []
    for d in RANK_DIMS:
        for n in (d + k for k in RANK_SIZES):
            g = graphs.graph_of(generators.cyclic_polytope_boundary(n, d))
            edges = g.sorted_edges()
            if len(edges) != comb(n, 2):
                raise RuntimeError(f"C({n},{d}) is not neighborly: {len(edges)} edges")
            for a, b in rng.sample(edges, DENSE_EDGES_PER_GRAPH):
                queries.append(
                    Query(g.remove_edge(a, b), d, rng.getrandbits(62), (True, _target(n, d)), "dense")
                )
        for _ in range(STACK_CHAINS):
            delta = generators.cyclic_polytope_boundary(d + 2, d)
            for v in range(d + 3, d + max(RANK_SIZES) + 1):
                facet = rng.choice(delta.sorted_facets())
                delta = generators.stack_over_facet(delta, facet, v)
                if v - d not in RANK_SIZES:
                    continue
                g = graphs.graph_of(delta)
                degree = sum(1 for e in g.edges if v in e)
                if degree != d or len(g.edges) != _target(v, d) + 1:
                    raise RuntimeError(
                        f"stacking {v} over C({d + 2},{d}): degree {degree}, {len(g.edges)} edges"
                    )
                u = rng.choice(facet)
                queries.append(
                    Query(g.remove_edge(u, v), d, rng.getrandbits(62), (False, _target(v, d) - 1), "sparse")
                )
    if len({(q.graph, q.d) for q in queries}) != len(queries):
        raise RuntimeError("rank-queries drew the same graph twice")
    return queries


def rank_pass(queries: list[Query], clock: Clock = time.perf_counter) -> Pass:
    rigidity = _module("rigidity")
    latencies, outputs, starts = [], [], []
    t0 = clock()
    for q in queries:
        t = clock()
        verdict = rigidity.decide_rigidity(q.graph, q.d, seed=q.seed)
        latencies.append(clock() - t)
        starts.append(t)
        outputs.append((verdict.is_rigid, verdict.rank))
    return Pass(clock() - t0, len(queries), latencies, outputs, starts)


def rank_check(queries: list[Query], passes: list[Pass]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    for p in passes:
        attempted += len(queries)
        failed += sum(1 for q, out in zip(queries, p.outputs) if out != q.expect)
    kinds = Counter(q.kind for q in queries)
    sizes = sorted(len(q.graph.edges) for q in queries)
    notes = [
        f"{len(queries)} queries per pass: {kinds['dense']} dense (rigid), "
        f"{kinds['sparse']} sparse (flexible); edges per graph {sizes[0]}..{sizes[-1]}"
    ]
    return attempted, failed, notes


# -- flip-walks ---------------------------------------------------------------

# Each query is one flip_walk_corpus call that runs exactly one walk: count
# equals walk_steps, and a walk harvests at most one sphere per step, so the
# harvest never ends a walk early and every query does FLIP_WALK_STEPS flips.
# An item is one flip step.  Harvests per walk vary a lot (1.8 on average,
# most walks 0-4), so counting harvested spheres as items would make the rate
# depend more on the seed than on the program; flip steps do not.
FLIP_WALKS = 64
FLIP_WALK_STEPS = 10
FLIP_MAX_VERTICES = 14


def flip_setup(seed: int) -> list[int]:
    _module("harness")
    rng = _rng("flip-walks", seed)
    return [rng.getrandbits(62) for _ in range(FLIP_WALKS)]


def flip_pass(seeds: list[int], clock: Clock = time.perf_counter) -> Pass:
    harness = _module("harness")
    latencies, outputs, starts = [], [], []
    t0 = clock()
    for s in seeds:
        t = clock()
        starts.append(t)
        spheres = harness.flip_walk_corpus(
            s,
            count=FLIP_WALK_STEPS,
            walk_steps=FLIP_WALK_STEPS,
            max_vertices=FLIP_MAX_VERTICES,
            max_walks=1,
        )
        latencies.append(clock() - t)
        outputs.append([delta.facets for delta in spheres])
    return Pass(clock() - t0, len(seeds) * FLIP_WALK_STEPS, latencies, outputs, starts)


def _is_3_pseudomanifold(facets: frozenset) -> bool:
    """Pure 3-dimensional, every triangle in exactly two facets, facet graph connected."""
    if any(len(f) != 4 for f in facets):
        return False
    ridges: dict[frozenset, list] = {}
    for f in facets:
        for r in combinations(sorted(f), 3):
            ridges.setdefault(frozenset(r), []).append(f)
    if any(len(fs) != 2 for fs in ridges.values()):
        return False
    start = next(iter(facets))
    seen, stack = {start}, [start]
    while stack:
        f = stack.pop()
        for r in combinations(sorted(f), 3):
            for g in ridges[frozenset(r)]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
    return len(seen) == len(facets)


def _g2_3sphere(facets: frozenset) -> int:
    vertices = frozenset().union(*facets)
    edges = {frozenset(e) for f in facets for e in combinations(sorted(f), 2)}
    return len(edges) - 4 * len(vertices) + 10


def flip_check(seeds: list[int], passes: list[Pass]) -> tuple[int, int, list[str]]:
    """Every harvested sphere: distinct within its walk, at most FLIP_MAX_VERTICES
    vertices, a 3-pseudomanifold with g2 > 0; each walk the same in every pass.

    A walk with a wrong harvest counts all its flip steps as failed.
    """
    attempted = failed = 0
    first = passes[0].outputs
    for p in passes:
        for harvest, reference in zip(p.outputs, first):
            attempted += FLIP_WALK_STEPS
            ok = (
                harvest == reference
                and len(set(harvest)) == len(harvest)
                and all(
                    len(frozenset().union(*facets)) <= FLIP_MAX_VERTICES
                    and _is_3_pseudomanifold(facets)
                    and _g2_3sphere(facets) > 0
                    for facets in harvest
                )
            )
            failed += 0 if ok else FLIP_WALK_STEPS
    sizes = Counter(len(frozenset().union(*f)) for harvest in first for f in harvest)
    notes = [
        f"{len(seeds)} walks of {FLIP_WALK_STEPS} flips per pass, max_vertices={FLIP_MAX_VERTICES}; "
        f"{sum(sizes.values())} spheres harvested, by vertex count "
        + ", ".join(f"{n}:{c}" for n, c in sorted(sizes.items()))
    ]
    return attempted, failed, notes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-default", "report record", "verify pass", verify_setup, verify_pass, verify_check),
        Workload("rank-queries", "decision", "decision", rank_setup, rank_pass, rank_check),
        Workload("flip-walks", "flip step", "one-walk flip_walk_corpus call", flip_setup, flip_pass, flip_check),
    )
}
