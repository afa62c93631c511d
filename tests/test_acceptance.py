"""Acceptance gate: the nine checks the package must pass before release.

Every check prints one PASS/FAIL line (run with `pytest -s` to see them all)
and asserts both the mathematical claim and its runtime budget.  All rank
comparisons are exact integer equality; the only randomness is the seeded
finite-field point choice, whose one-sided failure probability is below
2**-40 per decision at the default prime and trial count, and the seeded
rational oracle points in criterion 7.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

import spherig as sp
from spherig.certificates import (
    Certificate,
    certify_missing_face_edge,
    certify_star_rigidity,
    check,
)
from spherig.cli import main as cli_main
from spherig.graphs import Graph, complete_graph, cone_graph, graph_of, union
from spherig.harness import (
    DEFAULT_FAMILIES,
    build_corpus,
    flip_walk_corpus,
    verify_contraction_reduction,
    verify_negative_control,
)
from spherig.rigidity import decide_rigidity, rigidity_target

from oracles import (
    brute_contract,
    brute_missing_faces,
    brute_prime_factors,
    rational_rigidity_rank,
)

SEED = 20260823


def report(num: int, desc: str, ok: bool, elapsed: float, budget: float | None) -> None:
    verdict = "PASS" if ok else "FAIL"
    window = f"{elapsed:.2f}s < {budget:.0f}s" if budget is not None else f"{elapsed:.2f}s"
    print(f"\nacceptance {num}: {verdict} - {desc} [{window}]")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def sweep_corpus() -> list[tuple[str, sp.SimplicialComplex, int]]:
    """The spheres whose every edge deletion must stay rigid."""
    named = [
        ("cross-4", sp.cross_polytope(4), 4),
        ("cross-5", sp.cross_polytope(5), 5),
        ("join-2-2", sp.join_spheres(2, 2), 4),
        ("join-2-3", sp.join_spheres(2, 3), 5),
        ("join-3-3", sp.join_spheres(3, 3), 6),
        ("join-cycle-4-4", sp.join_simplex_cycle(4, 4), 4),
        ("join-cycle-4-5", sp.join_simplex_cycle(4, 5), 4),
        ("join-cycle-4-6", sp.join_simplex_cycle(4, 6), 4),
        ("join-cycle-4-7", sp.join_simplex_cycle(4, 7), 4),
        ("join-cycle-5-5", sp.join_simplex_cycle(5, 5), 5),
        ("cyclic-7-4", sp.cyclic_polytope_boundary(7, 4), 4),
    ]
    c84 = sp.cyclic_polytope_boundary(8, 4)
    if c84.is_prime():
        named.append(("cyclic-8-4", c84, 4))
    walks = flip_walk_corpus(SEED, count=20)
    assert len(walks) == 20
    named.extend((f"flip-walk-{i}", delta, 4) for i, delta in enumerate(walks))
    return named


def test_01_simplex_boundary_ranks():
    t0 = time.perf_counter()
    ok = True
    for d in range(3, 7):
        verdict = decide_rigidity(graph_of(sp.boundary_simplex(d)), d, seed=SEED)
        ok = ok and verdict.rank == comb(d + 1, 2) and verdict.stress_dim == 0
    elapsed = time.perf_counter() - t0
    report(1, "simplex boundary graphs hit rank C(d+1,2) with no stress, d=3..6",
           ok and elapsed < 1.0, elapsed, 1.0)


def test_02_every_edge_deletion_stays_rigid():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for name, delta, d in sweep_corpus():
        assert delta.is_prime(), name
        graph = graph_of(delta)
        target = rigidity_target(len(graph.vertices), d)
        for a, b in graph.sorted_edges():
            verdict = decide_rigidity(
                graph.remove_edge(a, b), d, trials=1,
                seed=sp.derive_seed(SEED, name, a, b),
            )
            ok = ok and verdict.rank == target
            checked += 1
    elapsed = time.perf_counter() - t0
    report(2, f"{checked} single-edge deletions across 32 prime spheres keep full rank",
           ok and checked > 500 and elapsed < 60.0, elapsed, 60.0)


def test_03_negative_control():
    t0 = time.perf_counter()
    ok = True
    for name, gamma in (("simplex", sp.boundary_simplex(4)), ("cross", sp.cross_polytope(4))):
        rep = verify_negative_control(gamma, seed=SEED, name=name)
        ok = ok and rep.count("pass") == len(rep.records) == 4
    elapsed = time.perf_counter() - t0
    report(3, "stack-then-delete drops the rank by exactly one on both controls",
           ok and elapsed < 5.0, elapsed, 5.0)


def test_04_stress_dimension_equals_g2():
    t0 = time.perf_counter()
    ok = True
    values = set()
    corpus = build_corpus(DEFAULT_FAMILIES, (4, 5, 6), SEED)
    for entry in corpus:
        verdict = decide_rigidity(
            graph_of(entry.complex), entry.d, seed=sp.derive_seed(SEED, entry.name)
        )
        g2 = entry.complex.g2()
        ok = ok and verdict.stress_dim == g2
        values.add(g2)
    elapsed = time.perf_counter() - t0
    report(4, f"stress dimension equals g2 on all {len(corpus)} corpus spheres "
              f"(g2 values seen: {sorted(values)})",
           ok and {0, 1, 2, 3, 5} <= values and elapsed < 10.0, elapsed, 10.0)


def test_05_contraction_rank_identity():
    t0 = time.perf_counter()
    ok = True
    qualifying = {}
    for name, delta in (
        ("cross-4", sp.cross_polytope(4)),
        ("join-cycle-4-5", sp.join_simplex_cycle(4, 5)),
    ):
        count = 0
        for edge in graph_of(delta).sorted_edges():
            rep = verify_contraction_reduction(delta, edge, seed=SEED, name=name)
            ok = ok and rep.count("fail") == 0
            if rep.records[0].verdict != "skip":
                ok = ok and rep.count("pass") == 2  # degenerate and generic points
                count += 1
        qualifying[name] = count
    elapsed = time.perf_counter() - t0
    report(5, f"rank(G-e) = rank(contracted) + 4 at both point types "
              f"({qualifying['cross-4']}+{qualifying['join-cycle-4-5']} qualifying edges)",
           ok and qualifying == {"cross-4": 24, "join-cycle-4-5": 15} and elapsed < 5.0,
           elapsed, 5.0)


def generated_certificates():
    certs = []
    for delta, d in ((sp.cross_polytope(4), 4), (sp.cross_polytope(5), 5)):
        faces = [frozenset()]
        for size in range(1, d - 2):
            faces.extend(sorted(delta.faces_of_dim(size - 1), key=sorted))
        certs.extend(certify_star_rigidity(delta, face) for face in faces)
    for delta, d in ((sp.join_spheres(2, 3), 5), (sp.join_simplex_cycle(4, 5), 4)):
        for sigma in delta.missing_faces():
            if not 2 <= len(sigma) - 1 <= d - 2:
                continue
            certs.extend(
                certify_missing_face_edge(delta, sigma, edge)
                for edge in combinations(sorted(sigma), 2)
            )
    return certs


def test_06_lemma_calculus():
    t0 = time.perf_counter()
    ok = True

    # coning shifts the rigidity dimension by exactly one
    for i in range(50):
        rng = random.Random(sp.derive_seed(SEED, "cone", i))
        n = rng.randint(5, 12)
        d = 3 + i % 3
        edges = [e for e in combinations(range(1, n + 1), 2)
                 if rng.random() < rng.choice((0.4, 0.6, 0.8))]
        g = Graph(range(1, n + 1), edges)
        base = decide_rigidity(g, d - 1, seed=sp.derive_seed(SEED, "base", i)).is_rigid
        coned = decide_rigidity(
            cone_graph(g, n + 1), d, seed=sp.derive_seed(SEED, "coned", i)
        ).is_rigid
        ok = ok and base == coned

    certs = generated_certificates()
    for i, cert in enumerate(certs):
        ok = ok and check(cert, seed=sp.derive_seed(SEED, "cert", i))
        engine = decide_rigidity(
            cert.graph, cert.d, seed=sp.derive_seed(SEED, "claim", i)
        ).is_rigid
        ok = ok and engine

    # gluing over d-1 shared vertices must be rejected
    g1, g2 = complete_graph(range(1, 7)), complete_graph(range(4, 10))
    thin = Certificate(
        graph=union(g1, g2), d=4, rule="Gluing",
        children=(
            Certificate(graph=g1, d=4, rule="CompleteLeaf"),
            Certificate(graph=g2, d=4, rule="CompleteLeaf"),
        ),
    )
    ok = ok and not check(thin)

    elapsed = time.perf_counter() - t0
    report(6, f"cone lemma on 50 random graphs, {len(certs)} generated certificates "
              "pass with rigid claims, thin gluing rejected",
           ok and elapsed < 30.0, elapsed, 30.0)


def test_07_rational_rank_oracle():
    t0 = time.perf_counter()
    ok = True
    small = [
        (entry.name, entry.complex, entry.d)
        for entry in build_corpus(DEFAULT_FAMILIES, (4, 5, 6), SEED)
        if len(entry.complex.vertices) <= 8
    ]
    assert len(small) >= 10
    for name, delta, d in small:
        graph = graph_of(delta)
        field_rank = decide_rigidity(graph, d, seed=sp.derive_seed(SEED, name)).rank
        oracle = rational_rigidity_rank(
            graph, d, random.Random(sp.derive_seed(SEED, "rational", name))
        )
        ok = ok and field_rank == oracle
    elapsed = time.perf_counter() - t0
    report(7, f"finite-field rank matches exact rational rank on {len(small)} spheres",
           ok and elapsed < 30.0, elapsed, 30.0)


def test_08_combinatorial_oracles():
    t0 = time.perf_counter()
    ok = True
    corpus = [
        (entry.name, entry.complex, entry.d)
        for entry in build_corpus(DEFAULT_FAMILIES, (4, 5, 6), SEED)
        if len(entry.complex.vertices) <= 10
    ]
    sums = [
        ("stacked-simplex",
         sp.stack_over_facet(sp.boundary_simplex(4), (1, 2, 3, 4), 6), 4),
        ("double-stack",
         sp.stack_over_facet(
             sp.stack_over_facet(sp.boundary_simplex(4), (1, 2, 3, 4), 6),
             (1, 2, 3, 6), 7), 4),
    ]
    for name, delta, d in corpus + sums:
        ok = ok and delta.missing_faces() == brute_missing_faces(delta.facets)
        v_new = max(delta.vertices) + 1
        for edge in graph_of(delta).sorted_edges():
            got = set(delta.contract_edge(edge, v_new).facets)
            ok = ok and got == brute_contract(delta.facets, *edge, v_new)
        factors = {f.facets for f in sp.prime_factors(delta)}
        ok = ok and factors == set(brute_prime_factors(delta.facets, d))
    elapsed = time.perf_counter() - t0
    report(8, f"missing faces, contractions and prime factors match brute force "
              f"on {len(corpus) + len(sums)} complexes",
           ok and elapsed < 30.0, elapsed, 30.0)


def test_09_verify_is_deterministic(tmp_path, capsys):
    t0 = time.perf_counter()
    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    code1 = cli_main(["verify", "--seed", str(SEED), "--machine", str(first)])
    code2 = cli_main(["verify", "--seed", str(SEED), "--machine", str(second)])
    capsys.readouterr()  # swallow the two human tables
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - t0
    report(9, "two full verify runs with one seed give byte-identical machine reports",
           ok, elapsed, None)
