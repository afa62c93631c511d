import random
from collections import Counter
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spherig as sp
import spherig.rigidity
from spherig.graphs import Graph, complete_graph, graph_of, union
from spherig.rigidity import (
    DEFAULT_PRIME,
    contraction_ranks,
    decide_rigidity,
    derive_seed,
    edge_deletion_ranks,
    random_embedding,
    rigid_verdict_memo,
    rigidity_target,
)

from oracles import (
    directions_rank_sum,
    echelon_mod_p,
    rank_mod_p,
    rational_rank,
    rational_rigidity_rank,
    rigidity_rows_mod_p,
    shape_edges,
    sorted_relabelling,
)

P = DEFAULT_PRIME
shape = spherig.rigidity._shape


def echelon_rank(rows: list[list[int]], ncols: int) -> int:
    """The rank the elimination kernel finds for rows with entries in [0, p)."""
    return len(spherig.rigidity._echelon(rows, ncols)[0])


def rank_bound(graph: Graph, d: int) -> int:
    return spherig.rigidity._rank_bound(spherig.rigidity._peel(graph, d), d)


def attach_order(graph: Graph, d: int):
    """The order every rank of the graph's matrix reads."""
    return spherig.rigidity._attach_order(spherig.rigidity._peel(graph, d), d)


def spy_reductions(monkeypatch) -> list:
    """Patch _reduced_rows to record the vertices, in placement order, of
    each graph whose matrix it reduces; return the record."""
    reduced = []
    real = spherig.rigidity._reduced_rows

    def counted(order, phi, d):
        reduced.append([v for v, _ in order[1]])
        return real(order, phi, d)

    monkeypatch.setattr(spherig.rigidity, "_reduced_rows", counted)
    return reduced


def first_rows_bound(graph: Graph, d: int, phi: dict) -> int:
    """The lower bound on the rank at phi that _rank_at reads, from the
    oracle's rank: the ranks of each vertex's directions to its first
    back-neighbours in the graph's attach order, which for a peeled vertex
    are its neighbours at removal."""
    return directions_rank_sum(phi, attach_order(graph, d)[1])


@pytest.fixture(scope="module")
def small_sphere_ranks(small_spheres) -> dict:
    """The rational oracle's rank, at one random point each, of every small
    sphere's graph G and of each G - ab, keyed by (name, None) and by (name,
    (a, b)): one table for every test that ranks them."""
    rng, ranks = random.Random(19), {}
    for name, delta, d in small_spheres:
        graph = graph_of(delta)
        ranks[name, None] = rational_rigidity_rank(graph, d, rng)
        for a, b in graph.sorted_edges():
            ranks[name, (a, b)] = rational_rigidity_rank(graph.remove_edge(a, b), d, rng)
    return ranks


@st.composite
def graphs_up_to_11_vertices(draw) -> tuple[Graph, int]:
    """A graph on 0..n-1, n <= 11, and a dimension d <= 5: a drawn set of
    edges or its complement, so sparse graphs with isolated vertices and
    several components occur, and dense ones with stresses."""
    n, d = draw(st.integers(1, 11)), draw(st.integers(1, 5))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        edges = set(pairs) - edges
    return Graph(range(n), edges), d


def count_embeddings(monkeypatch) -> list:
    """Patch random_embedding to record its calls; return the record."""
    drawn = []
    real = spherig.rigidity.random_embedding

    def counted(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(spherig.rigidity, "random_embedding", counted)
    return drawn


def first_point(graph: Graph, d: int, seed: int) -> dict:
    """The first trial point of decide_rigidity(graph, d, seed=seed)."""
    return random_embedding(graph, d, derive_seed(seed, "trial", 0))


def full_rank_at(graph: Graph, phi: dict, d: int) -> int:
    """The rank of the whole rigidity matrix at phi, from the oracle."""
    return rank_mod_p(rigidity_rows_mod_p(graph, phi, d))


def stacked_chain(d: int, rng: random.Random, last: int):
    """Graphs of stackings over random facets, from C(d+2, d) up to vertex
    `last`, each minus an edge between its newest vertex and that facet."""
    delta = sp.cyclic_polytope_boundary(d + 2, d)
    for v in range(d + 3, last + 1):
        facet = rng.choice(delta.sorted_facets())
        delta = sp.stack_over_facet(delta, facet, v)
        yield graph_of(delta).remove_edge(rng.choice(facet), v)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_label_sensitive(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_fits_in_64_bits(self):
        assert 0 <= derive_seed(0) < 2**64


class TestEmbedding:
    def test_random_embedding_is_seed_deterministic(self):
        g = complete_graph(range(1, 5))
        assert random_embedding(g, 3, 42) == random_embedding(g, 3, 42)
        assert random_embedding(g, 3, 42) != random_embedding(g, 3, 43)

    def test_coordinates_in_field(self):
        g = complete_graph(range(1, 5))
        phi = random_embedding(g, 3, 0)
        assert list(phi) == [1, 2, 3, 4]
        for point in phi.values():
            assert len(point) == 3
            assert all(0 <= x < P for x in point)


def reduction_against_the_oracle(graph: Graph, d: int, phi: dict) -> list[int]:
    """Check every row _reduced_rows yields at phi against the oracle's
    matrix: the row less the first rows it took at their weights is zero on
    each vertex's
    pivot columns (elimination with inverses of its first directions) and
    is the residual on the other columns, read vertex by vertex in placement
    order.  The rows are every row but the pivot rows, the first rows that
    raise their vertex's rank, in attach order, and the pivot rows' count
    plus the residuals' rank is the matrix's rank.  Return the positions of
    the rows in attach order."""
    order = attach_order(graph, d)
    edges, firsts = order
    count, ncols, rows = spherig.rigidity._reduced_rows(order, phi, d)
    matrix = dict(zip(graph.sorted_edges(), rigidity_rows_mod_p(graph, phi, d)))
    block = {v: i * d for i, v in enumerate(sorted(graph.vertices))}
    pivot_columns, other_columns, pivot_rows, start = [], [], set(), 0
    for v, back in firsts:
        directions = [[(x - y) % P for x, y in zip(phi[v], phi[u])] for u in back]
        pivots = echelon_mod_p(directions, d)[0]
        pivot_columns += [block[v] + c for c in pivots]
        other_columns += [block[v] + c for c in range(d) if c not in pivots]
        for j in range(len(back)):
            if rank_mod_p(directions[: j + 1]) > rank_mod_p(directions[:j]):
                pivot_rows.add(start + j)
        start += len(back)

    assert (count, ncols) == (len(pivot_rows), len(other_columns))
    positions, residuals = [], []
    for i, residual, taken in rows:
        row = matrix[edges[i]]
        for first, weights in taken:
            for j, h in enumerate(weights):
                row = [(x - h * y) % P for x, y in zip(row, matrix[edges[first + j]])]
        assert [row[c] for c in pivot_columns] == [0] * count, edges[i]
        assert [row[c] for c in other_columns] == residual, edges[i]
        positions.append(i)
        residuals.append(residual)
    assert positions == [i for i in range(len(edges)) if i not in pivot_rows]
    assert count + rank_mod_p(residuals) == rank_mod_p(list(matrix.values()))
    return positions


class TestRigidityMatrix:
    """_reduced_rows, the rigidity matrix as every rank past the first rows
    reads it, against the oracle's matrix entry by entry."""

    @pytest.mark.parametrize(
        "graph,d",
        [
            (graph_of(sp.cross_polytope(3)), 3),
            (graph_of(sp.cross_polytope(4)).remove_edge(1, 3), 4),
            (graph_of(sp.cyclic_polytope_boundary(9, 6)), 6),
            (Graph([2, 30, 7, 11], [(30, 2), (7, 11), (2, 11)]), 2),
        ],
    )
    def test_rows_match_the_oracle_entry_by_entry(self, graph, d):
        phi = random_embedding(graph, d, 5)
        reduction_against_the_oracle(graph, d, phi)
        # the last-placed vertex on the line through its first two
        # back-neighbours, or on its one back-neighbour: a first row of it
        # is dependent, and is reduced with the other rows
        v, back = attach_order(graph, d)[1][-1]
        u, *others = back
        w = others[0] if others else u
        phi[v] = tuple((2 * x - y) % P for x, y in zip(phi[u], phi[w]))
        positions = reduction_against_the_oracle(graph, d, phi)
        firsts = sum(len(around) for _, around in attach_order(graph, d)[1])
        assert any(i < firsts for i in positions)


class TestRankMod:
    """_echelon, the one elimination kernel, on rows with entries in [0, p)."""

    def test_zero_matrix(self):
        assert echelon_rank([[0, 0], [0, 0]], 2) == 0

    def test_identity(self):
        assert echelon_rank([[1, 0], [0, 1]], 2) == 2

    def test_dependent_rows(self):
        assert echelon_rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3) == 2

    def test_empty(self):
        assert echelon_rank([], 3) == 0

    def test_agrees_with_rational_rank_on_random_matrices(self):
        rng = random.Random(3)
        for _ in range(20):
            rows = [
                [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))]
            ]
            ncols = len(rows[0])
            for _ in range(rng.randrange(5)):
                rows.append([rng.randrange(-9, 10) for _ in range(ncols)])
            field_rows = [[x % P for x in r] for r in rows]
            assert echelon_rank(field_rows, ncols) == rational_rank(rows)

    @pytest.mark.parametrize(
        "stop,zero_rows", [(None, 284), ("at the rank", 102), ("below the rank", 55)]
    )
    def test_pivots_and_zero_row_supports_match_elimination_with_inverses(self, stop, zero_rows):
        # _echelon scales by pivot entries where the oracle divides by them.
        # Each row is extended by its unit vector, as edge_deletion_ranks
        # does, so a zero row's support past ncols names the rows of a
        # stress; a dependent row is a random combination of earlier rows
        rng = random.Random(41)
        zeros_read = 0
        for _ in range(80):
            ncols, m = rng.randrange(1, 9), rng.randrange(1, 13)
            rows: list[list[int]] = []
            for _ in range(m):
                if rows and rng.random() < 0.4:
                    picks = rng.sample(rows, rng.randrange(1, len(rows) + 1))
                    row = [sum(rng.randrange(P) * r[j] for r in picks) % P for j in range(ncols)]
                else:
                    lead = rng.randrange(ncols)
                    tail = [rng.choice((0, 1, rng.randrange(P))) for _ in range(lead, ncols)]
                    row = [0] * lead + tail
                rows.append(row)
            work = [row + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
            rank = len(echelon_mod_p(work, ncols)[0])
            cap = {None: None, "at the rank": rank, "below the rank": max(rank - 1, 1)}[stop]
            expected = echelon_mod_p(work, ncols, cap)
            pivots, zeros = spherig.rigidity._echelon(work, ncols, cap)
            assert (list(pivots), [[j for j, x in enumerate(z) if x] for z in zeros]) == expected
            zeros_read += len(zeros)
        assert zeros_read == zero_rows


def random_graph(rng: random.Random) -> Graph:
    """A seeded random graph on 1..12 vertices with gaps in its labels, of
    any density, so isolated vertices and several components occur."""
    labels = rng.sample(range(40), rng.randrange(1, 13))
    density = rng.choice((0.15, 0.4, 0.7, 1.0))
    return Graph(labels, [e for e in combinations(labels, 2) if rng.random() < density])


class TestAttachOrder:
    """_attach_order, the order every elimination reads its rows and column
    blocks in."""

    def test_places_by_most_placed_neighbours_and_lists_every_edge_once(self):
        rng = random.Random(19)
        isolated = disconnected = peeling = 0
        for _ in range(300):
            graph, d = random_graph(rng), rng.randrange(1, 7)
            peeled = spherig.rigidity._peel(graph, d)[0]
            edges, firsts = attach_order(graph, d)
            assert sorted(edges) == graph.sorted_edges()
            placed = [v for v, _ in firsts]
            assert sorted(placed) == sorted(graph.vertices)
            nbrs = {v: {u for e in graph.edges if v in e for u in e - {v}} for v in graph.vertices}
            # the core first, each step taking the most placed neighbours,
            # then the smallest label; then the peeled vertices, last peeled
            # first
            core = placed[: len(placed) - len(peeled)]
            assert placed[len(core) :] == [v for v, _ in peeled[::-1]]
            for i, v in enumerate(core):
                seen = set(core[:i])
                key = {u: (-len(nbrs[u] & seen), u) for u in core[i:]}
                assert key[v] == min(key.values())
            # a core vertex's first back-neighbours are its first min(d,
            # #earlier) placed neighbours; a peeled vertex's are all of its
            # neighbours placed before it, which are its neighbours at removal
            place = {v: i for i, v in enumerate(placed)}
            back = {v: sorted(nbrs[v] & set(placed[: place[v]]), key=place.get) for v in placed}
            expected = [(v, back[v][:d]) for v in core]
            expected += [(v, sorted(back[v])) for v, _ in peeled[::-1]]
            assert firsts == expected
            assert all(len(back[v]) <= d for v, _ in peeled)
            # first each vertex's edges to its first back-neighbours, then the
            # rest, both in placement order
            first = [(u, v) for v, around in firsts for u in around]
            rest = [(u, v) for v in placed for u in back[v] if (u, v) not in first]
            assert edges == [tuple(sorted(e)) for e in first + rest]
            isolated += any(not around for around in nbrs.values())
            disconnected += any(not back[v] for v in core[1:])
            peeling += bool(peeled)
        # nothing passes vacuously
        assert (isolated, disconnected, peeling) == (125, 95, 105)

    @staticmethod
    def first_count_against_the_oracle(graph: Graph, d: int, rank: int) -> int:
        """Assert that the first back-neighbours number at most the generic
        rank, the rational oracle's rank at a random point, and at most the
        peeling bound; return whether they meet the bound, which then is
        the rank."""
        peel = spherig.rigidity._peel(graph, d)
        count = sum(len(back) for _, back in spherig.rigidity._attach_order(peel, d)[1])
        bound = spherig.rigidity._rank_bound(peel, d)
        assert count <= rank <= bound, graph.sorted_edges()
        return count == bound

    def test_first_count_is_at_most_the_rank_on_small_spheres_and_their_deletions(
        self, small_spheres, small_sphere_ranks
    ):
        checked = settled = 0
        for name, delta, d in small_spheres:
            graph = graph_of(delta)
            for edge in (None, *graph.sorted_edges()):
                g = graph if edge is None else graph.remove_edge(*edge)
                rank = small_sphere_ranks[name, edge]
                settled += self.first_count_against_the_oracle(g, d, rank)
                checked += 1
        # the count falls short of the bound on 70: the graph of each
        # cross-polytope, whose largest clique is a facet, K_d, with every
        # deletion at d >= 4, and the 3 deletions of join-cycle-4-5 that
        # break each of its K_5
        assert (checked, settled) == (242, 172)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_first_count_is_at_most_the_rank_on_graphs_up_to_9_vertices(self, data):
        d, n = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 9))
        edges = data.draw(st.frozensets(st.sampled_from(list(combinations(range(n), 2)))))
        graph = Graph(range(n), edges)
        rank = rational_rigidity_rank(graph, d, random.Random(n))
        self.first_count_against_the_oracle(graph, d, rank)

    def deletions_against_the_oracle(self, graph: Graph, d: int, seed: int) -> tuple[int, int]:
        """Check edge_deletion_ranks against each G - e's matrix at the first
        point; return whether G is read out of sorted order, and how many of
        its edges no stress uses."""
        coords = first_point(graph, d, seed)
        full = full_rank_at(graph, coords, d)
        unstressed = 0
        for (a, b), rank in edge_deletion_ranks(graph, d, seed).items():
            exact = rank_mod_p(rigidity_rows_mod_p(graph.remove_edge(a, b), coords, d))
            assert rank == exact, (a, b)
            unstressed += exact < full
        return attach_order(graph, d)[0] != graph.sorted_edges(), unstressed

    def test_edge_deletion_ranks_match_the_oracle_on_the_d4_corpus(self, default_corpus):
        seed, checked, reordered, free = 20260823, 0, 0, 0
        for entry in (e for e in default_corpus if e.d == 4):
            graph = graph_of(entry.complex)
            moved, unstressed = self.deletions_against_the_oracle(
                graph, 4, derive_seed(seed, entry.name)
            )
            reordered += moved
            checked += len(graph.edges)
            free += unstressed
        # no stress uses the 10 edges of the simplex boundary, which is read
        # in sorted order; some stress uses every other corpus edge
        assert (checked, reordered, free) == (309, 14, 10)

    @pytest.mark.parametrize("d", [4, 5])
    def test_edge_deletion_ranks_match_the_oracle_on_stacked_chains(self, d):
        # C(d+2, d) keeps one stress; the last stacked vertex's d - 1 edges
        # carry none.  The stresses found by position in attach order must be
        # mapped back to their edges.
        reordered = mixed = 0
        for graph in stacked_chain(d, random.Random(d), d + 5):
            moved, unstressed = self.deletions_against_the_oracle(graph, d, len(graph.vertices))
            reordered += moved
            mixed += moved and 0 < unstressed < len(graph.edges)
        assert (reordered, mixed) == (3, 3)


class TestDecideRigidity:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_complete_graph_on_d_plus_1(self, d):
        verdict = decide_rigidity(complete_graph(range(1, d + 2)), d)
        assert verdict.is_rigid
        assert verdict.rank == comb(d + 1, 2)
        assert verdict.stress_dim == 0

    def test_octahedron_is_3_rigid(self):
        verdict = decide_rigidity(graph_of(sp.cross_polytope(3)), 3, seed=1)
        assert verdict.is_rigid
        assert verdict.rank == rigidity_target(6, 3) == 12
        assert verdict.stress_dim == 0

    def test_octahedron_minus_edge_flexes(self):
        g = graph_of(sp.cross_polytope(3)).remove_edge(1, 3)
        verdict = decide_rigidity(g, 3, seed=1)
        assert not verdict.is_rigid
        assert verdict.rank == 11

    def test_cross_4_rank_and_stress(self):
        verdict = decide_rigidity(graph_of(sp.cross_polytope(4)), 4, seed=1)
        assert verdict.is_rigid
        assert verdict.rank == 22
        assert verdict.stress_dim == 2

    @pytest.mark.parametrize(
        "graph,d,rank,target",
        [
            (complete_graph((1, 2, 3)), 10**20, 3, 3),
            (complete_graph(range(1, 6)).remove_edge(2, 4), 6, 9, 10),
            (complete_graph(range(1, 6)).remove_edge(2, 4), 4, 9, 10),
        ],
        ids=["K3-d10**20", "K5-minus-an-edge-d6", "K5-minus-an-edge-d4"],
    )
    def test_at_most_d_plus_1_vertices_draw_no_point(self, graph, d, rank, target, monkeypatch):
        # on at most d + 1 vertices the rank is the edge count, d + 1
        # vertices included; a point at d = 10**20 would not fit in memory
        def no_point(*args):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(spherig.rigidity, "random_embedding", no_point)
        verdict = decide_rigidity(graph, d)
        assert verdict == sp.RigidityVerdict(rank, target, rank == target, 3, 0)

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            decide_rigidity(complete_graph(range(1, 5)), 3, trials=0)

    def test_d_plus_1_vertices_uses_completeness(self):
        # the rank target degenerates to C(d+1,2); one missing edge must flex
        g = complete_graph(range(1, 6)).remove_edge(1, 2)
        verdict = decide_rigidity(g, 4, seed=2)
        assert not verdict.is_rigid
        assert verdict.rank == rigidity_target(5, 4) - 1

    def test_isolated_vertex_never_rigid(self):
        g = Graph(range(1, 7), complete_graph(range(1, 6)).edges)
        verdict = decide_rigidity(g, 3, seed=0)
        assert not verdict.is_rigid

    def test_same_seed_same_verdict(self):
        g = graph_of(sp.cross_polytope(4))
        assert decide_rigidity(g, 4, seed=9) == decide_rigidity(g, 4, seed=9)

    def test_relabeling_preserves_verdict(self):
        g = graph_of(sp.cross_polytope(4))
        shifted = Graph(
            (v + 100 for v in g.vertices),
            ((a + 100, b + 100) for a, b in g.sorted_edges()),
        )
        a = decide_rigidity(g, 4, seed=3)
        b = decide_rigidity(shifted, 4, seed=3)
        assert (a.rank, a.is_rigid, a.stress_dim) == (b.rank, b.is_rigid, b.stress_dim)

    def test_rank_monotone_under_row_deletion(self):
        g = graph_of(sp.cross_polytope(3))
        rows = rigidity_rows_mod_p(g, random_embedding(g, 3, 4), 3)
        full = rank_mod_p(rows)
        assert echelon_rank(rows, 18) == full
        for i in range(len(rows)):
            sub = rank_mod_p(rows[:i] + rows[i + 1 :])
            assert sub in (full - 1, full)
            assert echelon_rank(rows[:i] + rows[i + 1 :], 18) == sub


def graphs_on(n: int, rng: random.Random):
    """Every graph on vertices 1..n up to n = 5; 40 seeded random ones above."""
    pairs = list(combinations(range(1, n + 1), 2))
    if n <= 5:
        masks = range(2 ** len(pairs))
    else:
        masks = [rng.getrandbits(len(pairs)) for _ in range(40)]
    for mask in masks:
        yield Graph(range(1, n + 1), (e for i, e in enumerate(pairs) if mask >> i & 1))


class TestSmallGraphs:
    """One target for every vertex count: C(n,2) up to d+1 vertices, where
    only the complete graph is rigid, and d*n - C(d+1,2) above."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_rank_and_verdict_match_the_oracle(self, d):
        rng = random.Random(d)
        for n in range(1, d + 3):
            for graph in graphs_on(n, rng):
                verdict = decide_rigidity(graph, d, seed=n)
                exact = rational_rigidity_rank(graph, d, rng)
                assert verdict.rank == exact, (n, graph.sorted_edges())
                assert verdict.target_rank == rigidity_target(n, d)
                assert verdict.is_rigid == (exact == rigidity_target(n, d))
                if n <= d + 1:
                    assert verdict.is_rigid == (len(graph.edges) == comb(n, 2))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_edge_deletion_ranks_match_per_edge_decisions(self, d):
        rng = random.Random(d)
        for n in range(1, d + 3):
            for graph in graphs_on(n, rng):
                ranks = edge_deletion_ranks(graph, d, seed=n)
                assert list(ranks) == graph.sorted_edges()
                for (a, b), rank in ranks.items():
                    slow = decide_rigidity(graph.remove_edge(a, b), d, seed=n)
                    assert rank == slow.rank, (n, graph.sorted_edges(), a, b)

    def test_targets_agree_where_the_forms_meet(self):
        for d in range(1, 8):
            for n in (d, d + 1):
                assert rigidity_target(n, d) == comb(n, 2) == d * n - comb(d + 1, 2)


class TestRankBound:
    """The peeling bound lies between the exact generic rank and
    min(f1, target), and meets the rank where a stacked vertex lost an edge."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_bound_lies_between_the_oracle_rank_and_the_cap(self, d):
        rng = random.Random(d)
        tightened = 0
        for n in range(1, 8):
            for graph in graphs_on(n, rng):
                bound = rank_bound(graph, d)
                cap = min(len(graph.edges), rigidity_target(n, d))
                assert rational_rigidity_rank(graph, d, rng) <= bound <= cap, (
                    n,
                    graph.sorted_edges(),
                )
                tightened += bound < cap
        # on at most 7 vertices the bound falls below the cap only for d <= 2;
        # the stacked chains below cover larger d
        assert (tightened > 0) == (d <= 2)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_bound_is_exact_on_stacked_chains_minus_an_edge(self, d):
        for graph in stacked_chain(d, random.Random(d), d + 8):
            v = max(graph.vertices)
            bound = rank_bound(graph, d)
            assert bound == rigidity_target(v, d) - 1 < len(graph.edges)
            assert decide_rigidity(graph, d, seed=v).rank == bound


class TestAgainstRationalOracle:
    @pytest.mark.parametrize(
        "build,d",
        [
            (lambda: sp.cross_polytope(3), 3),
            (lambda: sp.boundary_simplex(4), 4),
            (lambda: sp.join_spheres(2, 2), 4),
            (lambda: sp.cyclic_polytope_boundary(6, 4), 4),
        ],
    )
    def test_field_rank_matches_rational_rank(self, build, d):
        g = graph_of(build())
        verdict = decide_rigidity(g, d, seed=0)
        assert verdict.rank == rational_rigidity_rank(g, d, random.Random(11))

    def test_minus_edge_ranks_match_too(self):
        g = graph_of(sp.cross_polytope(4)).remove_edge(1, 3)
        verdict = decide_rigidity(g, 4, seed=0)
        assert verdict.rank == rational_rigidity_rank(g, 4, random.Random(12))


class TestEdgeDeletionRanks:
    SEED = 20260823

    def test_matches_per_edge_decisions_on_the_default_corpus(self, default_corpus):
        checked = 0
        for entry in default_corpus:
            graph = graph_of(entry.complex)
            s = derive_seed(self.SEED, entry.name)
            ranks = edge_deletion_ranks(graph, entry.d, s)
            assert list(ranks) == graph.sorted_edges(), entry.name
            for (a, b), rank in ranks.items():
                slow = decide_rigidity(graph.remove_edge(a, b), entry.d, seed=s)
                assert rank == slow.rank, (entry.name, a, b)
                checked += 1
        assert checked == 848

    @settings(max_examples=100, deadline=None)
    @given(case=graphs_up_to_11_vertices(), seed=st.integers(0, 2**16))
    @example(case=(Graph(range(5), [(0, 1), (1, 2), (0, 2)]), 2), seed=0)
    @example(case=(union(complete_graph(range(5)), complete_graph(range(5, 10))), 3), seed=1)
    def test_matches_per_edge_decisions_on_graphs_up_to_11_vertices(self, case, seed):
        # the examples: a triangle with two isolated vertices, two K_5
        graph, d = case
        ranks = edge_deletion_ranks(graph, d, seed)
        assert list(ranks) == graph.sorted_edges()
        for (a, b), rank in ranks.items():
            assert rank == decide_rigidity(graph.remove_edge(a, b), d, seed=seed).rank, (a, b)

    def test_matches_rational_rank_on_small_spheres(self, small_spheres, small_sphere_ranks):
        for name, delta, d in small_spheres:
            for edge, rank in edge_deletion_ranks(graph_of(delta), d, seed=5).items():
                assert rank == small_sphere_ranks[name, edge], (name, edge)

    def test_unstressed_edges_fall_back_to_decide_rigidity(self, monkeypatch):
        # the new vertex has degree d, so no stress uses its edges; each of
        # their deletions falls short of the target and is decided afresh
        facet = (1, 3, 5, 7)
        graph = graph_of(sp.stack_over_facet(sp.cross_polytope(4), facet, 9))
        target = rigidity_target(9, 4)
        fallbacks = []
        real = spherig.rigidity.decide_rigidity

        def spy(g, d, *, seed):
            fallbacks.append(sorted(graph.edges - g.edges)[0])
            return real(g, d, seed=seed)

        monkeypatch.setattr(spherig.rigidity, "decide_rigidity", spy)
        drawn = count_embeddings(monkeypatch)
        ranks = edge_deletion_ranks(graph, 4, seed=3)
        assert sorted(fallbacks) == [frozenset((u, 9)) for u in facet]
        # one point for the whole graph, and each fallback settles at its first
        assert len(drawn) == 1 + len(facet)
        for (a, b), rank in ranks.items():
            assert rank == (target - 1 if b == 9 else target), (a, b)
            assert rank == real(graph.remove_edge(a, b), 4, seed=3).rank

    def test_stress_free_graph_loses_rank_on_every_edge(self):
        # the stacked 4-simplex boundary: 14 edges on 6 vertices, the target
        simplex = sp.boundary_simplex(4)
        graph = graph_of(sp.stack_over_facet(simplex, simplex.sorted_facets()[0], 6))
        ranks = edge_deletion_ranks(graph, 4, seed=1)
        assert len(graph.edges) == rigidity_target(6, 4) == 14
        assert set(ranks.values()) == {13}

    @pytest.mark.parametrize(
        "graph,d,value",
        [(graph_of(sp.boundary_simplex(4)), 4, 9), (complete_graph((1, 2, 3)), 10**20, 2)],
        ids=["simplex-d4", "K3-d10**20"],
    )
    def test_at_most_d_plus_1_vertices_draw_no_point(self, graph, d, value, monkeypatch):
        # every G - e keeps the n <= d + 1 vertices, so its rank is its edge
        # count; a point at d = 10**20 would not fit in memory
        def no_point(*args):
            raise AssertionError("a point was drawn or a matrix reduced")

        monkeypatch.setattr(spherig.rigidity, "random_embedding", no_point)
        monkeypatch.setattr(spherig.rigidity, "_reduced_rows", no_point)
        ranks = edge_deletion_ranks(graph, d)
        assert ranks == dict.fromkeys(graph.sorted_edges(), value)


class TestContractionRanks:
    """Both ranks are read at one merged point as a decision reads a point:
    G - ab's matrix is reduced exactly where its first rows fall short of
    its peeling bound, and G/ab is ranked only where R(G - ab) falls short
    of its target."""

    def spy_ranked(self, monkeypatch) -> list:
        """Patch _peel, which each rank reads once, to record the graphs
        ranked; return the record."""
        ranked = []
        real = spherig.rigidity._peel
        monkeypatch.setattr(
            spherig.rigidity, "_peel", lambda graph, d: ranked.append(graph) or real(graph, d)
        )
        return ranked

    def test_cross_4_edge(self, monkeypatch):
        # G - 13 keeps the rank 22 of G; the contraction has 7 vertices, rank
        # 18.  The cross polytope's first rows fall one short of 22, and so
        # do those of G - 13 at the merged point: G - 13 reaches its target
        # only by a reduction, and G/13 is neither ranked nor reduced
        reduced, ranked = spy_reductions(monkeypatch), self.spy_ranked(monkeypatch)
        graph = graph_of(sp.cross_polytope(4)).remove_edge(1, 3)
        coords = random_embedding(graph, 4, 5)
        coords[3] = coords[1]
        assert directions_rank_sum(coords, attach_order(graph, 4)[1]) == 21
        ranked.clear()
        assert contraction_ranks(graph, 1, 3, 4, 5) == (22, 18)
        assert rank_bound(graph, 4) == rigidity_target(8, 4) == 22
        assert ranked[:1] == [graph] and len(reduced) == 1 and 3 in reduced[0]

    def test_matches_two_matrices_on_random_graphs(self, monkeypatch):
        # R(G - ab) at the merged point, with or without the edge ab, whose
        # row is zero there, and R(G/ab), each from its own matrix
        reduced, ranked = spy_reductions(monkeypatch), self.spy_ranked(monkeypatch)
        rng = random.Random(29)
        checked = with_ab = settled = minus_reduced = down_reduced = 0
        for _ in range(150):
            graph, d = random_graph(rng), rng.randrange(2, 6)
            if len(graph.vertices) < 2:
                continue
            a, b = rng.sample(sorted(graph.vertices), 2)
            if frozenset((a, b)) in graph.edges and rng.random() < 0.5:
                graph = graph.remove_edge(a, b)
            seed = rng.randrange(100)
            coords = random_embedding(graph, d, seed)
            coords[b] = coords[a]
            merged_edges = [[a if v == b else v for v in e] for e in graph.edges if e != {a, b}]
            down = Graph(graph.vertices - {b}, merged_edges)
            minus = rank_mod_p(rigidity_rows_mod_p(graph, coords, d))
            merged = rank_mod_p(rigidity_rows_mod_p(down, coords, d))
            short = directions_rank_sum(coords, attach_order(graph, d)[1]) < rank_bound(graph, d)
            below = minus < rigidity_target(len(graph.vertices), d)
            reduced.clear()
            ranked.clear()
            assert contraction_ranks(graph, a, b, d, seed) == (minus, merged)
            assert ranked[0] == graph and len(ranked) == 1 + below
            minus_reductions = sum(b in placed for placed in reduced)
            assert minus_reductions == short and len(reduced) - minus_reductions <= below
            checked += 1
            with_ab += frozenset((a, b)) in graph.edges
            settled += not below
            minus_reduced += minus_reductions
            down_reduced += len(reduced) - minus_reductions
        # 36 reach the target, and G/ab is not ranked; 44 reduce the matrix
        # of G - ab.  G/ab's first rows meet its bound on all of these; the
        # split cross polytope below reduces its matrix
        assert (checked, with_ab, settled, minus_reduced, down_reduced) == (137, 37, 36, 44, 0)

    def test_split_cross_polytope_vertex_eliminates_the_contraction(self, monkeypatch):
        # vertex 1 of the cross polytope split into 1, keeping 3, 4, 5, and
        # 9, taking 6, 7, 8: merging them gives back the cross polytope,
        # whose first rows fall one short of its rank 22.  G - ab has 24
        # edges, short of its target 26, so G/ab is ranked, by a reduction
        reduced, ranked = spy_reductions(monkeypatch), self.spy_ranked(monkeypatch)
        cross = graph_of(sp.cross_polytope(4))
        edges = [e for e in cross.edges if 1 not in e or e & {3, 4, 5}]
        graph = Graph(range(1, 10), edges + [(v, 9) for v in (6, 7, 8)])
        coords = random_embedding(graph, 4, 5)
        coords[9] = coords[1]
        minus = rank_mod_p(rigidity_rows_mod_p(graph, coords, 4))
        assert rank_mod_p(rigidity_rows_mod_p(cross, coords, 4)) == 22
        assert directions_rank_sum(coords, attach_order(cross, 4)[1]) == 21
        ranked.clear()
        assert contraction_ranks(graph, 1, 9, 4, 5) == (minus, 22) == (24, 22)
        assert len(graph.edges) == 24 and len(ranked) == 2
        # G - ab's first rows fall short of its bound 24 too
        assert [9 in placed for placed in reduced] == [True, False]

    def test_common_neighbour_of_a_and_b_loses_a_first_row_rank(self, monkeypatch):
        # 7 peels with neighbours 1, 2, 3, 4, so its directions to 1 and 2
        # are first rows; the core K_6 - 12 has first rows that meet its
        # target.  With 2 on 1 those two directions agree, the first rows
        # read 17 of the bound 18, and G - 12 is reduced; its rank 17
        # falls short of the target, so G/12 is ranked too, from its first
        # rows, which meet its bound 13
        reduced, ranked = spy_reductions(monkeypatch), self.spy_ranked(monkeypatch)
        core = [e for e in combinations(range(1, 7), 2) if e != (1, 2)]
        graph = Graph(range(1, 8), core + [(v, 7) for v in (1, 2, 3, 4)])
        firsts = attach_order(graph, 4)[1]
        assert firsts[-1] == (7, [1, 2, 3, 4])
        coords = random_embedding(graph, 4, 5)
        assert directions_rank_sum(coords, firsts) == rigidity_target(7, 4) == 18
        coords[2] = coords[1]
        assert directions_rank_sum(coords, firsts) == 17
        down = Graph(set(range(1, 8)) - {2}, [[1 if v == 2 else v for v in e] for e in graph.edges])
        minus = rank_mod_p(rigidity_rows_mod_p(graph, coords, 4))
        merged = rank_mod_p(rigidity_rows_mod_p(down, coords, 4))
        ranked.clear()
        assert contraction_ranks(graph, 1, 2, 4, 5) == (minus, merged) == (17, 13)
        assert len(ranked) == 2 and [2 in placed for placed in reduced] == [True]
        assert rank_bound(ranked[1], 4) == 13

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 99)])
    def test_a_and_b_must_be_two_vertices_of_the_graph(self, a, b):
        graph = graph_of(sp.cross_polytope(4)).remove_edge(1, 3)
        with pytest.raises(ValueError, match=f"\\({a}, {b}\\) are not two vertices"):
            contraction_ranks(graph, a, b, 4, 5)


def relabel(graph: Graph, label) -> Graph:
    return Graph((label(v) for v in graph.vertices), ((label(a), label(b)) for a, b in graph.edges))


def fail_on_embedding(*args):
    raise AssertionError("a memo hit drew a new embedding")


class TestRigidVerdictMemo:
    def test_keeps_rigid_verdicts_only(self):
        rigid = graph_of(sp.cross_polytope(4))
        flexible = rigid.remove_edge(1, 3).remove_edge(1, 5).remove_edge(1, 6)
        with rigid_verdict_memo() as memo:
            assert not decide_rigidity(flexible, 4, seed=1).is_rigid
            assert memo == set()
            assert decide_rigidity(rigid, 4, seed=1).is_rigid
            assert memo == {shape(rigid, 4)}

    def test_hit_equals_a_fresh_decision(self, monkeypatch):
        graph = graph_of(sp.cross_polytope(4))
        fresh = decide_rigidity(graph, 4, seed=8)
        with rigid_verdict_memo():
            decide_rigidity(graph, 4, seed=1)
            monkeypatch.setattr(spherig.rigidity, "random_embedding", fail_on_embedding)
            assert decide_rigidity(graph, 4, seed=8) == fresh

    def test_relabelled_rigid_graph_hits_and_draws_no_embedding(self, monkeypatch):
        graph = graph_of(sp.cross_polytope(4))
        relabelled = relabel(graph, lambda v: 3 * v + 10)
        assert relabelled != graph
        fresh = decide_rigidity(relabelled, 4, seed=8)
        with rigid_verdict_memo() as memo:
            decide_rigidity(graph, 4, seed=1)
            monkeypatch.setattr(spherig.rigidity, "random_embedding", fail_on_embedding)
            assert decide_rigidity(relabelled, 4, seed=8) == fresh
            assert memo == {shape(relabelled, 4)}

    def test_relabelled_flexible_graph_never_hits(self, monkeypatch):
        rigid = graph_of(sp.cross_polytope(4))
        flexible = rigid.remove_edge(1, 3).remove_edge(1, 5).remove_edge(1, 6)
        with rigid_verdict_memo() as memo:
            decide_rigidity(rigid, 4, seed=1)
            assert not decide_rigidity(flexible, 4, seed=1).is_rigid
            drawn = count_embeddings(monkeypatch)
            for label in (lambda v: v + 20, lambda v: 9 - v):
                assert not decide_rigidity(relabel(flexible, label), 4, seed=2).is_rigid
            assert memo == {shape(rigid, 4)}
        # each decision drew its own embedding: its 21 edges are independent
        # and reach the cap of 21 in the first trial
        assert len(drawn) == 2

    def test_memo_is_keyed_by_dimension(self):
        graph = graph_of(sp.cross_polytope(4))
        with rigid_verdict_memo() as memo:
            decide_rigidity(graph, 4, seed=1)
            assert not decide_rigidity(graph, 5, seed=1).is_rigid
            assert not decide_rigidity(relabel(graph, lambda v: v + 1), 5, seed=1).is_rigid
            assert memo == {shape(graph, 4)}

    def test_memo_is_keyed_by_vertex_count(self):
        # an isolated vertex past the others leaves the edge mask as it is
        graph = graph_of(sp.cross_polytope(4))
        padded = Graph(graph.vertices | {9}, graph.edges)
        with rigid_verdict_memo() as memo:
            decide_rigidity(graph, 4, seed=1)
            verdict = decide_rigidity(padded, 4, seed=1)
            assert not verdict.is_rigid
            assert verdict.target_rank == rigidity_target(9, 4) == verdict.rank + 4
            assert memo == {shape(graph, 4)}
        assert shape(padded, 4)[::2] == shape(graph, 4)[::2]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_shapes_exactly_when_the_sorted_relabellings_agree(self, data):
        n = data.draw(st.integers(2, 7))
        pairs = list(combinations(range(n), 2))
        edges = data.draw(st.frozensets(st.sampled_from(pairs)))
        pair = data.draw(st.sampled_from(pairs))
        other_n, other_edges = data.draw(
            st.sampled_from(
                [
                    (n, edges),
                    (n, edges ^ {pair}),
                    (n + 1, edges),
                    (n, frozenset(pairs) - edges),
                ]
            )
            | st.tuples(st.just(n), st.frozensets(st.sampled_from(pairs)))
        )
        d, other_d = data.draw(st.sampled_from([(4, 4), (4, 5)]))

        def labelled(size, chosen):
            labels = sorted(data.draw(st.sets(st.integers(-40, 40), min_size=size, max_size=size)))
            return Graph(labels, [(labels[i], labels[j]) for i, j in chosen])

        g, h = labelled(n, edges), labelled(other_n, other_edges)
        assert (shape(g, d) == shape(h, other_d)) == (
            d == other_d and sorted_relabelling(g) == sorted_relabelling(h)
        )
        for graph, dim in ((g, d), (h, other_d)):
            key_d, key_n, mask = shape(graph, dim)
            assert (key_d, (key_n, shape_edges(key_n, mask))) == (dim, sorted_relabelling(graph))

    def test_no_memo_outside_the_block(self):
        assert spherig.rigidity._known_rigid.get() is None
        with rigid_verdict_memo() as outer:
            with rigid_verdict_memo() as inner:
                decide_rigidity(graph_of(sp.cross_polytope(4)), 4, seed=1)
            assert len(inner) == 1 and outer == set()
            assert spherig.rigidity._known_rigid.get() is outer
        assert spherig.rigidity._known_rigid.get() is None

    def test_supergraph_on_the_same_vertices_never_hits(self, monkeypatch):
        # cross_polytope(4) plus the edge 12 is rigid, but only its own
        # shape answers it: it draws a point inside the block as outside
        graph = graph_of(sp.cross_polytope(4))
        bigger = Graph(graph.vertices, graph.edges | {frozenset((1, 2))})
        with rigid_verdict_memo() as memo:
            decide_rigidity(graph, 4, seed=1)
            drawn = count_embeddings(monkeypatch)
            inside = decide_rigidity(bigger, 4, seed=8)
            assert len(drawn) == 1
            assert memo == {shape(graph, 4), shape(bigger, 4)}
        assert decide_rigidity(bigger, 4, seed=8) == inside
        assert inside.is_rigid and inside.stress_dim == 3
        assert len(drawn) == 2

    def test_subgraph_of_a_recorded_graph_never_hits(self):
        # no stress uses the degree-4 vertex 9's edges: G - e flexes
        graph = graph_of(sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9))
        with rigid_verdict_memo() as memo:
            assert decide_rigidity(graph, 4, seed=1).is_rigid
            verdict = decide_rigidity(graph.remove_edge(1, 9), 4, seed=1)
            assert memo == {shape(graph, 4)}
        assert not verdict.is_rigid
        assert verdict.rank == rigidity_target(9, 4) - 1

    def test_supergraph_on_more_vertices_never_hits(self):
        # vertex 9 sorts last, so G's edges keep their bits in the mask
        graph = graph_of(sp.cross_polytope(4))
        bigger = Graph(graph.vertices | {9}, graph.edges | {frozenset((v, 9)) for v in (1, 3, 5)})
        assert shape(graph, 4)[2] & ~shape(bigger, 4)[2] == 0
        with rigid_verdict_memo() as memo:
            decide_rigidity(graph, 4, seed=1)
            verdict = decide_rigidity(bigger, 4, seed=1)
            assert memo == {shape(graph, 4)}
        assert not verdict.is_rigid
        assert verdict.rank == rigidity_target(9, 4) - 1

    def test_supergraph_in_another_dimension_never_hits(self):
        octahedron = graph_of(sp.cross_polytope(3))
        bigger = Graph(octahedron.vertices, octahedron.edges | {frozenset((1, 2))})
        with rigid_verdict_memo() as memo:
            assert decide_rigidity(octahedron, 3, seed=1).is_rigid
            verdict = decide_rigidity(bigger, 4, seed=1)
            assert memo == {shape(octahedron, 3)}
        # 13 edges cannot reach the 4-dimensional target of 14 on 6 vertices
        assert not verdict.is_rigid and verdict.rank == 13

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_only_an_equal_shape_hits_and_hits_match_the_oracle(self, data):
        # on at most d + 1 vertices a decision reads neither a point nor the
        # memo, so "no point drawn" is a hit only above
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(d + 2, 7))
        pairs = list(combinations(range(n), 2))
        recorded = frozenset(pairs) - data.draw(st.frozensets(st.sampled_from(pairs), max_size=4))
        added = data.draw(st.frozensets(st.sampled_from(pairs)))

        def labelled(chosen):
            labels = sorted(data.draw(st.sets(st.integers(-40, 40), min_size=n, max_size=n)))
            return Graph(labels, [(labels[i], labels[j]) for i, j in chosen])

        # the second labelling of the recorded pairs is an order-preserving
        # relabelling of the first, so the two share a shape
        graph, relabelled = labelled(recorded), labelled(recorded)
        bigger = labelled(recorded | added)
        real = spherig.rigidity.random_embedding
        with rigid_verdict_memo():
            recorded_rigid = decide_rigidity(graph, d, seed=1).is_rigid
            with mock.patch.object(spherig.rigidity, "random_embedding", wraps=real) as spy:
                verdict = decide_rigidity(relabelled, d, seed=2)
            hit = not spy.called
            with mock.patch.object(spherig.rigidity, "random_embedding", wraps=real) as spy:
                decide_rigidity(bigger, d, seed=3)
        assert hit == recorded_rigid
        if hit:
            exact = rational_rigidity_rank(relabelled, d, random.Random(n))
            assert verdict.is_rigid and verdict.rank == exact == rigidity_target(n, d)
        # a proper supergraph draws its own point
        if not added <= recorded:
            assert spy.called


class TestMemoLearnsFromEdgeDeletions:
    SEED = 20260823

    def stacked(self) -> Graph:
        # four degree-4 edges at vertex 9: no stress uses them, their
        # deletions fall back to decide_rigidity and come out flexible
        return graph_of(sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9))

    def test_records_the_rigid_graph_and_its_rigid_deletions_only(self):
        graph = self.stacked()
        with rigid_verdict_memo() as memo:
            ranks = edge_deletion_ranks(graph, 4, seed=3)
            rigid = {shape(graph.remove_edge(a, b), 4) for a, b in ranks if b != 9}
            assert memo == {shape(graph, 4)} | rigid
            # a second call, at another seed, gives the same ranks
            assert edge_deletion_ranks(graph, 4, seed=4) == edge_deletion_ranks(
                graph, 4, seed=3
            ) == ranks
        assert all(ranks[a, b] < rigidity_target(9, 4) for a, b in ranks if b == 9)

    def test_flexible_graph_is_never_recorded(self):
        graph = self.stacked().remove_edge(1, 9)
        with rigid_verdict_memo() as memo:
            ranks = edge_deletion_ranks(graph, 4, seed=3)
        assert not decide_rigidity(graph, 4, seed=3).is_rigid
        assert max(ranks.values()) < rigidity_target(9, 4)
        assert memo == set()

    def test_nothing_is_recorded_outside_a_block(self):
        with rigid_verdict_memo() as closed:
            pass
        edge_deletion_ranks(graph_of(sp.cross_polytope(4)), 4, seed=1)
        assert closed == set()
        assert spherig.rigidity._known_rigid.get() is None

    def test_ranks_in_a_block_equal_ranks_outside_on_the_default_corpus(self, default_corpus):
        # every graph twice in one block: the second call meets a memo that
        # holds the graph and its rigid deletions
        for entry in default_corpus:
            graph = graph_of(entry.complex)
            seeds = [derive_seed(self.SEED, entry.name, k) for k in (1, 2)]
            outside = [edge_deletion_ranks(graph, entry.d, s) for s in seeds]
            with rigid_verdict_memo():
                inside = [edge_deletion_ranks(graph, entry.d, s) for s in seeds]
            assert inside == outside, entry.name


class TestTrialCount:
    """A decision stops at the first point whose rank meets the peeling
    bound; a memo hit never computes it."""

    def stacked_minus_edge(self, d: int) -> Graph:
        cross = sp.cross_polytope(d)
        facet = cross.sorted_facets()[0]
        graph = graph_of(sp.stack_over_facet(cross, facet, 2 * d + 1))
        return graph.remove_edge(facet[0], 2 * d + 1)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_first_point_at_the_bound_draws_one_embedding(self, d, monkeypatch):
        graph = self.stacked_minus_edge(d)
        drawn = count_embeddings(monkeypatch)
        verdict = decide_rigidity(graph, d, seed=3)
        assert len(drawn) == 1
        assert not verdict.is_rigid and verdict.trials == 3
        assert verdict.rank == rank_bound(graph, d) == rigidity_target(2 * d + 1, d) - 1
        assert len(graph.edges) > verdict.rank

    def test_a_point_below_the_bound_draws_the_next(self, monkeypatch):
        # the first point puts every vertex at the origin, rank 0
        graph = self.stacked_minus_edge(4)
        drawn = count_embeddings(monkeypatch)
        counted = spherig.rigidity.random_embedding

        def origin_first(g, d, seed):
            phi = counted(g, d, seed)
            if len(drawn) == 1:
                return {v: (0,) * d for v in phi}
            return phi

        monkeypatch.setattr(spherig.rigidity, "random_embedding", origin_first)
        verdict = decide_rigidity(graph, 4, seed=3)
        assert len(drawn) == 2
        assert verdict.rank == rigidity_target(9, 4) - 1

    def test_rigid_graphs_and_memo_hits_never_compute_the_bound(self, monkeypatch):
        def no_bound(*args):
            raise AssertionError("a memo hit peeled the graph or computed its bound")

        # the relabellings of two graphs recorded rigid, one that peels
        # nothing and one that peels vertex 9, are answered before a peel
        graph = graph_of(sp.cross_polytope(4))
        stacked = graph_of(sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9))
        with rigid_verdict_memo():
            assert spherig.rigidity._peel(graph, 4)[0] == []
            assert spherig.rigidity._peel(stacked, 4)[0] == [(9, [1, 3, 5, 7])]
            assert decide_rigidity(graph, 4, seed=1).is_rigid
            assert decide_rigidity(stacked, 4, seed=1).is_rigid
            monkeypatch.setattr(spherig.rigidity, "_peel", no_bound)
            monkeypatch.setattr(spherig.rigidity, "_rank_bound", no_bound)
            assert decide_rigidity(relabel(graph, lambda v: v + 10), 4, seed=2).is_rigid
            assert decide_rigidity(relabel(stacked, lambda v: v + 10), 4, seed=2).is_rigid


class TestRankAtAPoint:
    """The rank decide_rigidity takes at a point, where the first rows of the
    attach order bound it from below and the matrix is eliminated only where
    that falls short of the bound, is the whole matrix's rank at that point;
    with one trial the verdict's rank is that rank."""

    SEED = 20260823

    def test_default_corpus_graphs_and_their_deletions(self, default_corpus, monkeypatch):
        reduced = spy_reductions(monkeypatch)
        rng = random.Random(23)
        checked = peeled = exact = unreduced = 0
        for entry in default_corpus:
            graph = graph_of(entry.complex)
            s = derive_seed(self.SEED, entry.name)
            for h in [graph] + [graph.remove_edge(a, b) for a, b in graph.sorted_edges()]:
                reduced.clear()
                rank = decide_rigidity(h, entry.d, trials=1, seed=s).rank
                phi = first_point(h, entry.d, s)
                full = full_rank_at(h, phi, entry.d)
                assert rank == full, entry.name
                # the first rows never read above the rank, and a matrix is
                # reduced exactly where they fall short of the peeling bound
                lower, bound = first_rows_bound(h, entry.d, phi), rank_bound(h, entry.d)
                assert lower <= full <= bound, entry.name
                assert bool(reduced) == (lower < bound), entry.name
                checked += 1
                unreduced += not reduced
                peeled += bool(spherig.rigidity._peel(h, entry.d)[0])
                if len(h.vertices) <= entry.d + 1:
                    assert rank == rational_rigidity_rank(h, entry.d, rng), entry.name
                    exact += 1
        # 671 of the 879 ranks are read from the first rows alone
        assert (checked, peeled, exact, unreduced) == (848 + 31, 401, 49, 671)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_stacked_chains_minus_an_edge(self, d):
        rng = random.Random(-d)
        for graph in stacked_chain(d, random.Random(d), d + 8):
            n = len(graph.vertices)
            rank = decide_rigidity(graph, d, trials=1, seed=n).rank
            full = full_rank_at(graph, first_point(graph, d, n), d)
            assert rank == full == rigidity_target(n, d) - 1
            if n <= d + 4:
                assert rank == rational_rigidity_rank(graph, d, rng)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_complete_graph_minus_an_edge(self, d):
        rng = random.Random(d)
        for n in range(d + 2, d + 7):
            graph = complete_graph(range(1, n + 1)).remove_edge(1, n)
            rank = decide_rigidity(graph, d, trials=1, seed=n).rank
            assert rank == full_rank_at(graph, first_point(graph, d, n), d) == rigidity_target(n, d)
            if n <= d + 3:
                assert rank == rational_rigidity_rank(graph, d, rng)

    def test_matches_the_oracle_where_a_vertex_has_dependent_first_rows(self):
        # every vertex at the origin; an edge's ends at one point, as a
        # contraction merges them; a peeled vertex on the line through two
        # of its neighbours at removal.  Each makes some vertex's first
        # directions dependent wherever it has two first back-neighbours
        rng = random.Random(31)
        checked, dependent = Counter(), Counter()
        for _ in range(200):
            graph, d = random_graph(rng), rng.randrange(2, 6)
            peel = spherig.rigidity._peel(graph, d)
            order = spherig.rigidity._attach_order(peel, d)
            bound = spherig.rigidity._rank_bound(peel, d)
            phi = random_embedding(graph, d, rng.randrange(100))
            points = {"origin": {v: (0,) * d for v in graph.vertices}}
            if graph.edges:
                a, b = rng.choice(graph.sorted_edges())
                points["merged"] = {**phi, b: phi[a]}
            for v, around in peel[0]:
                if len(around) >= 2:
                    u, w = rng.sample(around, 2)
                    on_line = tuple((2 * x - y) % P for x, y in zip(phi[u], phi[w]))
                    points["peeled"] = {**phi, v: on_line}
                    break
            for kind, point in points.items():
                rank = spherig.rigidity._rank_at(order, point, d, bound)
                assert rank == full_rank_at(graph, point, d), (kind, graph.sorted_edges())
                lower = directions_rank_sum(point, order[1])
                checked[kind] += 1
                dependent[kind] += lower < sum(len(back) for _, back in order[1])
        # a dependent first row makes the first rows fall short of the
        # bound, so each of these points reduces its rows
        assert checked == {"origin": 200, "merged": 169, "peeled": 55}
        assert dependent == {"origin": 169, "merged": 153, "peeled": 55}

    def stacked_cross(self) -> Graph:
        # vertex 9 peels with neighbours 3, 5, 7; the core is the cross
        # polytope on 1..8, rigid at rank 22, with 1 and 2 not adjacent
        graph = graph_of(sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9))
        return graph.remove_edge(1, 9)

    def rank_at(self, graph: Graph, coords: dict, monkeypatch) -> tuple[int, int]:
        """The rank at coords as _rank_at reads it, which must be the full
        matrix's, and how many matrices it reduced, each over every vertex.
        Above d + 1 = 5 vertices it must also be decide_rigidity's one-trial
        rank at coords; on fewer, decide_rigidity draws no point."""
        reduced = spy_reductions(monkeypatch)
        order, bound = attach_order(graph, 4), rank_bound(graph, 4)
        rank = spherig.rigidity._rank_at(order, coords, 4, bound)
        assert rank == full_rank_at(graph, coords, 4)
        assert all(set(placed) == graph.vertices for placed in reduced)
        reductions = len(reduced)
        if len(graph.vertices) > 5:
            monkeypatch.setattr(spherig.rigidity, "random_embedding", lambda *args: coords)
            assert decide_rigidity(graph, 4, trials=1, seed=1).rank == rank
        return rank, reductions

    def test_every_vertex_at_the_origin(self, monkeypatch):
        # the peeled vertex's directions are dependent; K_8 peels nothing,
        # and its 22 first rows, which meet its cap at a random point, are 0
        for graph in (self.stacked_cross(), complete_graph(range(1, 9))):
            coords = {v: (0, 0, 0, 0) for v in graph.vertices}
            assert self.rank_at(graph, coords, monkeypatch) == (0, 1)

    @pytest.mark.parametrize("n,rank", [(5, 9), (8, 22)])
    def test_core_vertex_on_the_span_of_its_first_neighbours(self, n, rank, monkeypatch):
        # K_n is placed 1, 2, ..., n, so vertex 5's first back-neighbours are
        # 1..4; on their affine span its first directions lose a rank.  K_5's
        # rank drops with them (five points on a 3-flat), K_8's does not.
        graph = complete_graph(range(1, n + 1))
        assert attach_order(graph, 4)[1][4] == (5, [1, 2, 3, 4])
        coords = first_point(graph, 4, 1)
        coords[5] = tuple((x + y - z) % P for x, y, z in zip(coords[1], coords[2], coords[3]))
        assert self.rank_at(graph, coords, monkeypatch) == (rank, 1)

    def test_peeled_vertex_on_the_span_of_its_neighbours_loses_a_rank(self, monkeypatch):
        graph = self.stacked_cross()
        assert spherig.rigidity._peel(graph, 4)[0] == [(9, [3, 5, 7])]
        coords = first_point(graph, 4, 1)
        generic = full_rank_at(graph, coords, 4)
        coords[9] = tuple((2 * x - y) % P for x, y in zip(coords[3], coords[5]))
        # the core is rigid, so the dependent directions cost one rank; the
        # peeled degree plus the core's rank would still read 3 + 22
        assert self.rank_at(graph, coords, monkeypatch) == (generic - 1, 1)
        assert generic == 3 + 22

    def test_dependent_peeled_vertex_whose_other_first_rows_meet_the_bound(self, monkeypatch):
        # C(6, 4) is K_6, whose 14 first rows meet its rank; vertex 7 peels
        # with its 4 neighbours, so the bound is 4 + 14 = 18.  On the line
        # through 1 and 2, 7's directions have rank 3 and the rank is 17;
        # counting 7's edges instead of their rank would read the bound.
        delta = sp.stack_over_facet(sp.cyclic_polytope_boundary(6, 4), (1, 2, 3, 4), 7)
        graph = graph_of(delta)
        assert spherig.rigidity._peel(graph, 4)[0] == [(7, [1, 2, 3, 4])]
        assert rank_bound(graph, 4) == rigidity_target(7, 4) == 18
        coords = first_point(graph, 4, 1)
        coords[7] = tuple((2 * x - y) % P for x, y in zip(coords[1], coords[2]))
        firsts = attach_order(graph, 4)[1]
        assert sum(len(around) for _, around in firsts) == 18
        assert first_rows_bound(graph, 4, coords) == 17
        assert self.rank_at(graph, coords, monkeypatch) == (17, 1)

    @pytest.mark.parametrize(
        "merged,reductions,rank",
        [
            # two core vertices at one point: their first rows fall short
            ([(1, 2)], 1, 25),
            ([(1, 2), (3, 4)], 1, 24),
            # the peeled vertex on a neighbour, or two of its neighbours at
            # one point: its directions are dependent
            ([(5, 9)], 1, 24),
            ([(3, 5)], 1, 24),
        ],
    )
    def test_two_vertices_at_one_point(self, merged, reductions, rank, monkeypatch):
        graph = self.stacked_cross()
        coords = first_point(graph, 4, 1)
        for a, b in merged:
            coords[b] = coords[a]
        assert self.rank_at(graph, coords, monkeypatch) == (rank, reductions)


class TestDoingLess:
    """The fast paths leave work out: a lost one fails here, not only in
    the benchmark."""

    def spy_echelon(self, monkeypatch) -> list[tuple[int, int, int | None]]:
        """Patch _echelon to record (ncols, rows read, stop) per call."""
        calls = []
        real = spherig.rigidity._echelon

        def counted(rows, ncols, stop=None):
            read = 0

            def reading():
                nonlocal read
                for row in rows:
                    read += 1
                    yield row

            try:
                return real(reading(), ncols, stop)
            finally:
                calls.append((ncols, read, stop))

        monkeypatch.setattr(spherig.rigidity, "_echelon", counted)
        return calls

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_stacked_chain_minus_an_edge_eliminates_only_its_core(self, d, monkeypatch):
        # nothing is eliminated, not even the core, C(d+2, d): the first
        # rows, the peeled vertices' edges among them, meet the peeling bound
        graphs = list(stacked_chain(d, random.Random(d), d + 8))
        calls = self.spy_echelon(monkeypatch)
        for graph in graphs:
            calls.clear()
            verdict = decide_rigidity(graph, d, seed=1)
            assert verdict.rank == rigidity_target(len(graph.vertices), d) - 1
            # one point; each call checks one vertex's first directions
            assert {ncols for ncols, _, _ in calls} == {d}
            assert len(calls) == len(graph.vertices)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_complete_graph_minus_an_edge_stops_before_its_last_row(self, d, monkeypatch):
        # from n = d+3 on, no vertex has degree <= d, so nothing is peeled;
        # the first rows, one d-column check per vertex, reach the target
        calls = self.spy_echelon(monkeypatch)
        for n in range(d + 3, 21):
            graph = complete_graph(range(1, n + 1)).remove_edge(1, n)
            calls.clear()
            assert decide_rigidity(graph, d, seed=1).is_rigid
            target = rigidity_target(n, d)
            assert {ncols for ncols, _, _ in calls} == {d}, n
            assert (len(calls), sum(read for _, read, _ in calls)) == (n, target), n
            assert target < len(graph.edges)

    def test_cross_polytope_short_on_first_rows_eliminates_one_residual(self, monkeypatch):
        # its 21 first rows fall one short of 22 at every point, so their
        # rank is not taken on its own: each vertex's first directions are
        # factored once, one d-column elimination each, and the residuals of
        # the other 3 rows, on the 32 - 21 columns that are no vertex's
        # pivot, are eliminated only until the rank reaches 22
        calls = self.spy_echelon(monkeypatch)
        verdict = decide_rigidity(graph_of(sp.cross_polytope(4)), 4, seed=1)
        assert verdict.is_rigid and verdict.rank == 22
        firsts = [read for ncols, read, _ in calls if ncols == 4]
        assert (len(firsts), sum(firsts)) == (8, 21)
        assert [call for call in calls if call[0] != 4] == [(11, 1, 1)]
