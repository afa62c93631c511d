"""Rigidity matrices over a large prime field and randomized rank decisions.

A graph on n vertices is generically d-rigid exactly when its rigidity
matrix reaches rigidity_target(n, d), one closed form for every n: C(n,2)
while n <= d+1 and d*n - C(d+1,2) above.  Generic rank is decided by
evaluating the matrix at uniformly random field points.  The rank at a
specific point never exceeds the generic rank, and falls short only when
the point lands on a proper minor locus; by Schwartz-Zippel that happens
with probability at most (matrix rows)/p per trial.  With p = 2**61 - 1 and
max-over-trials aggregation the check is one-sided: a "rigid" answer is
always correct, and a "flexible" answer is exact at the peeling bound of
decide_rigidity and on at most d+1 vertices, where no point is drawn, and
wrong with negligible probability elsewhere.

Every rank comes from one elimination kernel, _echelon, which inserts rows
one at a time into an echelon basis, scaling a row by a pivot entry where
elimination by hand would divide by it, and can stop once the rank reaches
a cap.  Every rank reads a graph's matrix in one order per graph,
_attach_order over the graph's _peel: the core by maximum cardinality
search, then the vertices peeled at degree <= d, last peeled first.  Each
vertex's first rows, its edges to its first back-neighbours (for a peeled
vertex, all its edges at removal), are zero in the column blocks of the
vertices placed after it, so they are block upper triangular, and the
ranks of each vertex's first directions add up to a lower bound on the
rank (_first_rows_rank).  decide_rigidity takes the rank at a point from
that bound where it meets the peeling bound.  Only otherwise is the matrix
built, and then only as back-substitution reads it: each vertex's first
directions are factored once, every other row, which touches two vertex
blocks, is reduced through the blocks at O(d^2) a block, latest-placed
block first, and only the residuals, on the columns that are no vertex's
pivot, are eliminated, until the rank reaches the bound (_reduced_rows).
The result is the full matrix's rank at that point, not an estimate.
Permuting rows and columns leaves the rank alone, so no value depends on
the order; only the work does.  edge_deletion_ranks answers every
single-edge deletion of a graph from one such reduction, each residual
carrying the rows it is a combination of, with the same guarantee (see its
docstring), and contraction_ranks gives the ranks of G - ab and of G/ab at
a random point moved to merge a and b, each as decide_rigidity reads the
rank at a point, and the second from the first where that meets G - ab's
target.  Inside rigid_verdict_memo decide_rigidity and edge_deletion_ranks
record the shapes of the graphs they find rigid (the graph relabelled
0..n-1 in sorted vertex order, with d), and decide_rigidity answers a graph
of a recorded shape without a new embedding.

Field elements are plain Python ints in [0, p), and a point is a plain dict
from vertex to coordinates; there is no wrapper class.  All randomness is
drawn from seeded generators so every decision is reproducible from
(graph, d, trials, seed).
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from math import comb
from operator import mul
from typing import Iterable, Iterator

from .graphs import Graph, complete_graph, union

DEFAULT_PRIME = 2**61 - 1
DEFAULT_TRIALS = 3


def derive_seed(seed: int, *labels: object) -> int:
    """Stable sub-seed from a parent seed and a label path.

    Lets independent randomized steps share one user-facing seed without
    correlating their streams, and keeps failure seeds reportable.
    """
    text = ":".join([str(seed)] + [str(l) for l in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# A point: d coordinates in F_p, p = DEFAULT_PRIME, for each vertex.
Point = dict[int, tuple[int, ...]]


def random_embedding(graph: Graph, d: int, seed: int) -> Point:
    """A uniform random point for the graph's vertices; seed-deterministic."""
    rng = random.Random(derive_seed(seed, "embedding", d))
    return {
        v: tuple(rng.randrange(DEFAULT_PRIME) for _ in range(d)) for v in sorted(graph.vertices)
    }


# The peeled vertices in peel order, each with its sorted neighbours when
# peeled, then the core's adjacency (see _peel).
Peel = tuple[list[tuple[int, list[int]]], dict[int, set[int]]]
# The edges and each vertex's first back-neighbours, in the order in which
# every rank reads a graph's matrix (see _attach_order).
Order = tuple[list[tuple[int, int]], list[tuple[int, list[int]]]]


def _peel(graph: Graph, d: int) -> Peel:
    """While more than d+1 vertices remain, remove the first vertex in sorted
    order of degree <= d; what is left is the core.

    A vertex's degree only falls as others go, so a vertex of degree <= d
    stays one until it is removed; a heap of those vertices gives the
    first of them in sorted order at every step.  This is the one adjacency
    built for a graph: _rank_bound and _attach_order read it.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for a, b in graph.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    low = sorted(v for v, around in nbrs.items() if len(around) <= d)
    peeled: list[tuple[int, list[int]]] = []
    while len(nbrs) > d + 1 and low:
        v = heappop(low)
        around = nbrs.pop(v)
        peeled.append((v, sorted(around)))
        for u in around:
            nbrs[u].discard(v)
            if len(nbrs[u]) == d:
                heappush(low, u)
    return peeled, nbrs


def _attach_order(peel: Peel, d: int) -> Order:
    """The rows in which to reduce a graph's rigidity matrix, from its _peel,
    and each vertex's first back-neighbours, in placement order.

    The core's vertices are placed one at a time, each time the unplaced
    vertex with the most placed neighbours, ties going to the smallest label
    (maximum cardinality search, Tarjan-Yannakakis 1984); a core vertex's
    first back-neighbours are its first min(d, #earlier) neighbours placed
    before it, in their placement order.  Then the peeled vertices are
    placed, last peeled first, each with its neighbours at removal as its
    first back-neighbours: they are in the core or were peeled later, so
    they are placed before it, and they are all its edges.  The edges come
    as sorted pairs: for each vertex in placement order, its edges to its
    first back-neighbours, then every other edge in the same order.  The
    row of an edge from v back to an earlier u is zero in the column blocks
    of the vertices placed after v; _first_rows_rank and _reduced_rows
    read that.  The back-neighbours come as (vertex, first back-neighbours)
    in placement order.
    """
    peeled, nbrs = peel
    count = dict.fromkeys(nbrs, 0)  # placed neighbours of each unplaced vertex
    placed: list[int] = []
    firsts: list[tuple[int, list[int]]] = []
    rest: list[tuple[int, int]] = []
    while count:
        v = min(count, key=lambda u: (-count[u], u))
        del count[v]
        back = [u for u in placed if u in nbrs[v]]
        firsts.append((v, back[:d]))
        rest += [(min(u, v), max(u, v)) for u in back[d:]]
        placed.append(v)
        for u in nbrs[v] & count.keys():
            count[u] += 1
    for v, around in reversed(peeled):
        firsts.append((v, around))
    first = [(min(u, v), max(u, v)) for v, back in firsts for u in back]
    return first + rest, firsts


def _echelon(
    rows: Iterable[list[int]], ncols: int, stop: int | None = None
) -> tuple[dict[int, tuple[int, list[int]]], list[list[int]]]:
    """Insert rows with entries in [0, p), p = DEFAULT_PRIME, one at a time
    into an echelon basis over F_p, pivoting on the first ncols columns only.

    Returns the basis, each pivot column mapped to its pivot row's pivot
    entry and entries after the pivot, in the order the rows that own them
    came in, and, for each row that reduced to zero on the first ncols
    columns, its entries past them.  A row is reduced by the pivot row of
    its leading column until its leading column has none, where it becomes
    a pivot row, or it has no leading column left.  A pivot row keeps only its pivot
    entry e and its entries after its pivot; it is never normalised, and it
    is zero left of its pivot, so reducing by it leaves earlier columns
    alone.  Reducing r, whose leading entry is x, gives e*r - x*(pivot row),
    which is zero at the pivot: no division, so no modular inverse
    (fraction-free elimination, Bareiss 1968).  That is e times r - (x/e) *
    (pivot row), the step with an inverse, and e is nonzero; so, step by
    step, every row is a nonzero multiple of the row the same reduction
    with inverses holds.  The pivot columns, their order, and which entries
    of each zero row are nonzero are therefore those of elimination with
    inverses, and a pivot row divided by its pivot entry is that
    elimination's pivot row.  Entries past ncols are carried along by every
    reduction.  Reading ends as soon as there are stop pivots, so the rank
    of the rows read is then stop; a caller passes a stop that the rank of
    all the rows cannot exceed, and that rank is then stop too.  Rows are
    read lazily, so rows past the stop are never built.  The input rows are
    not changed.
    """
    p = DEFAULT_PRIME
    basis: dict[int, tuple[int, list[int]]] = {}
    zeros: list[list[int]] = []
    for r in rows:
        o = 0  # r holds the row's entries from column o on
        c = next((j for j, x in enumerate(r) if x), ncols)
        pivot = basis.get(c)
        while pivot is not None:
            e, tail = pivot
            h = p - r[c - o]  # e * r - r[c] * pivot row
            r = [(e * a + h * b) % p for a, b in zip(islice(r, c - o + 1, None), tail)]
            o = c + 1
            c = o if r and r[0] else next((j for j, x in enumerate(r, o) if x), ncols)
            pivot = basis.get(c)
        if c < ncols:
            basis[c] = (r[c - o], r[c - o + 1 :])
            if len(basis) == stop:
                break
        else:
            zeros.append(r[ncols - o :])
    return basis, zeros


def rigidity_target(n_vertices: int, d: int) -> int:
    """The rank of a generically d-rigid framework on n vertices.

    While n <= d+1, generic points are affinely independent and every edge
    is an independent row, so the rigid rank is C(n,2), reached exactly by
    the complete graph; above that it is d*n - C(d+1,2) (Asimow-Roth 1978).
    The two forms agree at n = d and n = d+1: d*d - C(d+1,2) = C(d,2) and
    d*(d+1) - C(d+1,2) = C(d+1,2).
    """
    if n_vertices <= d + 1:
        return comb(n_vertices, 2)
    return d * n_vertices - comb(d + 1, 2)


@dataclass(frozen=True)
class RigidityVerdict:
    rank: int
    target_rank: int
    is_rigid: bool
    trials: int
    stress_dim: int


# Shapes (see _shape) of graphs already decided rigid at rank == target,
# while a rigid_verdict_memo block is open; None outside one.
_known_rigid: ContextVar[set[tuple[int, int, int]] | None] = ContextVar(
    "spherig_known_rigid", default=None
)


@contextmanager
def rigid_verdict_memo() -> Iterator[set[tuple[int, int, int]]]:
    """Inside the block, decide_rigidity and edge_deletion_ranks record the
    shapes of the graphs they find rigid (edge_deletion_ranks: G and each
    rigid G - e), and decide_rigidity answers from the memo a graph whose
    shape is recorded.

    The shape of (G, d) is (d, n, mask): G's n vertices renumbered 0..n-1 in
    sorted order, edge {i<j} setting bit j(j-1)/2 + i of the mask.  Two
    graphs share a shape exactly when relabelling one in sorted order gives
    the other, so they are isomorphic by an order-preserving map.  A
    recorded shape was proved rigid: some graph of that shape had rank ==
    target at some point.  Isomorphic graphs share n, f1, the target and the
    generic rank (relabelling permutes the rows and column blocks of the
    rigidity matrix).  So the memo's rank == target and stress dimension
    f1 - target are exact for G at any seed, and a hit keeps the one-sided
    guarantee.  Flexible verdicts are never kept.  The memo is dropped when
    the block ends; calls outside any block never see one.
    """
    memo: set[tuple[int, int, int]] = set()
    token = _known_rigid.set(memo)
    try:
        yield memo
    finally:
        _known_rigid.reset(token)


def _edge_bits(vertex_order: list[int], edges: Iterable[Iterable[int]]) -> list[int]:
    """The shape-mask bit of each edge, in order: with its ends at sorted
    positions i < j, bit j(j-1)/2 + i."""
    pos = {v: i for i, v in enumerate(vertex_order)}
    bits = []
    for a, b in edges:
        i, j = pos[a], pos[b]
        if i > j:
            i, j = j, i
        bits.append(1 << (j * (j - 1) // 2 + i))
    return bits


def _shape(graph: Graph, d: int) -> tuple[int, int, int]:
    """The memo key of (graph, d); see rigid_verdict_memo."""
    order = sorted(graph.vertices)
    return d, len(order), sum(_edge_bits(order, graph.edges))


def _rank_bound(peel: Peel, d: int) -> int:
    """An upper bound on the generic rank of a graph's d-rigidity matrix,
    from its _peel: the peeled vertices' degrees at removal plus
    min(f1, rigidity_target) of the core.

    Deleting a vertex of degree k deletes its k rows and d zero columns, so
    rank R(G) <= rank R(G - v) + k at every point, in any order; the core's
    rank is at most its edge count and at most the rank of the complete
    graph on its vertices.  The bound is never above min(f1, target): the
    degrees and the core's edges add up to f1, and each peel runs on more
    than d+1 vertices, where removing one lowers the target by exactly d.
    With nothing peeled it is min(f1, target).
    """
    peeled, core = peel
    degrees = sum(len(around) for _, around in peeled)
    core_edges = sum(map(len, core.values())) // 2
    return degrees + min(core_edges, rigidity_target(len(core), d))


def _first_rows_rank(phi: Point, firsts: list[tuple[int, list[int]]], d: int) -> int:
    """A lower bound on the rank at phi of a graph's rigidity matrix, from
    each vertex's first back-neighbours in the graph's _attach_order: the
    sum over the vertices v of the rank of the directions phi(v) - phi(u),
    u among v's first back-neighbours.

    The first rows, each vertex v's rows to its first back-neighbours, are
    zero in the column blocks of the vertices placed after v; so, rows and
    column blocks both taken latest-placed vertex first, they are block
    upper triangular, with v's first directions on the diagonal.  A
    combination of them that vanishes puts no weight on rows independent on
    the first diagonal block, whose columns no later row reaches, then none
    on such rows of the next block, and so on; so the rank at phi is at
    least the sum of the diagonal blocks' ranks.  A peeled vertex's block holds the
    directions to all its neighbours at removal: where they are independent
    it adds its whole degree (the 0-extension step of Tay-Whiteley 1985).
    The argument holds at every point, a degenerate one included.
    """
    p, total = DEFAULT_PRIME, 0
    for v, back in firsts:
        directions = ([(x - y) % p for x, y in zip(phi[v], phi[u])] for u in back)
        total += len(_echelon(directions, d)[0])
    return total


def _inverses(entries: list[int]) -> dict[int, int]:
    """Each of the nonzero entries in [0, p) mapped to its inverse mod p,
    from one modular inverse (Montgomery 1987): the inverse of an entry is
    the inverse of the product of all of them times the product of the
    others, taken from prefix products."""
    p, prefix = DEFAULT_PRIME, [1]
    for x in entries:
        prefix.append(prefix[-1] * x % p)
    inverse, inverses = pow(prefix[-1], -1, p), {}
    for i in range(len(entries) - 1, -1, -1):
        inverses[entries[i]] = inverse * prefix[i] % p
        inverse = inverse * entries[i] % p
    return inverses


# One vertex's first directions at a point, factored (see _factor).
Factor = tuple[
    list[tuple[int, int, tuple[int, ...]]], list[tuple[int, ...]], list[tuple[int, tuple[int, ...]]]
]


def _factor(
    basis: dict[int, tuple[int, list[int]]], inverses: dict[int, int], d: int, k: int
) -> Factor:
    """One vertex's k first directions D at a point, factored for
    back-substitution: (pivots, maps, others), from the _echelon basis B of
    the directions each extended by its unit vector, B = L [D | I], and the
    inverses of its pivot entries.

    B's rows, in the order of their pivot columns, are zero left of their
    pivots; pivots lists each pivot column with its inverse pivot entry and
    B's column there, maps[j] is L's column j, and others pairs each column
    that is not a pivot with B's column there.  For a vector x of d
    entries, forward substitution gives the weights a_i, in order, for
    which x - a B is zero on every pivot column: a_i is x's entry at the
    i-th pivot, less the earlier weights times B's column there, over the
    pivot entry.  Then x - a B is x[c] - a B[c] on another column c, and a
    B is the combination of the directions with weights a maps[j].  L's
    column j is zero exactly where direction j depends on the ones before
    it: a pivot row's extension reaches only the directions that became
    pivots, each in the row it made.
    """
    rows = [[0] * c + [e] + tail for c, (e, tail) in sorted(basis.items())]
    columns = list(zip(*rows)) if rows else [()] * (d + k)
    pivots = [(c, inverses[row[c]], columns[c]) for c, row in zip(sorted(basis), rows)]
    others = [(c, columns[c]) for c in range(d) if c not in basis]
    return pivots, columns[d:], others


# Per row that _reduced_rows reduces: its position in the order's edges, its
# residual, and the steps of its back-substitution, each the position of a
# vertex's first rows and their weights in the combination subtracted.
Reduced = tuple[int, list[int], list[tuple[int, list[int]]]]


def _reduced_rows(order: Order, phi: Point, d: int) -> tuple[int, int, Iterator[Reduced]]:
    """A graph's rigidity matrix at phi, reduced through its first rows in
    its _attach_order: (count, ncols, rows).

    Each vertex's first directions are factored once (_factor).  A first row
    independent of its vertex's earlier first rows at phi is a pivot row,
    and count is their number, the sum _first_rows_rank takes.  Every other
    row, a rest row or a first row dependent inside its own block, is
    reduced by back-substitution through the blocks, latest-placed block
    first.  The row of edge uv holds phi(v) - phi(u) in v's block and the
    negative in u's, and nothing else.  Where the row's block of a vertex w
    is x, the step subtracts the combination of w's first rows that clears
    x on w's pivot columns (_factor).  What that leaves on w's other
    columns is the row's residual there, and it adds to the blocks of w's
    first back-neighbours, all placed before w, and to no other block.  So
    no later step comes back to w's block, and a step costs O(d^2), not the
    length of a row.  The residual lies on the ncols = d*n - count columns
    that are no vertex's pivot, numbered in placement order.  The rows come
    in the order's edge order, as Reduced triples, each reduced only when
    it is read.

    The pivot rows are block upper triangular (see _first_rows_rank), and
    on the pivot columns their diagonal blocks are invertible; so a
    combination of pivot rows and residuals that vanishes puts no weight on
    a pivot row, and the rank of all of them is count plus the rank of the
    residuals.  Subtracting combinations of pivot rows from the other rows
    changes no rank, so that is the rank of the whole matrix at phi, at
    every point, a degenerate one included.
    """
    p = DEFAULT_PRIME
    edges, firsts = order
    placed = {v: i for i, (v, _) in enumerate(firsts)}
    directions = [
        [[(x - y) % p for x, y in zip(phi[v], phi[u])] for u in back] for v, back in firsts
    ]
    bases = [
        _echelon((row + [0] * i + [1] + [0] * (len(ds) - 1 - i) for i, row in enumerate(ds)), d)[0]
        for ds in directions
    ]
    inverses = _inverses([e for basis in bases for e, _ in basis.values()])
    # per vertex: its factor, its first back-neighbours' blocks with their
    # directions, its other columns' places in the residual, its first row
    blocks = []
    pivot_rows: set[int] = set()
    first = ncols = 0
    for (v, back), ds, basis in zip(firsts, directions, bases):
        pivots, maps, others = _factor(basis, inverses, d, len(back))
        pivot_rows.update(first + j for j, weights in enumerate(maps) if any(weights))
        ends = [(placed[u], direction) for u, direction in zip(back, ds)]
        columns = [(ncols + i, c, column) for i, (c, column) in enumerate(others)]
        blocks.append((pivots, maps, ends, columns, first))
        first, ncols = first + len(back), ncols + len(others)

    def reduce() -> Iterator[Reduced]:
        for i, edge in enumerate(edges):
            if i in pivot_rows:
                continue
            u, v = sorted(edge, key=placed.__getitem__)
            row: list[list[int] | None] = [None] * len(blocks)
            row[placed[v]] = [(x - y) % p for x, y in zip(phi[v], phi[u])]
            row[placed[u]] = [(y - x) % p for x, y in zip(phi[v], phi[u])]
            residual, taken = [0] * ncols, []
            for w in range(placed[v], -1, -1):
                x = row[w]
                if x is None:
                    continue
                pivots, maps, ends, columns, start = blocks[w]
                a: list[int] = []
                for c, inverse, column in pivots:
                    a.append((x[c] - sum(map(mul, a, column))) * inverse % p)
                weights = [sum(map(mul, a, t)) % p for t in maps]
                for h, (j, direction) in zip(weights, ends):
                    if h:
                        y = row[j]
                        row[j] = (
                            [h * z % p for z in direction]
                            if y is None
                            else [(s + h * z) % p for s, z in zip(y, direction)]
                        )
                if any(weights):
                    taken.append((start, weights))
                for col, c, column in columns:
                    residual[col] = (x[c] - sum(map(mul, a, column))) % p
            yield i, residual, taken

    return len(pivot_rows), ncols, reduce()


def _rank_at(order: Order, phi: Point, d: int, bound: int) -> int:
    """The rank of a graph's rigidity matrix at phi, given its _attach_order
    and a bound that no rank of the matrix at any point exceeds.

    _first_rows_rank never exceeds the rank at phi, which never exceeds the
    bound; where they meet, the rank is the bound and nothing is reduced.
    Nor does it exceed the number of first rows, so where that falls short
    of the bound, as for a cross-polytope's graph, it is not taken at all.
    Otherwise the other rows are reduced through the first rows
    (_reduced_rows), and only their residuals are eliminated, until the
    rank reaches the bound, which it then equals.  Either way the value is
    the rank of the whole matrix at phi, not an estimate.
    """
    firsts = order[1]
    if sum(len(back) for _, back in firsts) == bound == _first_rows_rank(phi, firsts, d):
        return bound
    count, ncols, rows = _reduced_rows(order, phi, d)
    residuals = (residual for _, residual, _ in rows)
    return count + len(_echelon(residuals, ncols, bound - count)[0])


def decide_rigidity(
    graph: Graph,
    d: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RigidityVerdict:
    """Randomized generic-rigidity decision for a graph in dimension d.

    Evaluates the matrix at up to `trials` independent random embeddings
    and keeps the maximum rank; the graph is rigid when that rank meets
    rigidity_target.  The loop stops once the rank reaches the peeling
    bound _rank_bound.  A rank at a point never exceeds the generic rank,
    which never exceeds the bound, so a rank at the bound is the generic
    rank: the remaining trials could only return it again, and a shortfall
    there is exact.  Each point's rank comes from _rank_at over the one
    _attach_order of the graph's _peel, and is the full matrix's rank at
    the point exactly (see _rank_at), so the verdict and the one-sided
    guarantee are those of eliminating the whole matrix at every point.
    On n <= d+1 vertices the rank is f1, with no point drawn: generic points
    on at most d+1 vertices are affinely independent, so every edge's row
    is independent (see rigidity_target), and the verdict is exact.
    Inside rigid_verdict_memo a graph whose shape was already decided rigid
    is answered without a new embedding.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    f1, n = len(graph.edges), len(graph.vertices)
    target = rigidity_target(n, d)
    if n <= d + 1:
        return RigidityVerdict(f1, target, f1 == target, trials, 0)
    memo = _known_rigid.get()
    if memo is not None:
        shape = _shape(graph, d)
        if shape in memo:
            return RigidityVerdict(target, target, True, trials, f1 - target)
    peel = _peel(graph, d)
    bound, order = _rank_bound(peel, d), _attach_order(peel, d)
    best = 0
    for t in range(trials):
        phi = random_embedding(graph, d, derive_seed(seed, "trial", t))
        best = max(best, _rank_at(order, phi, d, bound))
        if best == bound:
            break
    is_rigid = best == target
    if memo is not None and is_rigid:
        memo.add(shape)
    return RigidityVerdict(best, target, is_rigid, trials, f1 - best)


def contraction_ranks(graph: Graph, a: int, b: int, d: int, seed: int) -> tuple[int, int]:
    """(rank R(G - ab), rank R(G/ab)) in dimension d at
    random_embedding(graph, d, seed) with b, and G/ab's merged vertex, moved
    onto a's point; graph is G - ab, with or without the edge ab.

    Each is the whole matrix's rank at that point, read as decide_rigidity
    reads one (_rank_at), except that r2 = rank R(G/ab) is r1 - d, and G/ab
    is not built, where r1 = rank R(G - ab) reaches target(n), n the vertex
    count of G - ab.  Adding b's column block into a's changes no rank and,
    as phi(b) = phi(a), leaves R(G/ab) beside b's d columns, so r2 >= r1 -
    d; and r2 <= target(n - 1), which is target(n) - d.  That needs n >=
    d + 2, and below it r1 never reaches target(n) = C(n, 2): that takes the
    row of ab, which is missing or zero at this point.
    """
    if a == b or not {a, b} <= graph.vertices:
        raise ValueError(f"({a}, {b}) are not two vertices of the graph")
    phi = random_embedding(graph, d, seed)
    m = max(graph.vertices) + 1  # G/ab's merged vertex
    phi[b] = phi[m] = phi[a]

    def rank(h: Graph) -> int:
        peel = _peel(h, d)
        return _rank_at(_attach_order(peel, d), phi, d, _rank_bound(peel, d))

    r1 = rank(graph)
    if r1 == rigidity_target(len(graph.vertices), d):
        return r1, r1 - d
    return r1, rank(union(graph, complete_graph((a, b))).contract_edge(a, b, m))


def edge_deletion_ranks(graph: Graph, d: int, seed: int = 0) -> dict[tuple[int, int], int]:
    """decide_rigidity(graph - e, d, seed=seed).rank for every edge e, from
    one reduction of the whole graph's matrix.

    Keys are the edges as sorted pairs, in sorted order.  The matrix is
    read once, at the first trial point of decide_rigidity with this seed.
    That point depends only on the sorted vertex set, d and the seed, and
    G - e has the same vertices as G, so it is also the first point that
    decide_rigidity(G - e, ...) uses; R(G - e) there is R(G) without the row
    of e.  Dropping a row keeps the rank exactly when the row is a
    combination of the others, that is, when some stress (left-kernel
    vector) of R(G) is nonzero on it.  So one reduction that yields the
    rank r of R(G) and the rows some stress uses gives the rank of R(G - e)
    at that point exactly: r on a stressed edge, r - 1 on any other.  The
    matrix is reduced through its first rows in _attach_order's order
    (_reduced_rows), and r is their count plus the rank of the residuals.
    Each residual is extended by its row's unit vector, less its
    back-substitution weights at the first rows they were taken from, so
    the extension records the input rows the residual is a combination of,
    and only the residuals are eliminated.  Each of the m - r residuals that
    reduce to zero gives a stress, nonzero on its own row and zero on the
    later rows that were reduced.  On the m - count reduced rows these
    stresses are triangular, hence independent, and there are as many as
    the left kernel's dimension, so they are a basis; an edge is stressed
    exactly when one of them is nonzero on it.  The extensions index rows
    by their position in that order, which is mapped back to the edges
    before any value is read.

    decide_rigidity stops after its first trial once the rank reaches
    min(f1(G - e), target); a value that falls short of that cap is
    recomputed by decide_rigidity itself, which may draw further points.
    Each value therefore equals decide_rigidity's exactly, not just with high
    probability, and inherits its one-sided guarantee: a rank at a point
    never exceeds the generic rank, so a value that meets the rigidity
    target ("rigid") is always right, and only a shortfall can be wrong, by
    Schwartz-Zippel with probability at most (matrix rows)/p per trial.
    On at most d+1 vertices every value is f1 - 1, with no point drawn: G - e
    has the same vertices, so decide_rigidity reads its rank as its edge
    count.

    Inside rigid_verdict_memo, the shapes of G and of each G - e whose value
    meets the target are recorded rigid: a rank at the target is the generic
    rank.  The shape of G - e is G's with the bit of e cleared, so no G - e
    is built except for a fallback.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    order, edges = sorted(graph.vertices), graph.sorted_edges()
    if len(order) <= d + 1:
        return dict.fromkeys(edges, len(edges) - 1)
    target = rigidity_target(len(order), d)
    memo = _known_rigid.get()
    attached, firsts = _attach_order(_peel(graph, d), d)
    phi = random_embedding(graph, d, derive_seed(seed, "trial", 0))
    count, ncols, rows = _reduced_rows((attached, firsts), phi, d)
    # the residuals that reduce to zero carry a basis of the stresses in
    # their extensions (see above), indexed by position in attached
    p, m = DEFAULT_PRIME, len(edges)

    def extended(i: int, residual: list[int], taken: list[tuple[int, list[int]]]) -> list[int]:
        extension = [0] * m
        extension[i] = 1
        for start, weights in taken:
            extension[start : start + len(weights)] = [(p - h) % p for h in weights]
        return residual + extension

    pivots, zeros = _echelon((extended(*row) for row in rows), ncols)
    rank = count + len(pivots)
    stressed = {attached[j] for extension in zeros for j, x in enumerate(extension) if x}
    cap = min(len(graph.edges) - 1, target)
    if memo is not None:
        bits = _edge_bits(order, edges)
        n, mask = len(order), sum(bits)
        if rank == target:
            memo.add((d, n, mask))
    ranks: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(edges):
        value = rank if (a, b) in stressed else rank - 1
        if value < cap:
            value = decide_rigidity(graph.remove_edge(a, b), d, seed=seed).rank
        elif memo is not None and value == target:
            memo.add((d, n, mask & ~bits[i]))
        ranks[a, b] = value
    return ranks
