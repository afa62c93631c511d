"""Rigidity matrices over a large prime field and randomized rank decisions.

A graph on n vertices is generically d-rigid exactly when its rigidity
matrix reaches rigidity_target(n, d), one closed form for every n: C(n,2)
while n <= d+1 and d*n - C(d+1,2) above.  Generic rank is decided by
evaluating the matrix at uniformly random field points.  The rank at a
specific point never exceeds the generic rank, and falls short only when
the point lands on a proper minor locus; by Schwartz-Zippel that happens
with probability at most (matrix rows)/p per trial.  With p = 2**61 - 1 and
max-over-trials aggregation the check is one-sided: a "rigid" answer is
always correct, a "flexible" answer is wrong with negligible probability.
edge_deletion_ranks answers every single-edge deletion of a graph from one
elimination of its matrix, with the same guarantee (see its docstring).
Inside rigid_verdict_memo both record the shapes of the graphs they find
rigid (the graph relabelled 0..n-1 in sorted vertex order, with d), and
decide_rigidity answers a graph of a recorded shape without a new embedding.

Field elements are plain Python ints in [0, p); there is no scalar wrapper
class.  All randomness is drawn from seeded generators so every decision is
reproducible from (graph, d, trials, seed).
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .graphs import Graph

DEFAULT_PRIME = 2**61 - 1
DEFAULT_TRIALS = 3


def derive_seed(seed: int, *labels: object) -> int:
    """Stable sub-seed from a parent seed and a label path.

    Lets independent randomized steps share one user-facing seed without
    correlating their streams, and keeps failure seeds reportable.
    """
    text = ":".join([str(seed)] + [str(l) for l in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Embedding:
    """Assignment of d coordinates in F_p, p = DEFAULT_PRIME, to each vertex."""

    d: int
    coords: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("embedding dimension must be >= 1")
        for v, point in self.coords.items():
            if len(point) != self.d:
                raise ValueError(f"vertex {v} has {len(point)} coordinates, expected {self.d}")


def random_embedding(graph: Graph, d: int, seed: int) -> Embedding:
    """Uniform random embedding of the graph's vertices; seed-deterministic."""
    rng = random.Random(derive_seed(seed, "embedding", d))
    coords = {
        v: tuple(rng.randrange(DEFAULT_PRIME) for _ in range(d))
        for v in sorted(graph.vertices)
    }
    return Embedding(d, coords)


class RigidityMatrix:
    """The edge-by-coordinate incidence matrix of a graph at an embedding.

    Rows follow sorted edge order; columns come in d-sized blocks, one per
    vertex in sorted order.  The row of edge {u,v} carries phi(u)-phi(v) in
    u's block and the negative in v's block.
    """

    def __init__(self, graph: Graph, embedding: Embedding):
        missing = graph.vertices - embedding.coords.keys()
        if missing:
            raise ValueError(f"embedding lacks coordinates for vertices {sorted(missing)}")
        self.d = embedding.d
        self.vertex_order: list[int] = sorted(graph.vertices)
        self.edge_order: list[tuple[int, int]] = graph.sorted_edges()
        col_of = {v: i * self.d for i, v in enumerate(self.vertex_order)}
        p, d = DEFAULT_PRIME, self.d
        ncols = d * len(self.vertex_order)
        rows: list[list[int]] = []
        for u, v in self.edge_order:
            row = [0] * ncols
            pu, pv = embedding.coords[u], embedding.coords[v]
            cu, cv = col_of[u], col_of[v]
            for k in range(d):
                diff = (pu[k] - pv[k]) % p
                row[cu + k] = diff
                row[cv + k] = (-diff) % p
            rows.append(row)
        self.rows = rows

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), self.d * len(self.vertex_order)

    def rank(self) -> int:
        return rank_mod(self.rows)


def rank_mod(rows: list[list[int]], p: int = DEFAULT_PRIME) -> int:
    """Rank of an integer matrix over F_p by Gaussian elimination."""
    if not rows:
        return 0
    return _reduce([r[:] for r in rows], len(rows[0]), p)


def _reduce(rows: list[list[int]], ncols: int, p: int) -> int:
    """Row-reduce in place, pivoting on the first ncols columns only; return the rank.

    Entries past ncols are carried along by every row operation.
    """
    nrows = len(rows)
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[col], -1, p)
        tail = prow[col:]
        for i in range(rank + 1, nrows):
            r = rows[i]
            f = r[col] % p
            if f:
                g = f * inv % p
                r[col:] = [(a - g * b) % p for a, b in zip(r[col:], tail)]
        rank += 1
        if rank == nrows:
            break
    return rank


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
    rigid G - e), and decide_rigidity answers a graph of a recorded shape
    from the memo.

    The shape of (G, d) is (d, n, mask): G's n vertices renumbered 0..n-1 in
    sorted order, edge {i<j} setting bit j(j-1)/2 + i of the mask.  Two
    graphs share a shape exactly when relabelling one in sorted order gives
    the other, so they are isomorphic.  A recorded shape was proved rigid:
    some graph of that shape had rank == target at some point.  Isomorphic
    graphs share n, f1, the target and the generic rank (relabelling
    permutes the rows and column blocks of the rigidity matrix), and no
    point exceeds the generic rank, so the memo's rank, target and stress
    dimension are exact for every graph of the shape at any seed; a hit
    keeps the one-sided guarantee.  Flexible verdicts are never kept: a rank
    shortfall at one seed says nothing certain about another.  The memo is
    dropped when the block ends; calls outside any block never see one.
    """
    memo: set[tuple[int, int, int]] = set()
    token = _known_rigid.set(memo)
    try:
        yield memo
    finally:
        _known_rigid.reset(token)


def _edge_bits(vertex_order: list[int], edge_order: list[tuple[int, int]]) -> list[int]:
    """The shape-mask bit of each (a, b), a < b, in edge_order: with a and b
    at sorted positions i < j, bit j(j-1)/2 + i."""
    pos = {v: i for i, v in enumerate(vertex_order)}
    return [1 << (pos[b] * (pos[b] - 1) // 2 + pos[a]) for a, b in edge_order]


def _shape(graph: Graph, d: int) -> tuple[int, int, int]:
    """The memo key of (graph, d); see rigid_verdict_memo."""
    bits = _edge_bits(sorted(graph.vertices), graph.sorted_edges())
    return d, len(graph.vertices), sum(bits)


def _require_decidable(d: int, trials: int) -> None:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")


def decide_rigidity(
    graph: Graph,
    d: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RigidityVerdict:
    """Randomized generic-rigidity decision for a graph in dimension d.

    Evaluates the matrix at `trials` independent random embeddings and
    keeps the maximum rank; the graph is rigid when that rank meets
    rigidity_target.  Inside rigid_verdict_memo a graph already decided
    rigid is answered without a new embedding.
    """
    _require_decidable(d, trials)
    f1 = len(graph.edges)
    target = rigidity_target(len(graph.vertices), d)
    memo = _known_rigid.get()
    if memo is not None:
        shape = _shape(graph, d)
        if shape in memo:
            return RigidityVerdict(target, target, True, trials, f1 - target)
    best = 0
    cap = min(f1, target)
    for t in range(trials):
        phi = random_embedding(graph, d, derive_seed(seed, "trial", t))
        best = max(best, RigidityMatrix(graph, phi).rank())
        if best == cap:
            break
    is_rigid = best == target
    if memo is not None and is_rigid:
        memo.add(shape)
    return RigidityVerdict(best, target, is_rigid, trials, f1 - best)


def edge_deletion_ranks(
    graph: Graph,
    d: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> dict[tuple[int, int], int]:
    """decide_rigidity(graph - e, d, trials, seed).rank for every edge e, from
    one elimination of the whole graph's matrix.

    Keys are the edges as sorted pairs, in sorted order.  The matrix is
    built once, at the first trial point of decide_rigidity with this seed.
    That point depends only on the sorted vertex set, d and the seed, and
    G - e has the same vertices as G, so it is also the first point that
    decide_rigidity(G - e, ...) uses; R(G - e) there is R(G) without the row
    of e.  Dropping a row keeps the rank exactly when the row is a
    combination of the others, that is, when some stress (left-kernel
    vector) of R(G) is nonzero on it.  So one elimination that yields the
    rank r of R(G) and the rows some stress uses gives the rank of R(G - e)
    at that point exactly: r on a stressed edge, r - 1 on any other.

    decide_rigidity stops after its first trial once the rank reaches
    min(f1(G - e), target); a value that falls short of that cap is
    recomputed by decide_rigidity itself, with all its trials.  Each value
    therefore equals decide_rigidity's exactly, not just with high
    probability, and inherits its one-sided guarantee: a rank at a point
    never exceeds the generic rank, so a value that meets the rigidity
    target ("rigid") is always right, and only a shortfall can be wrong, by
    Schwartz-Zippel with probability at most (matrix rows)/p per trial.

    Inside rigid_verdict_memo, the shapes of G and of each G - e whose value
    meets the target are recorded rigid: a rank at the target is the generic
    rank.  The shape of G - e is G's with the bit of e cleared, so no G - e
    is built except for a fallback.
    """
    _require_decidable(d, trials)
    target = rigidity_target(len(graph.vertices), d)
    memo = _known_rigid.get()
    matrix = RigidityMatrix(graph, random_embedding(graph, d, derive_seed(seed, "trial", 0)))
    # Each row is extended by a unit vector that records which input rows it
    # has become a combination of; the rows reduced to zero then carry a
    # basis of the stresses in that extension.
    m, ncols = matrix.shape
    work = [row + [int(i == j) for j in range(m)] for i, row in enumerate(matrix.rows)]
    rank = _reduce(work, ncols, DEFAULT_PRIME)
    stressed = {j for row in work[rank:] for j in range(m) if row[ncols + j]}
    cap = min(len(graph.edges) - 1, target)
    if memo is not None:
        bits = _edge_bits(matrix.vertex_order, matrix.edge_order)
        n, mask = len(matrix.vertex_order), sum(bits)
        if rank == target:
            memo.add((d, n, mask))
    ranks: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(matrix.edge_order):
        value = rank if i in stressed else rank - 1
        if value < cap:
            value = decide_rigidity(graph.remove_edge(a, b), d, trials, seed).rank
        elif memo is not None and value == target:
            memo.add((d, n, mask & ~bits[i]))
        ranks[a, b] = value
    return ranks
