"""Rigidity matrices over a large prime field and randomized rank decisions.

Generic rank is decided by evaluating the matrix at uniformly random field
points.  The rank at a specific point never exceeds the generic rank, and
falls short only when the point lands on a proper minor locus; by
Schwartz-Zippel that happens with probability at most (matrix rows)/p per
trial.  With p = 2**61 - 1 and max-over-trials aggregation the check is
one-sided: a "rigid" answer is always correct, a "flexible" answer is wrong
with negligible probability.

Field elements are plain Python ints in [0, p); there is no scalar wrapper
class.  All randomness is drawn from seeded generators so every decision is
reproducible from (graph, d, trials, seed).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import comb

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
    if d < 1:
        raise ValueError("embedding dimension must be >= 1")
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
        self.graph = graph
        self.embedding = embedding
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
    rows = [r[:] for r in rows]
    nrows = len(rows)
    if nrows == 0:
        return 0
    ncols = len(rows[0])
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
    """The full-rank value d*n - C(d+1,2) for frameworks on >= d+1 vertices."""
    return d * n_vertices - comb(d + 1, 2)


@dataclass(frozen=True)
class RigidityVerdict:
    rank: int
    target_rank: int
    is_rigid: bool
    trials: int
    stress_dim: int


def decide_rigidity(
    graph: Graph,
    d: int,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> RigidityVerdict:
    """Randomized generic-rigidity decision for a graph in dimension d.

    Evaluates the matrix at `trials` independent random embeddings and
    keeps the maximum rank.  Needs at least d+1 vertices; with exactly d+1
    the rank target degenerates to C(d+1,2), so the verdict is taken from
    completeness of the graph instead of the rank comparison (the two agree
    at generic points).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    n = len(graph.vertices)
    if n <= d:
        raise ValueError(
            f"rigidity target needs at least d+1 = {d + 1} vertices, got {n}; "
            "graphs this small are rigid exactly when complete"
        )
    f1 = len(graph.edges)
    target = rigidity_target(n, d)
    best = 0
    cap = min(f1, target)
    for t in range(trials):
        phi = random_embedding(graph, d, derive_seed(seed, "trial", t))
        best = max(best, RigidityMatrix(graph, phi).rank())
        if best == cap:
            break
    if n == d + 1:
        is_rigid = f1 == comb(n, 2)
    else:
        is_rigid = best == target
    return RigidityVerdict(
        rank=best,
        target_rank=target,
        is_rigid=is_rigid,
        trials=trials,
        stress_dim=f1 - best,
    )
