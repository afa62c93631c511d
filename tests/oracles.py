"""Brute-force reference implementations the real code is tested against.

Everything here trades efficiency for obviousness: full face closures as
explicit sets, subset scans over the whole power set, exact rational
elimination.  The builders (cone, connected_sum) return plain facet sets.
Nothing imports the algorithms under test; the only library type that
appears is SimplicialComplex as a plain container of facets.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations


def closure(facets) -> set[frozenset[int]]:
    """Every face of the complex generated by the given facets, empty face included."""
    faces: set[frozenset[int]] = {frozenset()}
    for facet in facets:
        ordered = sorted(facet)
        for k in range(1, len(ordered) + 1):
            faces.update(frozenset(c) for c in combinations(ordered, k))
    return faces


def f_vector(facets) -> tuple[int, ...]:
    """Face counts (f_{-1}, f_0, ..., f_dim) of the closure, with f_{-1} = 1."""
    sizes = Counter(len(f) for f in closure(facets))
    return tuple(sizes[k] for k in range(max(sizes) + 1))


def cone(facets, apex: int) -> frozenset[frozenset[int]]:
    """Facets of the cone over a complex: every facet gains the apex."""
    return frozenset(frozenset(f) | {apex} for f in facets)


def connected_sum(facets1, facet1, facets2, facet2, matching=None) -> frozenset[frozenset[int]]:
    """Facets of two complexes glued along a facet of each, which is then removed.

    `matching` maps each vertex of facet1 to its partner in facet2, in sorted
    order when omitted.  Vertices of the second complex outside facet2 keep
    their labels unless the first complex uses them; those get fresh labels
    above both vertex sets.
    """
    facets1 = {frozenset(f) for f in facets1}
    facets2 = {frozenset(f) for f in facets2}
    f1, f2 = frozenset(facet1), frozenset(facet2)
    assert f1 in facets1 and f2 in facets2, "oracle: glue along a facet of each complex"
    matching = matching or dict(zip(sorted(f1), sorted(f2)))
    relabel = {matching[v]: v for v in f1}
    used1, used2 = set().union(*facets1), set().union(*facets2)
    fresh = max(used1 | used2) + 1
    for v in sorted(used2 - f2):
        if v in used1:
            relabel[v], fresh = fresh, fresh + 1
    moved = {frozenset(relabel.get(v, v) for v in g) for g in facets2}
    return frozenset((facets1 | moved) - {f1})


def intersection(left, right) -> frozenset[frozenset[int]]:
    """Facets of the complex of faces common to two complexes, from both closures."""
    common = closure(left) & closure(right)
    return frozenset(f for f in common if not any(f < g for g in common))


def star(facets, face) -> frozenset[frozenset[int]]:
    """Facets of the closed star of a face: every facet that contains it."""
    return frozenset(frozenset(f) for f in facets if set(face) <= set(f))


def brute_missing_faces(facets) -> list[frozenset[int]]:
    """Minimal non-faces by scanning all vertex subsets up to size dim+2."""
    faces = closure(facets)
    verts = sorted({v for f in facets for v in f})
    dim = max(len(f) for f in facets) - 1
    out = []
    for size in range(1, dim + 3):
        for combo in combinations(verts, size):
            s = frozenset(combo)
            if s in faces:
                continue
            if all(s - {v} in faces for v in combo):
                out.append(s)
    return sorted(out, key=lambda f: (len(f), sorted(f)))


def brute_contract(facets, a: int, b: int, v_new: int) -> set[frozenset[int]]:
    """Edge contraction applied at the level of individual faces.

    Keeps faces avoiding both endpoints and adds F + {v_new} whenever
    F + {a} or F + {b} is a face; returns the maximal faces of the result.
    """
    faces = closure(facets)
    kept = {f for f in faces if a not in f and b not in f}
    added = {f | {v_new} for f in kept if (f | {a}) in faces or (f | {b}) in faces}
    combined = kept | added
    return {f for f in combined if f and not any(f < g for g in combined)}


def brute_prime_factors(facets, d: int) -> list[frozenset[frozenset[int]]]:
    """Connected-sum decomposition working over raw facet sets.

    Deliberately makes different choices than the library (splits along the
    LAST missing facet in sorted order) so agreement is meaningful; the
    decomposition itself is unique.
    """
    facets = frozenset(frozenset(f) for f in facets)
    faces = closure(facets)
    verts = sorted({v for f in facets for v in f})
    missing_facets = []
    for combo in combinations(verts, d):
        s = frozenset(combo)
        if s not in faces and all(s - {v} in faces for v in combo):
            missing_facets.append(s)
    if not missing_facets:
        return [facets]
    sigma = sorted(missing_facets, key=lambda f: sorted(f))[-1]
    outside = [v for v in verts if v not in sigma]
    edges = {f for f in faces if len(f) == 2 and not f & sigma}
    components: list[set[int]] = []
    unseen = set(outside)
    while unseen:
        comp = {min(unseen)}
        frontier = [min(unseen)]
        while frontier:
            v = frontier.pop()
            for u in list(unseen - comp):
                if frozenset((u, v)) in edges:
                    comp.add(u)
                    frontier.append(u)
        unseen -= comp
        components.append(comp)
    assert len(components) >= 2, "oracle: missing facet does not separate"
    out: list[frozenset[frozenset[int]]] = []
    for comp in components:
        keep = comp | sigma
        piece = {f for f in facets if f <= keep} | {sigma}
        piece = frozenset(f for f in piece if not any(f < g for g in piece))
        out.extend(brute_prime_factors(piece, d))
    return out


def rational_rank(rows) -> int:
    """Exact rank over the rationals by fraction-free-ish Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    nrows = len(rows)
    if nrows == 0:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            if rows[i][col] != 0:
                factor = rows[i][col] / prow[col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], prow)]
        rank += 1
        if rank == nrows:
            break
    return rank


def rational_rigidity_rank(graph, d: int, rng) -> int:
    """Rank of the rigidity matrix at one random integer embedding, over Q.

    The coordinate range is wide enough that landing on a rank-dropping
    locus is about as likely as a cosmic ray flipping the verdict.
    """
    order = sorted(graph.vertices)
    col_of = {v: i * d for i, v in enumerate(order)}
    coords = {v: [rng.randrange(10**9) for _ in range(d)] for v in order}
    rows = []
    for edge in sorted(tuple(sorted(e)) for e in graph.edges):
        u, v = edge
        row = [0] * (d * len(order))
        for k in range(d):
            diff = coords[u][k] - coords[v][k]
            row[col_of[u] + k] = diff
            row[col_of[v] + k] = -diff
        rows.append(row)
    return rational_rank(rows)


def sorted_relabelling(graph) -> tuple[int, frozenset[tuple[int, int]]]:
    """Vertex count and edges (i, j), i < j, of a graph relabelled 0..n-1 in
    sorted vertex order."""
    pos = {v: i for i, v in enumerate(sorted(graph.vertices))}
    return len(pos), frozenset(tuple(sorted(pos[v] for v in e)) for e in graph.edges)


def shape_edges(n: int, mask: int) -> frozenset[tuple[int, int]]:
    """The edges (i, j), i < j, on 0..n-1 whose bit j(j-1)/2 + i is set in a
    rigid-verdict memo mask, read off pair by pair."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    if mask >> len(pairs):
        raise ValueError(f"mask {mask:#x} has bits beyond the {len(pairs)} pairs of {n} vertices")
    return frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
