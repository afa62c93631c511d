"""Brute-force reference implementations the real code is tested against.

Everything here trades efficiency for obviousness: full face closures as
explicit sets, subset scans over the whole power set (Gale's evenness
condition tested on every d-subset among them), exact fraction-free
elimination over the integers, column-by-column elimination mod p.  The
builders (cone, connected_sum) return plain facet sets.
Nothing imports the algorithms under test; the only library types that
appear are SimplicialComplex as a plain container of facets, and a corpus
entry and its check records, read and copied field by field (relabelled,
outcomes_under_relabelling).
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
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


def maximal_faces(faces) -> frozenset[frozenset[int]]:
    """The inclusion-maximal members of a family, each compared with every other."""
    family = {frozenset(f) for f in faces}
    return frozenset(f for f in family if not any(f < g for g in family))


def gale_even_facets(n: int, d: int) -> frozenset[frozenset[int]]:
    """Facets of the cyclic polytope C(n, d): every d-subset of 1..n that
    passes Gale's evenness condition, tested pair by pair of non-members."""
    out = set()
    for subset in combinations(range(1, n + 1), d):
        outside = [i for i in range(1, n + 1) if i not in subset]
        if all(
            sum(1 for s in subset if a < s < b) % 2 == 0
            for a, b in combinations(outside, 2)
        ):
            out.add(frozenset(subset))
    return frozenset(out)


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
    """Exact rank over the rationals of integer rows, by fraction-free
    elimination over the integers (Bareiss 1968), column by column with row
    swaps: a row below the pivot row r becomes (e * row - f * r) divided by
    the previous pivot entry, where e is r's pivot entry and f the row's
    entry in the pivot column.  By Sylvester's identity every entry is then
    a minor of the input, so each division is exact and every entry stays
    an integer.  A column with no pivot stays zero below the pivot rows."""
    rows = [list(row) for row in rows]
    rank, previous = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        e = top[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(e * x - f * y) // previous for x, y in zip(rows[i], top)]
        previous, rank = e, rank + 1
        if rank == len(rows):
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


PRIME = 2**61 - 1  # the field of the rigidity matrices under test


def rigidity_rows_mod_p(graph, coords, d: int) -> list[list[int]]:
    """The rigidity matrix of a graph at coords over F_p, p = 2**61 - 1.

    One row per edge {u < v} in sorted order and d columns per vertex in
    sorted order; the row holds coords[u] - coords[v] in u's columns, the
    negative in v's, and zeros elsewhere, each entry reduced into [0, p).
    """
    order = sorted(graph.vertices)
    rows = []
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        row = [0] * (d * len(order))
        for k in range(d):
            row[order.index(u) * d + k] = (coords[u][k] - coords[v][k]) % PRIME
            row[order.index(v) * d + k] = (coords[v][k] - coords[u][k]) % PRIME
        rows.append(row)
    return rows


def rank_mod_p(rows) -> int:
    """Rank over F_p, p = 2**61 - 1, column by column: take a row not yet
    used with a nonzero entry in the column, scale it to a leading 1 and
    clear the column from every row below it."""
    rows = [[x % PRIME for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = pow(rows[rank][col], PRIME - 2, PRIME)  # Fermat inverse
        prow = rows[rank] = [x * scale % PRIME for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col]
            if factor:
                rows[i] = [(x - factor * y) % PRIME for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def echelon_mod_p(rows, ncols: int, stop=None) -> tuple[list[int], list[list[int]]]:
    """Rows inserted one at a time over F_p, p = 2**61 - 1, into echelon
    form with inverses: each row is reduced by the pivot row of its leading
    column, scaled to a leading 1, until that column has none (the row is
    scaled and kept as its pivot row) or no column among the first ncols is
    left (a zero row).  Returns the pivot columns in the order they were
    found and, for each zero row, the positions of its nonzero entries past
    the first ncols; reading ends once there are stop pivots."""
    pivots: dict[int, list[int]] = {}
    supports = []
    for row in rows:
        row = [x % PRIME for x in row]
        col = next((j for j in range(ncols) if row[j]), None)
        while col in pivots:
            factor = row[col]
            row = [(x - factor * y) % PRIME for x, y in zip(row, pivots[col])]
            col = next((j for j in range(ncols) if row[j]), None)
        if col is None:
            supports.append([j for j, x in enumerate(row[ncols:]) if x])
            continue
        scale = pow(row[col], PRIME - 2, PRIME)  # Fermat inverse
        pivots[col] = [x * scale % PRIME for x in row]
        if len(pivots) == stop:
            break
    return list(pivots), supports


def directions_rank_sum(coords, firsts) -> int:
    """The sum over (v, around) in firsts of the rank over F_p of the
    directions coords[v] - coords[u], u in around."""
    return sum(
        rank_mod_p([[a - b for a, b in zip(coords[v], coords[u])] for u in around])
        for v, around in firsts
        if around
    )


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


def relabelled(entry, seed: int):
    """A copy of a corpus entry under a seeded random injection of its
    vertices into the labels 1000 and up, with each symmetry g conjugated
    to g' = inj g inj^-1, and the injection.  The copy keeps the entry's
    name, so a run gives it the entry's seed."""
    vertices = sorted(entry.complex.vertices)
    images = random.Random(seed).sample(range(1000, 1000 + 10 * len(vertices)), len(vertices))
    inj = dict(zip(vertices, images))
    facets = [[inj[v] for v in f] for f in entry.complex.facets]
    symmetries = tuple({inj[v]: inj[w] for v, w in g.items()} for g in entry.symmetries)
    copy = dataclasses.replace(entry, complex=type(entry.complex)(facets), symmetries=symmetries)
    return copy, inj


def outcomes_under_relabelling(entries, seed: int, run):
    """(original, copy): (check, instance) -> (verdict, rank, target) of
    each record that run(entries) gives, and the same of run(copies), the
    copies made by relabelled(entry, seed + i) and each copy's instance
    named back in the entry's labels.  A face label reads its vertices in
    sorted order, so each face is mapped back and sorted again."""
    copies, back = [], {}
    for i, entry in enumerate(entries):
        copy, inj = relabelled(entry, seed + i)
        copies.append(copy)
        back[entry.name] = {w: v for v, w in inj.items()}

    def named_back(instance: str) -> str:
        name, *parts = instance.split(":")
        for k, part in enumerate(parts):
            key, sep, label = part.partition("=")
            if sep and label != "empty":
                faces = sorted(back[name][int(v)] for v in label.split("-"))
                parts[k] = f"{key}={'-'.join(map(str, faces))}"
        return ":".join([name, *parts])

    def outcomes(records, rename):
        return {(r.check, rename(r.instance)): (r.verdict, r.rank, r.target) for r in records}

    return outcomes(run(entries), str), outcomes(run(copies), named_back)
