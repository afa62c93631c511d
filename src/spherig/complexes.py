"""Simplicial complexes stored as facet lists, with derived face queries.

A complex is represented purely combinatorially by its inclusion-maximal
faces.  Vertices are non-negative integer labels; a face is a frozenset of
labels.  All other queries (face enumeration, f-vector, links, stars,
missing faces, ...) are derived from the facet list on demand, which is
plenty fast for the desk-scale complexes this library targets (tens of
vertices).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator


def as_face(vertices: Iterable[int]) -> frozenset[int]:
    """Normalize an iterable of vertex labels to a face (frozenset)."""
    face = frozenset(vertices)
    if not all(isinstance(v, int) and v >= 0 for v in face):
        raise ValueError(f"vertex labels must be non-negative integers: {sorted(face)!r}")
    return face


def _maximal(faces: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Inclusion-maximal members of a family of faces."""
    by_size = sorted(set(faces), key=len, reverse=True)
    kept: list[frozenset[int]] = []
    for f in by_size:
        if not any(f < g for g in kept):
            kept.append(f)
    return frozenset(kept)


class SimplicialComplex:
    """An immutable simplicial complex given by its facets.

    The facet set is always an antichain (no facet contains another); the
    constructor discards dominated input faces.  The complex consisting of
    the empty face alone (dimension -1) is representable; it arises as the
    link of a facet.
    """

    def __init__(self, facets: Iterable[Iterable[int]]):
        normalized = [as_face(f) for f in facets]
        if not normalized:
            raise ValueError("a simplicial complex needs at least one face")
        self.facets: frozenset[frozenset[int]] = _maximal(normalized)

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build a complex from candidate facets, validating the input.

        Dominated faces are dropped (only the inclusion-maximal subset is
        stored).  Rejects an empty facet list, empty faces, and faces listing
        a vertex twice.
        """
        facets = list(facets)
        if not facets:
            raise ValueError("empty facet list")
        for f in facets:
            listed = list(f)
            if not listed:
                raise ValueError("facet with no vertices")
            if len(set(listed)) != len(listed):
                raise ValueError(f"duplicate vertex inside facet {listed!r}")
        return cls(facets)

    # -- basic queries ---------------------------------------------------

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset().union(*self.facets)

    @cached_property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @cached_property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def sorted_facets(self) -> list[tuple[int, ...]]:
        """Facets as sorted tuples in lexicographic order (deterministic)."""
        return sorted(tuple(sorted(f)) for f in self.facets)

    def has_face(self, face: Iterable[int]) -> bool:
        f = as_face(face)
        return any(f <= g for g in self.facets)

    def faces_of_dim(self, k: int) -> set[frozenset[int]]:
        """All faces of dimension k (k = -1 gives the empty face)."""
        if k < -1 or k > self.dim:
            return set()
        size = k + 1
        out: set[frozenset[int]] = set()
        for facet in self.facets:
            if len(facet) >= size:
                for combo in combinations(sorted(facet), size):
                    out.add(frozenset(combo))
        return out

    def all_faces(self) -> Iterator[frozenset[int]]:
        """Every face of the complex, the empty face included."""
        seen: set[frozenset[int]] = set()
        for k in range(-1, self.dim + 1):
            for f in self.faces_of_dim(k):
                if f not in seen:
                    seen.add(f)
                    yield f

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_{-1}, f_0, ..., f_dim), with f_{-1} = 1."""
        return tuple(len(self.faces_of_dim(k)) for k in range(-1, self.dim + 1))

    def g2(self, d: int | None = None) -> int:
        """The invariant f_1 - d*f_0 + C(d+1,2) for d = dim + 1.

        Passing d explicitly documents the intended rigidity dimension and is
        checked against the complex.
        """
        if d is None:
            d = self.dim + 1
        if d != self.dim + 1:
            raise ValueError(f"g2 expects d = dim + 1 = {self.dim + 1}, got {d}")
        f0 = len(self.vertices)
        f1 = len(self.faces_of_dim(1))
        return f1 - d * f0 + d * (d + 1) // 2

    # -- structural operations -------------------------------------------

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of a face: all faces disjoint from it that extend it to a face."""
        f = as_face(face)
        if not self.has_face(f):
            raise ValueError(f"{sorted(f)} is not a face of the complex")
        return SimplicialComplex(g - f for g in self.facets if f <= g)

    def star(self, face: Iterable[int]) -> "SimplicialComplex":
        """Closed star of a face: all facets containing it."""
        f = as_face(face)
        if not self.has_face(f):
            raise ValueError(f"{sorted(f)} is not a face of the complex")
        return SimplicialComplex(g for g in self.facets if f <= g)

    def delete_vertex(self, v: int) -> "SimplicialComplex":
        """The subcomplex of faces avoiding v."""
        if v not in self.vertices:
            raise ValueError(f"vertex {v} not in the complex")
        return SimplicialComplex(f - {v} for f in self.facets)

    def contract_edge(self, edge: Iterable[int], new_label: int) -> "SimplicialComplex":
        """Contract an edge, merging its endpoints into a fresh vertex.

        The result keeps every face avoiding both endpoints and adds
        F + {new} for every face F (avoiding both) whose union with either
        endpoint is a face.  No link condition is checked here: the operation
        is applied verbatim, and callers who need the result to remain a
        sphere must validate that themselves.
        """
        e = as_face(edge)
        if len(e) != 2 or not self.has_face(e):
            raise ValueError(f"{sorted(e)} is not an edge of the complex")
        if new_label in self.vertices:
            raise ValueError(f"replacement label {new_label} already in use")
        a, b = e
        candidates: set[frozenset[int]] = set()
        for facet in self.facets:
            if a in facet or b in facet:
                candidates.add((facet - e) | {new_label})
            else:
                candidates.add(facet)
        return SimplicialComplex(candidates)

    def relabel(self, mapping: dict[int, int]) -> "SimplicialComplex":
        """Apply an injective vertex relabeling (identity off the mapping)."""
        image = [mapping.get(v, v) for v in self.vertices]
        if len(set(image)) != len(image):
            raise ValueError("relabeling is not injective on the vertex set")
        return SimplicialComplex(
            frozenset(mapping.get(v, v) for v in facet) for facet in self.facets
        )

    # -- invariants -------------------------------------------------------

    def missing_faces(self) -> list[frozenset[int]]:
        """All minimal non-faces, sorted by size then lexicographically.

        A minimal non-face is one vertex away from the complex, so it is
        enough to scan face-plus-vertex candidates rather than all subsets.
        """
        found: set[frozenset[int]] = set()
        verts = sorted(self.vertices)
        for face in self.all_faces():
            for v in verts:
                if v in face:
                    continue
                candidate = face | {v}
                if candidate in found or self.has_face(candidate):
                    continue
                if all(self.has_face(candidate - {u}) for u in candidate):
                    found.add(candidate)
        return sorted(found, key=lambda f: (len(f), sorted(f)))

    def is_prime(self, d: int) -> bool:
        """True when no missing face has facet size (pure (d-1)-complexes only)."""
        self._require_pure(d)
        return all(len(f) != d for f in self.missing_faces())

    def is_pseudomanifold(self, d: int) -> bool:
        """Every (d-2)-face in exactly two facets, with connected facet adjacency.

        Purity is part of the definition, so an impure complex is simply not
        a pseudomanifold; only a dimension mismatch is a usage error.
        """
        if self.dim != d - 1:
            raise ValueError(f"complex has dimension {self.dim}, expected {d - 1}")
        if not self.is_pure:
            return False
        ridge_facets: dict[frozenset[int], list[frozenset[int]]] = {}
        for facet in self.facets:
            for combo in combinations(sorted(facet), d - 1):
                ridge_facets.setdefault(frozenset(combo), []).append(facet)
        if any(len(fs) != 2 for fs in ridge_facets.values()):
            return False
        adjacency: dict[frozenset[int], set[frozenset[int]]] = {f: set() for f in self.facets}
        for pair in ridge_facets.values():
            adjacency[pair[0]].add(pair[1])
            adjacency[pair[1]].add(pair[0])
        start = next(iter(self.facets))
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.facets)

    def _require_pure(self, d: int) -> None:
        if not self.is_pure:
            raise ValueError("operation requires a pure complex")
        if self.dim != d - 1:
            raise ValueError(f"complex has dimension {self.dim}, expected {d - 1}")

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self) -> int:
        return hash(self.facets)

    def __repr__(self) -> str:
        return f"SimplicialComplex({len(self.facets)} facets, dim={self.dim})"


# -- combinators ----------------------------------------------------------


def join(left: SimplicialComplex, right: SimplicialComplex) -> SimplicialComplex:
    """Join of two complexes on disjoint vertex sets (pairwise facet unions)."""
    if left.vertices & right.vertices:
        clash = sorted(left.vertices & right.vertices)
        raise ValueError(f"join requires disjoint vertex sets, shared: {clash}")
    return SimplicialComplex(f | g for f in left.facets for g in right.facets)


def intersection(left: SimplicialComplex, right: SimplicialComplex) -> SimplicialComplex:
    """The complex of faces common to both (pairwise facet intersections)."""
    return SimplicialComplex(f & g for f in left.facets for g in right.facets)


def cone(base: SimplicialComplex, apex: int) -> SimplicialComplex:
    """Cone over a complex: every facet gains the fresh apex."""
    if apex in base.vertices:
        raise ValueError(f"apex {apex} already a vertex of the base")
    return SimplicialComplex(f | {apex} for f in base.facets)


def prime_factors(delta: SimplicialComplex, d: int) -> list[SimplicialComplex]:
    """Split a connected sum of (d-1)-spheres into its prime factors.

    Recursively cuts along each missing facet sigma: removing sigma's
    vertices must disconnect the rest, and each factor is the induced
    complex on a component together with sigma, with sigma filled back in
    as a facet.  Prime inputs come back as a singleton list.  A missing
    facet that fails to separate means the input is not a connected sum of
    spheres, and is reported as an error rather than guessed around.
    """
    if not delta.is_pseudomanifold(d):
        raise ValueError("prime factor decomposition expects a pseudomanifold")
    missing_facets = [f for f in delta.missing_faces() if len(f) == d]
    if not missing_facets:
        return [delta]
    sigma = missing_facets[0]
    outside = delta.vertices - sigma
    adjacency: dict[int, set[int]] = {v: set() for v in outside}
    for facet in delta.facets:
        core = sorted(facet - sigma)
        for a, b in combinations(core, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
    components: list[set[int]] = []
    unseen = set(outside)
    while unseen:
        start = min(unseen)
        comp = {start}
        stack = [start]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        unseen -= comp
        components.append(comp)
    if len(components) < 2:
        raise ValueError(
            f"missing facet {sorted(sigma)} does not separate the complex; "
            "input is not a connected sum of spheres"
        )
    factors: list[SimplicialComplex] = []
    for comp in sorted(components, key=min):
        keep = comp | sigma
        piece = SimplicialComplex(
            [f for f in delta.facets if f <= keep] + [sigma]
        )
        factors.extend(prime_factors(piece, d))
    return factors
