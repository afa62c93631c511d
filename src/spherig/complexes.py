"""Simplicial complexes stored as facet lists, with a face index built once.

A complex is represented purely combinatorially by its inclusion-maximal
faces.  Vertices are non-negative integer labels; a face is a frozenset of
labels.  A complex never changes after construction, so derived data is
computed at most once, on first use, and kept on the instance:

- the vertex set, dimension and purity;
- the face index: every face as an int bitmask with one bit per position
  in the sorted vertex list (positions, not labels, so a label like 10**12
  costs one bit).  `has_face` is one lookup in it;
- the missing faces, computed from the index.  `missing_faces` hands out a
  fresh list of the cached tuple, so callers may change what they get;
- the graph (1-skeleton) that `graphs.graph_of` returns.

Face enumeration, links and the graphs of links and stars scan the facet
list and do not build the index: a link is usually read once.

The constructor is the one validating way in: it checks every label,
rejects a facet that lists a vertex twice and drops dominated faces, and
`textio.parse_facets`, `relabel` and `contract_edge` go through it.
Builders whose faces are already checked labels and already an antichain
(`link`, `join`, the pieces of `prime_factors`, and the flips, stackings
and polytope boundaries of `generators`) go through
`SimplicialComplex._trusted` instead, which checks nothing; a builder that
brings in a new label checks that one label first.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterable, TypeVar

from .graphs import Graph, cone_graph

_Node = TypeVar("_Node")


def as_face(vertices: Iterable[int]) -> frozenset[int]:
    """Normalize an iterable of vertex labels to a face (frozenset)."""
    face = frozenset(vertices)
    if not all(isinstance(v, int) and v >= 0 for v in face):
        raise ValueError(f"vertex labels must be non-negative integers: {sorted(face)!r}")
    return face


def _edges(faces: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Every pair of vertices that lie in one of the faces."""
    pairs: set[tuple[int, int]] = set()
    for f in faces:  # sorted pairs, so each edge is made once
        pairs.update(combinations(sorted(f), 2))
    return frozenset(map(frozenset, pairs))


def _components(adjacency: dict[_Node, set[_Node]]) -> list[set[_Node]]:
    """The vertex sets of the connected components of a graph given by its
    adjacency sets, in no particular order."""
    components: list[set[_Node]] = []
    unseen = set(adjacency)
    while unseen:
        start = unseen.pop()
        comp = {start}
        stack = [start]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        unseen -= comp
        components.append(comp)
    return components


def _maximal(faces: Iterable[frozenset[int]]) -> frozenset[frozenset[int]]:
    """Inclusion-maximal members of a family of faces.

    Only a strictly larger face can contain a face, so each size class is
    compared with the faces kept from larger classes alone; a pure family
    (every sphere and every link of one) makes no comparison at all.
    """
    by_size: dict[int, list[frozenset[int]]] = {}
    for f in set(faces):
        by_size.setdefault(len(f), []).append(f)
    top, *rest = sorted(by_size, reverse=True)
    kept = by_size[top]  # nothing is larger than the largest faces
    for size in rest:
        kept += [f for f in by_size[size] if not any(f < g for g in kept)]
    return frozenset(kept)


class SimplicialComplex:
    """An immutable simplicial complex given by its facets.

    The facet set is always an antichain (no facet contains another); the
    constructor checks every label, rejects a facet that lists a vertex
    twice and discards dominated input faces.  The complex consisting of
    the empty face alone (dimension -1) is representable; it arises as the
    link of a facet.
    """

    def __init__(self, facets: Iterable[Iterable[int]]):
        normalized: list[frozenset[int]] = []
        for listed in map(tuple, facets):
            normalized.append(as_face(listed))
            if len(normalized[-1]) < len(listed):
                raise ValueError(f"facet {list(listed)!r} lists a vertex twice")
        if not normalized:
            raise ValueError("a simplicial complex needs at least one face")
        self.facets: frozenset[frozenset[int]] = _maximal(normalized)

    @classmethod
    def _trusted(cls, facets: Iterable[frozenset[int]]) -> "SimplicialComplex":
        """A complex from faces known to be valid, without checking them.

        The faces must be frozensets of labels that were checked already, and
        must form a non-empty antichain; each caller holds that by its own
        construction:

        - `link(f)`: each g - f comes from a distinct facet g containing f,
          and g - f <= h - f would give g <= h;
        - `join`: on disjoint vertex sets f | g <= f' | g' needs f <= f' and
          g <= g', so it holds only for the same pair;
        - `bistellar_flip` and `stack_over_facet`: the new faces share one
          size, and each holds face_in (a fresh vertex in a 0-flip or a
          stacking), which no kept facet holds; a kept facet inside a new
          face would miss a vertex of face_in, so it would lie strictly
          inside a facet of the old star;
        - `cyclic_polytope_boundary` and `boundary_simplex`: distinct faces
          of one size;
        - a piece of `prime_factors`: facets of a pseudomanifold, all of the
          missing facet sigma's size, so none contains sigma or lies in it.
        """
        out = object.__new__(cls)
        out.facets = frozenset(facets)
        return out

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

    @cached_property
    def _vertex_bits(self) -> dict[int, int]:
        """Each vertex's bit in a face mask: 1 << its position in sorted order."""
        return {v: 1 << i for i, v in enumerate(sorted(self.vertices))}

    @cached_property
    def _face_index(self) -> frozenset[int]:
        """Every face, the empty one included, as a mask of vertex bits."""
        bits = self._vertex_bits
        masks: set[int] = set()
        for facet in self.facets:
            full = sum(bits[v] for v in facet)
            sub = full
            while True:  # every submask of full, full itself down to 0
                masks.add(sub)
                if not sub:
                    break
                sub = (sub - 1) & full
        return frozenset(masks)

    @cached_property
    def _graph(self) -> Graph:
        return Graph._trusted(self.vertices, _edges(self.facets))

    def has_face(self, face: Iterable[int]) -> bool:
        bits = self._vertex_bits
        mask = 0
        for v in as_face(face):
            if v not in bits:
                return False
            mask |= bits[v]
        return mask in self._face_index

    def faces_of_dim(self, k: int) -> set[frozenset[int]]:
        """All faces of dimension k (k = -1 gives the empty face)."""
        if k < -1 or k > self.dim:
            return set()
        combos: set[tuple[int, ...]] = set()
        for facet in self.facets:  # sorted tuples, so each face is made once
            combos.update(combinations(sorted(facet), k + 1))
        return set(map(frozenset, combos))

    def g2(self) -> int:
        """The invariant f_1 - d*f_0 + C(d+1,2) in the rigidity dimension
        d = dim + 1 that the complex fixes."""
        d = self.dim + 1
        f0 = len(self.vertices)
        f1 = len(self._graph.edges)
        return f1 - d * f0 + d * (d + 1) // 2

    # -- structural operations -------------------------------------------

    def _facets_containing(self, f: frozenset[int]) -> list[frozenset[int]]:
        # one facet scan both finds the star and shows f is a face, without
        # building the index for a complex that may only be linked once
        found = [g for g in self.facets if f <= g]
        if not found:
            raise ValueError(f"{sorted(f)} is not a face of the complex")
        return found

    def link(self, face: Iterable[int]) -> "SimplicialComplex":
        """Link of a face: all faces disjoint from it that extend it to a face."""
        f = as_face(face)
        return SimplicialComplex._trusted(g - f for g in self._facets_containing(f))

    def link_star_graphs(self, face: Iterable[int]) -> tuple[Graph, Graph]:
        """The graphs of link(face) and star(face), from the facets F that
        contain the face: the link's edges are the pairs of F - face, and the
        star, the join of the face with its link, has the graph K_face * link."""
        f = as_face(face)
        link = [g - f for g in self._facets_containing(f)]
        link_graph = Graph._trusted(frozenset().union(*link), _edges(link))
        return link_graph, cone_graph(link_graph, *f)

    def link_condition(self, edge: Iterable[int]) -> bool:
        """Whether link(a) and link(b) meet exactly in link(ab), for an edge ab.

        link(ab) lies in both links, and their common faces are the subsets
        of (F & G) - {a, b}, F and G facets at a and b; so the equation holds
        exactly when each (F & G) | {a, b} is a face, an index lookup.
        """
        e = as_face(edge)
        if len(e) != 2 or not self.has_face(e):
            raise ValueError(f"{sorted(e)} is not an edge of the complex")
        bits, index = self._vertex_bits, self._face_index
        ab = sum(bits[v] for v in e)
        mask = {f: sum(bits[v] for v in f) for f in self.facets if e & f}
        at_a, at_b = ([mask[f] for f in mask if v in f] for v in e)
        return all((fa & fb) | ab in index for fa in at_a for fb in at_b)

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

    @cached_property
    def _missing_faces(self) -> tuple[frozenset[int], ...]:
        """The minimal non-faces, sorted by size then lexicographically.

        A minimal non-face minus its highest vertex is a face, so it is
        enough to scan each face of the index plus one vertex above all of
        the face's own: every candidate comes up exactly once.
        """
        index = self._face_index
        order = sorted(self.vertices)
        found: list[frozenset[int]] = []
        for face in index:
            for i in range(face.bit_length(), len(order)):
                candidate = face | (1 << i)
                if candidate in index:
                    continue
                rest = face
                while rest:  # drop each lower vertex in turn
                    low = rest & -rest
                    if (candidate ^ low) not in index:
                        break
                    rest ^= low
                else:
                    found.append(
                        frozenset(v for j, v in enumerate(order) if (candidate >> j) & 1)
                    )
        return tuple(sorted(found, key=lambda f: (len(f), sorted(f))))

    def missing_faces(self) -> list[frozenset[int]]:
        """All minimal non-faces, sorted by size then lexicographically."""
        return list(self._missing_faces)

    def is_prime(self) -> bool:
        """True when no missing face has facet size (pure complexes only)."""
        self._require_pure()
        size = self.dim + 1
        return all(len(f) != size for f in self.missing_faces())

    def is_pseudomanifold(self) -> bool:
        """Every ridge (codimension-1 face) in exactly two facets, with
        connected facet adjacency.

        Purity is part of the definition, so an impure complex is simply not
        a pseudomanifold.
        """
        if not self.is_pure or self.dim < 0:
            return False
        ridge_facets: dict[frozenset[int], list[frozenset[int]]] = {}
        for facet in self.facets:
            for combo in combinations(sorted(facet), self.dim):
                ridge_facets.setdefault(frozenset(combo), []).append(facet)
        if any(len(fs) != 2 for fs in ridge_facets.values()):
            return False
        adjacency: dict[frozenset[int], set[frozenset[int]]] = {f: set() for f in self.facets}
        for pair in ridge_facets.values():
            adjacency[pair[0]].add(pair[1])
            adjacency[pair[1]].add(pair[0])
        return len(_components(adjacency)) == 1

    def _require_pure(self) -> None:
        if not self.is_pure:
            raise ValueError("operation requires a pure complex")

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
    return SimplicialComplex._trusted(f | g for f in left.facets for g in right.facets)


def prime_factors(delta: SimplicialComplex) -> list[SimplicialComplex]:
    """Split a connected sum of spheres into its prime factors.

    Recursively cuts along each missing facet sigma: removing sigma's
    vertices must disconnect the rest, and each factor is the induced
    complex on a component together with sigma, with sigma filled back in
    as a facet.  Prime inputs come back as a singleton list.  A missing
    facet that fails to separate means the input is not a connected sum of
    spheres, and is reported as an error rather than guessed around.
    """
    if not delta.is_pseudomanifold():
        raise ValueError("prime factor decomposition expects a pseudomanifold")
    missing_facets = [f for f in delta.missing_faces() if len(f) == delta.dim + 1]
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
    components = _components(adjacency)
    if len(components) < 2:
        raise ValueError(
            f"missing facet {sorted(sigma)} does not separate the complex; "
            "input is not a connected sum of spheres"
        )
    factors: list[SimplicialComplex] = []
    for comp in sorted(components, key=min):
        keep = comp | sigma
        piece = SimplicialComplex._trusted([f for f in delta.facets if f <= keep] + [sigma])
        factors.extend(prime_factors(piece))
    return factors
