"""Constructors for the sphere families the verification suite runs on.

Everything here is purely combinatorial: cyclic polytope boundaries come
from Gale's evenness condition on the vertex order 1..n, never from
coordinates, and bistellar flips manipulate facet lists directly.  All
families use 1-based consecutive vertex labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .complexes import SimplicialComplex, as_face, join
from .rigidity import derive_seed


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex on vertices 1..d+1."""
    if d < 1:
        raise ValueError("boundary_simplex needs d >= 1")
    return SimplicialComplex._trusted(map(frozenset, combinations(range(1, d + 2), d)))


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary of the d-dimensional cross-polytope: join of d antipodal pairs.

    Vertices 1..2d with pairs (2i-1, 2i); facets pick one vertex per pair.
    The missing faces are exactly the d pairs, so the complex is prime for
    d >= 3 and has g2 = d(d-3)/2.
    """
    if d < 2:
        raise ValueError("cross_polytope needs d >= 2")
    out = SimplicialComplex([[1], [2]])
    for i in range(2, d + 1):
        pair = SimplicialComplex([[2 * i - 1], [2 * i]])
        out = join(out, pair)
    return out


def join_spheres(p: int, q: int) -> SimplicialComplex:
    """Join of two simplex boundaries, a prime (p+q-1)-sphere with g2 = 1."""
    if p < 2 or q < 2:
        raise ValueError("join_spheres needs p, q >= 2")
    left = boundary_simplex(p)
    right = boundary_simplex(q).relabel(
        {v: v + p + 1 for v in range(1, q + 2)}
    )
    return join(left, right)


def cycle_complex(labels: list[int]) -> SimplicialComplex:
    """The 1-dimensional cycle on the given labels, in the given order."""
    k = len(labels)
    if k < 4:
        raise ValueError("cycle_complex needs >= 4 vertices; a 3-cycle is a simplex boundary")
    if len(set(labels)) != k:
        raise ValueError("cycle labels must be distinct")
    return SimplicialComplex(
        frozenset((labels[i], labels[(i + 1) % k])) for i in range(k)
    )


def join_simplex_cycle(d: int, k: int) -> SimplicialComplex:
    """Join of a (d-2)-simplex boundary with a k-cycle: prime (d-1)-sphere, g2 = 1.

    k = 3 is rejected; with a triangle the second factor is a simplex
    boundary and the construction belongs to join_spheres.
    """
    if d < 4:
        raise ValueError("join_simplex_cycle needs d >= 4")
    if k < 4:
        raise ValueError("join_simplex_cycle needs k >= 4 (use join_spheres for k = 3)")
    simplex_part = boundary_simplex(d - 2)
    cycle_part = cycle_complex(list(range(d, d + k)))
    return join(simplex_part, cycle_part)


def cyclic_polytope_boundary(n: int, d: int) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope C(n, d), facets from Gale's blocks.

    Gale's evenness condition (Gale 1963): a d-subset S of 1..n is a facet
    exactly when any two non-members i < j have an even number of members
    between them.  Split S into maximal runs of consecutive integers.  A
    run touching neither 1 nor n lies between its two neighbours, which are
    non-members with only that run between them, so the condition makes its
    length even.  Conversely, if every such run is even, the members between
    two non-members i < j form whole runs, none containing 1 or n, so their
    number is even.  The facets are therefore the d-subsets made of an
    initial run 1..a (a >= 0), runs of even length, and a final run ending
    at n (possibly empty), with a gap between any two.

    They are generated directly, in lexicographic order, by choosing the
    initial run and then each further run's start and length; every choice
    completes to at least one facet (the final run always fits after the
    gap), so the work is proportional to the number of facets, not to
    C(n, d).  That number is n/(n-m) C(n-m, m) for d = 2m and 2 C(n-m-1, m)
    for d = 2m+1 (McMullen's Upper Bound Theorem; Ziegler, Lectures on
    Polytopes, Cor. 0.8).
    """
    if d < 2:
        raise ValueError("cyclic_polytope_boundary needs d >= 2")
    if n < d + 1:
        raise ValueError("cyclic_polytope_boundary needs n >= d+1")
    facets: list[frozenset[int]] = []
    for a in range(d, -1, -1):  # the initial run 1..a, longest first
        _gale_runs(n, a + 2, d - a, list(range(1, a + 1)), facets)
    return SimplicialComplex._trusted(facets)


def _gale_runs(
    n: int, start: int, left: int, chosen: list[int], facets: list[frozenset[int]]
) -> None:
    """Append every facet that adds `left` vertices from start..n to `chosen`
    (start - 1 being a gap): runs of even length ending before n, then the
    final run; `chosen` is restored on return."""
    if left > 1:
        for s in range(start, n - left + 1):
            for length in range(left - left % 2, 1, -2):  # longest first
                chosen.extend(range(s, s + length))
                _gale_runs(n, s + length + 1, left - length, chosen, facets)
                del chosen[-length:]
    chosen.extend(range(n - left + 1, n + 1))
    facets.append(frozenset(chosen))
    del chosen[len(chosen) - left :]


def stack_over_facet(
    delta: SimplicialComplex, facet: Iterable[int], v_new: int
) -> SimplicialComplex:
    """Replace a facet by the cone from a fresh vertex over its boundary."""
    as_face([v_new])  # the one new label; every other face is already checked
    f = as_face(facet)
    if f not in delta.facets:
        raise ValueError(f"{sorted(f)} is not a facet")
    if v_new in delta.vertices:
        raise ValueError(f"label {v_new} already in use")
    new_facets = [g for g in delta.facets if g != f]
    new_facets.extend((f - {x}) | {v_new} for x in f)
    return SimplicialComplex._trusted(new_facets)


@dataclass(frozen=True)
class FlipMove:
    """A bistellar move: swap face_out (whose link is the boundary of face_in)
    for face_in, replacing the star by the complementary join."""

    face_out: frozenset[int]
    face_in: frozenset[int]


def _is_simplex_boundary(link: SimplicialComplex) -> frozenset[int] | None:
    """If the complex is the boundary of a simplex on its vertices, return them."""
    # not the cached link.vertices: legal_flips reads each link once, and a
    # cached_property's first read takes a lock on Python 3.11
    verts = frozenset().union(*link.facets)
    if not verts:
        # the (-1)-complex is the boundary of a point; signalled by empty set
        return frozenset() if link.facets == frozenset({frozenset()}) else None
    expected = frozenset(verts - {v} for v in verts)
    return verts if link.facets == expected else None


def legal_flips(delta: SimplicialComplex) -> list[FlipMove]:
    """All bistellar moves applicable to a pure complex, in sorted order.

    For a facet (the 0-flip, i.e. stacking) the incoming vertex is fixed to
    max(V)+1 so the enumeration stays deterministic.
    """
    d = delta.dim + 1
    delta._require_pure()
    fresh = max(delta.vertices) + 1
    moves: list[FlipMove] = []
    for size in range(1, d + 1):
        for face in delta.faces_of_dim(size - 1):
            link = delta.link(face)
            core = _is_simplex_boundary(link)
            if core is None:
                continue
            # purity makes |face| + |face_in| = d + 1: link facets have d - |face| vertices
            face_in = core if core else frozenset({fresh})
            if core and delta.has_face(face_in):
                continue
            moves.append(FlipMove(frozenset(face), face_in))
    moves.sort(key=lambda m: (sorted(m.face_out), sorted(m.face_in)))
    return moves


def bistellar_flip(delta: SimplicialComplex, move: FlipMove) -> SimplicialComplex:
    """Apply a bistellar move, replacing star(face_out) by its complementary join."""
    out, inn = move.face_out, as_face(move.face_in)  # a 0-flip's label is new
    if not delta.has_face(out):
        raise ValueError(f"face_out {sorted(out)} is not a face")
    link = delta.link(out)
    core = _is_simplex_boundary(link)
    if core is None:
        raise ValueError(f"link of {sorted(out)} is not a simplex boundary")
    if core:
        if core != inn:
            raise ValueError(
                f"face_in {sorted(inn)} does not match the link's vertex set {sorted(core)}"
            )
        if delta.has_face(inn):
            raise ValueError(f"face_in {sorted(inn)} is already a face; move is illegal")
    else:
        # 0-flip: the incoming face is one fresh vertex
        if len(inn) != 1 or next(iter(inn)) in delta.vertices:
            raise ValueError("0-flip needs a single fresh vertex as face_in")
    keep = [f for f in delta.facets if not out <= f]
    keep.extend((out - {x}) | inn for x in out)
    return SimplicialComplex._trusted(keep)


def random_flip_walk(
    delta: SimplicialComplex, steps: int, seed: int = 0
) -> list[SimplicialComplex]:
    """Seeded random walk in the bistellar flip graph; returns one complex per step.

    Moves that would drop the vertex count below d+2, d = dim + 1, are never
    taken, so the walk never returns to the boundary of the d-simplex.
    """
    d = delta.dim + 1
    rng = random.Random(derive_seed(seed, "flip-walk", steps))
    current = delta
    out: list[SimplicialComplex] = []
    for _ in range(steps):
        moves = legal_flips(current)
        if len(current.vertices) <= d + 2:
            moves = [m for m in moves if len(m.face_out) != 1]
        if not moves:
            break
        current = bistellar_flip(current, rng.choice(moves))
        out.append(current)
    return out
