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
    verts = range(1, d + 2)
    return SimplicialComplex(
        frozenset(c) for c in combinations(verts, d)
    )


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


def _gale_even(subset: tuple[int, ...], n: int) -> bool:
    # evenness: any two non-members must have an even number of members between them
    inside = set(subset)
    outside = [i for i in range(1, n + 1) if i not in inside]
    for a, b in combinations(outside, 2):
        if sum(1 for s in subset if a < s < b) % 2:
            return False
    return True


def cyclic_polytope_boundary(n: int, d: int) -> SimplicialComplex:
    """Boundary complex of the cyclic polytope C(n, d), facets by Gale evenness."""
    if d < 2:
        raise ValueError("cyclic_polytope_boundary needs d >= 2")
    if n < d + 1:
        raise ValueError("cyclic_polytope_boundary needs n >= d+1")
    facets = [
        frozenset(c) for c in combinations(range(1, n + 1), d) if _gale_even(c, n)
    ]
    return SimplicialComplex(facets)


def stack_over_facet(
    delta: SimplicialComplex, facet: Iterable[int], v_new: int
) -> SimplicialComplex:
    """Replace a facet by the cone from a fresh vertex over its boundary."""
    f = as_face(facet)
    if f not in delta.facets:
        raise ValueError(f"{sorted(f)} is not a facet")
    if v_new in delta.vertices:
        raise ValueError(f"label {v_new} already in use")
    new_facets = [g for g in delta.facets if g != f]
    new_facets.extend((f - {x}) | {v_new} for x in f)
    return SimplicialComplex(new_facets)


@dataclass(frozen=True)
class FlipMove:
    """A bistellar move: swap face_out (whose link is the boundary of face_in)
    for face_in, replacing the star by the complementary join."""

    face_out: frozenset[int]
    face_in: frozenset[int]


def _is_simplex_boundary(link: SimplicialComplex) -> frozenset[int] | None:
    """If the complex is the boundary of a simplex on its vertices, return them."""
    verts = link.vertices
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
            face_in = core if core else frozenset({fresh})
            if len(face) + len(face_in) != d + 1:
                continue
            if core and delta.has_face(face_in):
                continue
            moves.append(FlipMove(frozenset(face), face_in))
    moves.sort(key=lambda m: (sorted(m.face_out), sorted(m.face_in)))
    return moves


def bistellar_flip(delta: SimplicialComplex, move: FlipMove) -> SimplicialComplex:
    """Apply a bistellar move, replacing star(face_out) by its complementary join."""
    out, inn = move.face_out, move.face_in
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
    return SimplicialComplex(keep)


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
