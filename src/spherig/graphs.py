"""Plain undirected graphs on integer-labelled vertices.

Only what the rigidity machinery needs: a vertex set, an edge set (2-element
frozensets), and a few combinators.  Isolated vertices are allowed and
matter, since they change the rigidity rank target.  Only the public
constructor checks each edge; the builders start from valid graphs or faces.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .complexes import SimplicialComplex


class Graph:
    """Immutable undirected graph."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Iterable[int]]):
        self.vertices: frozenset[int] = frozenset(vertices)
        norm: set[frozenset[int]] = set()
        for e in edges:
            edge = frozenset(e)
            if len(edge) != 2:
                raise ValueError(f"edge must have two distinct endpoints: {sorted(edge)!r}")
            if not edge <= self.vertices:
                raise ValueError(f"edge {sorted(edge)} uses vertices outside the graph")
            norm.add(edge)
        self.edges: frozenset[frozenset[int]] = frozenset(norm)

    @classmethod
    def _trusted(cls, vertices: frozenset[int], edges: frozenset[frozenset[int]]) -> "Graph":
        """A graph from sets known to be valid, without checking each edge."""
        graph = object.__new__(cls)
        graph.vertices, graph.edges = vertices, edges
        return graph

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def remove_edge(self, a: int, b: int) -> "Graph":
        e = frozenset((a, b))
        if e not in self.edges:
            raise ValueError(f"({a},{b}) is not an edge")
        return Graph._trusted(self.vertices, self.edges - {e})

    def contract_edge(self, a: int, b: int, new: int) -> "Graph":
        """G/ab: a and b merged into the fresh vertex new, which takes every
        other edge at a or b; a common neighbour's two edges become one."""
        e = frozenset((a, b))
        if e not in self.edges:
            raise ValueError(f"({a},{b}) is not an edge")
        if new in self.vertices:
            raise ValueError(f"label {new} already a vertex")
        edges = frozenset((f - e) | {new} if f & e else f for f in self.edges if f != e)
        return Graph._trusted((self.vertices - e) | {new}, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def graph_of(delta: "SimplicialComplex") -> Graph:
    """The 1-skeleton of a complex as a graph, computed once per complex."""
    return delta._graph


def complete_graph(vertices: Iterable[int]) -> Graph:
    vs = frozenset(vertices)
    return Graph._trusted(vs, frozenset(frozenset(p) for p in combinations(vs, 2)))


def cone_graph(base: Graph, *apexes: int) -> Graph:
    """K_A * base for the apex set A: fresh apexes joined to every vertex of
    the base and to each other."""
    apex = frozenset(apexes)
    if apex & base.vertices:
        raise ValueError(f"apex {min(apex & base.vertices)} already a vertex")
    vertices = base.vertices | apex
    return Graph._trusted(
        vertices, base.edges | {frozenset((a, v)) for a in apex for v in vertices if v != a}
    )


def union(g1: Graph, g2: Graph) -> Graph:
    return Graph._trusted(g1.vertices | g2.vertices, g1.edges | g2.edges)
