"""Checkable proof trees for generic-rigidity claims.

A Certificate asserts "this graph is generically d-rigid" and justifies it
by one rule: a direct rank test (RankLeaf), completeness (CompleteLeaf), or
one of the composition rules Cone, Gluing and Replacement, whose children
certify the ingredient graphs.  check() walks the tree, validating at each
node that the claim graph really is the one the rule builds from its
children and that the rule's side conditions hold; only leaves ever touch
the rank engine.  The composition rules themselves are trusted.

Malformed trees (wrong child counts, missing rule data, claim graph not
matching the construction) raise CertificateError with the node path;
violated side conditions make check() return False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import SimplicialComplex
from .graphs import Graph, complete_graph, cone_graph, graph_of, union
from .rigidity import DEFAULT_TRIALS, decide_rigidity, derive_seed

RULES = ("RankLeaf", "CompleteLeaf", "Cone", "Gluing", "Replacement")


class CertificateError(Exception):
    """A structurally invalid certificate; the message carries the node path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"at {path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Certificate:
    """One node of a rigidity proof tree.

    rule_data lives in the optional fields: apex (Cone) and subset
    (Replacement's U).  Children appear in rule order, e.g. Replacement
    expects [restriction certificate, completed-graph certificate].
    """

    graph: Graph
    d: int
    rule: str
    children: tuple["Certificate", ...] = ()
    apex: int | None = None
    subset: frozenset[int] | None = None

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")


def check(cert: Certificate, trials: int = DEFAULT_TRIALS, seed: int = 0) -> bool:
    """Validate a certificate tree.

    Only the leaves are decided by the rank engine, each with its own
    sub-seed of seed; the composition rules are taken on faith.
    """
    return _check(cert, trials, seed, "root")


def _check(node: Certificate, trials: int, seed: int, path: str) -> bool:
    def fail(message: str):
        raise CertificateError(path, message)

    def recurse() -> bool:
        return all(
            _check(ch, trials, seed, f"{path}.{i}") for i, ch in enumerate(node.children)
        )

    d = node.d
    if d < 1:
        fail("dimension must be >= 1")

    if node.rule in ("RankLeaf", "CompleteLeaf"):
        if node.children:
            fail(f"{node.rule} takes no children")
        if node.apex is not None or node.subset is not None:
            fail(f"{node.rule} takes no rule data")
        if node.rule == "CompleteLeaf":
            n = len(node.graph.vertices)
            return n >= d + 1 and len(node.graph.edges) == n * (n - 1) // 2
        return decide_rigidity(node.graph, d, trials, derive_seed(seed, "leaf", path)).is_rigid

    if node.rule == "Cone":
        if len(node.children) != 1:
            fail("Cone takes exactly one child")
        if node.apex is None:
            fail("Cone needs an apex")
        child = node.children[0]
        if child.d != d - 1:
            fail(f"Cone child must claim dimension {d - 1}, claims {child.d}")
        apex, base = node.apex, child.graph
        if apex in base.vertices:
            fail(f"apex {apex} already in the child graph")
        claim, spokes = node.graph, {frozenset((apex, v)) for v in base.vertices}
        if claim.vertices != base.vertices | {apex} or claim.edges != base.edges | spokes:
            fail("claim graph is not the cone over the child graph")
        return recurse()
    elif node.rule == "Gluing":
        if len(node.children) != 2:
            fail("Gluing takes exactly two children")
        g1, g2 = (ch.graph for ch in node.children)
        if any(ch.d != d for ch in node.children):
            fail("Gluing children must claim the same dimension")
        if node.graph != union(g1, g2):
            fail("claim graph is not the union of the children")
        if len(g1.vertices & g2.vertices) < d:
            return False
        return recurse()
    elif node.rule == "Replacement":
        if len(node.children) != 2:
            fail("Replacement takes exactly two children")
        if node.subset is None:
            fail("Replacement needs the subset U")
        if any(ch.d != d for ch in node.children):
            fail("Replacement children must claim the same dimension")
        subset = node.subset
        if not subset <= node.graph.vertices:
            fail("U is not a subset of the claim graph's vertices")
        restricted, completed = node.children
        if restricted.graph.vertices != subset:
            fail("first child must claim a graph on exactly U")
        if not restricted.graph.edges <= node.graph.restrict(subset).edges:
            fail("first child's graph is not a subgraph of the claim restricted to U")
        if completed.graph != union(node.graph, complete_graph(subset)):
            fail("second child must claim the claim graph with U completed")
        return recurse()
    else:  # pragma: no cover - __post_init__ rejects unknown rules
        fail(f"unknown rule {node.rule}")


def certify_star_rigidity(delta: SimplicialComplex, sigma: Iterable[int]) -> Certificate:
    """Certificate that the star of a face has a d-rigid graph, d = dim + 1.

    The star is the join of the face with its link, so the certificate is a
    tower of Cone rules over a rank test of the link's graph in dimension
    d - |sigma|; its top must be the star's graph, read from the same scan
    of the facets.  An empty face gives a bare rank leaf for the whole graph.
    """
    d = delta.dim + 1
    face = frozenset(sigma)
    link_graph, star_graph = delta.link_star_graphs(face)  # rejects a non-face
    if len(face) > d - 3:
        raise ValueError(f"star certificates need |sigma| <= d-3, got {len(face)}")
    if not face:
        return Certificate(graph=star_graph, d=d, rule="RankLeaf")
    cert = Certificate(graph=link_graph, d=d - len(face), rule="RankLeaf")
    for apex in sorted(face):
        cert = Certificate(cone_graph(cert.graph, apex), cert.d + 1, "Cone", (cert,), apex)
    assert cert.graph == star_graph
    return cert


def certify_missing_face_edge(
    delta: SimplicialComplex, sigma: Iterable[int], e: Iterable[int]
) -> Certificate:
    """Certificate that deleting an edge inside a missing face keeps the graph
    d-rigid, d = dim + 1.

    For a missing face sigma of dimension 2..d-2 and an edge e inside it,
    the graph minus e restricted to W = V(star(sigma - e)) still contains
    the star's rigid graph, and completing W recovers a supergraph of the
    full graph; the Replacement rule combines the two.
    """
    d = delta.dim + 1
    face = frozenset(sigma)
    if delta.has_face(face) or not all(delta.has_face(face - {v}) for v in face):
        raise ValueError(f"{sorted(face)} is not a missing face")
    k = len(face) - 1
    if not 2 <= k <= d - 2:
        raise ValueError(f"missing face must have dimension in [2, {d - 2}], got {k}")
    edge = frozenset(e)
    if len(edge) != 2 or not edge <= face:
        raise ValueError(f"{sorted(edge)} is not an edge inside {sorted(face)}")
    tau = face - edge
    star_cert = certify_star_rigidity(delta, tau)
    w = star_cert.graph.vertices
    a, b = sorted(edge)
    claim = graph_of(delta).remove_edge(a, b)
    completed = Certificate(graph=union(claim, complete_graph(w)), d=d, rule="RankLeaf")
    return Certificate(claim, d, "Replacement", (star_cert, completed), subset=w)
