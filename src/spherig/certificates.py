"""Checkable proof trees for generic-rigidity claims.

A Certificate asserts "this graph is generically d-rigid" and justifies it
by one rule: a direct rank test (RankLeaf), completeness (CompleteLeaf), or
one of the composition rules Cone, Gluing and Replacement, whose children
certify the ingredient graphs.  check() walks the tree, validating at each
node that the claim graph really is the one the rule builds from its
children and that the rule's side conditions hold; only leaves ever touch
the rank engine.  The composition rules themselves are trusted.

A node carries no rule data: the graphs determine it.  Malformed trees
(wrong child counts or dimensions, claim graph not matching the
construction) raise CertificateError with the node path; violated side
conditions make check() return False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import SimplicialComplex
from .graphs import Graph, complete_graph, graph_of, union
from .rigidity import decide_rigidity, derive_seed

RULES = ("RankLeaf", "CompleteLeaf", "Cone", "Gluing", "Replacement")


class CertificateError(Exception):
    """A structurally invalid certificate; the message carries the node path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"at {path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Certificate:
    """One node of a rigidity proof tree.

    Children appear in rule order, e.g. Replacement expects [restriction
    certificate, completed-graph certificate].  A Cone's apex set is the
    claim's vertices outside its child's graph; a Replacement's U is its
    first child's vertex set.
    """

    graph: Graph
    d: int
    rule: str
    children: tuple["Certificate", ...] = ()

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")


def check(cert: Certificate, seed: int = 0) -> bool:
    """Validate a certificate tree.

    Only the leaves are decided by the rank engine, each with its own
    sub-seed of seed; the composition rules are taken on faith.
    """
    return _check(cert, seed, "root")


def _check(node: Certificate, seed: int, path: str) -> bool:
    def fail(message: str):
        raise CertificateError(path, message)

    def recurse() -> bool:
        return all(_check(ch, seed, f"{path}.{i}") for i, ch in enumerate(node.children))

    d = node.d
    if d < 1:
        fail("dimension must be >= 1")

    if node.rule in ("RankLeaf", "CompleteLeaf"):
        if node.children:
            fail(f"{node.rule} takes no children")
        if node.rule == "CompleteLeaf":
            n = len(node.graph.vertices)
            return n >= d + 1 and len(node.graph.edges) == n * (n - 1) // 2
        return decide_rigidity(node.graph, d, seed=derive_seed(seed, "leaf", path)).is_rigid

    if node.rule == "Cone":
        if len(node.children) != 1:
            fail("Cone takes exactly one child")
        # The claim must be K_A * H for the child's graph H and its apex set
        # A.  K_A * H is the cone over K_{A-a} * H for any a in A, so the cone
        # lemma (Whiteley 1983), applied |A| times, makes it d-rigid exactly
        # when H is (d - |A|)-rigid.  The relation is checked without building
        # K_A * H: with H inside the claim, the claim's other edges must all
        # touch A and number C(|A|,2) + |A||V(H)|, which is every pair of
        # V(H) + A with an end in A.
        child = node.children[0]
        claim, base = node.graph, child.graph
        apex = claim.vertices - base.vertices
        if not apex:
            fail("Cone needs an apex outside the child graph")
        k, spokes = len(apex), claim.edges - base.edges
        if not (
            base.vertices <= claim.vertices
            and base.edges <= claim.edges
            and len(spokes) == k * (k - 1) // 2 + k * len(base.vertices)
            and not any(e.isdisjoint(apex) for e in spokes)
        ):
            fail("claim graph is not the cone over the child graph")
        if child.d != d - len(apex):
            fail(f"Cone child must claim dimension {d - len(apex)}, claims {child.d}")
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
    else:  # Replacement, the last rule that __post_init__ admits
        if len(node.children) != 2:
            fail("Replacement takes exactly two children")
        if any(ch.d != d for ch in node.children):
            fail("Replacement children must claim the same dimension")
        restricted, completed = node.children
        subset = restricted.graph.vertices
        if not subset <= node.graph.vertices:
            fail("U is not a subset of the claim graph's vertices")
        if not restricted.graph.edges <= node.graph.edges:
            fail("first child's graph is not a subgraph of the claim restricted to U")
        if completed.graph != union(node.graph, complete_graph(subset)):
            fail("second child must claim the claim graph with U completed")
        return recurse()


def certify_star_rigidity(delta: SimplicialComplex, sigma: Iterable[int]) -> Certificate:
    """Certificate that the star of a face has a d-rigid graph, d = dim + 1.

    The star is the join of the face with its link, so the certificate is
    one Cone, with the face as its apex set, over a rank test of the link's
    graph in dimension d - |sigma|; both graphs are read from one scan of
    the facets.  An empty face gives a bare rank leaf for the whole graph.
    """
    d = delta.dim + 1
    face = frozenset(sigma)
    link_graph, star_graph = delta.link_star_graphs(face)  # rejects a non-face
    if len(face) > d - 3:
        raise ValueError(f"star certificates need |sigma| <= d-3, got {len(face)}")
    if not face:
        return Certificate(graph=star_graph, d=d, rule="RankLeaf")
    link_cert = Certificate(graph=link_graph, d=d - len(face), rule="RankLeaf")
    return Certificate(graph=star_graph, d=d, rule="Cone", children=(link_cert,))


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
    return Certificate(claim, d, "Replacement", (star_cert, completed))
