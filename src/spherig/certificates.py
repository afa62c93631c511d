"""Checkable proof trees for generic-rigidity claims.

A Certificate asserts "this graph is generically d-rigid" and justifies it
by one rule: a direct rank test (RankLeaf), completeness (CompleteLeaf), or
one of the composition rules Cone, Gluing and Replacement, whose children
certify the ingredient graphs.  check() walks the tree, validating at each
node that the claim graph really is the one the rule builds from its
children and that the rule's side conditions hold; only leaves ever touch
the rank engine.  The composition rules themselves are trusted.  A
Replacement's second child may claim any spanning subgraph of claim | K_U:
adding edges on a fixed vertex set never lowers the rank (Asimow-Roth 1978).

A node carries no rule data: the graphs determine it.  Malformed trees
(wrong child counts or dimensions, claim graph not matching the
construction) raise CertificateError with the node path; violated side
conditions make check() return False.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .complexes import SimplicialComplex
from .graphs import Graph, graph_of, union
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

    Children appear in rule order, e.g. Replacement expects [certificate on
    U, certificate of a spanning subgraph of the claim with U completed].  A
    Cone's apex set is the claim's vertices outside its child's graph; a
    Replacement's U is its first child's vertex set.
    """

    graph: Graph
    d: int
    rule: str
    children: tuple["Certificate", ...] = ()

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")


def check(cert: Certificate, seed: int = 0) -> bool:
    """Validate a certificate tree: only its leaves are decided by the rank
    engine, each at its own sub-seed of seed."""
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
        # Replacement lemma: the claim is d-rigid if the first child's graph, on U, and claim | K_U
        # are.  U lies in V(claim), so a rigid H on V(claim), each edge in U or in the claim, spans
        # claim | K_U and makes it rigid: adding edges never lowers the rank (Asimow-Roth 1978).
        restricted, spanning = node.children
        claim, subset = node.graph, restricted.graph.vertices
        if not subset <= claim.vertices:
            fail("U is not a subset of the claim graph's vertices")
        if not restricted.graph.edges <= claim.edges:
            fail("first child's graph is not a subgraph of the claim restricted to U")
        extra = spanning.graph.edges - claim.edges
        if spanning.graph.vertices != claim.vertices or not all(e <= subset for e in extra):
            fail("second child must claim a spanning subgraph of the claim with U completed")
        return recurse()


def certify_star_rigidity(delta: SimplicialComplex, sigma: Iterable[int]) -> Certificate:
    """Certificate that the star of a face has a d-rigid graph, d = dim + 1.

    The star is the join of the face with its link, so the certificate is
    one Cone, with the face as its apex set, over a rank test of the link's
    graph in dimension d - |sigma|; both graphs are read from one scan of
    the facets.  An empty face gives a bare rank leaf on graph_of(delta).
    """
    d = delta.dim + 1
    face = frozenset(sigma)
    if not face and d >= 3:  # |sigma| = 0 <= d-3, and the star is delta, its graph cached
        return Certificate(graph=graph_of(delta), d=d, rule="RankLeaf")
    link_graph, star_graph = delta.link_star_graphs(face)  # rejects a non-face
    if len(face) > d - 3:
        raise ValueError(f"star certificates need |sigma| <= d-3, got {len(face)}")
    link_cert = Certificate(graph=link_graph, d=d - len(face), rule="RankLeaf")
    return Certificate(graph=star_graph, d=d, rule="Cone", children=(link_cert,))


def certify_missing_face_edge(
    delta: SimplicialComplex, sigma: Iterable[int], e: Iterable[int]
) -> Certificate:
    """Certificate that deleting an edge inside a missing face keeps the graph
    d-rigid, d = dim + 1.

    For a missing face sigma of dimension 2..d-2 and an edge e inside it,
    G - e restricted to W = V(star(sigma - e)) holds that star's graph, and
    G is a spanning subgraph of (G - e) | K_W, as e lies in sigma, inside W.
    So the certificate is a Replacement over the star certificates of
    sigma - e and of the empty face, a leaf on G (a memo hit inside a run).
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
    children = (certify_star_rigidity(delta, face - edge), certify_star_rigidity(delta, ()))
    return Certificate(graph_of(delta).remove_edge(*edge), d, "Replacement", children)
