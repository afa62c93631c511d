import random
from itertools import combinations

import pytest

import spherig as sp
from spherig.certificates import (
    Certificate,
    CertificateError,
    certify_missing_face_edge,
    certify_star_rigidity,
    check,
)
from spherig.graphs import Graph, complete_graph, cone_graph, graph_of, union
from spherig.rigidity import decide_rigidity


def octa_graph() -> Graph:
    return graph_of(sp.cross_polytope(3))


def leaf(graph: Graph, d: int, rule: str = "RankLeaf") -> Certificate:
    return Certificate(graph=graph, d=d, rule=rule)


def every_claim_is_rigid(cert: Certificate) -> bool:
    """Whether the rank engine finds every node's claim rigid, not only the leaves'."""
    return decide_rigidity(cert.graph, cert.d).is_rigid and all(
        map(every_claim_is_rigid, cert.children)
    )


def node_count(cert: Certificate) -> int:
    return 1 + sum(map(node_count, cert.children))


def random_graph(rng: random.Random, n: int, prob: float) -> Graph:
    verts = range(1, n + 1)
    edges = [e for e in combinations(verts, 2) if rng.random() < prob]
    return Graph(verts, edges)


class TestLeaves:
    def test_rank_leaf_accepts_rigid_graph(self):
        assert check(leaf(octa_graph(), 3))

    def test_rank_leaf_rejects_flexible_graph(self):
        assert not check(leaf(octa_graph().remove_edge(1, 3), 3))

    def test_rank_leaf_small_graph_uses_completeness(self):
        assert check(leaf(complete_graph(range(1, 4)), 4))
        assert not check(leaf(complete_graph(range(1, 4)).remove_edge(1, 2), 4))

    def test_complete_leaf(self):
        assert check(leaf(complete_graph(range(1, 6)), 4, "CompleteLeaf"))

    def test_complete_leaf_needs_d_plus_1_vertices(self):
        assert not check(leaf(complete_graph(range(1, 6)), 5, "CompleteLeaf"))

    def test_complete_leaf_rejects_missing_edge(self):
        g = complete_graph(range(1, 6)).remove_edge(1, 2)
        assert not check(leaf(g, 4, "CompleteLeaf"))

    def test_leaves_take_no_children(self):
        bad = Certificate(
            graph=octa_graph(), d=3, rule="RankLeaf", children=(leaf(octa_graph(), 3),)
        )
        with pytest.raises(CertificateError, match="no children"):
            check(bad)

    def test_unknown_rule_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Certificate(graph=octa_graph(), d=3, rule="Magic")


class TestCone:
    def make(self, base: Graph, d: int, apex: int) -> Certificate:
        return Certificate(
            graph=cone_graph(base, apex), d=d + 1, rule="Cone", children=(leaf(base, d),)
        )

    def test_cone_over_octahedron(self):
        assert check(self.make(octa_graph(), 3, 7))

    def test_flexible_base_propagates(self):
        assert not check(self.make(octa_graph().remove_edge(1, 3), 3, 7))

    def test_missing_apex_rejected(self):
        # a claim with no vertex outside the child graph has no apex
        cert = Certificate(graph=octa_graph(), d=4, rule="Cone", children=(leaf(octa_graph(), 3),))
        with pytest.raises(CertificateError, match="apex"):
            check(cert)

    def test_wrong_child_dimension_rejected(self):
        cert = Certificate(
            graph=cone_graph(octa_graph(), 7), d=4, rule="Cone", children=(leaf(octa_graph(), 4),)
        )
        with pytest.raises(CertificateError, match="dimension"):
            check(cert)

    def test_claim_must_be_the_cone(self):
        # the child's graph has a vertex the claim lacks
        base = union(octa_graph(), Graph((8,), ()))
        cert = Certificate(
            graph=cone_graph(octa_graph(), 7), d=4, rule="Cone", children=(leaf(base, 3),)
        )
        with pytest.raises(CertificateError, match="cone"):
            check(cert)

    def test_two_apex_claim_without_the_apex_edge_rejected(self):
        # K_A * H joins the apexes to each other too, not only to H
        claim = cone_graph(cone_graph(octa_graph(), 7), 8)
        good = Certificate(graph=claim, d=5, rule="Cone", children=(leaf(octa_graph(), 3),))
        assert check(good)
        bad = Certificate(
            graph=claim.remove_edge(7, 8), d=5, rule="Cone", children=(leaf(octa_graph(), 3),)
        )
        with pytest.raises(CertificateError, match="not the cone"):
            check(bad)

    def test_spoke_swapped_for_a_base_edge_rejected(self):
        # the claim has K_A * H's edge count and holds H, but one spoke is
        # traded for an edge between two base vertices
        good = cone_graph(octa_graph(), 7)
        claim = union(good.remove_edge(1, 7), Graph((1, 2), [(1, 2)]))
        assert len(claim.edges) == len(good.edges)
        cert = Certificate(graph=claim, d=4, rule="Cone", children=(leaf(octa_graph(), 3),))
        with pytest.raises(CertificateError, match="not the cone"):
            check(cert)

    def test_error_path_points_at_the_bad_node(self):
        bad_child = Certificate(
            graph=octa_graph(), d=3, rule="RankLeaf", children=(leaf(octa_graph(), 3),)
        )
        cert = Certificate(
            graph=cone_graph(octa_graph(), 7), d=4, rule="Cone", children=(bad_child,)
        )
        with pytest.raises(CertificateError) as err:
            check(cert)
        assert err.value.path == "root.0"

    @pytest.mark.parametrize(
        "claim",
        [
            cone_graph(octa_graph(), 7).remove_edge(1, 7),
            union(cone_graph(octa_graph(), 7), Graph((1, 2), [(1, 2)])),
            Graph(range(1, 9), cone_graph(octa_graph(), 7).edges),
        ],
        ids=["missing-apex-edge", "extra-edge", "extra-vertex"],
    )
    def test_malformed_cone_raises_at_its_node(self, claim):
        # the set relations flag exactly the trees that rebuilding the cone
        # flags, one level down at the same node path
        base = octa_graph()
        assert claim != cone_graph(base, 7)
        bad = Certificate(graph=claim, d=4, rule="Cone", children=(leaf(base, 3),))
        top = Certificate(graph=cone_graph(claim, 9), d=5, rule="Cone", children=(bad,))
        with pytest.raises(CertificateError, match="not the cone") as err:
            check(top)
        assert err.value.path == "root.0"

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_engine_dimension_shift(self, seed):
        # coning the graph must shift the rigidity dimension by exactly one
        rng = random.Random(seed)
        n = rng.randint(5, 10)
        d = rng.choice([3, 4, 5])
        g = random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
        base = decide_rigidity(g, d - 1, seed=seed).is_rigid
        coned = decide_rigidity(cone_graph(g, n + 1), d, seed=seed).is_rigid
        assert base == coned

    @pytest.mark.parametrize("seed", range(6))
    def test_iterated_cone_matches_the_engine_on_the_claim(self, seed):
        # one node over |A| apexes decides what the engine decides for K_A * H
        rng = random.Random(100 + seed)
        n, k = rng.randint(4, 8), rng.randint(1, 3)
        d = k + rng.choice([2, 3])
        g = random_graph(rng, n, rng.choice([0.5, 0.7, 0.9]))
        claim = g
        for apex in range(n + 1, n + k + 1):
            claim = cone_graph(claim, apex)
        cert = Certificate(graph=claim, d=d, rule="Cone", children=(leaf(g, d - k),))
        assert check(cert, seed) == decide_rigidity(claim, d, seed=seed).is_rigid


class TestGluing:
    def make(self, g1: Graph, g2: Graph, d: int) -> Certificate:
        return Certificate(
            graph=union(g1, g2),
            d=d,
            rule="Gluing",
            children=(leaf(g1, d, "CompleteLeaf"), leaf(g2, d, "CompleteLeaf")),
        )

    def test_overlap_of_d_accepted(self):
        g1 = complete_graph(range(1, 7))
        g2 = complete_graph(range(3, 9))
        assert check(self.make(g1, g2, 4))

    def test_overlap_below_d_rejected(self):
        g1 = complete_graph(range(1, 7))
        g2 = complete_graph(range(4, 10))
        assert not check(self.make(g1, g2, 4))

    def test_claim_must_be_the_union(self):
        g1 = complete_graph(range(1, 7))
        g2 = complete_graph(range(3, 9))
        cert = Certificate(
            graph=union(g1, g2).remove_edge(1, 2),
            d=4,
            rule="Gluing",
            children=(leaf(g1, 4, "CompleteLeaf"), leaf(g2, 4, "CompleteLeaf")),
        )
        with pytest.raises(CertificateError, match="union"):
            check(cert)

    def test_flexible_side_propagates(self):
        g1 = complete_graph(range(1, 7)).remove_edge(1, 2)
        g2 = complete_graph(range(3, 9))
        cert = Certificate(
            graph=union(g1, g2),
            d=4,
            rule="Gluing",
            children=(leaf(g1, 4, "CompleteLeaf"), leaf(g2, 4, "CompleteLeaf")),
        )
        assert not check(cert)


class TestReplacement:
    def test_builder_output_passes(self):
        delta = sp.join_spheres(2, 3)
        cert = certify_missing_face_edge(delta, (1, 2, 3), (1, 2))
        assert cert.rule == "Replacement"
        assert check(cert)

    def test_every_internal_claim_is_rigid(self):
        delta = sp.join_spheres(2, 3)
        cert = certify_missing_face_edge(delta, (1, 2, 3), (1, 2))
        assert every_claim_is_rigid(cert)

    def test_first_child_outside_the_claim_raises_at_its_node(self):
        # U, read from the first child, must lie inside the claim's vertices
        g = complete_graph(range(1, 7))
        u = frozenset((1, 2, 3, 4, 9))
        node = Certificate(
            graph=g,
            d=4,
            rule="Replacement",
            children=(leaf(complete_graph(u), 4), leaf(union(g, complete_graph(u)), 4)),
        )
        top = Certificate(graph=cone_graph(g, 7), d=5, rule="Cone", children=(node,))
        with pytest.raises(CertificateError, match="U is not a subset") as err:
            check(top)
        assert err.value.path == "root.0"

    @pytest.mark.parametrize(
        "second",
        [
            complete_graph(range(1, 6)),
            union(complete_graph(range(1, 7)).remove_edge(1, 6), Graph((9,), ())),
            complete_graph(range(1, 7)),
        ],
        ids=["lacks-a-claim-vertex", "vertex-outside-the-claim", "edge-leaving-u"],
    )
    def test_second_child_must_span_the_claim_with_u_completed(self, second):
        # claim | K_U = K_6 - 16 with U = {1..5}: the second child must have
        # the claim's six vertices, and each edge the claim lacks must lie
        # inside U, so neither K_5, an isolated vertex 9 nor the edge 16
        # (from 1 in U to 6 outside it) is allowed
        claim, u = complete_graph(range(1, 7)).remove_edge(1, 6), range(1, 6)
        children = (leaf(complete_graph(u), 4), leaf(second, 4))
        node = Certificate(graph=claim, d=4, rule="Replacement", children=children)
        top = Certificate(graph=cone_graph(claim, 7), d=5, rule="Cone", children=(node,))
        with pytest.raises(CertificateError, match="spanning subgraph") as err:
            check(top)
        assert err.value.path == "root.0"

    def test_second_child_may_be_the_whole_graph_or_the_completed_claim(self):
        # G spans G - e with U completed, as e lies in U; so does that
        # completed graph itself, the second child before G replaced it
        delta = sp.join_simplex_cycle(4, 5)
        cert = certify_missing_face_edge(delta, (1, 2, 3), (2, 3))
        restricted, whole = cert.children
        completed = leaf(union(cert.graph, complete_graph(restricted.graph.vertices)), 4)
        assert whole == certify_star_rigidity(delta, ())
        assert whole.graph == graph_of(delta) != completed.graph
        for second in (whole, completed):
            assert check(Certificate(cert.graph, 4, "Replacement", (restricted, second)))

    def test_first_child_must_be_subgraph_of_restriction(self):
        # claim lacking an edge the first child uses is structurally invalid
        g = complete_graph(range(1, 7))
        u = frozenset(range(1, 6))
        cert = Certificate(
            graph=g.remove_edge(1, 2),
            d=4,
            rule="Replacement",
            children=(
                leaf(complete_graph(range(1, 6)), 4),
                leaf(union(g.remove_edge(1, 2), complete_graph(u)), 4),
            ),
        )
        with pytest.raises(CertificateError, match="subgraph"):
            check(cert)


class TestStarCertificates:
    def test_empty_face_gives_bare_rank_leaf(self):
        delta = sp.cross_polytope(4)
        cert = certify_star_rigidity(delta, ())
        assert cert.rule == "RankLeaf"
        assert check(cert)

    def test_vertex_star_is_single_cone(self):
        delta = sp.cross_polytope(4)
        cert = certify_star_rigidity(delta, (1,))
        (link,) = cert.children
        assert cert.rule == "Cone"
        assert cert.graph.vertices - link.graph.vertices == {1}
        assert (link.rule, link.d) == ("RankLeaf", 3)
        assert check(cert)

    def test_edge_star_is_one_cone(self):
        delta = sp.cross_polytope(5)
        cert = certify_star_rigidity(delta, (1, 3))
        (link,) = cert.children
        assert (cert.rule, cert.d) == ("Cone", 5)
        assert cert.graph.vertices - link.graph.vertices == {1, 3}
        assert (link.rule, link.d, link.children) == ("RankLeaf", 3, ())
        assert check(cert)
        assert every_claim_is_rigid(cert)

    def test_every_star_certificate_of_cross_6_has_at_most_two_nodes(self):
        delta = sp.cross_polytope(6)
        checked = 0
        for size in range(4):
            for face in sorted(delta.faces_of_dim(size - 1), key=sorted):
                cert = certify_star_rigidity(delta, face)
                assert node_count(cert) <= 2, face
                assert check(cert, seed=checked), face
                checked += 1
        assert checked == 1 + 12 + 60 + 160

    def test_every_small_face_of_cross_5_passes(self):
        delta = sp.cross_polytope(5)
        for size in (0, 1, 2):
            for face in sorted(delta.faces_of_dim(size - 1), key=sorted):
                assert check(certify_star_rigidity(delta, face))

    def test_face_too_large_rejected(self):
        with pytest.raises(ValueError, match="d-3"):
            certify_star_rigidity(sp.cross_polytope(5), (1, 3, 5))

    def test_non_face_rejected(self):
        with pytest.raises(ValueError, match="not a face"):
            certify_star_rigidity(sp.cross_polytope(4), (1, 2))


class TestMissingFaceCertificates:
    def test_join_cycle_missing_triangle(self):
        delta = sp.join_simplex_cycle(4, 5)
        cert = certify_missing_face_edge(delta, (1, 2, 3), (2, 3))
        assert check(cert)
        assert every_claim_is_rigid(cert)
        # the deleted edge really is gone from the claim graph
        assert frozenset((2, 3)) not in cert.graph.edges

    def test_large_missing_face_of_join(self):
        delta = sp.join_spheres(2, 3)
        cert = certify_missing_face_edge(delta, (4, 5, 6, 7), (4, 5))
        assert check(cert)

    def test_present_face_rejected(self):
        with pytest.raises(ValueError, match="missing face"):
            certify_missing_face_edge(sp.join_spheres(2, 3), (1, 2), (1, 2))

    def test_low_dimension_missing_face_rejected(self):
        # a missing edge has dimension 1, below the 2..d-2 window
        with pytest.raises(ValueError, match="dimension"):
            certify_missing_face_edge(sp.cross_polytope(5), (1, 2), (1, 2))

    def test_edge_outside_face_rejected(self):
        with pytest.raises(ValueError, match="edge inside"):
            certify_missing_face_edge(sp.join_spheres(2, 3), (1, 2, 3), (4, 5))
