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
            graph=cone_graph(base, apex),
            d=d + 1,
            rule="Cone",
            children=(leaf(base, d),),
            apex=apex,
        )

    def test_cone_over_octahedron(self):
        assert check(self.make(octa_graph(), 3, 7))

    def test_flexible_base_propagates(self):
        assert not check(self.make(octa_graph().remove_edge(1, 3), 3, 7))

    def test_missing_apex_rejected(self):
        cert = Certificate(
            graph=cone_graph(octa_graph(), 7),
            d=4,
            rule="Cone",
            children=(leaf(octa_graph(), 3),),
        )
        with pytest.raises(CertificateError, match="apex"):
            check(cert)

    def test_wrong_child_dimension_rejected(self):
        cert = Certificate(
            graph=cone_graph(octa_graph(), 7),
            d=4,
            rule="Cone",
            children=(leaf(octa_graph(), 4),),
            apex=7,
        )
        with pytest.raises(CertificateError, match="dimension"):
            check(cert)

    def test_claim_must_be_the_cone(self):
        cert = Certificate(
            graph=octa_graph(),
            d=4,
            rule="Cone",
            children=(leaf(octa_graph(), 3),),
            apex=7,
        )
        with pytest.raises(CertificateError, match="cone"):
            check(cert)

    def test_error_path_points_at_the_bad_node(self):
        bad_child = Certificate(
            graph=octa_graph(), d=3, rule="RankLeaf", children=(leaf(octa_graph(), 3),)
        )
        cert = Certificate(
            graph=cone_graph(octa_graph(), 7),
            d=4,
            rule="Cone",
            children=(bad_child,),
            apex=7,
        )
        with pytest.raises(CertificateError) as err:
            check(cert)
        assert err.value.path == "root.0"

    @pytest.mark.parametrize(
        "claim,apex,match",
        [
            (cone_graph(octa_graph(), 7), 1, "already in the child"),
            (cone_graph(octa_graph(), 7).remove_edge(1, 7), 7, "not the cone"),
            (union(cone_graph(octa_graph(), 7), Graph((1, 2), [(1, 2)])), 7, "not the cone"),
            (Graph(range(1, 9), cone_graph(octa_graph(), 7).edges), 7, "not the cone"),
        ],
        ids=["apex-in-child", "missing-apex-edge", "extra-edge", "extra-vertex"],
    )
    def test_malformed_cone_raises_at_its_node(self, claim, apex, match):
        # the set relations flag exactly the trees that rebuilding the cone
        # flagged, one level down in a tower at the same node path
        base = octa_graph()
        assert apex in base.vertices or claim != cone_graph(base, apex)
        bad = Certificate(graph=claim, d=4, rule="Cone", children=(leaf(base, 3),), apex=apex)
        tower = Certificate(
            graph=cone_graph(claim, 9), d=5, rule="Cone", children=(bad,), apex=9
        )
        with pytest.raises(CertificateError, match=match) as err:
            check(tower)
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

    def test_first_child_must_live_on_u(self):
        delta = sp.join_spheres(2, 3)
        cert = certify_missing_face_edge(delta, (1, 2, 3), (1, 2))
        shrunk = Certificate(
            graph=cert.graph,
            d=5,
            rule="Replacement",
            children=cert.children,
            subset=cert.subset - {1},
        )
        with pytest.raises(CertificateError, match="exactly U"):
            check(shrunk)

    def test_second_child_must_complete_u(self):
        delta = sp.join_spheres(2, 3)
        cert = certify_missing_face_edge(delta, (1, 2, 3), (1, 2))
        wrong = Certificate(
            graph=cert.graph,
            d=5,
            rule="Replacement",
            children=(cert.children[0], leaf(cert.graph, 5)),
            subset=cert.subset,
        )
        with pytest.raises(CertificateError, match="completed"):
            check(wrong)

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
            subset=u,
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
        assert cert.rule == "Cone"
        assert cert.apex == 1
        assert cert.children[0].rule == "RankLeaf"
        assert cert.children[0].d == 3
        assert check(cert)

    def test_edge_star_is_cone_tower(self):
        delta = sp.cross_polytope(5)
        cert = certify_star_rigidity(delta, (1, 3))
        assert (cert.rule, cert.apex, cert.d) == ("Cone", 3, 5)
        inner = cert.children[0]
        assert (inner.rule, inner.apex, inner.d) == ("Cone", 1, 4)
        assert inner.children[0].d == 3
        assert check(cert)
        assert every_claim_is_rigid(cert)

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
