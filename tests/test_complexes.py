import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherig as sp
from spherig.complexes import SimplicialComplex, as_face
from spherig.graphs import Graph
from spherig.harness import flip_walk_corpus

from oracles import (
    brute_contract,
    brute_missing_faces,
    brute_prime_factors,
    closure,
    cone,
    connected_sum,
    f_vector,
    intersection,
    maximal_faces,
    star,
)


def octahedron():
    return sp.cross_polytope(3)


def torus_7() -> SimplicialComplex:
    # vertex-transitive 7 vertex torus; a pseudomanifold that is not a sphere
    facets = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    facets += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return SimplicialComplex(facets)


class TestConstruction:
    def test_facets_become_antichain(self):
        delta = SimplicialComplex([(1, 2, 3), (1, 2), (4,)])
        assert delta.facets == frozenset({frozenset({1, 2, 3}), frozenset({4})})

    def test_face_dominated_only_by_a_larger_face_listed_after_its_size_class(self):
        # no other edge contains {1, 2}; only the triangle listed last does
        delta = SimplicialComplex([(1, 2), (3, 4), (2, 3), (5, 6), (1, 2, 7)])
        assert delta.facets == frozenset(
            map(frozenset, [(3, 4), (2, 3), (5, 6), (1, 2, 7)])
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one face"):
            SimplicialComplex([])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match=r"facet \[1, 1, 2\] lists a vertex twice"):
            SimplicialComplex([(1, 1, 2), (1, 3, 4)])

    def test_as_face_sorts_and_freezes(self):
        assert as_face([3, 1, 2]) == frozenset({1, 2, 3})

    def test_equality_ignores_facet_order(self):
        a = SimplicialComplex([(1, 2), (2, 3)])
        b = SimplicialComplex([(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_single_point(self):
        delta = SimplicialComplex([(7,)])
        assert delta.dim == 0
        assert delta.vertices == frozenset({7})


class TestTrustedConstructor:
    """Every builder that skips the checks gives the complex the checked
    constructor gives from the same faces: valid labels, no dominated face."""

    @staticmethod
    def assert_checked_agrees(delta):
        assert SimplicialComplex(delta.facets) == delta

    def test_generators(self):
        built = [sp.boundary_simplex(d) for d in range(1, 7)]
        built += [sp.cross_polytope(d) for d in range(2, 6)]
        built += [sp.join_spheres(2, 3), sp.join_simplex_cycle(5, 6)]
        built += [sp.cyclic_polytope_boundary(n, d) for d in (2, 3, 4, 5) for n in range(d + 1, 11)]
        for delta in built:
            self.assert_checked_agrees(delta)

    @pytest.mark.parametrize("seed", range(4))
    def test_flip_walks_and_the_links_of_each_step(self, seed):
        for delta in sp.random_flip_walk(sp.cross_polytope(4), 12, seed=seed):
            self.assert_checked_agrees(delta)
            for k in range(-1, delta.dim + 1):
                for face in delta.faces_of_dim(k):
                    self.assert_checked_agrees(delta.link(face))

    def test_every_legal_flip_of_a_walk_sphere(self):
        delta = sp.random_flip_walk(sp.cross_polytope(4), 6, seed=2)[-1]
        for move in sp.legal_flips(delta):
            self.assert_checked_agrees(sp.bistellar_flip(delta, move))

    def test_stackings_and_their_prime_factors(self):
        for d in (3, 4, 5):
            delta = sp.cross_polytope(d)
            for step in range(4):
                facet = delta.sorted_facets()[step]
                delta = sp.stack_over_facet(delta, facet, max(delta.vertices) + 1)
                self.assert_checked_agrees(delta)
            factors = sp.prime_factors(delta)
            assert len(factors) == 5
            for factor in factors:
                self.assert_checked_agrees(factor)

    def test_prime_factors_of_a_connected_sum(self):
        facets = sp.cross_polytope(4).facets
        summed = SimplicialComplex(connected_sum(facets, (1, 3, 5, 7), facets, (2, 4, 6, 8)))
        factors = sp.prime_factors(summed)
        assert len(factors) == 2
        for factor in factors:
            self.assert_checked_agrees(factor)


class TestBasicQueries:
    def test_f_vector_tetrahedron_boundary(self):
        assert f_vector(sp.boundary_simplex(3).facets) == (1, 4, 6, 4)

    def test_f_vector_octahedron(self):
        assert f_vector(octahedron().facets) == (1, 6, 12, 8)

    def test_has_face(self):
        delta = octahedron()
        assert delta.has_face((1, 3))
        assert delta.has_face(())
        assert not delta.has_face((1, 2))

    def test_faces_of_dim(self, small_spheres):
        delta = sp.boundary_simplex(3)
        assert len(delta.faces_of_dim(1)) == 6
        assert delta.faces_of_dim(3) == set()
        for _, delta, _ in small_spheres:
            faces = closure(delta.facets)
            for k in range(-1, delta.dim + 1):
                assert delta.faces_of_dim(k) == {f for f in faces if len(f) == k + 1}

    def test_is_pure(self):
        assert octahedron().is_pure
        mixed = SimplicialComplex([(1, 2, 3), (4, 5)])
        assert not mixed.is_pure

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_euler_characteristic_of_spheres(self, d):
        f = f_vector(sp.cross_polytope(d).facets)
        chi = sum((-1) ** i * f[i + 1] for i in range(d))
        assert chi == 1 + (-1) ** (d - 1)


class TestG2:
    @pytest.mark.parametrize(
        "delta_fn,d,expected",
        [
            (lambda: sp.boundary_simplex(4), 4, 0),
            (lambda: sp.boundary_simplex(5), 5, 0),
            (octahedron, 3, 0),
            (lambda: sp.cross_polytope(4), 4, 2),
            (lambda: sp.cross_polytope(5), 5, 5),
            (lambda: sp.join_spheres(2, 2), 4, 1),
            (lambda: sp.cyclic_polytope_boundary(7, 4), 4, 3),
            (lambda: sp.cyclic_polytope_boundary(8, 4), 4, 6),
        ],
    )
    def test_known_values(self, delta_fn, d, expected):
        assert delta_fn().g2() == expected


class TestLinkStarDelete:
    def test_link_of_vertex_in_simplex_boundary(self):
        delta = sp.boundary_simplex(3)
        assert delta.link((1,)) == SimplicialComplex([(2, 3), (2, 4), (3, 4)])

    def test_link_of_edge_in_octahedron_is_two_points(self):
        assert octahedron().link((1, 3)) == SimplicialComplex([(5,), (6,)])

    def test_link_of_facet_is_empty_complex(self):
        link = sp.boundary_simplex(3).link((1, 2, 3))
        assert link.dim == -1
        assert link.vertices == frozenset()

    def test_link_of_nonface_rejected(self):
        with pytest.raises(ValueError):
            octahedron().link((1, 2))

    def test_star_of_vertex_in_octahedron(self):
        delta = octahedron()
        expected = SimplicialComplex([(1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6)])
        assert star(delta.facets, (1,)) == expected.facets
        assert delta.link_star_graphs((1,))[1] == sp.graph_of(expected)

    def test_star_is_cone_over_link(self, small_spheres):
        for _, delta, _ in small_spheres:
            v = min(delta.vertices)
            link = delta.link((v,))
            assert star(delta.facets, (v,)) == cone(link.facets, v)
            link_graph, star_graph = delta.link_star_graphs((v,))
            assert link_graph == sp.graph_of(link)
            assert star_graph == sp.cone_graph(link_graph, v)


class TestGraphsFromFacets:
    """The complex's graph, link graphs, star graphs and link condition read
    from the facets, against the complexes and the oracle they replace."""

    def test_graph_is_computed_once_and_matches_the_edges(self, default_corpus):
        for entry in default_corpus:
            delta = entry.complex
            graph = sp.graph_of(delta)
            assert graph is sp.graph_of(delta)
            assert graph == Graph(delta.vertices, delta.faces_of_dim(1)), entry.name

    def test_link_and_star_graphs_match_the_complexes_on_the_default_corpus(
        self, default_corpus
    ):
        checked = 0
        for entry in default_corpus:
            delta = entry.complex
            for k in range(-1, delta.dim + 1):
                for face in delta.faces_of_dim(k):
                    link_graph, star_graph = delta.link_star_graphs(face)
                    assert link_graph == sp.graph_of(delta.link(face)), (entry.name, face)
                    oracle = SimplicialComplex(star(delta.facets, face))
                    assert star_graph == sp.graph_of(oracle), (entry.name, face)
                    checked += 1
        assert checked == 5123

    def test_link_and_star_graphs_of_a_facet_and_of_the_empty_face(self):
        delta = sp.boundary_simplex(3)
        link_graph, star_graph = delta.link_star_graphs((1, 2, 3))
        assert link_graph == Graph((), ())
        assert star_graph == sp.complete_graph((1, 2, 3))
        assert delta.link_star_graphs(()) == (sp.graph_of(delta), sp.graph_of(delta))

    def test_link_and_star_graphs_of_a_non_face_rejected(self):
        with pytest.raises(ValueError, match="not a face"):
            octahedron().link_star_graphs((1, 2))

    def test_link_and_star_graphs_leave_the_index_unbuilt(self):
        delta = sp.cyclic_polytope_boundary(8, 4)
        delta.link_star_graphs([1, 2])
        assert "_face_index" not in vars(delta)

    def test_link_condition_matches_the_intersection_oracle(self, default_corpus):
        outcomes = []
        for entry in (e for e in default_corpus if e.d == 4):
            delta = entry.complex
            for a, b in sp.graph_of(delta).sorted_edges():
                common = intersection(delta.link([a]).facets, delta.link([b]).facets)
                expected = common == delta.link([a, b]).facets
                assert delta.link_condition((a, b)) == expected, (entry.name, a, b)
                outcomes.append(expected)
        assert len(outcomes) == 309
        assert outcomes.count(False) == 107

    def test_link_condition_needs_an_edge(self):
        with pytest.raises(ValueError, match="not an edge"):
            octahedron().link_condition((1, 2))
        with pytest.raises(ValueError, match="not an edge"):
            octahedron().link_condition((1, 3, 5))


class TestRelabelContract:
    def test_relabel_roundtrip(self):
        delta = octahedron()
        fwd = {v: v + 10 for v in delta.vertices}
        back = {v + 10: v for v in delta.vertices}
        assert delta.relabel(fwd).relabel(back) == delta

    def test_relabel_requires_injection(self):
        with pytest.raises(ValueError):
            octahedron().relabel({v: 1 for v in range(1, 7)})

    def test_contract_edge_of_tetrahedron_boundary(self):
        out = sp.boundary_simplex(3).contract_edge((1, 2), 5)
        assert out == SimplicialComplex([(3, 4, 5)])

    def test_contract_octahedron_edge_gives_5_vertex_sphere(self):
        out = octahedron().contract_edge((1, 3), 9)
        assert len(out.vertices) == 5
        assert out.is_pseudomanifold()

    def test_contract_nonedge_rejected(self):
        with pytest.raises(ValueError):
            octahedron().contract_edge((1, 2), 9)

    def test_contract_used_label_rejected(self):
        with pytest.raises(ValueError):
            octahedron().contract_edge((1, 3), 5)

    def test_contract_matches_face_level_oracle(self, small_spheres):
        for _, delta, _ in small_spheres:
            edge = min(delta.faces_of_dim(1), key=sorted)
            a, b = sorted(edge)
            v_new = max(delta.vertices) + 1
            out = delta.contract_edge(edge, v_new)
            assert set(out.facets) == brute_contract(delta.facets, a, b, v_new)


class TestMissingFaces:
    def test_tetrahedron_boundary(self):
        assert sp.boundary_simplex(3).missing_faces() == [frozenset({1, 2, 3, 4})]

    def test_octahedron(self):
        assert octahedron().missing_faces() == [
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset({5, 6}),
        ]

    def test_matches_subset_scan(self, small_spheres):
        for _, delta, _ in small_spheres:
            assert delta.missing_faces() == brute_missing_faces(delta.facets)

    def test_is_prime(self, small_spheres):
        expected = {
            "simplex-3": True,
            "simplex-4": True,
            "simplex-5": True,
            "octahedron": True,
            "cross-4": True,
            "cross-5": True,
            "join-2-2": True,
            "join-2-3": True,
            "join-cycle-4-5": True,
            "cyclic-6-4": True,
            "cyclic-7-4": True,
            "cyclic-8-4": True,
        }
        for name, delta, d in small_spheres:
            assert delta.is_prime() == expected[name], name

    def test_stacked_sphere_is_not_prime(self):
        delta = sp.boundary_simplex(4)
        facet = min(delta.sorted_facets(), key=sorted)
        stacked = sp.stack_over_facet(delta, facet, 6)
        assert not stacked.is_prime()


class TestPseudomanifold:
    def test_spheres_pass(self, small_spheres):
        for _, delta, d in small_spheres:
            assert delta.is_pseudomanifold()

    def test_torus_passes(self):
        assert torus_7().is_pseudomanifold()

    def test_overused_ridge_fails(self):
        # three triangles around one edge
        delta = SimplicialComplex([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        assert not delta.is_pseudomanifold()

    def test_boundary_ridge_fails(self):
        ball = SimplicialComplex([(1, 2, 3)])
        assert not ball.is_pseudomanifold()

    def test_disconnected_fails(self):
        two = sp.boundary_simplex(3)
        other = sp.boundary_simplex(3).relabel({v: v + 10 for v in range(1, 5)})
        both = SimplicialComplex(list(two.facets) + list(other.facets))
        assert not both.is_pseudomanifold()

    def test_impure_fails(self):
        mixed = SimplicialComplex([(1, 2, 3), (4, 5)])
        assert not mixed.is_pseudomanifold()

    def test_empty_face_complex_fails(self):
        # the (-1)-complex, the link of a facet, has no ridges to count
        assert not SimplicialComplex([()]).is_pseudomanifold()
        assert not sp.boundary_simplex(3).link((1, 2, 3)).is_pseudomanifold()


class TestJoinConeSuspension:
    def test_join_disjointness_enforced(self):
        a = SimplicialComplex([(1, 2)])
        b = SimplicialComplex([(2, 3)])
        with pytest.raises(ValueError):
            sp.join(a, b)

    def test_join_f_vector_is_convolution(self):
        a = sp.boundary_simplex(2)
        b = sp.boundary_simplex(2).relabel({v: v + 10 for v in range(1, 4)})
        joined = sp.join(a, b)
        fa, fb, fj = (f_vector(c.facets) for c in (a, b, joined))
        for k in range(len(fj)):
            assert fj[k] == sum(
                fa[i] * fb[k - i] for i in range(k + 1) if i < len(fa) and k - i < len(fb)
            )

    def test_cone_over_cycle(self):
        wheel = SimplicialComplex(cone(sp.cycle_complex(list(range(1, 6))).facets, 9))
        assert f_vector(wheel.facets) == (1, 6, 10, 5)
        assert wheel.link((9,)) == sp.cycle_complex(list(range(1, 6)))

    def test_intersection(self):
        a = SimplicialComplex([(1, 2, 3)])
        b = SimplicialComplex([(2, 3, 4)])
        assert intersection(a.facets, b.facets) == SimplicialComplex([(2, 3)]).facets


class TestPrimeFactors:
    def test_prime_input_returns_itself(self):
        delta = sp.cross_polytope(4)
        assert sp.prime_factors(delta) == [delta]

    def test_single_stacking(self):
        delta = sp.boundary_simplex(4)
        stacked = sp.stack_over_facet(delta, as_face((1, 2, 3, 4)), 6)
        factors = sp.prime_factors(stacked)
        assert len(factors) == 2
        assert all(f_vector(f.facets) == (1, 5, 10, 10, 5) for f in factors)

    def test_double_stacking_gives_three_factors(self):
        delta = sp.boundary_simplex(4)
        once = sp.stack_over_facet(delta, as_face((1, 2, 3, 4)), 6)
        twice = sp.stack_over_facet(once, as_face((1, 2, 3, 6)), 7)
        factors = sp.prime_factors(twice)
        assert len(factors) == 3
        assert all(f.is_prime() for f in factors)

    def test_matches_oracle_on_sums(self, small_spheres):
        for _, delta, d in small_spheres:
            if d != 4:
                continue
            facet = min(delta.sorted_facets(), key=sorted)
            v_new = max(delta.vertices) + 1
            stacked = sp.stack_over_facet(delta, facet, v_new)
            got = {f.facets for f in sp.prime_factors(stacked)}
            want = set(brute_prime_factors(stacked.facets, 4))
            assert got == want

    def test_nonseparating_missing_facet_rejected(self):
        with pytest.raises(ValueError, match="separate"):
            sp.prime_factors(torus_7())


# The face index keys faces by vertex position, so labels far apart (and
# past 2**40) must behave like small ones.
BIG = 2**40
labels_strategy = st.sampled_from([0, 1, 2, 3, 4, 5, 6, BIG, BIG + 7, 10**12])
faces_strategy = st.lists(
    st.frozensets(labels_strategy, min_size=1, max_size=4), min_size=1, max_size=9
)
# never drawn by faces_strategy, so always outside its complexes
OUTSIDE = (7, 2**41, 10**15)


@settings(max_examples=60, deadline=None)
@given(faces_strategy)
def test_random_complex_facets_form_antichain(facet_list):
    delta = SimplicialComplex(facet_list)
    for f in delta.facets:
        for g in delta.facets:
            assert not f < g


# few labels and mixed sizes, so that faces often contain one another
mixed_faces_strategy = st.lists(
    st.frozensets(st.integers(0, 5), min_size=1, max_size=5), min_size=1, max_size=12
)


@settings(max_examples=150, deadline=None)
@given(mixed_faces_strategy)
def test_random_family_keeps_exactly_its_maximal_faces(facet_list):
    assert SimplicialComplex(facet_list).facets == maximal_faces(facet_list)


@settings(max_examples=60, deadline=None)
@given(faces_strategy)
def test_random_complex_missing_faces_match_oracle(facet_list):
    delta = SimplicialComplex(facet_list)
    assert delta.missing_faces() == brute_missing_faces(delta.facets)


@settings(max_examples=60, deadline=None)
@given(faces_strategy)
def test_random_complex_missing_faces_are_minimal_nonfaces(facet_list):
    delta = SimplicialComplex(facet_list)
    for sigma in delta.missing_faces():
        assert not delta.has_face(sigma)
        for v in sigma:
            assert delta.has_face(sigma - {v})


@settings(max_examples=80, deadline=None)
@given(faces_strategy)
def test_has_face_matches_closure(facet_list):
    delta = SimplicialComplex(facet_list)
    faces = closure(delta.facets)
    labels = sorted(delta.vertices) + [0, 1, BIG, BIG + 7, *OUTSIDE]
    for face in faces:
        assert delta.has_face(face)
        for v in labels:
            candidate = face | {v}
            assert delta.has_face(candidate) == (candidate in faces), sorted(candidate)


@settings(max_examples=60, deadline=None)
@given(faces_strategy)
def test_missing_faces_list_is_the_callers_own(facet_list):
    delta = SimplicialComplex(facet_list)
    expected = brute_missing_faces(delta.facets)
    first = delta.missing_faces()
    first.reverse()
    first.append(frozenset({99}))
    second = delta.missing_faces()
    assert second == expected
    second.clear()
    assert delta.missing_faces() == expected


def test_has_face_still_validates_labels():
    delta = octahedron()
    with pytest.raises(ValueError):
        delta.has_face([1, -2])
    with pytest.raises(ValueError):
        delta.has_face(["1"])


def test_links_and_skeleta_leave_the_index_unbuilt():
    delta = sp.cyclic_polytope_boundary(8, 4)
    delta.faces_of_dim(1)
    sp.graph_of(delta)
    delta.link([1, 2])
    delta.link_star_graphs([1])
    assert "_face_index" not in vars(delta)
    assert delta.has_face([1, 2])
    assert "_face_index" in vars(delta)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**62))
def test_is_prime_matches_oracle_on_flip_walks(seed):
    harvest = flip_walk_corpus(seed, count=4, max_vertices=14, max_walks=4)
    walk = sp.random_flip_walk(sp.cross_polytope(4), 10, seed=seed)
    for delta in harvest + walk:
        brute = brute_missing_faces(delta.facets)
        assert delta.missing_faces() == brute
        assert delta.is_prime() == all(len(f) != 4 for f in brute)
    assert all(delta.is_prime() for delta in harvest)


def test_flip_walks_reach_non_prime_spheres():
    # the walk branch of the test above decides both ways, not just "prime"
    walk = sp.random_flip_walk(sp.cross_polytope(4), 10, seed=1)
    verdicts = {delta.is_prime() for delta in walk}
    assert verdicts == {True, False}
    for delta in walk:
        brute = brute_missing_faces(delta.facets)
        assert delta.is_prime() == all(len(f) != 4 for f in brute)
