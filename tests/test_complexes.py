import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherig as sp
from spherig.complexes import SimplicialComplex, as_face, intersection
from spherig.harness import flip_walk_corpus

from oracles import brute_contract, brute_missing_faces, brute_prime_factors, closure


def octahedron():
    return sp.cross_polytope(3)


def torus_7() -> SimplicialComplex:
    # vertex-transitive 7 vertex torus; a pseudomanifold that is not a sphere
    facets = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    facets += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return SimplicialComplex.from_facets(facets)


class TestConstruction:
    def test_facets_become_antichain(self):
        delta = SimplicialComplex.from_facets([(1, 2, 3), (1, 2), (4,)])
        assert delta.facets == frozenset({frozenset({1, 2, 3}), frozenset({4})})

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([])

    def test_empty_facet_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_facets([()])

    def test_as_face_sorts_and_freezes(self):
        assert as_face([3, 1, 2]) == frozenset({1, 2, 3})

    def test_equality_ignores_facet_order(self):
        a = SimplicialComplex.from_facets([(1, 2), (2, 3)])
        b = SimplicialComplex.from_facets([(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_single_point(self):
        delta = SimplicialComplex.from_facets([(7,)])
        assert delta.dim == 0
        assert delta.vertices == frozenset({7})


class TestBasicQueries:
    def test_f_vector_tetrahedron_boundary(self):
        assert sp.boundary_simplex(3).f_vector() == (1, 4, 6, 4)

    def test_f_vector_octahedron(self):
        assert octahedron().f_vector() == (1, 6, 12, 8)

    def test_has_face(self):
        delta = octahedron()
        assert delta.has_face((1, 3))
        assert delta.has_face(())
        assert not delta.has_face((1, 2))

    def test_faces_of_dim(self):
        delta = sp.boundary_simplex(3)
        assert len(delta.faces_of_dim(1)) == 6
        assert delta.faces_of_dim(3) == set()

    def test_all_faces_matches_closure(self, small_spheres):
        for _, delta, _ in small_spheres:
            listed = list(delta.all_faces())
            assert len(listed) == len(set(listed))  # no duplicates from the generator
            assert set(listed) == closure(delta.facets)

    def test_is_pure(self):
        assert octahedron().is_pure
        mixed = SimplicialComplex.from_facets([(1, 2, 3), (4, 5)])
        assert not mixed.is_pure

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_euler_characteristic_of_spheres(self, d):
        f = sp.cross_polytope(d).f_vector()
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
        assert delta_fn().g2(d) == expected

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            octahedron().g2(4)


class TestLinkStarDelete:
    def test_link_of_vertex_in_simplex_boundary(self):
        delta = sp.boundary_simplex(3)
        assert delta.link((1,)) == SimplicialComplex.from_facets([(2, 3), (2, 4), (3, 4)])

    def test_link_of_edge_in_octahedron_is_two_points(self):
        assert octahedron().link((1, 3)) == SimplicialComplex.from_facets([(5,), (6,)])

    def test_link_of_facet_is_empty_complex(self):
        link = sp.boundary_simplex(3).link((1, 2, 3))
        assert link.dim == -1
        assert link.vertices == frozenset()

    def test_link_of_nonface_rejected(self):
        with pytest.raises(ValueError):
            octahedron().link((1, 2))

    def test_star_of_vertex_in_octahedron(self):
        star = octahedron().star((1,))
        assert star == SimplicialComplex.from_facets(
            [(1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6)]
        )

    def test_star_is_cone_over_link(self, small_spheres):
        for _, delta, _ in small_spheres:
            v = min(delta.vertices)
            star = delta.star((v,))
            link = delta.link((v,))
            assert star == sp.cone(link, v)

    def test_delete_vertex(self):
        deleted = octahedron().delete_vertex(1)
        assert deleted == SimplicialComplex.from_facets(
            [(2, 3, 5), (2, 3, 6), (2, 4, 5), (2, 4, 6)]
        )

    def test_delete_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            octahedron().delete_vertex(9)


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
        assert out == SimplicialComplex.from_facets([(3, 4, 5)])

    def test_contract_octahedron_edge_gives_5_vertex_sphere(self):
        out = octahedron().contract_edge((1, 3), 9)
        assert out.f_vector()[1] == 5
        assert out.is_pseudomanifold(3)

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
            assert delta.is_prime(d) == expected[name], name

    def test_stacked_sphere_is_not_prime(self):
        delta = sp.boundary_simplex(4)
        facet = min(delta.sorted_facets(), key=sorted)
        stacked = sp.stack_over_facet(delta, facet, 6)
        assert not stacked.is_prime(4)


class TestPseudomanifold:
    def test_spheres_pass(self, small_spheres):
        for _, delta, d in small_spheres:
            assert delta.is_pseudomanifold(d)

    def test_torus_passes(self):
        assert torus_7().is_pseudomanifold(3)

    def test_overused_ridge_fails(self):
        # three triangles around one edge
        delta = SimplicialComplex.from_facets([(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        assert not delta.is_pseudomanifold(3)

    def test_boundary_ridge_fails(self):
        ball = SimplicialComplex.from_facets([(1, 2, 3)])
        assert not ball.is_pseudomanifold(3)

    def test_disconnected_fails(self):
        two = sp.boundary_simplex(3)
        other = sp.boundary_simplex(3).relabel({v: v + 10 for v in range(1, 5)})
        both = SimplicialComplex.from_facets(list(two.facets) + list(other.facets))
        assert not both.is_pseudomanifold(3)

    def test_impure_fails(self):
        mixed = SimplicialComplex.from_facets([(1, 2, 3), (4, 5)])
        assert not mixed.is_pseudomanifold(3)


class TestJoinConeSuspension:
    def test_join_disjointness_enforced(self):
        a = SimplicialComplex.from_facets([(1, 2)])
        b = SimplicialComplex.from_facets([(2, 3)])
        with pytest.raises(ValueError):
            sp.join(a, b)

    def test_join_f_vector_is_convolution(self):
        a = sp.boundary_simplex(2)
        b = sp.boundary_simplex(2).relabel({v: v + 10 for v in range(1, 4)})
        joined = sp.join(a, b)
        fa, fb, fj = a.f_vector(), b.f_vector(), joined.f_vector()
        for k in range(len(fj)):
            assert fj[k] == sum(
                fa[i] * fb[k - i] for i in range(k + 1) if i < len(fa) and k - i < len(fb)
            )

    def test_cone_over_cycle(self):
        wheel = sp.cone(sp.cycle_complex(list(range(1, 6))), 9)
        assert wheel.f_vector() == (1, 6, 10, 5)
        assert wheel.link((9,)) == sp.cycle_complex(list(range(1, 6)))

    def test_intersection(self):
        a = SimplicialComplex.from_facets([(1, 2, 3)])
        b = SimplicialComplex.from_facets([(2, 3, 4)])
        assert intersection(a, b) == SimplicialComplex.from_facets([(2, 3)])


class TestPrimeFactors:
    def test_prime_input_returns_itself(self):
        delta = sp.cross_polytope(4)
        assert sp.prime_factors(delta, 4) == [delta]

    def test_single_stacking(self):
        delta = sp.boundary_simplex(4)
        stacked = sp.stack_over_facet(delta, as_face((1, 2, 3, 4)), 6)
        factors = sp.prime_factors(stacked, 4)
        assert len(factors) == 2
        assert all(f.f_vector() == (1, 5, 10, 10, 5) for f in factors)

    def test_double_stacking_gives_three_factors(self):
        delta = sp.boundary_simplex(4)
        once = sp.stack_over_facet(delta, as_face((1, 2, 3, 4)), 6)
        twice = sp.stack_over_facet(once, as_face((1, 2, 3, 6)), 7)
        factors = sp.prime_factors(twice, 4)
        assert len(factors) == 3
        assert all(f.is_prime(4) for f in factors)

    def test_matches_oracle_on_sums(self, small_spheres):
        for _, delta, d in small_spheres:
            if d != 4:
                continue
            facet = min(delta.sorted_facets(), key=sorted)
            v_new = max(delta.vertices) + 1
            stacked = sp.stack_over_facet(delta, facet, v_new)
            got = {f.facets for f in sp.prime_factors(stacked, 4)}
            want = set(brute_prime_factors(stacked.facets, 4))
            assert got == want

    def test_nonseparating_missing_facet_rejected(self):
        with pytest.raises(ValueError, match="separate"):
            sp.prime_factors(torus_7(), 3)


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
    delta = SimplicialComplex.from_facets(facet_list)
    for f in delta.facets:
        for g in delta.facets:
            assert not f < g


@settings(max_examples=60, deadline=None)
@given(faces_strategy)
def test_random_complex_missing_faces_match_oracle(facet_list):
    delta = SimplicialComplex.from_facets(facet_list)
    assert delta.missing_faces() == brute_missing_faces(delta.facets)


@settings(max_examples=60, deadline=None)
@given(faces_strategy)
def test_random_complex_missing_faces_are_minimal_nonfaces(facet_list):
    delta = SimplicialComplex.from_facets(facet_list)
    for sigma in delta.missing_faces():
        assert not delta.has_face(sigma)
        for v in sigma:
            assert delta.has_face(sigma - {v})


@settings(max_examples=80, deadline=None)
@given(faces_strategy)
def test_has_face_matches_closure(facet_list):
    delta = SimplicialComplex.from_facets(facet_list)
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
    delta = SimplicialComplex.from_facets(facet_list)
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
    delta.star([1])
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
        assert delta.is_prime(4) == all(len(f) != 4 for f in brute)
    assert all(delta.is_prime(4) for delta in harvest)


def test_flip_walks_reach_non_prime_spheres():
    # the walk branch of the test above decides both ways, not just "prime"
    walk = sp.random_flip_walk(sp.cross_polytope(4), 10, seed=1)
    verdicts = {delta.is_prime(4) for delta in walk}
    assert verdicts == {True, False}
    for delta in walk:
        brute = brute_missing_faces(delta.facets)
        assert delta.is_prime(4) == all(len(f) != 4 for f in brute)
