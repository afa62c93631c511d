import pytest

import spherig as sp
from spherig.complexes import SimplicialComplex, as_face
from spherig.generators import FlipMove, _is_simplex_boundary

from oracles import connected_sum, f_vector


def kind(move: FlipMove) -> tuple[int, int]:
    return len(move.face_out), len(move.face_in)


def cross_4_sum() -> SimplicialComplex:
    """Two 4-cross-polytopes glued along their facet 1-3-5-7."""
    facets = sp.cross_polytope(4).facets
    return SimplicialComplex(connected_sum(facets, (1, 3, 5, 7), facets, (1, 3, 5, 7)))


class TestSimplexAndCross:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_boundary_simplex_counts(self, d):
        delta = sp.boundary_simplex(d)
        assert delta.vertices == frozenset(range(1, d + 2))
        assert len(delta.facets) == d + 1
        assert delta.dim == d - 1

    def test_boundary_simplex_rejects_d_0(self):
        with pytest.raises(ValueError):
            sp.boundary_simplex(0)

    def test_cross_polytope_2_is_a_square(self):
        assert sp.cross_polytope(2) == sp.cycle_complex([1, 3, 2, 4])

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_cross_polytope_missing_faces_are_the_pairs(self, d):
        delta = sp.cross_polytope(d)
        assert delta.missing_faces() == [
            frozenset({2 * i - 1, 2 * i}) for i in range(1, d + 1)
        ]

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_cross_polytope_g2(self, d):
        assert sp.cross_polytope(d).g2() == d * (d - 3) // 2

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_cross_polytope_is_prime_pseudomanifold(self, d):
        delta = sp.cross_polytope(d)
        assert delta.is_prime()
        assert delta.is_pseudomanifold()
        assert len(delta.facets) == 2**d


class TestJoins:
    def test_join_spheres_2_2(self):
        delta = sp.join_spheres(2, 2)
        assert f_vector(delta.facets) == (1, 6, 15, 18, 9)
        assert delta.g2() == 1

    def test_join_spheres_vertex_layout(self):
        delta = sp.join_spheres(2, 3)
        assert delta.vertices == frozenset(range(1, 8))
        assert delta.missing_faces() == [
            frozenset({1, 2, 3}),
            frozenset({4, 5, 6, 7}),
        ]

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_join_spheres_g2_is_1(self, p, q):
        assert sp.join_spheres(p, q).g2() == 1

    def test_join_spheres_rejects_small_factors(self):
        with pytest.raises(ValueError):
            sp.join_spheres(1, 3)

    def test_cycle_complex_validation(self):
        with pytest.raises(ValueError, match=">= 4"):
            sp.cycle_complex([1, 2, 3])
        with pytest.raises(ValueError, match="distinct"):
            sp.cycle_complex([1, 2, 3, 2])

    def test_join_simplex_cycle_4_5(self):
        delta = sp.join_simplex_cycle(4, 5)
        assert len(delta.vertices) == 8
        assert delta.g2() == 1
        assert delta.is_prime()
        assert delta.is_pseudomanifold()

    def test_join_simplex_cycle_missing_faces(self):
        delta = sp.join_simplex_cycle(4, 5)
        # the simplex factor's missing facet plus one chord per non-edge of the cycle
        chords = [f for f in delta.missing_faces() if len(f) == 2]
        assert frozenset({1, 2, 3}) in delta.missing_faces()
        assert len(chords) == 5

    def test_join_simplex_cycle_validation(self):
        with pytest.raises(ValueError):
            sp.join_simplex_cycle(3, 5)
        with pytest.raises(ValueError, match="k = 3"):
            sp.join_simplex_cycle(4, 3)


class TestCyclicPolytope:
    def test_smallest_case_is_the_simplex_boundary(self):
        assert sp.cyclic_polytope_boundary(5, 4) == sp.boundary_simplex(4)

    @pytest.mark.parametrize("n,facets", [(6, 9), (7, 14), (8, 20)])
    def test_facet_counts_dimension_4(self, n, facets):
        assert len(sp.cyclic_polytope_boundary(n, 4).facets) == facets

    def test_dimension_3_facet_count(self):
        # simplicial 3-polytopes have 2n - 4 facets
        assert len(sp.cyclic_polytope_boundary(6, 3).facets) == 8

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_graph_is_complete_in_dimension_4(self, n):
        f = f_vector(sp.cyclic_polytope_boundary(n, 4).facets)
        assert f[2] == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_prime_pseudomanifold(self, n):
        delta = sp.cyclic_polytope_boundary(n, 4)
        assert delta.is_prime()
        assert delta.is_pseudomanifold()

    def test_g2_values(self):
        assert sp.cyclic_polytope_boundary(7, 4).g2() == 3
        assert sp.cyclic_polytope_boundary(8, 4).g2() == 6

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            sp.cyclic_polytope_boundary(4, 4)


class TestStackAndSum:
    def test_stack_over_facet_counts(self):
        delta = sp.cross_polytope(4)
        stacked = sp.stack_over_facet(delta, (1, 3, 5, 7), 9)
        f = f_vector(stacked.facets)
        assert f[1] == 9
        assert len(stacked.facets) == 16 - 1 + 4
        assert stacked.g2() == delta.g2()  # stacking never moves g2

    def test_stack_validation(self):
        delta = sp.cross_polytope(4)
        with pytest.raises(ValueError, match="not a facet"):
            sp.stack_over_facet(delta, (1, 2, 3, 4), 9)
        with pytest.raises(ValueError, match="already in use"):
            sp.stack_over_facet(delta, (1, 3, 5, 7), 8)

    def test_sum_of_simplex_boundaries_is_a_stacking(self):
        s = sp.boundary_simplex(4)
        summed = connected_sum(s.facets, (1, 2, 3, 4), s.facets, (1, 2, 3, 4))
        assert summed == sp.stack_over_facet(s, (1, 2, 3, 4), 6).facets

    def test_sum_freshens_colliding_labels(self):
        delta = sp.cross_polytope(4)
        summed = cross_4_sum()
        assert len(summed.vertices) == 12
        assert summed.is_pseudomanifold()
        assert summed.g2() == 2 * delta.g2()

    def test_sum_with_explicit_matching(self):
        delta = sp.cross_polytope(4)
        matching = {1: 2, 3: 4, 5: 6, 7: 8}
        summed = SimplicialComplex(
            connected_sum(delta.facets, (1, 3, 5, 7), delta.facets, (2, 4, 6, 8), matching)
        )
        assert len(summed.vertices) == 12
        assert not summed.is_prime()

    def test_sum_factors_back_apart(self):
        factors = sp.prime_factors(cross_4_sum())
        assert len(factors) == 2
        assert all(len(f.vertices) == 8 and f.g2() == 2 for f in factors)


class TestFlips:
    def test_link_detector(self):
        assert _is_simplex_boundary(sp.boundary_simplex(2)) == frozenset({1, 2, 3})
        assert _is_simplex_boundary(sp.cross_polytope(2)) is None
        empty = sp.boundary_simplex(3).link((1, 2, 3))
        assert _is_simplex_boundary(empty) == frozenset()

    def test_simplex_boundary_admits_only_stackings(self):
        moves = sp.legal_flips(sp.boundary_simplex(4))
        assert len(moves) == 5
        assert all(kind(m) == (4, 1) for m in moves)
        assert all(m.face_in == frozenset({6}) for m in moves)

    def test_cross_4_flip_census(self):
        moves = sp.legal_flips(sp.cross_polytope(4))
        kinds = sorted(map(kind, moves))
        assert kinds.count((4, 1)) == 16
        assert kinds.count((3, 2)) == 32
        assert len(moves) == 48
        # every (3,2) move pulls in one of the antipodal diagonals
        diagonals = {frozenset({2 * i - 1, 2 * i}) for i in range(1, 5)}
        assert all(m.face_in in diagonals for m in moves if kind(m) == (3, 2))

    def test_enumeration_is_sorted_and_stable(self):
        a = sp.legal_flips(sp.cross_polytope(4))
        b = sp.legal_flips(sp.cross_polytope(4))
        assert a == b
        keys = [(sorted(m.face_out), sorted(m.face_in)) for m in a]
        assert keys == sorted(keys)

    def test_flip_is_an_involution(self):
        delta = sp.cross_polytope(4)
        move = next(m for m in sp.legal_flips(delta) if kind(m) == (3, 2))
        flipped = sp.bistellar_flip(delta, move)
        back = FlipMove(move.face_in, move.face_out)
        assert back in sp.legal_flips(flipped)
        assert sp.bistellar_flip(flipped, back) == delta

    def test_flip_preserves_pseudomanifold_and_euler(self):
        delta = sp.cross_polytope(4)
        move = next(m for m in sp.legal_flips(delta) if kind(m) == (3, 2))
        flipped = sp.bistellar_flip(delta, move)
        assert flipped.is_pseudomanifold()
        f = f_vector(flipped.facets)
        assert f[1] - f[2] + f[3] - f[4] == 0

    def test_stacking_flip_matches_stack_over_facet(self):
        delta = sp.boundary_simplex(4)
        move = FlipMove(frozenset({1, 2, 3, 4}), frozenset({6}))
        assert sp.bistellar_flip(delta, move) == sp.stack_over_facet(delta, (1, 2, 3, 4), 6)

    def test_flip_validation(self):
        delta = sp.boundary_simplex(4)
        with pytest.raises(ValueError, match="not a face"):
            sp.bistellar_flip(delta, FlipMove(frozenset({1, 6}), frozenset({2})))
        with pytest.raises(ValueError, match="already a face"):
            sp.bistellar_flip(delta, FlipMove(frozenset({1, 2}), frozenset({3, 4, 5})))
        with pytest.raises(ValueError, match="fresh"):
            sp.bistellar_flip(delta, FlipMove(frozenset({1, 2, 3, 4}), frozenset({5})))

    def test_impure_complex_rejected(self):
        impure = SimplicialComplex.from_facets([(1, 2, 3), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(ValueError, match="pure"):
            sp.legal_flips(impure)
        with pytest.raises(ValueError, match="pure"):
            sp.random_flip_walk(impure, 3, seed=1)

    def test_flip_requires_simplex_boundary_link(self):
        octa = sp.cross_polytope(3)
        with pytest.raises(ValueError, match="simplex boundary"):
            sp.bistellar_flip(octa, FlipMove(frozenset({1}), frozenset({3, 5})))


class TestRandomWalk:
    def test_walk_is_seed_deterministic(self):
        start = sp.cross_polytope(4)
        a = sp.random_flip_walk(start, 8, seed=5)
        b = sp.random_flip_walk(start, 8, seed=5)
        assert a == b
        assert len(a) == 8

    def test_walk_stays_a_pseudomanifold(self):
        for delta in sp.random_flip_walk(sp.cross_polytope(4), 12, seed=3):
            assert delta.is_pseudomanifold()

    def test_vertex_floor_is_respected(self):
        for delta in sp.random_flip_walk(sp.cross_polytope(4), 25, seed=1):
            assert len(delta.vertices) >= 6
