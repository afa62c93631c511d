import contextlib
import dataclasses
import gc
import hashlib
import re
import time
import weakref
from collections import Counter
from math import comb
from types import SimpleNamespace

import pytest

import spherig as sp
import spherig.certificates
import spherig.rigidity
from spherig.certificates import certify_missing_face_edge, certify_star_rigidity, check
from spherig.graphs import Graph, graph_of
from spherig.harness import (
    DEFAULT_FAMILIES,
    FAIL,
    PASS,
    SKIP,
    FAMILIES,
    CheckRecord,
    CorpusEntry,
    Report,
    SuiteConfig,
    build_corpus,
    face_label,
    flip_walk_corpus,
    run_suite,
    verify,
    verify_contraction_reduction,
    verify_negative_control,
)
from spherig.rigidity import (
    contraction_ranks,
    decide_rigidity,
    derive_seed,
    edge_deletion_ranks,
    random_embedding,
    rigid_verdict_memo,
    rigidity_target,
)

from oracles import (
    brute_prime_factors,
    directions_rank_sum,
    intersection,
    outcomes_under_relabelling,
    rank_mod_p,
    rigidity_rows_mod_p,
    shape_edges,
)


class TestReport:
    def test_machine_line_fields(self):
        rec = CheckRecord("minus_edge", "x4:e=1-3", PASS, rank=22, target=22, seed=99)
        assert rec.machine_line() == "minus_edge\tx4:e=1-3\tpass\t22\t22\t99"

    def test_machine_line_dashes_for_missing_numbers(self):
        rec = CheckRecord("star_rigidity", "x4:s=1", PASS, seed=5)
        assert rec.machine_line().split("\t")[3:5] == ["-", "-"]

    def test_machine_format_is_sorted(self):
        report = Report()
        report.add(CheckRecord("b", "later", PASS))
        report.add(CheckRecord("a", "earlier", PASS))
        lines = report.machine_format().splitlines()
        assert lines == sorted(lines)

    def test_counts_and_ok(self):
        report = Report()
        report.add(CheckRecord("a", "i", PASS))
        report.add(CheckRecord("a", "j", SKIP))
        assert (report.count(PASS), report.count(SKIP), report.count(FAIL)) == (1, 1, 0)
        assert report.ok
        report.add(CheckRecord("a", "k", FAIL))
        assert not report.ok

    def test_human_format_has_total_line(self):
        report = Report()
        report.add(CheckRecord("a", "i", PASS, rank=3, target=3))
        text = report.human_format()
        assert text.endswith("total: 1 pass, 0 fail, 0 skip\n")
        assert text.splitlines()[0].startswith("check")

    def test_human_format_says_why_a_record_skipped(self):
        report = verify("missing_face", CorpusEntry("x5", sp.cross_polytope(5)), seed=5)
        report.add(CheckRecord("minus_edge", "cross-d4:e=1-3", PASS, 22, 22, seed=6))
        header, passed, skipped = report.human_format().splitlines()[:3]
        assert header.split() == ["check", "instance", "verdict", "rank", "target", "seed",
                                  "elapsed", "note"]
        assert skipped.split()[:3] == ["missing_face", "x5:vacuous", "skip"]
        assert skipped.endswith("  no missing faces of dimension 2..d-2")
        assert passed.endswith("0.000")  # no note, no trailing blanks
        assert "no missing faces" not in report.machine_format()

    def test_face_label(self):
        assert face_label((3, 1, 2)) == "1-2-3"
        assert face_label(()) == "empty"


class TestRunner:
    @pytest.mark.parametrize(
        "kind, d",
        [("minus_edge", 3), ("missing_face", 3), ("star_rigidity", 3), ("contraction", 5)],
    )
    def test_a_kind_is_refused_at_a_d_where_it_does_not_apply(self, kind, d):
        with pytest.raises(ValueError, match=f"^{kind} does not apply at d = {d}$"):
            verify(kind, CorpusEntry(f"x{d}", sp.cross_polytope(d)))

    def test_an_unknown_kind_is_refused_with_the_known_kinds(self):
        known = "minus_edge, missing_face, star_rigidity, contraction"
        with pytest.raises(ValueError, match=f"^unknown check kind 'g2_stress'; known: {known}$"):
            verify("g2_stress", CorpusEntry("x4", sp.cross_polytope(4)))


class TestMinusEdge:
    def test_cross_4_all_edges_pass(self):
        report = verify("minus_edge", CorpusEntry("x4", sp.cross_polytope(4)), seed=7)
        assert len(report.records) == 24
        assert report.count(PASS) == 24
        assert all(r.rank == r.target == 22 for r in report.records)

    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_simplex_boundary_falls_one_short_on_every_edge(self, d):
        # K_{d+1} has no stress: every deletion loses its row
        report = verify("minus_edge", CorpusEntry("s", sp.boundary_simplex(d)), seed=7)
        assert len(report.records) == report.count(PASS) == comb(d + 1, 2)
        assert {(r.rank, r.target) for r in report.records} == {(comb(d + 1, 2) - 1,) * 2}

    @pytest.mark.parametrize("d", [4, 5])
    def test_stacked_cross_polytope_falls_short_exactly_at_the_new_vertex(self, d):
        # the new vertex's edges lie in the simplex factor only; the stacked
        # facet's edges lie in the cross-polytope too, which keeps them rigid
        cross = sp.cross_polytope(d)
        new = max(cross.vertices) + 1
        stacked = sp.stack_over_facet(cross, cross.sorted_facets()[0], new)
        report = verify("minus_edge", CorpusEntry("st", stacked), seed=7)
        target = rigidity_target(len(stacked.vertices), d)
        assert report.count(PASS) == len(report.records) == len(graph_of(stacked).edges)
        short = {r.instance for r in report.records if r.target == target - 1}
        assert short == {f"st:e={u}-{new}" for u in cross.sorted_facets()[0]}
        assert all(r.target == target for r in report.records if r.instance not in short)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError, match="minus_edge does not apply at d = 3"):
            verify("minus_edge", CorpusEntry("x3", sp.cross_polytope(3)))

    def test_every_octahedron_deletion_is_flexible_which_is_why_d3_is_rejected(self):
        # a 2-sphere has f1 = 3n - 6, the rigid target in d = 3, so G has no
        # stress and every G - e is flexible, though the octahedron is prime
        # and not a simplex boundary: the rule needs d >= 4
        octahedron = sp.cross_polytope(3)
        graph = graph_of(octahedron)
        target = rigidity_target(len(graph.vertices), 3)
        assert octahedron.is_prime() and len(graph.edges) == target == 12
        assert set(edge_deletion_ranks(graph, 3, seed=7).values()) == {target - 1}

    def test_records_carry_reproducing_seed(self):
        report = verify("minus_edge", CorpusEntry("x4", sp.cross_polytope(4)), seed=3)
        rec = report.records[0]
        a, b = (int(t) for t in rec.instance.split("e=")[1].split("-"))
        graph = graph_of(sp.cross_polytope(4)).remove_edge(a, b)
        again = decide_rigidity(graph, 4, seed=rec.seed)
        assert again.rank == rec.rank


class TestNegativeControl:
    SEED = 20260823

    @pytest.fixture(scope="class")
    def suite(self):
        config = SuiteConfig(families=("negative-control",), dims=(4, 5, 6), seed=self.SEED)
        return {r.instance: r for r in run_suite(config).records if r.check == "minus_edge"}

    @pytest.mark.parametrize(
        "label,d",
        [(label, d) for label in ("simplex", "cross") for d in (4, 5, 6)],
        ids=lambda v: f"d{v}" if isinstance(v, int) else v,
    )
    def test_records_are_the_suites_control_records(self, suite, label, d):
        # one record per edge at the stacked vertex, each one short of the
        # rigid target, and each the suite's record for its entry
        gamma = {"simplex": sp.boundary_simplex, "cross": sp.cross_polytope}[label](d)
        name, new = f"control-{label}-d{d}", max(gamma.vertices) + 1
        report = verify_negative_control(gamma, seed=derive_seed(self.SEED, name), name=name)
        facet = sorted(gamma.sorted_facets()[0])
        assert [r.instance for r in report.records] == [f"{name}:e={u}-{new}" for u in facet]
        assert report.count(PASS) == len(report.records) == d
        for r in report.records:
            assert r.target == rigidity_target(len(gamma.vertices) + 1, d) - 1
            expected = suite[r.instance]
            got = (r.verdict, r.rank, r.target, r.seed)
            assert got == (expected.verdict, expected.rank, expected.target, expected.seed)


class TestMissingFaceLemma:
    def test_join_2_3_sweeps_both_missing_faces(self):
        delta = sp.join_spheres(2, 3)
        report = verify("missing_face", CorpusEntry("j23", delta), seed=4)
        # triangle {1,2,3} has 3 edges, the 4-set {4,5,6,7} has 6
        assert len(report.records) == 9
        assert report.count(PASS) == 9
        names = {r.instance for r in report.records}
        assert "j23:s=1-2-3:e=1-2" in names
        assert "j23:s=4-5-6-7:e=6-7" in names

    def test_no_qualifying_faces_is_a_vacuous_skip(self):
        report = verify("missing_face", CorpusEntry("x5", sp.cross_polytope(5)), seed=4)
        assert [r.verdict for r in report.records] == [SKIP]
        assert report.records[0].instance == "x5:vacuous"
        assert report.records[0].seed == 4

    def test_edge_records_and_certificates_share_one_seed(self, monkeypatch):
        cert_seeds = []

        def spy(cert, seed):
            cert_seeds.append(seed)
            return check(cert, seed)

        monkeypatch.setattr("spherig.harness.check", spy)
        report = verify("missing_face", CorpusEntry("j23", sp.join_spheres(2, 3)), seed=4)
        s = derive_seed(4, "missing-face", "j23")
        assert {r.seed for r in report.records} == {s}
        assert cert_seeds == [s] * len(report.records)

    def test_a_rejected_certificate_fails_its_record_and_its_orbit(self, monkeypatch):
        # the certificate alone decides: no rank stands in for it, and the
        # two checked edges' failures carry over to their orbits
        entry = build_corpus(("joins",), (5,), 0)[0]
        assert entry.name == "join-spheres-2-3"
        monkeypatch.setattr("spherig.harness.check", lambda cert, seed: False)
        report = verify("missing_face", entry, seed=4)
        assert len(report.records) == report.count(FAIL) == 9
        assert sum(not r.note for r in report.records) == 2
        assert {(r.rank, r.target) for r in report.records} == {(None, None)}

    @pytest.mark.parametrize("six_families", [False, True], ids=["default", "six-families"])
    def test_every_passing_edge_is_rigid_in_its_minus_edge_record(
        self, six_families, default_report, default_corpus
    ):
        # the lemma and the engine agree on every G - e the lemma covers:
        # minus_edge ranks that deletion at the rigid target
        seed, checked = 20260823, 0
        corpus, report = default_corpus, default_report
        if six_families:
            corpus = build_corpus(FAMILIES, (4, 5, 6), seed)
            report = run_suite(SuiteConfig(families=FAMILIES, seed=seed))
        targets = {e.name: rigidity_target(len(e.complex.vertices), e.d) for e in corpus}
        engine = {r.instance: r for r in report.records if r.check == "minus_edge"}
        for record in report.records:
            if record.check == "missing_face" and record.verdict == PASS:
                name, _, edge = record.instance.split(":")
                ranked = engine[f"{name}:{edge}"]
                rigid = (PASS, targets[name], targets[name])
                assert (ranked.verdict, ranked.rank, ranked.target) == rigid, record.instance
                checked += 1
        assert checked == 313


class TestContraction:
    def test_qualifying_edge_of_cross_4(self):
        report = verify_contraction_reduction(sp.cross_polytope(4), (1, 3), seed=2, name="x4")
        assert [r.verdict for r in report.records] == [PASS, PASS]
        degenerate, generic = report.records
        assert degenerate.instance.endswith(":degenerate")
        assert generic.instance.endswith(":generic")
        assert generic.rank == generic.target  # 22 == 18 + 4
        assert generic.rank == 22

    def test_small_link_skips(self):
        delta = sp.join_simplex_cycle(4, 5)
        report = verify_contraction_reduction(delta, (4, 5), name="jc45")
        assert [r.verdict for r in report.records] == [SKIP]
        assert "link has < 4" in report.records[0].note

    def test_link_intersection_mismatch_skips(self):
        # two tetrahedra glued over a square ring: link(a) and link(b) share
        # more than link(ab) when the edge sits in a pinched position
        delta = sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9)
        report = verify_contraction_reduction(delta, (1, 3), name="st")
        verdicts = {r.verdict for r in report.records}
        assert verdicts <= {PASS, SKIP}

    def test_edge_census_of_join_cycle(self):
        delta = sp.join_simplex_cycle(4, 5)
        reports = [
            verify_contraction_reduction(delta, e, seed=6, name="jc45")
            for e in graph_of(delta).sorted_edges()
        ]
        notes = [r.records[0].note for r in reports if r.records[0].verdict == SKIP]
        passes = sum(r.count(PASS) for r in reports)
        # 5 cycle edges have 3-vertex links; the 3 triangle edges fail the
        # link-intersection condition (vertex 3 neighbours both endpoints of
        # {1,2} but {1,2,3} is missing); the 15 mixed edges qualify
        assert sum("< 4" in n for n in notes) == 5
        assert sum("intersection" in n for n in notes) == 3
        assert passes == 2 * 15
        assert all(r.count(FAIL) == 0 for r in reports)
        # one edge's records are that edge's records of the whole graph
        lines: dict[str, list[str]] = {}
        for r in verify("contraction", CorpusEntry("jc45", delta), seed=6).records:
            lines.setdefault(r.instance.split(":")[1], []).append(r.machine_line())
        assert [[r.machine_line() for r in report.records] for report in reports] == [
            lines.pop(f"e={a}-{b}") for a, b in graph_of(delta).sorted_edges()
        ]
        assert not lines

    def test_each_contraction_record_is_timed_on_its_own(self, monkeypatch):
        # a clock that ticks once per rank call: the degenerate record reads
        # its one contraction_ranks, the generic record its two decisions
        ticks = [0]

        def ticking(real):
            def call(*args, **kwargs):
                ticks[0] += 1
                return real(*args, **kwargs)

            return call

        clock = SimpleNamespace(perf_counter=lambda: ticks[0])
        monkeypatch.setattr(spherig.harness, "time", clock)
        for name in ("contraction_ranks", "decide_rigidity"):
            monkeypatch.setattr(spherig.harness, name, ticking(getattr(spherig.harness, name)))
        report = verify("contraction", CorpusEntry("x4", sp.cross_polytope(4)), seed=3)
        assert len(report.records) == 2 * 24
        assert {(r.instance.rsplit(":", 1)[1], r.elapsed) for r in report.records} == {
            ("degenerate", 1),
            ("generic", 2),
        }

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="contraction does not apply at d = 5"):
            verify_contraction_reduction(sp.cross_polytope(5), (1, 3))

    @pytest.mark.parametrize("e", [(1, 2), (1, 1), (1, 3, 5)])
    def test_what_is_not_an_edge_is_rejected_by_name(self, e):
        with pytest.raises(ValueError, match=re.escape(f"{e} is not an edge")):
            verify_contraction_reduction(sp.cross_polytope(4), e)

    def test_merged_elimination_equals_two_matrices_on_the_d4_corpus(
        self, default_corpus, monkeypatch
    ):
        # every edge, qualifying or not, at its own seeded degenerate point.
        # G - ab's matrix is reduced exactly where its first rows fall short
        # of its peeling bound at that point, and G/ab is ranked only where
        # the rank of G - ab falls short of its rigidity target
        reduced, ranked = [], []
        real_reduced, real_peel = spherig.rigidity._reduced_rows, spherig.rigidity._peel
        monkeypatch.setattr(
            spherig.rigidity,
            "_reduced_rows",
            lambda order, *args: reduced.append({v for v, _ in order[1]})
            or real_reduced(order, *args),
        )
        monkeypatch.setattr(
            spherig.rigidity, "_peel", lambda g, d: ranked.append(g) or real_peel(g, d)
        )
        seed, checked, reordered, settled, eliminated = 20260823, 0, 0, 0, 0
        for entry in (e for e in default_corpus if e.d == 4):
            graph = graph_of(entry.complex)
            for a, b in graph.sorted_edges():
                g_minus = graph.remove_edge(a, b)
                point_seed = derive_seed(seed, entry.name, a, b)
                coords = degenerate_point(g_minus, a, b, point_seed)
                peel = real_peel(g_minus, 4)
                attached, firsts = spherig.rigidity._attach_order(peel, 4)
                short = directions_rank_sum(coords, firsts) < spherig.rigidity._rank_bound(peel, 4)
                reduced.clear()
                ranked.clear()
                merged = contraction_ranks(g_minus, a, b, 4, point_seed)
                assert merged == two_matrix_ranks(entry.complex, a, b, coords), (entry.name, a, b)
                checked += 1
                reordered += attached != g_minus.sorted_edges()
                below = merged[0] < rigidity_target(len(g_minus.vertices), 4)
                assert ranked[0] == g_minus and len(ranked) == 1 + below, (entry.name, a, b)
                assert [b in placed for placed in reduced] == [True] * short, (entry.name, a, b)
                settled += not below
                eliminated += short
        # every G - ab is read in an attach order other than sorted order;
        # 289 of the 309 reach their target, so G/ab is ranked on 20, each
        # from its first rows; 60 reduce G - ab
        assert (checked, reordered, settled, eliminated) == (309, 309, 289, 60)

    def test_contracted_graph_equals_the_contracted_complexs_graph(self):
        # on every edge of every family at d = 4, negative controls included
        checked = 0
        for entry in build_corpus(FAMILIES, (4,), 20260823):
            delta, graph = entry.complex, graph_of(entry.complex)
            new = max(delta.vertices) + 1
            for a, b in graph.sorted_edges():
                contracted = graph_of(delta.contract_edge((a, b), new))
                assert graph.contract_edge(a, b, new) == contracted, (entry.name, a, b)
                checked += 1
        assert checked == 351

    def test_every_contraction_record_of_the_d4_suite_replays(self, default_corpus):
        config = SuiteConfig(dims=(4,), seed=20260823)
        corpus = {e.name: e for e in default_corpus if e.d == 4}
        lines = [
            line
            for line in run_suite(config).machine_format().splitlines()
            if line.startswith("contraction\t")
        ]
        assert len(lines) == 488
        for line in lines:
            assert replay(line, corpus) == line

    def test_the_kind_reads_d_from_its_entry(self):
        # the runner refuses contraction above d = 4, so the kind is called
        # directly: at d = 5 and 6 each qualifying edge's G - e is rigid, and
        # so is G/ab, in the entry's own d
        verdicts = Counter()
        for entry in build_corpus(FAMILIES, (5, 6), 20260823):
            target = rigidity_target(len(entry.complex.vertices), entry.d)
            for r in spherig.harness._contractions(entry, derive_seed(20260823, entry.name)):
                verdicts[r.verdict] += 1
                assert r.verdict == SKIP or (r.verdict == PASS and r.rank == r.target == target), r
        assert verdicts == {PASS: 798, SKIP: 298}


class TestStarAndStress:
    def test_star_rigidity_cross_5(self):
        report = verify("star_rigidity", CorpusEntry("x5", sp.cross_polytope(5)), seed=8)
        # empty face + 10 vertices + 40 edges
        assert len(report.records) == 51
        assert report.count(PASS) == 51

    def test_g2_stress_values(self):
        for delta, d, g2 in (
            (sp.cross_polytope(4), 4, 2),
            (sp.join_spheres(2, 2), 4, 1),
            (sp.boundary_simplex(5), 5, 0),
        ):
            assert delta.g2() == g2
            assert decide_rigidity(graph_of(delta), d, seed=3).stress_dim == g2


class TestSymmetryOrbits:
    def test_every_familys_symmetries_are_automorphisms(self):
        # each entry checks its maps when it is made; the test checks them again
        corpus = build_corpus(FAMILIES, range(4, 9), 20260823)
        for entry in corpus:
            vertices, facets = entry.complex.vertices, entry.complex.facets
            for g in entry.symmetries:
                image = {frozenset(g.get(v, v) for v in f) for f in facets}
                assert g.keys() <= vertices and image == facets, (entry.name, g)
        assert all(bool(e.symmetries) != e.name.startswith("flip-walk-") for e in corpus)

    @pytest.mark.parametrize(
        "g", [{1: 2, 2: 1}, {1: 2}, {1: 8, 8: 1}, {8: 9, 9: 8}], ids=str
    )
    def test_a_map_that_is_not_an_automorphism_is_rejected_by_entry_name(self, g):
        # a transposition, a map onto fewer vertices, a map off the complex,
        # and a map of labels the complex does not have
        delta = sp.cyclic_polytope_boundary(7, 5)
        with pytest.raises(ValueError, match="cyclic-7-5: .* is not an automorphism"):
            CorpusEntry("cyclic-7-5", delta, (g,))

    @pytest.mark.parametrize(
        "dims, records, checks", [((4, 5, 6), 1523, 216), ((7, 8), 13574, 614)]
    )
    def test_default_families_check_one_star_per_orbit(self, monkeypatch, dims, records, checks):
        certified = []
        real = spherig.harness.certify_star_rigidity

        def spy(delta, face):
            certified.append(face)
            return real(delta, face)

        monkeypatch.setattr(spherig.harness, "certify_star_rigidity", spy)
        report = Report()
        for entry in build_corpus(DEFAULT_FAMILIES, dims, 20260823):
            with rigid_verdict_memo():
                report.extend(verify("star_rigidity", entry))
        assert report.ok
        assert (len(report.records), len(certified)) == (records, checks)
        assert sum(r.note == "" for r in report.records) == checks

    def test_transferred_records_of_the_default_corpus_replay(self, default_corpus):
        corpus = {e.name: e for e in default_corpus}
        transferred = 0
        for entry in default_corpus:
            report = verify("star_rigidity", entry, seed=derive_seed(20260823, entry.name))
            for record in report.records:
                if record.note:
                    transferred += 1
                    line = record.machine_line()
                    assert replay(line, corpus) == line
        assert transferred == 1523 - 216

    def test_a_transferred_record_takes_its_first_faces_verdict_and_names_it(
        self, monkeypatch
    ):
        # under the reflection of C(7, 5) the vertices pair up as 1~7, 2~6,
        # 3~5 and 4~4; a fail at 3 is 5's verdict too, not 4's, the face
        # checked last
        entry = build_corpus(("cyclic",), (5,), 0)[0]
        assert entry.name == "cyclic-7-5"
        monkeypatch.setattr(spherig.harness, "certify_star_rigidity", lambda delta, face: face)
        monkeypatch.setattr(spherig.harness, "check", lambda face, seed: face != {3})
        report = verify("star_rigidity", entry)
        verdicts = {r.instance: (r.verdict, r.note) for r in report.records}
        assert verdicts["cyclic-7-5:s=3"] == (FAIL, "")
        assert verdicts["cyclic-7-5:s=4"] == (PASS, "")
        assert verdicts["cyclic-7-5:s=5"] == (FAIL, "same orbit as s=3")
        assert verdicts["cyclic-7-5:s=6"] == (PASS, "same orbit as s=2")
        assert {r.instance for r in report.records if r.verdict == FAIL} == {
            "cyclic-7-5:s=3",
            "cyclic-7-5:s=5",
        }

    def test_records_keep_their_own_seeds(self):
        entry = build_corpus(("cross-polytope",), (5,), 0)[0]
        report = verify("star_rigidity", entry, seed=8)
        plain = verify("star_rigidity", CorpusEntry(entry.name, entry.complex), seed=8)
        assert report.machine_format() == plain.machine_format()
        # the empty face, one vertex and one edge: B_5 moves any vertex or
        # edge to any other
        assert [r.instance for r in report.records if not r.note] == [
            "cross-d5:s=empty", "cross-d5:s=1", "cross-d5:s=1-3"
        ]
        assert {r.note for r in plain.records} == {""}

    def test_flip_walks_transfer_nothing(self):
        config = SuiteConfig(families=("flip-walks",), dims=(4,), seed=20260823)
        report = run_suite(config)
        entries = {r.instance.split(":")[0] for r in report.records}
        assert entries == {f"flip-walk-{i}" for i in range(6)}
        assert {r.check for r in report.records} == {
            "minus_edge", "missing_face", "star_rigidity", "contraction"
        }
        assert not any(r.note.startswith("same orbit") for r in report.records)

    @pytest.mark.parametrize(
        "family, g",
        [("simplex", {1: 5, 5: 1}), ("cross", {1: 2, 2: 1}), ("cross", {1: 9, 9: 1})],
        ids=str,
    )
    def test_a_wrong_generator_on_a_control_is_rejected_by_entry_name(self, family, g):
        # each moves the stacked facet: a vertex off it onto it, a flip of
        # the first antipodal pair, the stacked vertex onto a vertex of it
        entry = next(
            e for e in build_corpus(("negative-control",), (4,), 0) if family in e.name
        )
        with pytest.raises(ValueError, match=f"{entry.name}: .* is not an automorphism"):
            CorpusEntry(entry.name, entry.complex, (*entry.symmetries, g))

    def test_an_entry_with_a_bad_map_cannot_be_made_where_no_kind_maps_an_instance(self):
        # a control has no missing face of dimension 2..d-2 and, at d = 5,
        # no contraction check; minus_edge maps no instance anywhere.  The map
        # is rejected before any kind runs
        entry = build_corpus(("negative-control",), (5,), 0)[0]
        with pytest.raises(ValueError, match=f"{entry.name}: .* is not an automorphism"):
            CorpusEntry(entry.name, entry.complex, ({1: 6, 6: 1},))
        assert verify("missing_face", entry).records[0].verdict == SKIP

    def test_an_entry_is_frozen(self):
        entry = build_corpus(("simplex",), (4,), 0)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.symmetries = ({1: 2, 2: 1, 3: 4},)

    def test_default_pass_checks_one_missing_face_edge_and_one_contraction_edge_per_orbit(
        self, monkeypatch
    ):
        # 313 missing-face certificates from 130 checks; 179 qualifying
        # contraction edges (two records each) from 93 checks
        certified, contracted = [], []
        real_certify = spherig.harness.certify_missing_face_edge
        real_contract = spherig.harness.contraction_ranks

        def certify(delta, sigma, edge):
            certified.append((sigma, edge))
            return real_certify(delta, sigma, edge)

        def contract(graph, a, b, d, seed):
            contracted.append((a, b))
            return real_contract(graph, a, b, d, seed)

        monkeypatch.setattr(spherig.harness, "certify_missing_face_edge", certify)
        monkeypatch.setattr(spherig.harness, "contraction_ranks", contract)
        report = run_suite(SuiteConfig(seed=20260823))
        assert report.ok
        faces = [r for r in report.records if r.check == "missing_face" and r.verdict != SKIP]
        edges = [r for r in report.records if r.instance.endswith(":degenerate")]
        assert (len(faces), len(certified)) == (313, 130)
        assert (len(edges), len(contracted)) == (179, 93)
        assert sum(not r.note for r in faces) == 130
        assert sum(not r.note for r in edges) == 93

    def test_transferred_missing_face_and_contraction_records_replay(
        self, default_report, default_corpus
    ):
        # at the record's own seed: the suite's seed scheme, not the seed of
        # the instance whose verdict it took
        seed = 20260823
        corpus = {e.name: e for e in default_corpus}
        transferred = {"missing_face": 0, "contraction": 0}
        for record in default_report.records:
            if record.check in transferred and record.note.startswith("same orbit as "):
                transferred[record.check] += 1
                line = record.machine_line()
                assert replay(line, corpus) == line
                assert record.seed == scheme_seed(record.check, record.instance, seed)
        assert transferred == {"missing_face": 313 - 130, "contraction": 2 * (179 - 93)}

    def test_only_a_skip_carries_a_note_of_its_own(self, default_report):
        # a checked pass or fail has no note, so a transferred one's note is
        # exactly the name of the record it took its verdict from
        reasons = {
            "no missing faces of dimension 2..d-2",
            "link has < 4 vertices",
            "link(e) != link(a) * link(b) intersection",
        }
        records = default_report.records
        checked = {(r.check, r.instance) for r in records if r.verdict != SKIP and not r.note}
        transferred = skips = 0
        for r in records:
            if r.verdict == SKIP:
                skips += 1
                assert r.note in reasons, r
            elif r.note:
                transferred += 1
                label = r.note.removeprefix("same orbit as ")
                suffix = re.search(r"(:degenerate|:generic)?$", r.instance).group()
                first = f"{r.instance.split(':')[0]}:{label}{suffix}"
                assert r.note != label and (r.check, first) in checked, r
        assert (len(checked), transferred, skips) == (1380, 1662, 136)

    def test_a_transferred_contraction_names_its_first_edge_and_keeps_its_skips(self):
        # cross-d4: every edge joins two of the four antipodal pairs, and the
        # signed pair permutations move any edge onto 1-3
        entry = build_corpus(("cross-polytope",), (4,), 0)[0]
        report = verify("contraction", entry, seed=5)
        plain = verify("contraction", CorpusEntry(entry.name, entry.complex), seed=5)
        assert report.machine_format() == plain.machine_format()
        assert [r.instance for r in report.records if not r.note] == [
            "cross-d4:e=1-3:degenerate", "cross-d4:e=1-3:generic"
        ]
        assert {r.note for r in report.records} == {"", "same orbit as e=1-3"}
        # join-cycle-d4-k5: the cycle edges' links are too small, and each
        # of their skips keeps the entry's seed and its own note
        entry = build_corpus(("joins",), (4,), 0)[-2]
        assert entry.name == "join-cycle-d4-k5"
        report = verify("contraction", entry, seed=5)
        skips = [r for r in report.records if r.verdict == SKIP]
        assert len(skips) == 8
        assert {r.seed for r in skips} == {5}
        assert sum("< 4" in r.note for r in skips) == 5
        assert sum("intersection" in r.note for r in skips) == 3


class TestRelabelling:
    def test_a_relabelled_corpus_gets_the_same_verdict_rank_and_target(self, monkeypatch):
        # Relabelling moves every label-dependent choice: each point, each
        # star and contraction seed, each orbit's checked instance, each
        # memo key and the missing facet prime_factors cuts along.  Generic
        # rank does not move, so every mapped instance keeps its verdict,
        # rank and target.  Dims 7..8 run in CI through the same helpers.
        config = SuiteConfig(families=FAMILIES, seed=20260823)
        corpus = build_corpus(config.families, config.dims, config.seed)

        def run(entries):  # run_suite over the given entries, in its own memo
            monkeypatch.setattr(spherig.harness, "build_corpus", lambda *_: list(entries))
            return run_suite(config).records

        start = time.perf_counter()
        original, copy = outcomes_under_relabelling(corpus, 1, run)
        elapsed = time.perf_counter() - start
        assert len(original) == 3887
        assert copy == original
        assert elapsed < 1


class TestCorpus:
    def test_flip_walk_corpus_is_deterministic_and_prime(self):
        a = flip_walk_corpus(seed=5, count=4)
        b = flip_walk_corpus(seed=5, count=4)
        assert a == b
        assert len(a) == 4
        for delta in a:
            assert delta.is_prime()
            assert delta.g2() > 0
            assert len(delta.vertices) <= 11
        assert len({delta.facets for delta in a}) == 4

    def test_flip_walk_corpus_keeps_each_sphere_once(self):
        # the walks at this seed revisit spheres: kept again, the 40 would be 35 distinct
        spheres = flip_walk_corpus(20260823, count=40)
        assert len({delta.facets for delta in spheres}) == len(spheres) == 40

    def test_build_corpus_families_and_dims(self):
        entries = build_corpus(("simplex", "cross-polytope"), (4, 5), seed=0)
        names = [e.name for e in entries]
        assert names == ["simplex-d4", "simplex-d5", "cross-d4", "cross-d5"]
        assert [e.d for e in entries] == [4, 5, 4, 5]

    def test_negative_controls_are_entries_of_their_own_family(self):
        entries = build_corpus(("negative-control", "simplex"), (4, 5), seed=0)
        assert [e.name for e in entries] == [
            "control-simplex-d4",
            "control-cross-d4",
            "control-simplex-d5",
            "control-cross-d5",
            "simplex-d4",
            "simplex-d5",
        ]
        # the first facet of cross_polytope(4) is {1, 3, 5, 7}
        assert entries[1].complex == sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9)

    def test_build_corpus_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_corpus(("simplex", "moebius"), (4,), seed=0)


class TestSuiteConfig:
    def test_defaults(self):
        config = SuiteConfig()
        assert config.dims == (4, 5, 6)
        assert "negative-control" not in config.families

    def test_parse_range_and_overrides(self):
        config = SuiteConfig.from_text(
            "# comment\nfamilies = simplex, cyclic\ndims = 4..6\nseed = 9\n"
        )
        assert config.families == ("simplex", "cyclic")
        assert config.dims == (4, 5, 6)
        assert config.seed == 9

    def test_parse_dim_list(self):
        config = SuiteConfig.from_text("dims = 4, 6\n")
        assert config.dims == (4, 6)

    def test_long_dims_range_parses_in_linear_time(self):
        # one repeat count over all the dims, not one scan per value
        start = time.perf_counter()
        config = SuiteConfig.from_text("dims = 4..20000\n")
        assert time.perf_counter() - start < 1
        assert config.dims == tuple(range(4, 20001))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            SuiteConfig.from_text("depth = 3\n")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            SuiteConfig.from_text("families = spheres\n")

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            SuiteConfig.from_text("dims = 3\n")

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SuiteConfig().seed = 1


@pytest.fixture(scope="module")
def small_config():
    return SuiteConfig(families=("cross-polytope", "negative-control"), dims=(4,), seed=13)


class TestRunSuite:

    def test_suite_passes_and_counts_add_up(self, small_config, default_report):
        # on the small corpus and the default one, each entry's graph G is
        # decided d-rigid by one record: the star record of its empty face
        for config, report, size in (
            (small_config, run_suite(small_config), 3),
            (SuiteConfig(seed=20260823), default_report, 31),
        ):
            assert report.ok
            total = report.count(PASS) + report.count(FAIL) + report.count(SKIP)
            assert total == len(report.records)
            checks = {r.check for r in report.records}
            assert checks == {"minus_edge", "missing_face", "star_rigidity", "contraction"}
            names = [e.name for e in build_corpus(config.families, config.dims, config.seed)]
            assert len(names) == size
            whole = sorted(
                (r.instance, r.verdict)
                for r in report.records
                if r.check == "star_rigidity" and r.instance.endswith(":s=empty")
            )
            assert whole == sorted((f"{name}:s=empty", PASS) for name in names)

    def test_suite_is_deterministic(self, small_config):
        assert run_suite(small_config).machine_format() == run_suite(
            small_config
        ).machine_format()

    def test_seed_changes_the_report(self, small_config):
        other = SuiteConfig(families=small_config.families, dims=(4,), seed=14)
        assert run_suite(other).machine_format() != run_suite(small_config).machine_format()

    def test_every_record_replays_from_its_machine_line(self, small_config):
        report = run_suite(small_config)
        corpus = {
            e.name: e
            for e in build_corpus(small_config.families, small_config.dims, small_config.seed)
        }
        for line in report.machine_format().splitlines():
            assert replay(line, corpus) == line
            kind, instance, *_, seed = line.split("\t")
            assert int(seed) == scheme_seed(kind, instance, small_config.seed)

    def test_one_memo_per_run_and_none_outlives_the_suite(self, small_config, monkeypatch):
        kept = []
        real = spherig.rigidity.rigid_verdict_memo

        @contextlib.contextmanager
        def spy():
            with real() as memo:
                kept.append(memo)
                yield memo

        monkeypatch.setattr("spherig.harness.rigid_verdict_memo", spy)
        run_suite(small_config)
        assert spherig.rigidity._known_rigid.get() is None
        assert len(kept) == 1
        # the memo held rigid shapes only, each decoded back into a graph and
        # decided afresh
        (memo,) = kept
        assert memo and all(
            decide_rigidity(Graph(range(n), shape_edges(n, mask)), d, seed=1).is_rigid
            for d, n, mask in memo
        )

    def test_a_shape_recorded_in_one_entry_answers_a_later_one(self, small_config, monkeypatch):
        # a decision whose shape an earlier entry recorded is answered from
        # the memo: the link graph of a vertex of cross-d4 (an octahedron,
        # decided at d = 3 for its star certificate) is, away from the
        # stacked facet, the same labelled graph in control-cross-d4
        earlier: list[frozenset] = []  # the shapes recorded before each entry
        answered = []  # the entries with a decision answered from them
        check, shape = spherig.harness.verify, spherig.rigidity._shape

        def first_check(kind, entry, **options):
            if kind == "minus_edge":
                earlier.append(frozenset(spherig.rigidity._known_rigid.get()))
            return check(kind, entry, **options)

        def shape_spy(graph, d):
            key = shape(graph, d)
            if key in earlier[-1]:
                answered.append(len(earlier) - 1)
            return key

        monkeypatch.setattr(spherig.harness, "verify", first_check)
        monkeypatch.setattr(spherig.rigidity, "_shape", shape_spy)
        assert run_suite(small_config).ok
        assert len(earlier) == 3 and earlier[0] == frozenset()
        assert answered == [2]

    def test_each_entry_is_released_after_its_checks(self, monkeypatch):
        # no complex, with its face index, graph and missing faces, outlives
        # its entry's checks: when an entry's star check starts, every earlier
        # entry's complex is gone
        refs, alive = [], []
        real = spherig.harness.verify

        def spy(kind, entry, **options):
            if kind == "star_rigidity":
                gc.collect()
                alive.append(sum(ref() is not None for ref in refs))
                refs.append(weakref.ref(entry.complex))
            return real(kind, entry, **options)

        monkeypatch.setattr("spherig.harness.verify", spy)
        assert run_suite(SuiteConfig(seed=20260823)).ok
        assert alive == [0] * 31

    def test_machine_report_digest_is_pinned(self):
        # Every family at d = 4: 1,165 records of the four check kinds.  A
        # change that alters the report's bytes on purpose updates the digest
        # and says why.
        config = SuiteConfig(families=FAMILIES, dims=(4,), seed=20260823)
        report = run_suite(config).machine_format()
        assert len(report.splitlines()) == 1165
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "3a553625d4bc54b080bff031bac449c841c5e3ca64132a25b785fbabfbd7381f"
        )

    def test_default_suite_reduces_only_where_the_first_rows_fall_short(self, monkeypatch):
        # a graph's rows are reduced through its first rows only where those
        # fall short: at a degenerate contraction point, below the rigidity
        # target of G - ab; in a decision, below its peeling bound; and in
        # each edge_deletion_ranks.  None for a graph whose shape the run's
        # memo recorded, in this entry or an earlier one; none for the edge
        # deletions of a graph on at most d + 1 vertices; and none for a
        # star, a missing-face edge or a contraction edge whose orbit's
        # first instance was checked.  Rows are reduced as the residual
        # elimination reads them, so the rows back-substituted are also the
        # residual rows eliminated: one that no longer stops at its bound,
        # or reads its rows out of attach order, reads more of them.  The
        # steps count the blocks whose first rows a row takes, O(d^2) each
        graphs = rows = steps = 0
        real = spherig.rigidity._reduced_rows

        def counted(order, phi, d):
            nonlocal graphs
            graphs += 1
            count, ncols, reduced = real(order, phi, d)

            def reading():
                nonlocal rows, steps
                for row in reduced:
                    rows += 1
                    steps += len(row[2])
                    yield row

            return count, ncols, reading()

        monkeypatch.setattr(spherig.rigidity, "_reduced_rows", counted)
        assert run_suite(SuiteConfig(seed=20260823)).ok
        assert (graphs, rows, steps) == (52, 87, 557)

    def test_every_certificate_leaf_in_the_entrys_dimension_draws_no_point(self, monkeypatch):
        # G is proved d-rigid once per entry: a missing-face certificate's
        # second child is the empty-face star certificate, a leaf on G,
        # whose shape minus_edge recorded.  So every certificate leaf in the
        # entry's own d is a memo hit or has at most d + 1 vertices; only
        # link graphs, in lower dimensions, and the engine kinds draw points
        points, entry_d, leaves = 0, 0, []  # leaves: whether each drew a point
        verify, embedding = spherig.harness.verify, spherig.rigidity.random_embedding
        decide = spherig.certificates.decide_rigidity

        def verify_spy(kind, entry, **options):
            nonlocal entry_d
            entry_d = entry.d
            return verify(kind, entry, **options)

        def embedding_spy(graph, d, seed):
            nonlocal points
            points += 1
            return embedding(graph, d, seed)

        def leaf_spy(graph, d, **options):
            before = points
            verdict = decide(graph, d, **options)
            if d == entry_d:
                leaves.append(points > before)
            return verdict

        monkeypatch.setattr(spherig.harness, "verify", verify_spy)
        monkeypatch.setattr(spherig.rigidity, "random_embedding", embedding_spy)
        monkeypatch.setattr(spherig.certificates, "decide_rigidity", leaf_spy)
        assert run_suite(SuiteConfig(seed=20260823)).ok
        assert (len(leaves), leaves.count(True)) == (161, 0)
        assert points == 194

    def test_empty_report_is_rejected(self):
        config = SuiteConfig(families=("flip-walks",), dims=(5,), seed=1)
        with pytest.raises(ValueError, match="report would be empty"):
            run_suite(config)

    def test_missing_face_edge_records_replay(self):
        entry = CorpusEntry("j23", sp.join_spheres(2, 3))
        report = verify("missing_face", entry, seed=4)
        assert {r.note for r in report.records} == {""}
        for line in report.machine_format().splitlines():
            assert replay(line, {"j23": entry}) == line


SEED_LABELS = {
    "minus_edge": "minus-edge",
    "missing_face": "missing-face",
    "star_rigidity": "star",
    "contraction": "contraction",
}


def scheme_seed(kind: str, instance: str, suite_seed: int) -> int:
    """The sub-seed run_suite derives for a record from the suite seed."""
    name, *parts = instance.split(":")
    base = derive_seed(suite_seed, name)
    fields = dict(part.split("=") for part in parts if "=" in part)
    keys = ([fields["s"]] if "s" in fields else []) + (
        fields["e"].split("-") if "e" in fields else []
    )
    # skip and vacuous records carry the entry's seed
    if not keys or (kind == "contraction" and len(parts) == 1):
        return base
    # the edge records of one graph share the graph's seed
    if kind in ("minus_edge", "missing_face"):
        keys = []
    return derive_seed(base, SEED_LABELS[kind], name, *keys)


def replay(line: str, corpus: dict[str, CorpusEntry]) -> str:
    """Recompute a machine line from its check, instance and seed fields.

    Uses only the corpus, the public API and the prime-factor oracle,
    following the per-kind recipe in the README.
    """
    kind, instance, _, _, _, seed_text = line.split("\t")
    seed = int(seed_text)
    name, *parts = instance.split(":")
    fields = dict(part.split("=") for part in parts if "=" in part)

    def pair(text: str) -> tuple[int, int]:
        a, b = text.split("-")
        return int(a), int(b)

    def face(label: str) -> tuple[int, ...]:
        return () if label == "empty" else tuple(int(v) for v in label.split("-"))

    def ranked(rank: int, target: int) -> str:
        verdict = PASS if rank == target else FAIL
        return "\t".join([kind, instance, verdict, str(rank), str(target), seed_text])

    def plain(verdict: str) -> str:
        return "\t".join([kind, instance, verdict, "-", "-", seed_text])

    delta, d = corpus[name].complex, corpus[name].d
    graph = graph_of(delta)
    target = rigidity_target(len(graph.vertices), d)
    if kind == "star_rigidity":
        ok = check(certify_star_rigidity(delta, face(fields["s"])), seed)
        return plain(PASS if ok else FAIL)
    if kind == "minus_edge":
        edge = pair(fields["e"])
        rank = decide_rigidity(graph.remove_edge(*edge), d, seed=seed).rank
        holding = [f for f in brute_prime_factors(delta.facets, d) if set(edge) <= set().union(*f)]
        flexible = all(len(set().union(*f)) == d + 1 for f in holding)
        return ranked(rank, target - flexible)
    if kind == "missing_face":
        if parts == ["vacuous"]:
            qualifying = [f for f in delta.missing_faces() if 3 <= len(f) <= d - 1]
            return plain(FAIL if qualifying else SKIP)
        ok = check(certify_missing_face_edge(delta, face(fields["s"]), pair(fields["e"])), seed)
        return plain(PASS if ok else FAIL)
    assert kind == "contraction"
    a, b = pair(fields["e"])
    link = delta.link((a, b))
    if len(parts) == 1:
        qualifies = len(link.vertices) >= 4 and intersection(
            delta.link([a]).facets, delta.link([b]).facets
        ) == link.facets
        return plain(FAIL if qualifies else SKIP)
    g_minus = graph.remove_edge(a, b)
    if parts[-1] == "generic":
        g_down = graph_of(delta.contract_edge((a, b), max(delta.vertices) + 1))
        lhs = decide_rigidity(g_minus, 4, seed=derive_seed(seed, "generic-minus")).rank
        rhs = decide_rigidity(g_down, 4, seed=derive_seed(seed, "generic-down")).rank
        return ranked(lhs, rhs + 4)
    coords = degenerate_point(g_minus, a, b, derive_seed(seed, "degenerate"))
    lhs, rhs = two_matrix_ranks(delta, a, b, coords)
    return ranked(lhs, rhs + 4)


def degenerate_point(g_minus: Graph, a: int, b: int, seed: int) -> dict:
    """The coordinates of random_embedding(g_minus, 4, seed) with b moved onto a."""
    coords = random_embedding(g_minus, 4, seed)
    coords[b] = coords[a]
    return coords


def two_matrix_ranks(delta, a: int, b: int, coords: dict) -> tuple[int, int]:
    """The ranks of R(G - ab) at coords and of R(G/ab) with the merged vertex
    m = max vertex + 1 at a's point, from two matrices: the oracle for
    contraction_ranks."""
    m = max(delta.vertices) + 1
    g_down = graph_of(delta.contract_edge((a, b), m))
    down = {v: coords[v] for v in g_down.vertices if v != m}
    down[m] = coords[a]
    g_minus = graph_of(delta).remove_edge(a, b)
    return (
        rank_mod_p(rigidity_rows_mod_p(g_minus, coords, 4)),
        rank_mod_p(rigidity_rows_mod_p(g_down, down, 4)),
    )
