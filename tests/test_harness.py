import contextlib
import dataclasses
import hashlib

import pytest

import spherig as sp
import spherig.rigidity
from spherig.certificates import certify_missing_face_edge, certify_star_rigidity, check
from spherig.graphs import Graph, graph_of
from spherig.harness import (
    FAIL,
    PASS,
    SKIP,
    DEFAULT_FAMILIES,
    FAMILIES,
    CheckRecord,
    CorpusEntry,
    Report,
    SuiteConfig,
    build_corpus,
    face_label,
    flip_walk_corpus,
    run_suite,
    verify_contraction_reduction,
    verify_g2_stress,
    verify_minus_edge,
    verify_missing_face_lemma,
    verify_negative_control,
    verify_star_rigidity,
)
from spherig.rigidity import (
    DEFAULT_TRIALS,
    Embedding,
    RigidityMatrix,
    decide_rigidity,
    derive_seed,
    edge_deletion_ranks,
    random_embedding,
    rigidity_target,
)

from oracles import intersection, shape_edges


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
        report = verify_minus_edge(sp.boundary_simplex(4), seed=5, name="simplex-d4")
        report.add(CheckRecord("minus_edge", "cross-d4:e=1-3", PASS, 22, 22, seed=6))
        header, passed, skipped = report.human_format().splitlines()[:3]
        assert header.split() == ["check", "instance", "verdict", "rank", "target", "seed",
                                  "elapsed", "note"]
        assert skipped.split()[:3] == ["minus_edge", "simplex-d4", "skip"]
        assert skipped.endswith("  g2 = 0")
        assert passed.endswith("0.000")  # no note, no trailing blanks
        assert "g2 = 0" not in report.machine_format()

    def test_face_label(self):
        assert face_label((3, 1, 2)) == "1-2-3"
        assert face_label(()) == "empty"


class TestMinusEdge:
    def test_cross_4_all_edges_pass(self):
        report = verify_minus_edge(sp.cross_polytope(4), trials=2, seed=7, name="x4")
        assert len(report.records) == 24
        assert report.count(PASS) == 24
        assert all(r.rank == r.target == 22 for r in report.records)

    def test_non_prime_input_skips(self):
        stacked = sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9)
        report = verify_minus_edge(stacked, name="stacked")
        assert [r.verdict for r in report.records] == [SKIP]
        assert report.records[0].note == "not prime"

    def test_zero_g2_input_skips(self):
        report = verify_minus_edge(sp.boundary_simplex(4), name="s4")
        assert [r.verdict for r in report.records] == [SKIP]
        assert report.records[0].note == "g2 = 0"

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError):
            verify_minus_edge(sp.cross_polytope(3))

    def test_records_carry_reproducing_seed(self):
        report = verify_minus_edge(sp.cross_polytope(4), trials=1, seed=3, name="x4")
        rec = report.records[0]
        a, b = (int(t) for t in rec.instance.split("e=")[1].split("-"))
        graph = graph_of(sp.cross_polytope(4)).remove_edge(a, b)
        again = decide_rigidity(graph, 4, 1, rec.seed)
        assert again.rank == rec.rank


class TestNegativeControl:
    def test_simplex_control(self):
        report = verify_negative_control(sp.boundary_simplex(4), seed=1, name="s4")
        assert len(report.records) == 4  # one per edge at the fresh vertex
        assert report.count(PASS) == 4
        assert all(r.rank == r.target == 13 for r in report.records)

    def test_cross_control(self):
        report = verify_negative_control(sp.cross_polytope(4), seed=1, name="x4")
        assert report.count(PASS) == len(report.records) == 4


class TestMissingFaceLemma:
    def test_join_2_3_sweeps_both_missing_faces(self):
        delta = sp.join_spheres(2, 3)
        report = verify_missing_face_lemma(delta, trials=2, seed=4, name="j23")
        # triangle {1,2,3} has 3 edges, the 4-set {4,5,6,7} has 6
        assert len(report.records) == 9
        assert report.count(PASS) == 9
        names = {r.instance for r in report.records}
        assert "j23:s=1-2-3:e=1-2" in names
        assert "j23:s=4-5-6-7:e=6-7" in names

    def test_no_qualifying_faces_is_a_vacuous_skip(self):
        report = verify_missing_face_lemma(sp.cross_polytope(5), seed=4, name="x5")
        assert [r.verdict for r in report.records] == [SKIP]
        assert report.records[0].instance == "x5:vacuous"
        assert report.records[0].seed == 4

    def test_edge_records_and_certificates_share_one_seed(self, monkeypatch):
        cert_seeds = []

        def spy(cert, trials, seed):
            cert_seeds.append(seed)
            return check(cert, trials, seed)

        monkeypatch.setattr("spherig.harness.check", spy)
        report = verify_missing_face_lemma(sp.join_spheres(2, 3), seed=4, name="j23")
        s = derive_seed(4, "missing-face", "j23")
        assert {r.seed for r in report.records} == {s}
        assert cert_seeds == [s] * len(report.records)

    def test_ranks_equal_the_edge_deletion_ranks_outside_a_memo(self):
        seed, checked = 20260823, 0
        assert spherig.rigidity._known_rigid.get() is None
        for entry in build_corpus(DEFAULT_FAMILIES, (4, 5, 6), seed):
            report = verify_missing_face_lemma(entry.complex, seed=seed, name=entry.name)
            sub = derive_seed(seed, "missing-face", entry.name)
            ranks = edge_deletion_ranks(graph_of(entry.complex), entry.d, DEFAULT_TRIALS, sub)
            for record in report.records:
                if record.verdict != SKIP:
                    edge = tuple(int(v) for v in record.instance.rsplit("e=", 1)[1].split("-"))
                    assert record.rank == ranks[edge], record.instance
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

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            verify_contraction_reduction(sp.cross_polytope(5), (1, 3))


class TestStarAndStress:
    def test_star_rigidity_cross_5(self):
        report = verify_star_rigidity(sp.cross_polytope(5), trials=2, seed=8, name="x5")
        # empty face + 10 vertices + 40 edges
        assert len(report.records) == 51
        assert report.count(PASS) == 51

    def test_g2_stress_values(self):
        for delta, d, g2 in (
            (sp.cross_polytope(4), 4, 2),
            (sp.join_spheres(2, 2), 4, 1),
            (sp.boundary_simplex(5), 5, 0),
        ):
            report = verify_g2_stress(delta, seed=3, name="c")
            rec = report.records[0]
            assert rec.verdict == PASS
            assert rec.rank == rec.target == g2


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
        assert [(e.name, e.control) for e in entries] == [
            ("control-simplex-d4", True),
            ("control-cross-d4", True),
            ("control-simplex-d5", True),
            ("control-cross-d5", True),
            ("simplex-d4", False),
            ("simplex-d5", False),
        ]
        assert entries[1].complex == sp.cross_polytope(4)

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
            "# comment\nfamilies = simplex, cyclic\ndims = 4..6\ntrials = 2\nseed = 9\n"
        )
        assert config.families == ("simplex", "cyclic")
        assert config.dims == (4, 5, 6)
        assert config.trials == 2
        assert config.seed == 9

    def test_parse_dim_list(self):
        config = SuiteConfig.from_text("dims = 4, 6\n")
        assert config.dims == (4, 6)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            SuiteConfig.from_text("depth = 3\n")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            SuiteConfig.from_text("families = spheres\n")

    def test_low_dimension_rejected(self):
        with pytest.raises(ValueError, match=">= 4"):
            SuiteConfig.from_text("dims = 3\n")

    def test_base_config_is_overlaid(self):
        base = SuiteConfig(seed=42)
        config = SuiteConfig.from_text("trials = 1\n", base)
        assert (config.seed, config.trials) == (42, 1)
        assert SuiteConfig.from_text("seed = 9\n", base).seed == 9
        assert base == SuiteConfig(seed=42)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SuiteConfig().seed = 1


@pytest.fixture(scope="module")
def small_config():
    return SuiteConfig(
        families=("cross-polytope", "negative-control"), dims=(4,), trials=1, seed=13
    )


class TestRunSuite:

    def test_suite_passes_and_counts_add_up(self, small_config):
        report = run_suite(small_config)
        assert report.ok
        total = report.count(PASS) + report.count(FAIL) + report.count(SKIP)
        assert total == len(report.records)
        checks = {r.check for r in report.records}
        assert checks == {
            "minus_edge",
            "missing_face",
            "star_rigidity",
            "g2_stress",
            "contraction",
            "negative_control",
        }

    def test_suite_is_deterministic(self, small_config):
        assert run_suite(small_config).machine_format() == run_suite(
            small_config
        ).machine_format()

    def test_seed_changes_the_report(self, small_config):
        other = SuiteConfig(
            families=small_config.families, dims=(4,), trials=1, seed=14
        )
        assert run_suite(other).machine_format() != run_suite(small_config).machine_format()

    def test_every_record_replays_from_its_machine_line(self, small_config):
        report = run_suite(small_config)
        corpus = {
            e.name: e
            for e in build_corpus(small_config.families, small_config.dims, small_config.seed)
        }
        for line in report.machine_format().splitlines():
            assert replay(line, corpus, small_config.trials) == line
            kind, instance, *_, seed = line.split("\t")
            assert int(seed) == scheme_seed(kind, instance, small_config.seed)

    def test_each_entry_has_its_own_memo_and_none_outlives_the_suite(
        self, small_config, monkeypatch
    ):
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
        corpus = build_corpus(small_config.families, (4,), small_config.seed)
        assert len(kept) == len(corpus)
        assert len({id(memo) for memo in kept}) == len(kept)
        # each memo held rigid shapes only, each decoded back into a graph and
        # decided afresh; a control decides flexible graphs only, so its memo
        # stays empty
        for entry, memo in zip(corpus, kept):
            if entry.control:
                assert memo == set(), entry.name
            else:
                assert memo and all(
                    decide_rigidity(Graph(range(n), shape_edges(n, mask)), d, seed=1).is_rigid
                    for d, n, mask in memo
                )
        assert [e.control for e in corpus] == [False, True, True]

    def test_control_records_equal_the_negative_control_at_dims_4_to_6(self):
        seed = 20260823
        config = SuiteConfig(families=("negative-control",), dims=(4, 5, 6), seed=seed)
        expected = Report()
        for d in (4, 5, 6):
            for label, gamma in (
                (f"control-simplex-d{d}", sp.boundary_simplex(d)),
                (f"control-cross-d{d}", sp.cross_polytope(d)),
            ):
                expected.extend(
                    verify_negative_control(gamma, seed=derive_seed(seed, label), name=label)
                )
        assert len(expected.records) == 2 * (4 + 5 + 6)
        assert run_suite(config).machine_format() == expected.machine_format()

    def test_machine_report_digest_is_pinned(self):
        # Every family at d = 4: 1,057 records of all six check kinds.  A
        # change that alters the report's bytes on purpose updates the digest
        # and says why.
        config = SuiteConfig(families=FAMILIES, dims=(4,), seed=20260823)
        report = run_suite(config).machine_format()
        assert len(report.splitlines()) == 1057
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "2ecc92c85d0e8baa8123afa62fb17211b698a4323cdb0182878c2d8d9c2c8219"
        )

    def test_empty_report_is_rejected(self):
        config = SuiteConfig(families=("flip-walks",), dims=(5,), trials=1, seed=1)
        with pytest.raises(ValueError, match="report would be empty"):
            run_suite(config)

    def test_missing_face_edge_records_replay(self):
        entry = CorpusEntry("j23", sp.join_spheres(2, 3))
        report = verify_missing_face_lemma(entry.complex, trials=1, seed=4, name="j23")
        assert {r.note for r in report.records} == {""}
        for line in report.machine_format().splitlines():
            assert replay(line, {"j23": entry}, 1) == line


SEED_LABELS = {
    "minus_edge": "minus-edge",
    "missing_face": "missing-face",
    "star_rigidity": "star",
    "g2_stress": "g2-stress",
    "contraction": "contraction",
    "negative_control": "negative-control",
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
    if (not keys and kind != "g2_stress") or (kind == "contraction" and len(parts) == 1):
        return base
    # the edge records of one graph share the graph's seed
    if kind in ("minus_edge", "missing_face"):
        keys = []
    return derive_seed(base, SEED_LABELS[kind], name, *keys)


def replay(line: str, corpus: dict[str, CorpusEntry], trials: int) -> str:
    """Recompute a machine line from its check, instance and seed fields.

    Uses only the corpus and the public API, following the per-kind recipe
    in the README.
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

    def ranked(rank: int, target: int, ok: bool = True) -> str:
        verdict = PASS if ok and rank == target else FAIL
        return "\t".join([kind, instance, verdict, str(rank), str(target), seed_text])

    def plain(verdict: str) -> str:
        return "\t".join([kind, instance, verdict, "-", "-", seed_text])

    delta, d = corpus[name].complex, corpus[name].d
    if kind == "negative_control":
        u, v_new = pair(fields["e"])
        graph = graph_of(sp.stack_over_facet(delta, delta.sorted_facets()[0], v_new))
        rank = decide_rigidity(graph.remove_edge(u, v_new), d, trials, seed).rank
        return ranked(rank, rigidity_target(len(graph.vertices), d) - 1)
    graph = graph_of(delta)
    target = rigidity_target(len(graph.vertices), d)
    if kind == "g2_stress":
        return ranked(decide_rigidity(graph, d, trials, seed).stress_dim, delta.g2())
    if kind == "star_rigidity":
        ok = check(certify_star_rigidity(delta, face(fields["s"])), trials, seed)
        return plain(PASS if ok else FAIL)
    if kind == "minus_edge":
        if "e" not in fields:
            return plain(SKIP if not delta.is_prime() or delta.g2() <= 0 else FAIL)
        rank = decide_rigidity(graph.remove_edge(*pair(fields["e"])), d, trials, seed).rank
        return ranked(rank, target)
    if kind == "missing_face":
        if parts == ["vacuous"]:
            qualifying = [f for f in delta.missing_faces() if 3 <= len(f) <= d - 1]
            return plain(FAIL if qualifying else SKIP)
        sigma, edge = face(fields["s"]), pair(fields["e"])
        rank = decide_rigidity(graph.remove_edge(*edge), d, trials, seed).rank
        cert_ok = check(certify_missing_face_edge(delta, sigma, edge), trials, seed)
        return ranked(rank, target, cert_ok)
    assert kind == "contraction"
    a, b = pair(fields["e"])
    link = delta.link((a, b))
    if len(parts) == 1:
        qualifies = len(link.vertices) >= 4 and intersection(
            delta.link([a]).facets, delta.link([b]).facets
        ) == link.facets
        return plain(FAIL if qualifies else SKIP)
    v_new = max(delta.vertices) + 1
    g_minus = graph.remove_edge(a, b)
    g_down = graph_of(delta.contract_edge((a, b), v_new))
    if parts[-1] == "generic":
        lhs = decide_rigidity(g_minus, 4, trials, derive_seed(seed, "generic-minus")).rank
        rhs = decide_rigidity(g_down, 4, trials, derive_seed(seed, "generic-down")).rank
        return ranked(lhs, rhs + 4)
    coords = dict(random_embedding(g_minus, 4, derive_seed(seed, "degenerate")).coords)
    coords[b] = coords[a]
    down = {v: coords[v] for v in g_down.vertices if v != v_new}
    down[v_new] = coords[a]
    lhs = RigidityMatrix(g_minus, Embedding(4, coords)).rank()
    rhs = RigidityMatrix(g_down, Embedding(4, down)).rank()
    return ranked(lhs, rhs + 4)
