"""Mutation gate: every mutant below must make its tests fail.

Run from the repository root:

    python3 tests/mutants.py                      # every mutant
    python3 tests/mutants.py shape-without-d      # the named mutants only

Each mutant is (name, file, old text, new text, tests).  The script copies
src/, tests/ and pyproject.toml into a temporary directory, first runs the
tests of the selected mutants there unmutated, then for each mutant replaces
its old text by the new one and runs its tests with `pytest -x -q`.  A mutant
is killed when its tests fail and survives when they pass.

Exit status: 0 when every selected mutant is killed, 1 when one survives,
2 when an old text does not occur exactly once in its file (so a stale
mutant is never skipped silently), a name is unknown, or the unmutated tests
fail (so no mutant counts as killed by tests that fail anyway).  pytest does
not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

RIGIDITY = "src/spherig/rigidity.py"

# (name, file, old text, new text, tests)
MUTANTS = [
    (
        "shape-without-n",
        RIGIDITY,
        "    return d, len(order), sum(",
        "    return d, 0, sum(",
        ("tests/test_rigidity.py::TestRigidVerdictMemo::test_memo_is_keyed_by_vertex_count",),
    ),
    (
        "shape-without-d",
        RIGIDITY,
        "    return d, len(order), sum(",
        "    return 0, len(order), sum(",
        ("tests/test_rigidity.py::TestRigidVerdictMemo::test_memo_is_keyed_by_dimension",),
    ),
    (
        "pair-bit-with-i-and-j-swapped",
        RIGIDITY,
        "bits.append(1 << (j * (j - 1) // 2 + i))",
        "bits.append(1 << (i * (i - 1) // 2 + j))",
        (
            "tests/test_rigidity.py::TestRigidVerdictMemo"
            "::test_equal_shapes_exactly_when_the_sorted_relabellings_agree",
        ),
    ),
    (
        "deletion-clears-the-previous-edge-bit",
        RIGIDITY,
        "memo.add((d, n, mask & ~bits[i]))",
        "memo.add((d, n, mask & ~bits[i - 1]))",
        (
            "tests/test_rigidity.py::TestMemoLearnsFromEdgeDeletions"
            "::test_records_the_rigid_graph_and_its_rigid_deletions_only",
        ),
    ),
    (
        "memo-keeps-flexible-verdicts",
        RIGIDITY,
        "    if memo is not None and is_rigid:\n        memo.add(shape)\n",
        "    if memo is not None:\n        memo.add(shape)\n",
        ("tests/test_rigidity.py::TestRigidVerdictMemo::test_keeps_rigid_verdicts_only",),
    ),
    (
        "memo-not-reset",
        RIGIDITY,
        "        _known_rigid.reset(token)\n",
        "        pass\n",
        ("tests/test_rigidity.py::TestRigidVerdictMemo::test_no_memo_outside_the_block",),
    ),
    (
        "no-complete-graph-target",
        RIGIDITY,
        "    if n_vertices <= d + 1:\n        return comb(n_vertices, 2)\n",
        "",
        ("tests/test_rigidity.py::TestSmallGraphs::test_rank_and_verdict_match_the_oracle[2]",),
    ),
    (
        "deletion-ranks-without-stress-support",
        RIGIDITY,
        "value = rank if (a, b) in stressed else rank - 1",
        "value = rank",
        (
            "tests/test_rigidity.py::TestEdgeDeletionRanks"
            "::test_stress_free_graph_loses_rank_on_every_edge",
        ),
    ),
    (
        "deletion-ranks-without-fallback",
        RIGIDITY,
        "        if value < cap:\n",
        "        if False:\n",
        (
            "tests/test_rigidity.py::TestEdgeDeletionRanks"
            "::test_unstressed_edges_fall_back_to_decide_rigidity",
        ),
    ),
    (
        "bound-never-tightens",
        RIGIDITY,
        "    return degrees + min(core_edges, rigidity_target(len(core), d))\n",
        "    return min(degrees + core_edges, rigidity_target(len(peeled) + len(core), d))\n",
        (
            "tests/test_rigidity.py::TestTrialCount"
            "::test_first_point_at_the_bound_draws_one_embedding",
        ),
    ),
    (
        "peel-counts-degree-minus-one",
        RIGIDITY,
        "    degrees = sum(len(around) for _, around in peeled)\n",
        "    degrees = sum(len(around) - 1 for _, around in peeled)\n",
        (
            "tests/test_rigidity.py::TestRankBound"
            "::test_bound_lies_between_the_oracle_rank_and_the_cap",
        ),
    ),
    (
        "first-rows-counted-without-independence-check",
        RIGIDITY,
        "        total += len(_echelon(directions, d)[0])\n",
        "        total += len(back)\n",
        ("tests/test_rigidity.py::TestRankAtAPoint::test_every_vertex_at_the_origin",),
    ),
    (
        "first-rows-meet-the-bound-one-rank-early",
        RIGIDITY,
        "== bound == _first_rows_rank(phi, firsts, d):\n",
        "== bound and _first_rows_rank(phi, firsts, d) >= bound - 1:\n",
        (
            "tests/test_rigidity.py::TestRankAtAPoint"
            "::test_core_vertex_on_the_span_of_its_first_neighbours[5-9]",
        ),
    ),
    (
        "first-rows-ranked-where-their-count-falls-short",
        RIGIDITY,
        "    if sum(len(back) for _, back in firsts) == bound == _first_rows_rank(",
        "    if bound == _first_rows_rank(",
        (
            "tests/test_rigidity.py::TestDoingLess"
            "::test_cross_polytope_short_on_first_rows_eliminates_one_residual",
        ),
    ),
    (
        "residual-elimination-does-not-stop-at-the-bound",
        RIGIDITY,
        "_echelon(residuals, ncols, bound - count)",
        "_echelon(residuals, ncols)",
        (
            "tests/test_harness.py::TestRunSuite"
            "::test_default_suite_reduces_only_where_the_first_rows_fall_short",
        ),
    ),
    (
        "back-substitution-not-carried-into-the-back-neighbours",
        RIGIDITY,
        "in zip(weights, ends):\n                    if h:\n",
        "in zip(weights, ends):\n                    if False:\n",
        (
            "tests/test_rigidity.py::TestRigidityMatrix"
            "::test_rows_match_the_oracle_entry_by_entry[graph1-4]",
        ),
    ),
    (
        "dependent-first-row-dropped",
        RIGIDITY,
        "            if i in pivot_rows:\n",
        "            if i < first:\n",
        (
            "tests/test_rigidity.py::TestRankAtAPoint"
            "::test_matches_the_oracle_where_a_vertex_has_dependent_first_rows",
        ),
    ),
    (
        "contraction-point-not-merged",
        RIGIDITY,
        "    phi[b] = phi[m] = phi[a]\n",
        "    phi[m] = phi[a]\n",
        (
            "tests/test_rigidity.py::TestContractionRanks"
            "::test_common_neighbour_of_a_and_b_loses_a_first_row_rank",
        ),
    ),
    (
        "echelon-stops-one-pivot-early",
        RIGIDITY,
        "            if len(basis) == stop:\n",
        "            if stop is not None and len(basis) == stop - 1:\n",
        (
            "tests/test_rigidity.py::TestDoingLess"
            "::test_cross_polytope_short_on_first_rows_eliminates_one_residual",
        ),
    ),
    (
        "echelon-pivot-entry-not-scaled",
        RIGIDITY,
        "(e * a + h * b) % p",
        "(a + h * b) % p",
        (
            "tests/test_rigidity.py::TestRankMod"
            "::test_pivots_and_zero_row_supports_match_elimination_with_inverses[None-284]",
        ),
    ),
    (
        "contraction-settles-one-rank-early",
        RIGIDITY,
        "    if r1 == rigidity_target(len(graph.vertices), d):\n",
        "    if r1 >= rigidity_target(len(graph.vertices), d) - 1:\n",
        (
            "tests/test_rigidity.py::TestContractionRanks"
            "::test_matches_two_matrices_on_random_graphs",
        ),
    ),
    (
        "contraction-merged-rank-off-by-one",
        RIGIDITY,
        "        return r1, r1 - d\n",
        "        return r1, r1 - d + 1\n",
        ("tests/test_rigidity.py::TestContractionRanks::test_cross_4_edge",),
    ),
    (
        "no-point-rule-one-vertex-past-d-plus-1",
        RIGIDITY,
        "    if n <= d + 1:\n        return RigidityVerdict(",
        "    if n <= d + 2:\n        return RigidityVerdict(",
        ("tests/test_rigidity.py::TestSmallGraphs::test_rank_and_verdict_match_the_oracle[2]",),
    ),
    (
        "no-point-rule-stops-at-d-vertices",
        RIGIDITY,
        "    if n <= d + 1:\n        return RigidityVerdict(",
        "    if n <= d:\n        return RigidityVerdict(",
        (
            "tests/test_rigidity.py::TestDecideRigidity"
            "::test_at_most_d_plus_1_vertices_draw_no_point[K5-minus-an-edge-d4]",
        ),
    ),
    (
        "deletion-no-point-rule-stops-at-d-vertices",
        RIGIDITY,
        "    if len(order) <= d + 1:\n        return dict.fromkeys(",
        "    if len(order) <= d:\n        return dict.fromkeys(",
        (
            "tests/test_rigidity.py::TestEdgeDeletionRanks"
            "::test_at_most_d_plus_1_vertices_draw_no_point[simplex-d4]",
        ),
    ),
    (
        "attach-order-ignored",
        RIGIDITY,
        "    return first + rest, firsts\n",
        "    return sorted(first + rest), firsts\n",
        (
            "tests/test_rigidity.py::TestAttachOrder"
            "::test_places_by_most_placed_neighbours_and_lists_every_edge_once",
        ),
    ),
    (
        "attach-order-without-the-peeled-tail",
        RIGIDITY,
        "        firsts.append((v, around))\n",
        "",
        ("tests/test_rigidity.py::TestRankAtAPoint::test_stacked_chains_minus_an_edge[4]",),
    ),
    (
        "attach-prefix-not-capped-at-d",
        RIGIDITY,
        "        firsts.append((v, back[:d]))\n"
        "        rest += [(min(u, v), max(u, v)) for u in back[d:]]\n",
        "        firsts.append((v, back))\n",
        (
            "tests/test_rigidity.py::TestDoingLess"
            "::test_complete_graph_minus_an_edge_stops_before_its_last_row[6]",
        ),
    ),
    (
        "deletion-stress-not-mapped-back",
        RIGIDITY,
        "stressed = {attached[j] for",
        "stressed = {edges[j] for",
        (
            "tests/test_rigidity.py::TestAttachOrder"
            "::test_edge_deletion_ranks_match_the_oracle_on_stacked_chains[4]",
        ),
    ),
    (
        "flip-walk-corpus-without-dedup",
        "src/spherig/harness.py",
        "if len(delta.vertices) > max_vertices or delta.facets in seen:",
        "if len(delta.vertices) > max_vertices:",
        ("tests/test_harness.py::TestCorpus::test_flip_walk_corpus_keeps_each_sphere_once",),
    ),
    (
        "cone-check-without-edge-relation",
        "src/spherig/certificates.py",
        "            and base.edges <= claim.edges\n"
        "            and len(spokes) == k * (k - 1) // 2 + k * len(base.vertices)\n"
        "            and not any(e.isdisjoint(apex) for e in spokes)\n",
        "",
        (
            "tests/test_certificates.py::TestCone"
            "::test_malformed_cone_raises_at_its_node[extra-edge]",
        ),
    ),
    (
        "cone-check-by-edge-count-alone",
        "src/spherig/certificates.py",
        "            and not any(e.isdisjoint(apex) for e in spokes)\n",
        "",
        ("tests/test_certificates.py::TestCone::test_spoke_swapped_for_a_base_edge_rejected",),
    ),
    (
        "cone-check-without-spoke-count",
        "src/spherig/certificates.py",
        "            and len(spokes) == k * (k - 1) // 2 + k * len(base.vertices)\n",
        "",
        (
            "tests/test_certificates.py::TestCone"
            "::test_malformed_cone_raises_at_its_node[missing-apex-edge]",
        ),
    ),
    (
        "cone-shift-by-one",
        "src/spherig/certificates.py",
        "        if child.d != d - len(apex):\n",
        "        if child.d != d - 1:\n",
        ("tests/test_certificates.py::TestStarCertificates::test_edge_star_is_one_cone",),
    ),
    (
        "cone-spokes-from-child-only",
        "src/spherig/graphs.py",
        "for a in apex for v in vertices if v != a}",
        "for a in apex for v in base.vertices}",
        ("tests/test_graphs.py::TestBuilders::test_cone_graph_over_two_apexes_joins_them_too",),
    ),
    (
        "replacement-u-outside-claim",
        "src/spherig/certificates.py",
        "        if not subset <= claim.vertices:\n"
        '            fail("U is not a subset of the claim graph\'s vertices")\n',
        "",
        (
            "tests/test_certificates.py::TestReplacement"
            "::test_first_child_outside_the_claim_raises_at_its_node",
        ),
    ),
    (
        "replacement-second-child-on-other-vertices",
        "src/spherig/certificates.py",
        "if spanning.graph.vertices != claim.vertices or not all(",
        "if not all(",
        (
            "tests/test_certificates.py::TestReplacement"
            "::test_second_child_must_span_the_claim_with_u_completed[lacks-a-claim-vertex]",
        ),
    ),
    (
        "replacement-second-child-edge-touching-u",
        "src/spherig/certificates.py",
        "all(e <= subset for e in extra)",
        "all(e & subset for e in extra)",
        (
            "tests/test_certificates.py::TestReplacement"
            "::test_second_child_must_span_the_claim_with_u_completed[edge-leaving-u]",
        ),
    ),
    (
        "link-condition-without-ab-bits",
        "src/spherig/complexes.py",
        "(fa & fb) | ab in index",
        "(fa & fb) in index",
        (
            "tests/test_complexes.py::TestGraphsFromFacets"
            "::test_link_condition_matches_the_intersection_oracle",
        ),
    ),
    (
        "label-bits-instead-of-positions",
        "src/spherig/complexes.py",
        "        return {v: 1 << i for i, v in enumerate(sorted(self.vertices))}\n",
        "        return {v: 1 << v for v in self.vertices}\n",
        ("tests/test_complexes.py::TestMissingFaces::test_octahedron",),
    ),
    (
        "missing-face-cache-handed-out",
        "src/spherig/complexes.py",
        "        return tuple(sorted(found, key=lambda f: (len(f), sorted(f))))\n\n"
        "    def missing_faces(self) -> list[frozenset[int]]:\n"
        '        """All minimal non-faces, sorted by size then lexicographically."""\n'
        "        return list(self._missing_faces)\n",
        "        return sorted(found, key=lambda f: (len(f), sorted(f)))\n\n"
        "    def missing_faces(self) -> list[frozenset[int]]:\n"
        '        """All minimal non-faces, sorted by size then lexicographically."""\n'
        "        return self._missing_faces\n",
        ("tests/test_complexes.py::test_missing_faces_list_is_the_callers_own",),
    ),
    (
        "minus-edge-rule-reads-some-factor",
        "src/spherig/harness.py",
        "        short = all(len(vs) == d + 1 for vs in factors if {a, b} <= vs)\n",
        "        short = any(len(vs) == d + 1 for vs in factors if {a, b} <= vs)\n",
        (
            "tests/test_harness.py::TestMinusEdge"
            "::test_stacked_cross_polytope_falls_short_exactly_at_the_new_vertex[4]",
        ),
    ),
    (
        "minus-edge-simplex-test-one-vertex-off",
        "src/spherig/harness.py",
        "        short = all(len(vs) == d + 1 for vs in factors if {a, b} <= vs)\n",
        "        short = all(len(vs) == d + 2 for vs in factors if {a, b} <= vs)\n",
        (
            "tests/test_harness.py::TestMinusEdge"
            "::test_simplex_boundary_falls_one_short_on_every_edge[4]",
        ),
    ),
    (
        "negative-control-keeps-the-old-top-vertex",
        "src/spherig/harness.py",
        '    new = f"-{max(stacked.vertices)}"\n',
        '    new = f"-{max(gamma.vertices)}"\n',
        (
            "tests/test_harness.py::TestNegativeControl"
            "::test_records_are_the_suites_control_records[simplex-d4]",
        ),
    ),
    (
        "memo-per-entry",
        "src/spherig/harness.py",
        "    with rigid_verdict_memo():\n        while corpus:",
        "    while corpus:\n        with rigid_verdict_memo():",
        (
            "tests/test_harness.py::TestRunSuite"
            "::test_a_shape_recorded_in_one_entry_answers_a_later_one",
        ),
    ),
    (
        "memo-dropped",
        "src/spherig/harness.py",
        "    with rigid_verdict_memo():\n        while corpus:",
        "    if True:\n        while corpus:",
        ("tests/test_harness.py::TestRunSuite::test_one_memo_per_run_and_none_outlives_the_suite",),
    ),
    (
        "run-suite-drops-a-kind",
        "src/spherig/harness.py",
        '    "star_rigidity": _Kind(lambda d: d >= 4, _stars),\n',
        "",
        ("tests/test_harness.py::TestRunSuite::test_suite_passes_and_counts_add_up",),
    ),
    (
        "star-skips-the-empty-face",
        "src/spherig/harness.py",
        "    faces: list[_Instance] = [(frozenset(),)]\n",
        "    faces: list[_Instance] = []\n",
        ("tests/test_harness.py::TestRunSuite::test_suite_passes_and_counts_add_up",),
    ),
    (
        "run-suite-kinds-at-the-default-seed",
        "src/spherig/harness.py",
        "                    report.extend(verify(kind, entry, seed=seed))\n",
        "                    report.extend(verify(kind, entry))\n",
        ("tests/test_harness.py::TestRunSuite::test_every_record_replays_from_its_machine_line",),
    ),
    (
        "contraction-applies-above-d4",
        "src/spherig/harness.py",
        '    "contraction": _Kind(lambda d: d == 4, _contractions),\n',
        '    "contraction": _Kind(lambda d: d >= 4, _contractions),\n',
        (
            "tests/test_harness.py::TestRunner"
            "::test_a_kind_is_refused_at_a_d_where_it_does_not_apply[contraction-5]",
        ),
    ),
    (
        "empty-report-allowed",
        "src/spherig/harness.py",
        "    if not report.records:\n",
        "    if False:\n",
        ("tests/test_harness.py::TestRunSuite::test_empty_report_is_rejected",),
    ),
    (
        "vacuous-missing-face-passes",
        "src/spherig/harness.py",
        'f"{name}:vacuous", SKIP,',
        'f"{name}:vacuous", PASS,',
        (
            "tests/test_harness.py::TestMissingFaceLemma"
            "::test_no_qualifying_faces_is_a_vacuous_skip",
        ),
    ),
    (
        "missing-face-passes-a-rejected-certificate",
        "src/spherig/harness.py",
        "        ok = check(certify_missing_face_edge(delta, *instance), sub)\n"
        '        yield CheckRecord("", "", PASS if ok else FAIL, seed=sub)\n',
        "        ok = check(certify_missing_face_edge(delta, *instance), sub)\n"
        '        yield CheckRecord("", "", PASS, seed=sub)\n',
        (
            "tests/test_harness.py::TestMissingFaceLemma"
            "::test_a_rejected_certificate_fails_its_record_and_its_orbit",
        ),
    ),
    (
        "orbit-generators-unverified",
        "src/spherig/harness.py",
        "                raise ValueError("
        'f"{self.name}: {dict(g)} is not an automorphism of the complex")\n',
        "                pass\n",
        (
            "tests/test_harness.py::TestSymmetryOrbits"
            "::test_a_map_that_is_not_an_automorphism_is_rejected_by_entry_name",
        ),
    ),
    (
        "orbit-generator-may-name-a-non-vertex",
        "src/spherig/harness.py",
        "if not (g.keys() <= vertices and {",
        "if not ({",
        (
            "tests/test_harness.py::TestSymmetryOrbits"
            "::test_a_map_that_is_not_an_automorphism_is_rejected_by_entry_name",
        ),
    ),
    (
        "orbit-verdict-from-the-last-checked-face",
        "src/spherig/harness.py",
        "        note, outcomes = checked[first]\n",
        "        note, outcomes = list(checked.values())[-1]\n",
        (
            "tests/test_harness.py::TestSymmetryOrbits"
            "::test_a_transferred_record_takes_its_first_faces_verdict_and_names_it",
        ),
    ),
    (
        "orbit-transfer-keeps-the-first-instances-seed",
        "src/spherig/harness.py",
        "o = o._replace(seed=sub, note=",
        "o = o._replace(note=",
        (
            "tests/test_harness.py::TestSymmetryOrbits"
            "::test_transferred_missing_face_and_contraction_records_replay",
        ),
    ),
    (
        "orbit-outcomes-listed-before-yield",
        "src/spherig/harness.py",
        "            for o in run(instance, sub):\n",
        "            for o in list(run(instance, sub)):\n",
        (
            "tests/test_harness.py::TestContraction"
            "::test_each_contraction_record_is_timed_on_its_own",
        ),
    ),
    (
        "orbit-maps-only-the-first-face",
        "src/spherig/harness.py",
        "                other = tuple([frozenset(map(image, face)) for face in at])\n",
        "                other = (frozenset(map(image, at[0])), *at[1:])\n",
        (
            "tests/test_harness.py::TestSymmetryOrbits"
            "::test_default_pass_checks_one_missing_face_edge_and_one_contraction_edge_per_orbit",
        ),
    ),
    (
        "orbit-maps-assume-labels-1-to-n",
        "src/spherig/harness.py",
        "    maps = [{v: g.get(v, v) for v in vertices}.__getitem__",
        "    maps = [{v: g.get(v, v) for v in range(1, len(vertices) + 1)}.__getitem__",
        (
            "tests/test_harness.py::TestRelabelling"
            "::test_a_relabelled_corpus_gets_the_same_verdict_rank_and_target",
        ),
    ),
    (
        "gale-accepts-odd-interior-runs",
        "src/spherig/generators.py",
        "            for length in range(left - left % 2, 1, -2):  # longest first\n",
        "            for length in range(left, 0, -1):  # longest first\n",
        (
            "tests/test_generators.py::TestCyclicPolytope"
            "::test_facets_match_the_subset_filter[4]",
        ),
    ),
    (
        "maximal-skips-larger-faces",
        "src/spherig/complexes.py",
        "        kept += [f for f in by_size[size] if not any(f < g for g in kept)]\n",
        "        kept += by_size[size]\n",
        (
            "tests/test_complexes.py::TestConstruction"
            "::test_face_dominated_only_by_a_larger_face_listed_after_its_size_class",
        ),
    ),
    (
        "constructor-keeps-a-repeated-vertex",
        "src/spherig/complexes.py",
        "            if len(normalized[-1]) < len(listed):\n"
        '                raise ValueError(f"facet {list(listed)!r} lists a vertex twice")\n',
        "",
        ("tests/test_complexes.py::TestConstruction::test_repeated_vertex_rejected",),
    ),
    (
        "stack-new-label-unchecked",
        "src/spherig/generators.py",
        "    as_face([v_new])  # the one new label; every other face is already checked\n",
        "",
        ("tests/test_generators.py::TestStackAndSum::test_stack_rejects_a_negative_new_label",),
    ),
    (
        "zero-flip-new-label-unchecked",
        "src/spherig/generators.py",
        "    out, inn = move.face_out, as_face(move.face_in)",
        "    out, inn = move.face_out, move.face_in",
        ("tests/test_generators.py::TestFlips::test_zero_flip_rejects_a_negative_new_label",),
    ),
    (
        "prime-factor-without-the-missing-facet",
        "src/spherig/complexes.py",
        " + [sigma])",
        ")",
        ("tests/test_complexes.py::TestPrimeFactors::test_single_stacking",),
    ),
    (
        "legal-flips-without-purity-check",
        "src/spherig/generators.py",
        "    delta._require_pure()\n",
        "",
        ("tests/test_generators.py::TestFlips::test_impure_complex_rejected",),
    ),
]

# Mutants known to be equivalent, kept out of MUTANTS:
# - rigidity_target branching on n_vertices <= d instead of <= d + 1: at
#   n = d + 1 both forms give C(d+1, 2).
# - the degenerate contraction point drawn from derive_seed(seed, ...), the
#   entry's seed, instead of the record's sub-seed: the rank at a random
#   point of the degenerate locus is the same for almost every point, so
#   neither the report nor a replay can show which seed drew the point.
# - _peel removing its vertices in another order, or stopping early: every
#   order and every stopping point gives a valid bound for _rank_bound, at
#   worst a looser one, and a looser bound only draws more points for the
#   same verdict.  _attach_order over such a peel is still block triangular,
#   so _rank_at gives the full matrix's rank at the point exactly, only with
#   more of it eliminated.
# - contraction_ranks settling where r1 reaches the target with >= in
#   place of ==: no rank exceeds the target.
# - contraction_ranks settling only on n >= d + 2 vertices (or, mutated,
#   n >= d + 1): on at most d + 1 vertices the target is C(n, 2), and at
#   the merged point the row of ab is missing or zero, so r1 never reaches
#   the target there and such a guard never decides anything; the code has
#   none.
# - _attach_order placing the peeled tail in peel order instead of last
#   peeled first: the first rows' sum adds the same terms in another order,
#   and the rank at a point does not depend on the order of the rows and
#   column blocks, so neither the sum nor the rank changes.


def run_tests(copy: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1
    return proc.returncode


def main(argv: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = sorted(set(argv) - known)
    if unknown:
        print(f"error: unknown mutant {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    stale = [
        name for name, path, old, _, _ in chosen if (ROOT / path).read_text().count(old) != 1
    ]
    if stale:
        print(f"error: old text not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="spherig-mutants-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        every_test = sorted({t for m in chosen for t in m[4]})
        if run_tests(copy, every_test) != 0:
            print("error: the unmutated tests fail", file=sys.stderr)
            return 2
        survivors = []
        for name, path, old, new, tests in chosen:
            target = copy / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            code = run_tests(copy, list(tests))
            target.write_text(original)
            verdict = "survived" if code == 0 else "killed (timeout)" if code < 0 else "killed"
            print(f"{name}: {verdict}", flush=True)
            if code == 0:
                survivors.append(name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
