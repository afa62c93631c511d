"""Verification harness: runs the rigidity checks over generated corpora.

One table, _KINDS, holds the check kinds in run order.  Each row maps a
kind's report name to the dimensions d = dim + 1 it applies at and to the
generator of its records for one CorpusEntry and its seed.  An engine kind
reports a rank and its target; a certificate kind reports neither.

  minus_edge     d >= 4  engine: rank of G - e for every edge, the target or one short
                         where every prime factor holding the edge is a simplex boundary
  missing_face   d >= 4  certificate: G - e is rigid for each edge inside a missing face
                         of dimension 2..d-2 (Replacement)
  star_rigidity  d >= 4  certificate: star graphs of faces with |sigma| <= d-3 are rigid
  contraction    d = 4   engine: rank(G - e) = rank(G of contracted) + 4

verify(kind, entry, seed=...) is the one runner: it rejects a kind the table
does not hold, or one that does not apply at the entry's d, and names each
record the kind yields and times it on its own.  Each record carries the
sub-seed that reproduces it.  run_suite runs every row that applies on each
entry, in table order, inside one rigid_verdict_memo.

A degenerate contraction record takes both of its ranks at one merged point
(contraction_ranks); the generic record decides G - e and the contracted
graph apart.  star_rigidity, missing_face and contraction check one instance
(a star's face, a missing face with one of its edges, an edge) per orbit
under automorphisms of the complex, each check yielding name suffixes only;
_per_orbit names every record, giving the orbit's other instances the
checked verdict, rank and target with their own seeds.  build_corpus alone
knows the families, the negative controls among them, whose stacked spheres
run the same checks as any other, and hands each entry generators of its
construction's symmetries, which the entry checks when it is made.
The machine report is one tab-separated line per record (check, instance,
verdict, rank, target, seed), sorted, so equal configurations give
byte-identical output.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .certificates import certify_missing_face_edge, certify_star_rigidity, check
from .complexes import SimplicialComplex, prime_factors
from .generators import (
    boundary_simplex,
    cross_polytope,
    cyclic_polytope_boundary,
    join_simplex_cycle,
    join_spheres,
    random_flip_walk,
    stack_over_facet,
)
from .graphs import graph_of
from .rigidity import (
    contraction_ranks,
    decide_rigidity,
    derive_seed,
    edge_deletion_ranks,
    rigid_verdict_memo,
    rigidity_target,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"
_COLUMNS = ("check", "instance", "verdict", "rank", "target", "seed")


class CheckRecord(NamedTuple):
    """One checked instance.  A kind yields it unnamed and untimed; verify names and times it."""

    check: str
    instance: str
    verdict: str
    rank: int | None = None
    target: int | None = None
    seed: int = 0
    elapsed: float = 0.0
    note: str = ""

    def fields(self) -> list[str]:
        """The report columns as text, '-' for a missing rank or target."""
        values = (getattr(self, column) for column in _COLUMNS)
        return ["-" if v is None else str(v) for v in values]

    def machine_line(self) -> str:
        return "\t".join(self.fields())


@dataclass
class Report:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.records if r.verdict == verdict)

    @property
    def ok(self) -> bool:
        return self.count(FAIL) == 0

    def machine_format(self) -> str:
        return "\n".join([*sorted(r.machine_line() for r in self.records), ""])

    def human_format(self) -> str:
        """An aligned table of the records with their timings and notes (why
        a record skipped or failed), which the machine report leaves out."""
        headers = (*_COLUMNS, "elapsed", "note")
        rows = [
            (*r.fields(), f"{r.elapsed:.3f}", r.note)
            for r in sorted(self.records, key=lambda r: (r.check, r.instance))
        ]
        widths = [max(map(len, column)) for column in zip(headers, *rows)]
        out = [
            "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in (headers, *rows)
        ]
        out.append(
            f"total: {self.count(PASS)} pass, {self.count(FAIL)} fail, {self.count(SKIP)} skip"
        )
        return "\n".join(out) + "\n"


def face_label(face: Iterable[int]) -> str:
    ordered = sorted(face)
    return "-".join(str(v) for v in ordered) if ordered else "empty"


# -- check kinds ----------------------------------------------------------


def _ranked(instance: str, rank: int, target: int, seed: int) -> CheckRecord:
    """A record that passes exactly when the rank meets its target."""
    return CheckRecord("", instance, PASS if rank == target else FAIL, rank, target, seed)


# A check instance: the faces that name it, (sigma,) for a star, (sigma, e)
# for a missing-face edge, (e,) for a contraction edge.
_Instance = tuple[frozenset[int], ...]


def _orbits(entry: CorpusEntry, instances: Sequence[_Instance]) -> list[_Instance]:
    """For each instance, the first instance of its orbit in `instances`
    under the group the entry's symmetries generate, acting on every face
    of an instance; `instances` must be closed under that group.

    A symmetry maps each vertex of the complex to a vertex, a vertex it does
    not name to itself; the entry checked each one when it was made
    (CorpusEntry), so each is an automorphism.  Each instance not yet
    reached starts an orbit, closed by a search that applies every
    generator to every instance it reaches, so each instance is mapped once
    per generator.
    """
    vertices = entry.complex.vertices
    maps = [{v: g.get(v, v) for v in vertices}.__getitem__ for g in entry.symmetries]
    first: dict[_Instance, _Instance] = {}
    for instance in instances:
        if instance in first:
            continue
        first[instance] = instance
        reached = [instance]
        while reached:
            at = reached.pop()
            for image in maps:
                other = tuple([frozenset(map(image, face)) for face in at])
                if other not in first:
                    first[other] = instance
                    reached.append(other)
    return [first[instance] for instance in instances]


def _per_orbit(
    entry: CorpusEntry,
    instances: Sequence[_Instance],
    identify: Callable[[_Instance], tuple[str, int]],
    run: Callable[[_Instance, int], Iterable[CheckRecord]],
) -> Iterator[CheckRecord]:
    """The records of every instance, in order, running the check only on
    the first instance of each orbit under the entry's symmetries (_orbits).

    identify(instance) gives the instance's label and seed; run(instance,
    seed) yields the records of an orbit's first instance, each naming only
    its suffix ("" or ":generic", say).  _per_orbit names every record
    entry.name:label + suffix and yields each checked one as run yields it,
    so each is timed on its own.  Every other instance of the orbit takes
    those records under its own name and seed, with a note naming the first
    instance; a skip keeps its seed and note, which depend on the entry
    alone.

    The transfer is exact.  An automorphism g of the complex maps faces to
    faces, missing faces to missing faces, edges to edges and lk(sigma) onto
    lk(g sigma), so it maps the link condition of an edge to that of its
    image, the graph of star(sigma) onto that of star(g sigma), G - e onto
    G - ge and G/ab onto G/g(ab), each relabelled by g.  Generic rank does
    not change under relabelling: this is the memo's argument
    (rigid_verdict_memo) with g in place of the sorted relabelling.  So a
    rigid verdict proves the whole orbit rigid, and a transferred rank is
    what the instance's own random point would give, with the same
    probability as the checked instance's rank.
    """
    # an orbit's first instance -> the note of the orbit's other records
    # (one string for all of them) and its records
    checked: dict[_Instance, tuple[str, list[CheckRecord]]] = {}
    for instance, first in zip(instances, _orbits(entry, instances)):
        label, sub = identify(instance)
        record = f"{entry.name}:{label}"
        if first == instance:
            outcomes: list[CheckRecord] = []
            checked[instance] = (f"same orbit as {label}", outcomes)
            for o in run(instance, sub):
                outcomes.append(o)
                yield o._replace(instance=record + o.instance)
            continue
        note, outcomes = checked[first]
        for o in outcomes:
            if o.verdict != SKIP:
                o = o._replace(seed=sub, note=f"{note}; {o.note}" if o.note else note)
            yield o._replace(instance=record + o.instance)


def _minus_edge(entry: CorpusEntry, seed: int) -> Iterator[CheckRecord]:
    """The rank of G - e for every edge e of a homology sphere's graph G, in
    d = dim + 1 >= 4, must be the one its prime factors predict: target - 1
    when every prime factor that contains e (by vertex set) is a simplex
    boundary, that is, has d + 1 vertices, and the rigid target otherwise.

    G is d-rigid (Fogelsanger 1988), so R(G - e), R(G) without e's row, has
    rank target exactly when some stress of G is nonzero on e, and target - 1
    otherwise.  A connected sum glues its sides' rigid graphs G_1 and G_2
    along the complete graph K_d on the missing facet's vertices; the union
    is rigid with rank r_1 + r_2 - C(d,2) (Asimow-Roth 1979), so its stress
    space has dimension s_1 + s_2.  A stress of either side is one of G, and
    two that cancel give a stress of K_d, which has none; so S(G) is the
    direct sum of S(G_1) and S(G_2), and, factor by factor, of the factors'
    S(G_i).  A factor's graph is induced by its vertex set, so e is stressed
    in G exactly when it is stressed in some factor that contains it.  A
    simplex boundary's graph K_{d+1} has no stress.  Any other prime factor
    is a prime homology sphere with g2 > 0, where the paper's theorem keeps
    G_i - e rigid: every edge carries a stress of G_i.  A record at the
    target proves rigidity; a predicted shortfall comes from decide_rigidity
    and is exact where its rank meets the peeling bound (_rank_bound).

    All edge records of one graph share one sub-seed: one elimination at
    that seed ranks every deletion.
    """
    delta, name, d = entry.complex, entry.name, entry.d
    graph = graph_of(delta)
    target = rigidity_target(len(graph.vertices), d)
    factors = [factor.vertices for factor in prime_factors(delta)]
    sub = derive_seed(seed, "minus-edge", name)
    for (a, b), rank in edge_deletion_ranks(graph, d, sub).items():
        short = all(len(vs) == d + 1 for vs in factors if {a, b} <= vs)
        yield _ranked(f"{name}:e={a}-{b}", rank, target - short, sub)


def _missing_faces(entry: CorpusEntry, seed: int) -> Iterator[CheckRecord]:
    """Edges inside missing faces of dimension 2..d-2: G - e must admit a
    passing Replacement certificate (the paper's lemma) over the stars of
    sigma - e and of the empty face, a leaf on G that minus_edge, run first,
    recorded rigid.  minus_edge also ranks G - e, so this kind reports none.

    A complex without such faces gets one skip record: nothing is checked,
    so nothing passes.  The edge records of one graph share one sub-seed,
    at which their certificates are checked.  Only the first (sigma, e) of
    each orbit under the entry's symmetries is checked (_per_orbit): an
    automorphism maps missing faces to missing faces and G - e onto G - ge.
    """
    delta, name, d = entry.complex, entry.name, entry.d
    qualifying = [f for f in delta.missing_faces() if 2 <= len(f) - 1 <= d - 2]
    if not qualifying:
        yield CheckRecord(
            "", f"{name}:vacuous", SKIP, seed=seed, note="no missing faces of dimension 2..d-2"
        )
        return
    sub = derive_seed(seed, "missing-face", name)
    instances = [
        (sigma, frozenset(pair)) for sigma in qualifying for pair in combinations(sorted(sigma), 2)
    ]

    def run(instance: _Instance, sub: int) -> Iterator[CheckRecord]:
        ok = check(certify_missing_face_edge(delta, *instance), sub)
        yield CheckRecord("", "", PASS if ok else FAIL, seed=sub)

    def identify(instance: _Instance) -> tuple[str, int]:
        return f"s={face_label(instance[0])}:e={face_label(instance[1])}", sub

    yield from _per_orbit(entry, instances, identify, run)


def _stars(entry: CorpusEntry, seed: int) -> Iterator[CheckRecord]:
    """Certificates for the stars of all faces with |sigma| <= d-3 must
    pass, d = dim + 1.

    The empty face's star is the whole complex, so its record says that G
    is d-rigid.  For a sphere g2 = f1 - target(n, d), so that is also the
    statement that G's stress space has dimension g2.

    Only the first face of each orbit under the entry's symmetries, in
    check order, is checked, at its own seed (_per_orbit): an automorphism g
    maps star(sigma) onto star(g sigma), so both stars are d-rigid or
    neither is.
    """
    delta, d = entry.complex, entry.d
    faces: list[_Instance] = [(frozenset(),)]
    for size in range(1, d - 2):
        faces.extend((f,) for f in sorted(delta.faces_of_dim(size - 1), key=sorted))

    def identify(instance: _Instance) -> tuple[str, int]:
        label = face_label(instance[0])
        return f"s={label}", derive_seed(seed, "star", entry.name, label)

    def run(instance: _Instance, sub: int) -> Iterator[CheckRecord]:
        ok = check(certify_star_rigidity(delta, instance[0]), sub)
        yield CheckRecord("", "", PASS if ok else FAIL, seed=sub)

    yield from _per_orbit(entry, faces, identify, run)


def _contractions(
    entry: CorpusEntry, seed: int, edges: Sequence[_Instance] | None = None
) -> Iterator[CheckRecord]:
    """The d=4 contraction identity rank(Rig(G-e)) = rank(Rig(G of the
    contraction)) + 4 for each edge, every edge in sorted order unless
    `edges` names some, checked at a degenerate embedding that merges the
    endpoints and again at independent generic points, on the first edge of
    each orbit under the entry's symmetries (_per_orbit).  The degenerate
    record ranks G-e and the contraction at one merged point
    (contraction_ranks).  The contracted graph is G's, contracted:
    each face of the contracted complex is the image of a face of delta, and
    a face dropped inside a larger one takes no edge with it, so it has the
    edges of SimplicialComplex.contract_edge's result.

    Qualification: the edge's link has >= 4 vertices, counted from the
    facets that contain the edge, and equals the intersection of the
    endpoint links.  Unqualified edges are skips.
    """
    delta = entry.complex
    graph = graph_of(delta)
    fresh = max(delta.vertices) + 1
    if edges is None:
        edges = [(frozenset(edge),) for edge in graph.sorted_edges()]

    def identify(instance: _Instance) -> tuple[str, int]:
        a, b = sorted(instance[0])
        return f"e={a}-{b}", derive_seed(seed, "contraction", entry.name, a, b)

    def run(instance: _Instance, sub: int) -> Iterator[CheckRecord]:
        edge = instance[0]
        a, b = sorted(edge)
        star = [f for f in delta.facets if edge <= f]
        if len(frozenset().union(*star) - edge) < 4:
            yield CheckRecord("", "", SKIP, seed=seed, note="link has < 4 vertices")
            return
        if not delta.link_condition(edge):
            yield CheckRecord(
                "", "", SKIP, seed=seed, note="link(e) != link(a) * link(b) intersection"
            )
            return
        g_minus = graph.remove_edge(a, b)
        lhs, rhs = contraction_ranks(g_minus, a, b, 4, derive_seed(sub, "degenerate"))
        yield _ranked(":degenerate", lhs, rhs + 4, sub)

        g_down = graph.contract_edge(a, b, fresh)
        lhs_gen = decide_rigidity(g_minus, 4, seed=derive_seed(sub, "generic-minus")).rank
        rhs_gen = decide_rigidity(g_down, 4, seed=derive_seed(sub, "generic-down")).rank
        yield _ranked(":generic", lhs_gen, rhs_gen + 4, sub)

    yield from _per_orbit(entry, edges, identify, run)


# -- the kind table and its runner ----------------------------------------


class _Kind(NamedTuple):
    applies: Callable[[int], bool]  # at rigidity dimension d
    records: Callable[[CorpusEntry, int], Iterator[CheckRecord]]  # of an entry at a seed


# Every check kind, in run order, under its report name.
_KINDS: dict[str, _Kind] = {
    "minus_edge": _Kind(lambda d: d >= 4, _minus_edge),
    "missing_face": _Kind(lambda d: d >= 4, _missing_faces),
    "star_rigidity": _Kind(lambda d: d >= 4, _stars),
    "contraction": _Kind(lambda d: d == 4, _contractions),
}


def verify(kind: str, entry: CorpusEntry, *, seed: int = 0) -> Report:
    """The records of one check kind on one entry at a seed.  A kind that
    is not in the table raises ValueError listing the known kinds, and so
    does one that does not apply at the entry's d."""
    if kind not in _KINDS:
        raise ValueError(f"unknown check kind {kind!r}; known: {', '.join(_KINDS)}")
    return _run(kind, entry, _KINDS[kind].records(entry, seed))


def _run(kind: str, entry: CorpusEntry, records: Iterator[CheckRecord]) -> Report:
    """The report of a kind's records on an entry, each named by the kind and
    timed from the end of the record before it.  A kind that does not apply at
    the entry's d raises ValueError before the records generator runs."""
    if not _KINDS[kind].applies(entry.d):
        raise ValueError(f"{kind} does not apply at d = {entry.d}")
    report = Report()
    t0 = time.perf_counter()
    for r in records:
        elapsed = time.perf_counter() - t0
        report.add(r._replace(check=kind, elapsed=elapsed))
        t0 = time.perf_counter()
    return report


def _stacked(gamma: SimplicialComplex) -> SimplicialComplex:
    """gamma stacked over its first sorted facet with the new vertex
    max(V) + 1, whose d edges minus_edge predicts one short."""
    return stack_over_facet(gamma, gamma.sorted_facets()[0], max(gamma.vertices) + 1)


def verify_negative_control(
    gamma: SimplicialComplex,
    *,
    seed: int = 0,
    name: str = "control",
) -> Report:
    """The acceptance gate's view of the minus_edge check on a negative
    control: its records of the d edges at the vertex that stacking gamma
    over a facet adds, each passing when its rank falls short of the rigid
    target by exactly one.  With an entry's seed and name they are
    run_suite's records of that negative-control entry."""
    stacked = _stacked(gamma)
    new = f"-{max(stacked.vertices)}"
    report = verify("minus_edge", CorpusEntry(name, stacked), seed=seed)
    return Report([r for r in report.records if r.instance.endswith(new)])


def verify_contraction_reduction(
    delta: SimplicialComplex,
    e: Iterable[int],
    *,
    seed: int = 0,
    name: str = "complex",
) -> Report:
    """The contraction records of one edge e of a 3-sphere, as verify gives
    them for the complex without symmetries; an e that is not an edge of
    the complex raises ValueError, and so does a complex of another
    dimension."""
    pair = tuple(e)
    edge = frozenset(pair)
    if len(pair) != 2 or len(edge) != 2 or not delta.has_face(edge):
        raise ValueError(f"{pair} is not an edge of the complex")
    entry = CorpusEntry(name, delta)
    return _run("contraction", entry, _contractions(entry, seed, [(edge,)]))


# -- corpus and suite -----------------------------------------------------


@dataclass(frozen=True)
class CorpusEntry:
    """A named sphere, with vertex maps that generate automorphisms of it:
    the one value every check kind takes, with its seed.

    Each map is checked when the entry is made: it must name only vertices
    of the complex, send a vertex it does not name to itself, and map the
    facet set onto itself, or a ValueError names the entry.  The facets
    cover the vertices, so such a map takes the vertices onto themselves
    too: it is a bijection.
    """

    name: str
    complex: SimplicialComplex
    symmetries: tuple[dict[int, int], ...] = ()

    def __post_init__(self):
        vertices, facets = self.complex.vertices, self.complex.facets
        for g in self.symmetries:
            image = {v: g.get(v, v) for v in vertices}.__getitem__
            if not (g.keys() <= vertices and {frozenset(map(image, f)) for f in facets} == facets):
                raise ValueError(f"{self.name}: {dict(g)} is not an automorphism of the complex")

    @property
    def d(self) -> int:
        """The rigidity dimension the sphere fixes."""
        return self.complex.dim + 1


FLIP_WALK_KEEP = 6
# The cap selects the default corpus, so the machine report depends on it.
# Primeness does not limit it: traced flip walks (bench/run.py --workload
# flip-walks --trace 1, cap 14) spend 0.16 ms per missing_faces call on
# 8-11 vertices and 0.41 ms on 12-14.  What grows with the cap is the verify
# work per harvested sphere: each edge gets a deletion rank and a
# contraction check, each vertex a star certificate.
FLIP_WALK_MAX_VERTICES = 11

# Every walk starts here.  One shared start lets the walks of a process share
# its facet objects and its face index instead of rebuilding both per call.
_FLIP_WALK_START = cross_polytope(4)


def flip_walk_corpus(
    seed: int,
    count: int = FLIP_WALK_KEEP,
    walk_steps: int = 10,
    max_vertices: int = FLIP_WALK_MAX_VERTICES,
    max_walks: int = 200,
) -> list[SimplicialComplex]:
    """Distinct prime 3-spheres with g2 > 0 harvested from short seeded flip walks.

    Walks start at the 4-cross-polytope and run unfiltered; outputs are kept
    only with at most max_vertices vertices.  Long walks drift toward
    many-vertex spheres, and each verify check on a harvested sphere costs
    more with every vertex and edge; testing primeness is cheap at any
    vertex count the walks reach (see FLIP_WALK_MAX_VERTICES).
    """
    seen: set[frozenset[frozenset[int]]] = set()
    out: list[SimplicialComplex] = []
    for walk_index in range(max_walks):
        if len(out) >= count:
            break
        walk = random_flip_walk(
            _FLIP_WALK_START, walk_steps, seed=derive_seed(seed, "walk", walk_index)
        )
        for delta in walk:
            if len(delta.vertices) > max_vertices or delta.facets in seen:
                continue
            if delta.g2() <= 0 or not delta.is_prime():
                continue
            seen.add(delta.facets)
            out.append(delta)
            if len(out) >= count:
                break
    return out


FAMILIES = ("simplex", "cross-polytope", "joins", "cyclic", "flip-walks", "negative-control")
DEFAULT_FAMILIES = ("simplex", "cross-polytope", "joins", "cyclic", "flip-walks")


def _cycle(labels: Sequence[int]) -> dict[int, int]:
    """The cyclic permutation labels[0] -> labels[1] -> ... -> labels[0]."""
    return {v: labels[(i + 1) % len(labels)] for i, v in enumerate(labels)}


def _reflection(labels: Sequence[int]) -> dict[int, int]:
    """The reversal of the label sequence."""
    return dict(zip(labels, reversed(labels)))


def _simplex_symmetries(labels: Sequence[int]) -> tuple[dict[int, int], ...]:
    """A transposition and the full cycle, which generate every permutation."""
    return _cycle(labels[:2]), _cycle(labels)


def _pair_permutations(d: int) -> tuple[dict[int, int], ...]:
    """Swap the first two antipodal pairs {1, 2} and {3, 4} of the
    d-cross-polytope, and rotate the pairs: every permutation of the pairs."""
    rotate = _cycle(range(1, 2 * d + 1, 2)) | _cycle(range(2, 2 * d + 1, 2))
    return {1: 3, 3: 1, 2: 4, 4: 2}, rotate


def _family_entries(family: str, d: int, seed: int) -> Iterator[CorpusEntry]:
    """The entries one family gives at dimension d, each with a few
    generators of its construction's symmetries."""
    if family == "simplex":
        symmetries = _simplex_symmetries(range(1, d + 2))
        yield CorpusEntry(f"simplex-d{d}", boundary_simplex(d), symmetries)
    elif family == "cross-polytope":
        # flip the first pair, and permute the pairs: together they give
        # every signed permutation of the d antipodal pairs
        symmetries = ({1: 2, 2: 1}, *_pair_permutations(d))
        yield CorpusEntry(f"cross-d{d}", cross_polytope(d), symmetries)
    elif family == "joins":
        for p in range(2, d // 2 + 1):
            left, right = range(1, p + 2), range(p + 2, d + 3)
            symmetries = _simplex_symmetries(left) + _simplex_symmetries(right)
            if len(left) == len(right):
                symmetries += (dict(zip((*left, *right), (*right, *left))),)
            yield CorpusEntry(f"join-spheres-{p}-{d - p}", join_spheres(p, d - p), symmetries)
        for k in (4, 5, 6):
            cycle = range(d, d + k)
            symmetries = (*_simplex_symmetries(range(1, d)), _cycle(cycle), _reflection(cycle))
            yield CorpusEntry(f"join-cycle-d{d}-k{k}", join_simplex_cycle(d, k), symmetries)
    elif family == "cyclic":
        # Gale's evenness condition reads the same backwards, and, in even
        # d, around the cycle 1..n
        for n in (d + 2, d + 3):
            labels = range(1, n + 1)
            symmetries = (_reflection(labels),) + ((_cycle(labels),) if d % 2 == 0 else ())
            yield CorpusEntry(f"cyclic-{n}-{d}", cyclic_polytope_boundary(n, d), symmetries)
    elif family == "flip-walks" and d == 4:
        walk = flip_walk_corpus(derive_seed(seed, "corpus-walk"))
        yield from (CorpusEntry(f"flip-walk-{i}", delta) for i, delta in enumerate(walk))
    elif family == "negative-control":
        # the automorphisms of gamma that fix the stacked facet, {1, ..., d}
        # of the simplex and {1, 3, ..., 2d - 1} of the cross-polytope, fix
        # the stacked vertex too
        yield CorpusEntry(
            f"control-simplex-d{d}",
            _stacked(boundary_simplex(d)),
            _simplex_symmetries(range(1, d + 1)),
        )
        yield CorpusEntry(f"control-cross-d{d}", _stacked(cross_polytope(d)), _pair_permutations(d))


def build_corpus(families: Sequence[str], dims: Sequence[int], seed: int) -> list[CorpusEntry]:
    """Each family's entries at each dimension; every name is checked first."""
    for family in families:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    return [entry for f in families for d in dims for entry in _family_entries(f, d, seed)]


@dataclass(frozen=True)
class SuiteConfig:
    families: tuple[str, ...] = DEFAULT_FAMILIES
    dims: tuple[int, ...] = (4, 5, 6)
    seed: int = 0

    def __post_init__(self):
        # reject a configuration that checks nothing or cannot run before
        # any corpus is built
        if not self.families:
            raise ValueError("families lists no family")
        build_corpus(self.families, (), self.seed)  # rejects an unknown family, builds nothing
        if not self.dims:
            raise ValueError("dims selects no dimension")
        if any(d < 4 for d in self.dims):
            raise ValueError("suite dimensions must be >= 4")
        # a repeat would run, and report, every record of that entry again
        for key, values in (("families", self.families), ("dims", self.dims)):
            repeated = sorted(v for v, k in Counter(values).items() if k > 1)
            if repeated:
                raise ValueError(f"{key} lists {', '.join(map(str, repeated))} more than once")

    @classmethod
    def from_text(cls, text: str) -> "SuiteConfig":
        """The defaults overlaid with the text's key=value lines, each key at
        most once.  A value that does not parse, or that the config would
        reject, raises an error that names its line."""
        values: dict[str, object] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key, sep, value = line.partition("=")
                if not sep:
                    raise ValueError(f"expected key=value, got {line!r}")
                key, value = key.strip(), value.strip()
                if key in values:
                    raise ValueError(f"{key} is given more than once")
                if key == "families":
                    values[key] = tuple(t.strip() for t in value.split(",") if t.strip())
                elif key == "dims":
                    lo, dots, hi = value.partition("..")
                    if dots:
                        values[key] = tuple(range(int(lo), int(hi) + 1))
                    else:
                        values[key] = tuple(int(t) for t in value.split(",") if t.strip())
                elif key == "seed":
                    values[key] = int(value)
                else:
                    raise ValueError(f"unknown key {key!r}")
                cls(**{key: values[key]})  # checks the value here, at its line
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {exc}") from None
            except (MemoryError, OverflowError):  # a range longer than memory can hold
                raise ValueError(f"config line {lineno}: {key} lists too many values") from None
        return cls(**values)


def run_suite(config: SuiteConfig) -> Report:
    """Run every applicable check over the configured corpus.

    Every corpus entry, the negative controls among them, runs the same
    checks, all inside one rigid_verdict_memo, so a rigid shape decided in
    one entry answers the same shape in any later one, and no memo outlives
    the run.  The memo holds int tuples only, so it keeps no complex alive.
    A configuration that yields no record at all is an error.
    """
    report = Report()
    corpus = build_corpus(config.families, config.dims, config.seed)
    with rigid_verdict_memo():
        while corpus:  # each entry, and its complex's cached data, goes after its checks
            entry = corpus.pop(0)
            seed = derive_seed(config.seed, entry.name)
            for kind, row in _KINDS.items():
                if row.applies(entry.d):
                    report.extend(verify(kind, entry, seed=seed))
    if not report.records:
        raise ValueError(
            f"families {', '.join(config.families)} give no complex at dims "
            f"{', '.join(map(str, config.dims))}; the report would be empty"
        )
    return report
