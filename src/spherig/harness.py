"""Verification harness: runs the rigidity checks over generated corpora.

Six check kinds, each producing per-instance records:

  minus_edge        every edge deletion of a prime g2>0 sphere graph stays rigid
  negative_control  stacking then deleting a new edge drops the rank by exactly 1
  missing_face      edges inside missing faces of dimension 2..d-2: engine + certificate
  contraction       d=4 rank identity rank(G-e) = rank(G of contracted) + 4
  star_rigidity     star graphs of faces with |sigma| <= d-3 are rigid (certificates)
  g2_stress         left-kernel dimension of the rigidity matrix equals g2

Each check kind is a generator that yields one outcome per instance; its
decorator times the outcomes and turns them into records, which carry the
sub-seed that reproduces them.  build_corpus alone knows the families, the
negative controls among them; run_suite runs one loop over its entries.
The machine report is one tab-separated line per record (check, instance,
verdict, rank, target, seed), sorted, so equal configurations give
byte-identical output.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .certificates import certify_missing_face_edge, certify_star_rigidity, check
from .complexes import SimplicialComplex
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
    DEFAULT_TRIALS,
    Embedding,
    RigidityMatrix,
    decide_rigidity,
    derive_seed,
    edge_deletion_ranks,
    random_embedding,
    rigid_verdict_memo,
    rigidity_target,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"
_COLUMNS = ("check", "instance", "verdict", "rank", "target", "seed")


@dataclass
class CheckRecord:
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
        lines = sorted(r.machine_line() for r in self.records)
        return "\n".join(lines) + "\n"

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


class _Outcome(NamedTuple):
    """One checked instance, as a check kind yields it."""

    instance: str
    verdict: str
    rank: int | None = None
    target: int | None = None
    seed: int = 0
    note: str = ""


def _ranked(instance: str, rank: int, target: int, seed: int) -> _Outcome:
    """An outcome that passes exactly when the rank meets its target."""
    return _Outcome(instance, PASS if rank == target else FAIL, rank, target, seed)


def _check_kind(kind: str):
    """Make a generator of outcomes into a verify function: it takes the
    generator's arguments and returns the Report of the timed outcomes."""

    def decorate(outcomes):
        @functools.wraps(outcomes)
        def verify(*args, **kwargs) -> Report:
            report = Report()
            t0 = time.perf_counter()
            for o in outcomes(*args, **kwargs):
                elapsed = time.perf_counter() - t0
                report.add(
                    CheckRecord(
                        kind, o.instance, o.verdict, o.rank, o.target, o.seed, elapsed, o.note
                    )
                )
                t0 = time.perf_counter()
            return report

        return verify

    return decorate


@_check_kind("minus_edge")
def verify_minus_edge(
    delta: SimplicialComplex,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    name: str = "complex",
) -> Iterator[_Outcome]:
    """Every single-edge deletion must leave the graph d-rigid, d = dim + 1.

    Applies only to prime spheres with positive g2; inputs failing either
    gate produce a single skip record, not failures.  All edge records of
    one graph share one sub-seed: one elimination at that seed ranks every
    deletion.
    """
    if delta.dim < 3:
        raise ValueError("minus-edge verification needs d >= 4")
    if not delta.is_prime():
        yield _Outcome(name, SKIP, seed=seed, note="not prime")
        return
    if delta.g2() <= 0:
        yield _Outcome(name, SKIP, seed=seed, note="g2 = 0")
        return
    d = delta.dim + 1
    graph = graph_of(delta)
    target = rigidity_target(len(graph.vertices), d)
    sub = derive_seed(seed, "minus-edge", name)
    for (a, b), rank in edge_deletion_ranks(graph, d, trials, sub).items():
        yield _ranked(f"{name}:e={a}-{b}", rank, target, sub)


@_check_kind("negative_control")
def verify_negative_control(
    gamma: SimplicialComplex,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    name: str = "control",
) -> Iterator[_Outcome]:
    """Stack over a facet, then delete an edge at the new vertex: rank must
    fall short of the rigid target by exactly one, in d = dim + 1."""
    d = gamma.dim + 1
    facet = sorted(gamma.sorted_facets()[0])
    v_new = max(gamma.vertices) + 1
    graph = graph_of(stack_over_facet(gamma, facet, v_new))
    expected = rigidity_target(len(graph.vertices), d) - 1
    for u in facet:
        sub = derive_seed(seed, "negative-control", name, u, v_new)
        rank = decide_rigidity(graph.remove_edge(u, v_new), d, trials, sub).rank
        yield _ranked(f"{name}:e={u}-{v_new}", rank, expected, sub)


@_check_kind("missing_face")
def verify_missing_face_lemma(
    delta: SimplicialComplex,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    name: str = "complex",
) -> Iterator[_Outcome]:
    """Edges inside missing faces of dimension 2..d-2: the graph minus the
    edge must be engine-rigid AND admit a passing Replacement certificate.

    A complex without such faces gets one skip record: nothing is checked,
    so nothing passes.  The edge records of one graph share one sub-seed,
    for the ranks and the certificates alike.  Each rank is one
    decide_rigidity of the graph minus the edge; inside run_suite that is a
    memo hit on the rigid deletion verify_minus_edge recorded.
    """
    if delta.dim < 3:
        raise ValueError("missing-face verification needs d >= 4")
    d = delta.dim + 1
    qualifying = [f for f in delta.missing_faces() if 2 <= len(f) - 1 <= d - 2]
    if not qualifying:
        yield _Outcome(
            f"{name}:vacuous", SKIP, seed=seed, note="no missing faces of dimension 2..d-2"
        )
        return
    graph = graph_of(delta)
    sub = derive_seed(seed, "missing-face", name)
    for sigma in qualifying:
        label = face_label(sigma)
        for a, b in combinations(sorted(sigma), 2):
            verdict = decide_rigidity(graph.remove_edge(a, b), d, trials, sub)
            cert_ok = check(certify_missing_face_edge(delta, sigma, (a, b)), trials, sub)
            yield _Outcome(
                f"{name}:s={label}:e={a}-{b}",
                PASS if (verdict.is_rigid and cert_ok) else FAIL,
                verdict.rank,
                verdict.target_rank,
                sub,
                "" if cert_ok else "certificate rejected",
            )


@_check_kind("contraction")
def verify_contraction_reduction(
    delta: SimplicialComplex,
    e: Iterable[int],
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    name: str = "complex",
) -> Iterator[_Outcome]:
    """The d=4 contraction identity rank(Rig(G-e)) = rank(Rig(G of the
    contraction)) + 4, checked at a degenerate embedding that merges the
    endpoints and again at independent generic points.

    Qualification: the edge's link has >= 4 vertices and equals the
    intersection of the endpoint links.  Unqualified edges are skips.
    """
    if delta.dim != 3:
        raise ValueError("contraction verification is specific to 3-spheres (d = 4)")
    edge = frozenset(e)
    a, b = sorted(edge)
    base = f"{name}:e={a}-{b}"
    if len(delta.link_star_graphs(edge)[0].vertices) < 4:
        yield _Outcome(base, SKIP, seed=seed, note="link has < 4 vertices")
        return
    if not delta.link_condition(edge):
        yield _Outcome(
            base, SKIP, seed=seed, note="link(e) != link(a) * link(b) intersection"
        )
        return
    v_new = max(delta.vertices) + 1
    g_minus = graph_of(delta).remove_edge(a, b)
    g_down = graph_of(delta.contract_edge(edge, v_new))
    sub = derive_seed(seed, "contraction", name, a, b)

    # degenerate point: both endpoints at the same random location, and the
    # merged vertex of the contraction placed right there
    phi = random_embedding(g_minus, 4, derive_seed(sub, "degenerate"))
    shared = phi.coords[a]
    coords = dict(phi.coords)
    coords[b] = shared
    down_coords = {v: coords[v] for v in g_down.vertices if v != v_new}
    down_coords[v_new] = shared
    lhs = RigidityMatrix(g_minus, Embedding(4, coords)).rank()
    rhs = RigidityMatrix(g_down, Embedding(4, down_coords)).rank()
    yield _ranked(f"{base}:degenerate", lhs, rhs + 4, sub)

    lhs_gen = decide_rigidity(g_minus, 4, trials, derive_seed(sub, "generic-minus")).rank
    rhs_gen = decide_rigidity(g_down, 4, trials, derive_seed(sub, "generic-down")).rank
    yield _ranked(f"{base}:generic", lhs_gen, rhs_gen + 4, sub)


@_check_kind("star_rigidity")
def verify_star_rigidity(
    delta: SimplicialComplex,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    name: str = "complex",
) -> Iterator[_Outcome]:
    """Certificates for the stars of all faces with |sigma| <= d-3 must
    pass, d = dim + 1."""
    if delta.dim < 3:
        raise ValueError("star verification needs d >= 4")
    d = delta.dim + 1
    faces: list[frozenset[int]] = [frozenset()]
    for size in range(1, d - 2):
        faces.extend(sorted(delta.faces_of_dim(size - 1), key=sorted))
    for face in faces:
        label = face_label(face)
        sub = derive_seed(seed, "star", name, label)
        ok = check(certify_star_rigidity(delta, face), trials, sub)
        yield _Outcome(f"{name}:s={label}", PASS if ok else FAIL, seed=sub)


@_check_kind("g2_stress")
def verify_g2_stress(
    delta: SimplicialComplex,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    name: str = "complex",
) -> Iterator[_Outcome]:
    """The stress space dimension (edges minus rank) must equal g2."""
    sub = derive_seed(seed, "g2-stress", name)
    stress_dim = decide_rigidity(graph_of(delta), delta.dim + 1, trials, sub).stress_dim
    yield _ranked(name, stress_dim, delta.g2(), sub)


# -- corpus and suite -----------------------------------------------------


@dataclass
class CorpusEntry:
    name: str
    complex: SimplicialComplex
    control: bool = False  # a negative control: stacked over, not checked

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


def _family_entries(family: str, d: int, seed: int) -> Iterator[CorpusEntry]:
    """The entries one family gives at dimension d."""
    if family == "simplex":
        yield CorpusEntry(f"simplex-d{d}", boundary_simplex(d))
    elif family == "cross-polytope":
        yield CorpusEntry(f"cross-d{d}", cross_polytope(d))
    elif family == "joins":
        for p in range(2, d // 2 + 1):
            yield CorpusEntry(f"join-spheres-{p}-{d - p}", join_spheres(p, d - p))
        for k in (4, 5, 6):
            yield CorpusEntry(f"join-cycle-d{d}-k{k}", join_simplex_cycle(d, k))
    elif family == "cyclic":
        for n in (d + 2, d + 3):
            yield CorpusEntry(f"cyclic-{n}-{d}", cyclic_polytope_boundary(n, d))
    elif family == "flip-walks" and d == 4:
        walk = flip_walk_corpus(derive_seed(seed, "corpus-walk"))
        yield from (CorpusEntry(f"flip-walk-{i}", delta) for i, delta in enumerate(walk))
    elif family == "negative-control":
        yield CorpusEntry(f"control-simplex-d{d}", boundary_simplex(d), control=True)
        yield CorpusEntry(f"control-cross-d{d}", cross_polytope(d), control=True)


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
    trials: int = DEFAULT_TRIALS
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
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{key} lists {', '.join(map(str, repeated))} more than once")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_file(cls, path: str, base: "SuiteConfig | None" = None) -> "SuiteConfig":
        with open(path) as fh:
            return cls.from_text(fh.read(), base)

    @classmethod
    def from_text(cls, text: str, base: "SuiteConfig | None" = None) -> "SuiteConfig":
        """A new config: base (the defaults when None) overlaid with the
        text's key=value lines, each key at most once.  base itself is left
        unchanged.  A value that does not parse, or that the config would
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
                elif key in ("trials", "seed"):
                    values[key] = int(value)
                else:
                    raise ValueError(f"unknown key {key!r}")
                replace(cls(), **{key: values[key]})  # checks the value here, at its line
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {exc}") from None
        return replace(base if base is not None else cls(), **values)


def run_suite(config: SuiteConfig) -> Report:
    """Run every applicable check over the configured corpus.

    Each corpus entry, a sphere or a negative control, runs inside its own
    rigid_verdict_memo, so repeated rigid decisions within the entry reuse
    one verdict and no memo outlives the entry.  A configuration that yields
    no record at all is an error.
    """
    report = Report()
    for entry in build_corpus(config.families, config.dims, config.seed):
        delta = entry.complex
        options = dict(
            trials=config.trials, seed=derive_seed(config.seed, entry.name), name=entry.name
        )
        with rigid_verdict_memo():
            if entry.control:
                report.extend(verify_negative_control(delta, **options))
            else:
                for verify in (
                    verify_minus_edge,
                    verify_missing_face_lemma,
                    verify_star_rigidity,
                    verify_g2_stress,
                ):
                    report.extend(verify(delta, **options))
                if entry.d == 4:
                    for edge in graph_of(delta).sorted_edges():
                        report.extend(verify_contraction_reduction(delta, edge, **options))
    if not report.records:
        raise ValueError(
            f"families {', '.join(config.families)} give no complex at dims "
            f"{', '.join(map(str, config.dims))}; the report would be empty"
        )
    return report
