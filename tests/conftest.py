import pytest

import spherig as sp
from spherig.harness import DEFAULT_FAMILIES, SuiteConfig, build_corpus, run_suite


@pytest.fixture(scope="session")
def small_spheres():
    """Named (complex, d) pairs with at most 10 vertices, for oracle sweeps."""
    entries = [
        ("simplex-3", sp.boundary_simplex(3), 3),
        ("simplex-4", sp.boundary_simplex(4), 4),
        ("simplex-5", sp.boundary_simplex(5), 5),
        ("octahedron", sp.cross_polytope(3), 3),
        ("cross-4", sp.cross_polytope(4), 4),
        ("cross-5", sp.cross_polytope(5), 5),
        ("join-2-2", sp.join_spheres(2, 2), 4),
        ("join-2-3", sp.join_spheres(2, 3), 5),
        ("join-cycle-4-5", sp.join_simplex_cycle(4, 5), 4),
        ("cyclic-6-4", sp.cyclic_polytope_boundary(6, 4), 4),
        ("cyclic-7-4", sp.cyclic_polytope_boundary(7, 4), 4),
        ("cyclic-8-4", sp.cyclic_polytope_boundary(8, 4), 4),
    ]
    return entries


@pytest.fixture(scope="session")
def default_corpus():
    """The default families at dims 4..6, seed 20260823, built once for every
    sweep; d = 4 sweeps filter it by entry.d.  A test that counts work or
    spies on per-complex caches builds its own corpus instead."""
    return tuple(build_corpus(DEFAULT_FAMILIES, (4, 5, 6), 20260823))


@pytest.fixture(scope="session")
def default_report():
    """The default run's report at seed 20260823, run once for the tests
    that only read it.  A test that spies on or patches the run makes its
    own, and so does one that checks that two runs agree."""
    return run_suite(SuiteConfig(seed=20260823))
