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
RIGIDITY_TESTS = ("tests/test_rigidity.py",)

# (name, file, old text, new text, tests)
MUTANTS = [
    (
        "shape-without-n",
        RIGIDITY,
        "    return d, len(graph.vertices), sum(bits)\n",
        "    return d, 0, sum(bits)\n",
        RIGIDITY_TESTS,
    ),
    (
        "shape-without-d",
        RIGIDITY,
        "    return d, len(graph.vertices), sum(bits)\n",
        "    return 0, len(graph.vertices), sum(bits)\n",
        RIGIDITY_TESTS,
    ),
    (
        "pair-bit-with-i-and-j-swapped",
        RIGIDITY,
        "pos[b] * (pos[b] - 1) // 2 + pos[a]",
        "pos[a] * (pos[a] - 1) // 2 + pos[b]",
        RIGIDITY_TESTS,
    ),
    (
        "deletion-clears-the-previous-edge-bit",
        RIGIDITY,
        "memo.add((d, n, mask & ~bits[i]))",
        "memo.add((d, n, mask & ~bits[i - 1]))",
        RIGIDITY_TESTS,
    ),
    (
        "memo-keeps-flexible-verdicts",
        RIGIDITY,
        "    if memo is not None and is_rigid:\n        memo.add(shape)\n",
        "    if memo is not None:\n        memo.add(shape)\n",
        RIGIDITY_TESTS,
    ),
    (
        "memo-not-reset",
        RIGIDITY,
        "        _known_rigid.reset(token)\n",
        "        pass\n",
        RIGIDITY_TESTS,
    ),
    (
        "no-complete-graph-target",
        RIGIDITY,
        "    if n_vertices <= d + 1:\n        return comb(n_vertices, 2)\n",
        "",
        RIGIDITY_TESTS,
    ),
    (
        "deletion-ranks-without-stress-support",
        RIGIDITY,
        "value = rank if i in stressed else rank - 1",
        "value = rank",
        RIGIDITY_TESTS,
    ),
    (
        "deletion-ranks-without-fallback",
        RIGIDITY,
        "        if value < cap:\n",
        "        if False:\n",
        RIGIDITY_TESTS,
    ),
    (
        "flip-walk-corpus-without-dedup",
        "src/spherig/harness.py",
        "if len(delta.vertices) > max_vertices or delta.facets in seen:",
        "if len(delta.vertices) > max_vertices:",
        ("tests/test_harness.py::TestCorpus",),
    ),
    (
        "cone-check-without-edge-relation",
        "src/spherig/certificates.py",
        " or claim.edges != base.edges | spokes",
        "",
        ("tests/test_certificates.py::TestCone",),
    ),
    (
        "link-condition-without-ab-bits",
        "src/spherig/complexes.py",
        "(fa & fb) | ab in index",
        "(fa & fb) in index",
        ("tests/test_complexes.py::TestGraphsFromFacets",),
    ),
]

# Mutants known to be equivalent, kept out of MUTANTS:
# - rigidity_target branching on n_vertices <= d instead of <= d + 1: at
#   n = d + 1 both forms give C(d+1, 2).


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
