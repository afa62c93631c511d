"""Line-oriented text format for complexes.

Facet lists: one facet per line, whitespace-separated integer labels.
Lines starting with '#' are comments; blank lines are ignored.
"""

from __future__ import annotations

from .complexes import SimplicialComplex


def _data_lines(text: str) -> list[list[int]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ValueError(f"line {lineno}: expected integer labels, got {line!r}")
    return rows


def parse_facets(text: str) -> SimplicialComplex:
    rows = _data_lines(text)
    if not rows:
        raise ValueError("no facets in input")
    return SimplicialComplex(rows)


def format_facets(delta: SimplicialComplex) -> str:
    return "\n".join(" ".join(str(v) for v in f) for f in delta.sorted_facets()) + "\n"
