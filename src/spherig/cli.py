"""spherig command line tool.

Complexes flow through the facet-list text format (one facet per line,
integer labels, '#' comments) on stdin/stdout or file paths.  Exit codes:
0 on success / all checks pass, 1 when a query or verification answers
negatively, 2 on usage or input errors, an input too large to build among
them.  `g2` and `prime` answer only for
pseudomanifolds and reject any other complex with exit 2.  `g2`, `prime`
and `decompose` take the rigidity dimension d = dim + 1 from their input;
only `rigid` asks for it (`--dim`), because a graph does not fix it.
`rigid` takes the graph of any complex, with any number of vertices, and
prints one line, `rigid= rank= target= stress= trials= seed=`: the rank
decide_rigidity finds, the rigid rank for that size, and the edge count
minus the rank.  `trials=` is the budget of random points, not the number
drawn.  It exits 0 when the graph is rigid and 1 when not; rigidity.py
gives when a decision stops early and why its rank is exact.

The seed is `--seed` when given, else the config file's `seed`, else 0.
No environment variable is read.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace

from .complexes import SimplicialComplex, prime_factors
from .generators import (
    boundary_simplex,
    cross_polytope,
    cyclic_polytope_boundary,
    join_simplex_cycle,
    join_spheres,
)
from .graphs import graph_of
from .harness import SuiteConfig, run_suite
from .rigidity import decide_rigidity
from .textio import format_facets, parse_facets

GEN_FAMILIES = {
    "simplex": (boundary_simplex, "d"),
    "cross-polytope": (cross_polytope, "d"),
    "join-spheres": (join_spheres, "p q"),
    "join-simplex-cycle": (join_simplex_cycle, "d k"),
    "cyclic": (cyclic_polytope_boundary, "n d"),
}


def _read_complex(path: str) -> SimplicialComplex:
    if path == "-":
        return parse_facets(sys.stdin.read())
    with open(path) as fh:
        return parse_facets(fh.read())


def _read_sphere(path: str) -> SimplicialComplex:
    """A complex for the sphere-only commands: pure, every ridge in exactly
    two facets, and facets connected through ridges."""
    delta = _read_complex(path)
    if not delta.is_pseudomanifold():
        raise ValueError(
            "input is not a pseudomanifold: the complex must be pure, with every "
            "ridge in exactly two facets and the facets connected through ridges"
        )
    return delta


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherig",
        description="simplicial sphere generators and generic-rigidity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a named sphere family as a facet list")
    gen.add_argument("family", choices=sorted(GEN_FAMILIES))
    gen.add_argument(
        "params", nargs="+", type=int,
        help="family parameters: simplex d | cross-polytope d | "
             "join-spheres p q | join-simplex-cycle d k | cyclic n d",
    )

    def complex_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", nargs="?", default="-", help="facet list file, or - for stdin")

    g2 = sub.add_parser("g2", help="print g2 = f1 - d*f0 + C(d+1,2) of a pseudomanifold")
    complex_input(g2)

    prime = sub.add_parser(
        "prime", help="test primeness of a pseudomanifold (no missing face of facet size)"
    )
    complex_input(prime)

    missing = sub.add_parser("missing-faces", help="list all minimal non-faces")
    complex_input(missing)

    contract = sub.add_parser("contract", help="contract the edge {a,b} to a fresh vertex")
    contract.add_argument("a", type=int)
    contract.add_argument("b", type=int)
    complex_input(contract)

    rigid = sub.add_parser("rigid", help="decide generic rigidity of a complex's graph")
    rigid.add_argument("--dim", type=int, required=True, help="rigidity dimension d")
    rigid.add_argument("--minus-edge", metavar="a,b", help="delete this edge first")
    rigid.add_argument("--seed", type=int, default=0)
    complex_input(rigid)

    decompose = sub.add_parser("decompose", help="split a connected sum into prime factors")
    complex_input(decompose)

    verify = sub.add_parser("verify", help="run the verification suite over a corpus")
    verify.add_argument("--config", help="key=value file: families, dims, seed")
    verify.add_argument("--seed", type=int, default=None, help="override the suite seed")
    verify.add_argument(
        "--machine", metavar="PATH",
        help="write the tab-separated machine report here ('-' prints it instead of the table)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:  # a size past memory or a machine int
        print(f"error: input too large to build ({type(exc).__name__})", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "gen":
        builder, arity = GEN_FAMILIES[args.family]
        if len(args.params) != len(arity.split()):
            raise ValueError(f"family {args.family} takes parameters: {arity}")
        sys.stdout.write(format_facets(builder(*args.params)))
        return 0

    if args.command == "g2":
        print(_read_sphere(args.path).g2())
        return 0

    if args.command == "prime":
        delta = _read_sphere(args.path)
        result = delta.is_prime()
        print("prime" if result else "not prime")
        return 0 if result else 1

    if args.command == "missing-faces":
        for face in _read_complex(args.path).missing_faces():
            print(" ".join(str(v) for v in sorted(face)))
        return 0

    if args.command == "contract":
        delta = _read_complex(args.path)
        sys.stdout.write(
            format_facets(delta.contract_edge((args.a, args.b), max(delta.vertices) + 1))
        )
        return 0

    if args.command == "rigid":
        delta = _read_complex(args.path)
        graph = graph_of(delta)
        if args.minus_edge:
            try:
                a, b = map(int, args.minus_edge.split(","))
            except ValueError:
                raise ValueError(f"--minus-edge expects a,b, got {args.minus_edge!r}") from None
            graph = graph.remove_edge(a, b)
        verdict = decide_rigidity(graph, args.dim, seed=args.seed)
        print(
            f"rigid={str(verdict.is_rigid).lower()} rank={verdict.rank} "
            f"target={verdict.target_rank} stress={verdict.stress_dim} "
            f"trials={verdict.trials} seed={args.seed}"
        )
        return 0 if verdict.is_rigid else 1

    if args.command == "decompose":
        for i, factor in enumerate(prime_factors(_read_complex(args.path))):
            print(f"# factor {i}")
            sys.stdout.write(format_facets(factor))
        return 0

    if args.command == "verify":
        config = SuiteConfig()
        if args.config:
            with open(args.config) as fh:
                config = SuiteConfig.from_text(fh.read())
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        to_file = args.machine not in (None, "-")
        # the report file is opened first, so a bad path fails before the suite runs
        with open(args.machine, "w") if to_file else nullcontext() as fh:
            report = run_suite(config)
            machine = report.machine_format()
            if to_file:
                fh.write(machine)
        sys.stdout.write(machine if args.machine == "-" else report.human_format())
        return 0 if report.ok else 1

    raise ValueError(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
