import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherig as sp
from spherig.cli import main
from spherig.complexes import SimplicialComplex
from spherig.textio import format_facets, parse_facets

from oracles import connected_sum


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed(monkeypatch, text: str) -> None:
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


class TestGen:
    def test_gen_cross_polytope(self, capsys):
        code, out, _ = run(capsys, "gen", "cross-polytope", "4")
        assert code == 0
        assert parse_facets(out) == sp.cross_polytope(4)

    def test_gen_cyclic_takes_n_then_d(self, capsys):
        code, out, _ = run(capsys, "gen", "cyclic", "7", "4")
        assert code == 0
        assert parse_facets(out) == sp.cyclic_polytope_boundary(7, 4)

    def test_wrong_arity_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "join-spheres", "2")
        assert code == 2
        assert "p q" in err

    def test_bad_parameter_reports_error(self, capsys):
        code, _, err = run(capsys, "gen", "cross-polytope", "1")
        assert code == 2
        assert err.startswith("error:")


class TestQueries:
    def test_g2_from_stdin(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, _ = run(capsys, "g2")
        assert (code, out.strip()) == (0, "2")

    def test_g2_from_file(self, capsys, tmp_path):
        path = tmp_path / "sphere.txt"
        path.write_text(format_facets(sp.join_spheres(2, 2)))
        code, out, _ = run(capsys, "g2", str(path))
        assert (code, out.strip()) == (0, "1")

    def test_prime_exit_codes(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        assert run(capsys, "prime")[0] == 0
        stacked = sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9)
        feed(monkeypatch, format_facets(stacked))
        code, out, _ = run(capsys, "prime")
        assert code == 1
        assert out.strip() == "not prime"

    @pytest.mark.parametrize("command", ["prime", "g2"])
    @pytest.mark.parametrize(
        "facets",
        [
            "1 2 3\n1 2 4\n",  # a 2-disc: four ridges lie in one facet each
            "1 2 3\n1 4\n",  # impure
            "1 2 3\n1 2 4\n1 2 5\n1 3 4\n2 3 5\n",  # ridge 12 in three facets
        ],
    )
    def test_sphere_commands_reject_non_pseudomanifolds(
        self, capsys, monkeypatch, command, facets
    ):
        feed(monkeypatch, facets)
        code, out, err = run(capsys, command)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "pseudomanifold" in err

    def test_missing_faces_output(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.cross_polytope(3)))
        code, out, _ = run(capsys, "missing-faces")
        assert code == 0
        assert out.splitlines() == ["1 2", "3 4", "5 6"]

    def test_contract_pipes_facets(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.boundary_simplex(3)))
        code, out, _ = run(capsys, "contract", "1", "2")
        assert code == 0
        assert parse_facets(out) == sp.boundary_simplex(3).contract_edge((1, 2), 5)

    def test_malformed_input_is_error_2(self, capsys, monkeypatch):
        feed(monkeypatch, "1 2\n2 zzz\n")
        code, _, err = run(capsys, "g2")
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_error_2(self, capsys):
        code, _, err = run(capsys, "g2", "/nonexistent/sphere.txt")
        assert code == 2


class TestRigid:
    def test_rigid_sphere(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, _ = run(capsys, "rigid", "--dim", "4", "--seed", "3")
        assert code == 0
        assert "rigid=true" in out
        assert "rank=22" in out and "target=22" in out and "stress=2" in out

    def test_minus_edge_stays_rigid(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, _ = run(capsys, "rigid", "--dim", "4", "--minus-edge", "1,3", "--seed", "3")
        assert code == 0
        assert "rank=22" in out and "stress=1" in out

    def test_flexible_graph_exits_1(self, capsys, monkeypatch):
        stacked = sp.stack_over_facet(sp.boundary_simplex(4), (1, 2, 3, 4), 6)
        feed(monkeypatch, format_facets(stacked))
        code, out, _ = run(capsys, "rigid", "--dim", "4", "--minus-edge", "1,6", "--seed", "3")
        assert code == 1
        assert "rigid=false" in out

    @pytest.mark.parametrize("value", ["1", "1,3,5", "x,3", "1;3"])
    def test_malformed_minus_edge_is_error_2(self, capsys, monkeypatch, value):
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, err = run(capsys, "rigid", "--dim", "4", "--minus-edge", value)
        assert (code, out) == (2, "")
        assert err == f"error: --minus-edge expects a,b, got {value!r}\n"

    def test_any_complex_graph_is_accepted(self, capsys, monkeypatch):
        feed(monkeypatch, "1 2 3\n1 2 4\n")  # a 2-disc; its graph is K4 minus an edge
        code, out, _ = run(capsys, "rigid", "--dim", "2", "--seed", "1")
        assert code == 0
        assert "rigid=true rank=5 target=5" in out

    def test_graph_on_at_most_d_vertices(self, capsys, monkeypatch):
        # one target for every size: C(n,2) here, met only by the complete graph
        feed(monkeypatch, "1 2 3\n")
        code, out, _ = run(capsys, "rigid", "--dim", "4")
        assert code == 0
        assert "rigid=true rank=3 target=3" in out
        feed(monkeypatch, "1 2\n2 3\n")
        code, out, _ = run(capsys, "rigid", "--dim", "4")
        assert code == 1
        assert "rigid=false rank=2 target=3" in out

    def test_seed_env_var_is_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERIG_SEED", "77")
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        _, from_env, _ = run(capsys, "rigid", "--dim", "4")
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        _, from_flag, _ = run(capsys, "rigid", "--dim", "4", "--seed", "77")
        assert from_env == from_flag
        assert "seed=77" in from_env

    def test_bad_seed_env_var_is_read_only_without_a_seed_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("SPHERIG_SEED", "abc")
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, _ = run(capsys, "rigid", "--dim", "4", "--seed", "5")
        assert code == 0 and "seed=5" in out
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, err = run(capsys, "rigid", "--dim", "4")
        assert (code, out) == (2, "")
        assert err == "error: SPHERIG_SEED must be an integer, got 'abc'\n"


class TestDecompose:
    def test_prime_input_is_one_factor(self, capsys, monkeypatch):
        feed(monkeypatch, format_facets(sp.cross_polytope(4)))
        code, out, _ = run(capsys, "decompose")
        assert code == 0
        assert out.startswith("# factor 0")
        assert parse_facets(out) == sp.cross_polytope(4)

    def test_sum_splits_into_two(self, capsys, monkeypatch):
        facets = sp.cross_polytope(4).facets
        summed = SimplicialComplex(connected_sum(facets, (1, 3, 5, 7), facets, (1, 3, 5, 7)))
        feed(monkeypatch, format_facets(summed))
        code, out, _ = run(capsys, "decompose")
        assert code == 0
        assert out.count("# factor") == 2


class TestVerify:
    CONFIG = "families = cross-polytope, negative-control\ndims = 4\ntrials = 1\nseed = 11\n"

    def test_verify_passes_and_reports(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "total:" in out
        assert " 0 fail" in out

    def test_machine_output_is_byte_identical_across_runs(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(self.CONFIG)
        first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run(capsys, "verify", "--config", str(cfg), "--machine", str(first))[0] == 0
        assert run(capsys, "verify", "--config", str(cfg), "--machine", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_machine_dash_prints_tsv(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--machine", "-")
        assert code == 0
        line = out.splitlines()[0]
        assert len(line.split("\t")) == 6

    def test_seed_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(self.CONFIG)
        _, base, _ = run(capsys, "verify", "--config", str(cfg), "--machine", "-")
        _, reseeded, _ = run(capsys, "verify", "--config", str(cfg), "--seed", "99", "--machine", "-")
        assert base != reseeded

    def test_unknown_family_in_config_is_error_2(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("families = foo\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "unknown family" in err

    # each rejected value, with the error that names its line (line 3 below)
    REJECTED = {
        "dims = 4..3": "dims selects no dimension",
        "dims =": "dims selects no dimension",
        "dims = 3": "suite dimensions must be >= 4",
        "families =": "families lists no family",
        "families = spheres": "unknown family 'spheres'; known: ",
        "trials = 0": "trials must be >= 1",
        "families = simplex, simplex": "families lists simplex more than once",
        "dims = 4, 4": "dims lists 4 more than once",
    }

    @pytest.mark.parametrize("line", list(REJECTED))
    def test_config_that_checks_nothing_is_error_2(self, capsys, monkeypatch, tmp_path, line):
        def no_suite(config):
            raise AssertionError("the suite ran on a rejected config")

        monkeypatch.setattr("spherig.cli.run_suite", no_suite)
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(f"# suite\nseed = 3\n{line}\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: config line 3: {self.REJECTED[line]}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("families = simplex\ndims = 4..5..6\n", "invalid literal for int()"),
            ("# a comment\ntrials = x\n", "invalid literal for int()"),
            ("seed = 1\nseed = 2\n", "seed is given more than once"),
            ("dims = 4\ndims = 5\n", "dims is given more than once"),
        ],
    )
    def test_config_line_errors_name_the_line(
        self, capsys, monkeypatch, tmp_path, text, message
    ):
        def no_suite(config):
            raise AssertionError("the suite ran on a rejected config")

        monkeypatch.setattr("spherig.cli.run_suite", no_suite)
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config line 2: {message}")

    def test_bad_seed_env_var_is_read_only_without_a_seed_flag(
        self, capsys, monkeypatch, tmp_path
    ):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(self.CONFIG)
        _, expected, _ = run(capsys, "verify", "--config", str(cfg), "--seed", "5", "--machine", "-")
        monkeypatch.setenv("SPHERIG_SEED", "abc")
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--seed", "5", "--machine", "-")
        assert (code, out) == (0, expected)
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: SPHERIG_SEED must be an integer, got 'abc'\n"

    def test_config_with_an_empty_report_is_error_2(self, capsys, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text("families = flip-walks\ndims = 5\n")  # flip walks are d = 4 only
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "empty" in err

    def test_machine_output_is_identical_across_processes(self, tmp_path):
        cfg = tmp_path / "suite.cfg"
        cfg.write_text(self.CONFIG)
        src = str(Path(sp.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-m", "spherig.cli", "verify", "--config", str(cfg),
                 "--machine", "-"],
                env=env, stdout=subprocess.PIPE, timeout=120, check=True,
            )
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 91
        assert outputs[0] == outputs[1]


# Malformed facet text of two kinds: junk lines (bad tokens, negative or huge
# labels, comments, arbitrary text), and the facets of a real sphere with
# facets dropped and junk lines mixed in, so that the commands' own checks
# run and not just the parser.
_token = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["x", "1.5", "0x1", "#", "-", "+3", "1_0", "\u0663", str(2**70)]),
)
_line = st.one_of(
    st.lists(_token, max_size=5).map(" ".join),
    st.sampled_from(["# comment", "", "   ", "\t"]),
    st.text(max_size=8),
)
_SPHERES = [
    format_facets(delta).splitlines()
    for delta in (
        sp.cross_polytope(3),
        sp.cross_polytope(4),
        sp.stack_over_facet(sp.cross_polytope(4), (1, 3, 5, 7), 9),
        sp.cyclic_polytope_boundary(7, 4),
    )
]


@st.composite
def _damaged_sphere(draw) -> list[str]:
    lines = list(draw(st.sampled_from(_SPHERES)))
    for _ in range(draw(st.integers(0, 2))):
        del lines[draw(st.integers(0, len(lines) - 1))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_line))
    return lines


_facet_text = st.one_of(st.lists(_line, max_size=8), _damaged_sphere()).map("\n".join)


@pytest.mark.parametrize(
    "argv",
    [
        ["missing-faces"],
        ["prime"],
        ["g2"],
        ["contract", "1", "2"],
        ["decompose"],
        ["rigid", "--dim", "3", "--seed", "0"],
    ],
    ids=lambda argv: argv[0],
)
@settings(max_examples=40, deadline=None)
@given(text=_facet_text)
def test_malformed_facet_text_never_raises(argv, text):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")
