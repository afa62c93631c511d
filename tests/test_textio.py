import pytest

import spherig as sp
from spherig.textio import format_facets, parse_facets


class TestFacetText:
    def test_round_trip(self):
        delta = sp.cross_polytope(4)
        assert parse_facets(format_facets(delta)) == delta

    def test_comments_and_blanks_ignored(self):
        text = "# a square\n\n1 2\n2 3\n\n3 4\n# done\n1 4\n"
        assert parse_facets(text) == sp.cycle_complex([1, 2, 3, 4])

    def test_output_is_sorted_with_trailing_newline(self):
        text = format_facets(sp.boundary_simplex(2))
        assert text == "1 2\n1 3\n2 3\n"

    def test_bad_token_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_facets("1 2\n2 x\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no facets"):
            parse_facets("# nothing here\n")
