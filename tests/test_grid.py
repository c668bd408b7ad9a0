import pytest

from gridhfk import (
    GridDiagram,
    MarkerCollision,
    NotPermutation,
    OutOfRange,
    SizeMismatch,
    component_count,
    format_grid,
    parse_grid,
    render_grid,
)

from conftest import random_knot


def test_parse_basic():
    G = parse_grid("n=2\nO=1,2\nX=2,1\n")
    assert G.n == 2
    assert G.sigma_O == (1, 2)
    assert G.sigma_X == (2, 1)


def test_parse_shift_grid():
    G = parse_grid("n=5\nO=1,2,3,4,5\nX=3,4,5,1,2\n")
    assert G.n == 5
    assert G.sigma_X == (3, 4, 5, 1, 2)


def test_parse_comments_and_blank_lines():
    G = parse_grid("# a knot\n\nn=2\nO=1,2\n# interior comment\nX=2,1\n")
    assert G.sigma_X == (2, 1)


def test_parse_collision():
    with pytest.raises(MarkerCollision):
        parse_grid("n=2\nO=1,2\nX=1,2\n")


def test_parse_not_permutation():
    with pytest.raises(NotPermutation):
        parse_grid("n=2\nO=1,1\nX=2,1\n")


def test_parse_size_mismatch():
    with pytest.raises(SizeMismatch):
        parse_grid("n=3\nO=1,2\nX=2,1\n")


def test_construct_rejects_tiny_grid():
    with pytest.raises(SizeMismatch):
        GridDiagram(1, (1,), (1,))


def test_construct_collision():
    with pytest.raises(MarkerCollision):
        GridDiagram(2, (1, 2), (1, 2))


def test_format_round_trip(rng):
    for n in (2, 3, 5, 7):
        G = random_knot(rng, n)
        assert parse_grid(format_grid(G)) == G


def test_component_count_knot():
    assert component_count(GridDiagram(2, (1, 2), (2, 1))) == 1


def test_component_count_two_components():
    # X = (1 2)(3 4) against O = id traces two closed curves
    G = GridDiagram(4, (1, 2, 3, 4), (2, 1, 4, 3))
    assert component_count(G) == 2


def test_render_unknot():
    art = render_grid(GridDiagram(2, (1, 2), (2, 1)))
    assert art.splitlines() == ["XO", "OX"]


def test_render_has_one_marker_per_line(rng):
    G = random_knot(rng, 6)
    lines = render_grid(G).splitlines()
    assert len(lines) == 6
    for line in lines:
        assert line.count("X") == 1 and line.count("O") == 1


def test_cell_lookup():
    G = GridDiagram(2, (1, 2), (2, 1))
    assert G.cell(1, 1) == "O"
    assert G.cell(1, 2) == "X"
    assert G.cell(2, 2) == "O"


def test_cell_out_of_range():
    G = GridDiagram(2, (1, 2), (2, 1))
    with pytest.raises(OutOfRange):
        G.cell(3, 1)
