"""ASCII rendering goldens (hand-drawn)."""

import pytest

from mulli import p_rim, peel_iterations, render_diagram, render_peeled


def test_render_diagram():
    assert render_diagram((3, 2)) == "[ ][ ][ ]\n[ ][ ]"
    assert render_diagram(()) == ""
    assert render_diagram((2, 1), highlight={(1, 2), (2, 1)}) == "[ ][#]\n[#]"
    # cells print as lists under `mulli render --format json`, and read back
    assert render_diagram((2, 1), highlight=[[1, 1]]) == "[#][ ]\n[ ]"


@pytest.mark.parametrize(
    "highlight, message",
    [
        ([(1.0, 1)], "cell (1.0,1) lies outside the diagram of (2, 1)"),
        ([(True, 1)], "cell (True,1) lies outside the diagram of (2, 1)"),
        ([(0, 0)], "cell (0,0) lies outside the diagram of (2, 1)"),
        ([(2, 2)], "cell (2,2) lies outside the diagram of (2, 1)"),
        ([(1, 1), [3, 1]], "cell (3,1) lies outside the diagram of (2, 1)"),
        ([5], "a cell must be a (row, col) pair, got 5"),
        ([(1,)], "a cell must be a (row, col) pair, got (1,)"),
        ([(1, 1, 1)], "a cell must be a (row, col) pair, got (1, 1, 1)"),
        (5, "highlight must be an iterable of cells, got 5"),
    ],
)
def test_render_diagram_checks_each_highlight_cell(highlight, message):
    with pytest.raises(ValueError) as err:
        render_diagram((2, 1), highlight=highlight)
    assert str(err.value) == message


def test_peel_iterations_first_layer_is_the_p_rim():
    layers = peel_iterations((9, 6, 3, 1), 5)
    assert layers[0] == p_rim((9, 6, 3, 1), 5).cells
    assert len(layers) == 3
    assert sum(len(layer) for layer in layers) == 19


def test_render_peeled_golden():
    # peeling chain (9,6,3,1) -> (5,5) -> (4,1) -> () at p=5
    assert render_peeled((9, 6, 3, 1), 5) == "\n".join([
        "[2][2][2][2][1][0][0][0][0]",
        "[2][1][1][1][1][0]",
        "[0][0][0]",
        "[0]",
    ])


def test_render_peeled_star_golden():
    # symmetric chain (6,5,5,3,3,1) -> (4,4,2,2) -> (3,2,1) -> (1) -> () at p=3;
    # the label table is symmetric because every layer is
    out = render_peeled((6, 5, 5, 3, 3, 1), 3, star=True)
    assert out == "\n".join([
        "[3][2][2][1][0][0]",
        "[2][2][1][1][0]",
        "[2][1][0][0][0]",
        "[1][1][0]",
        "[0][0][0]",
        "[0]",
    ])


def test_render_peeled_empty():
    assert render_peeled((), 3) == ""


def test_render_peeled_pads_to_uniform_width():
    # the corner cell goes in the very last layer, so its label is the
    # layer count minus one, padded to the widest label
    lam = tuple(range(20, 0, -2)) + (1,) * 10
    layers = peel_iterations(lam, 3)
    out = render_peeled(lam, 3)
    width = len(str(len(layers) - 1))
    assert out.splitlines()[0].startswith(f"[{len(layers) - 1:>{width}}]")
    assert len(out.splitlines()) == len(lam)
