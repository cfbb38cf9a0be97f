"""ASCII Young diagrams, plain or labelled by peeling iteration."""

from operator import sub

from .partitions import _as_tuple, _cell_arg, _partition_arg, _parts, _self_conjugate_arg, as_partition
from .rims import _mirrored, _peel, _tail_cells


def render_diagram(lam, highlight=()):
    """Rows of [ ] cells; the cells in highlight, (row, col) pairs inside the diagram, render as [#]."""
    lam = as_partition(lam)
    marked = {_cell_arg(lam, cell) for cell in _as_tuple(highlight, "highlight must be an iterable of cells")}
    return _grid(lam, lambda i, j: "#" if (i, j) in marked else " ")


def _grid(lam, text):
    """The diagram of a trusted partition, row by row, with cell (i, j) drawn as [text(i, j)]."""
    return "\n".join("".join(f"[{text(i, j)}]" for j in range(1, part + 1)) for i, part in enumerate(lam, start=1))


def peel_iterations(lam, p, star=False):
    """Cell sets removed per peeling step, in removal order.

    star=False peels p-rims, star=True symmetrized p-rims (the latter
    needs a self-conjugate partition).
    """
    return _layers(_self_conjugate_arg(lam, p) if star else _partition_arg(lam, p), p, star)


def _layers(lam, p, star):
    """peel_iterations on a trusted partition."""
    layers = (_tail_cells(_parts(b), map(sub, b, out)) for b, out, _, _ in _peel(lam, p, star))
    return list(map(_mirrored, layers) if star else layers)


def render_peeled(lam, p, star=False):
    """Diagram with each cell labelled by the peeling step that removes it."""
    lam = _self_conjugate_arg(lam, p) if star else _partition_arg(lam, p)
    label = {cell: k for k, layer in enumerate(_layers(lam, p, star)) for cell in layer}
    width = max((len(str(v)) for v in label.values()), default=1)
    return _grid(lam, lambda i, j: f"{label[i, j]:>{width}}")
