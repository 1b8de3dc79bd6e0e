"""Small graph helpers shared by machine extraction, minimisation, the
strategy certifier and the machine verifier: one breadth-first numbering,
its tree paths, and one array search for a cycle of a given maximum
colour."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np


def breadth_first(start, successors: Callable[[Any], Iterable]) -> tuple[list, list[list[int]]]:
    """The vertices reachable from ``start``, numbered in breadth-first
    discovery order: ``order[i]`` is vertex number ``i`` (``start`` is 0) and
    ``rows[i]`` the numbers of its successors, in the order and with the
    repeats that ``successors`` gives them."""
    index = {start: 0}
    order = [start]
    rows = []
    for v in order:
        row = []
        for w in successors(v):
            i = index.get(w)
            if i is None:
                i = index[w] = len(order)
                order.append(w)
            row.append(i)
        rows.append(row)
    return order, rows


def tree_path(rows: Sequence[Sequence[int]], target: int) -> list[int]:
    """The path from vertex 0 to ``target`` in the breadth-first tree of
    ``rows`` (as :func:`breadth_first` returns them): each vertex is reached
    from the vertex whose row lists it first, reading the rows in order."""
    parent: dict[int, int] = {}
    for v, row in enumerate(rows):
        for w in row:
            parent.setdefault(w, v)
    path = [target]
    while path[-1] != 0:
        path.append(parent[path[-1]])
    return path[::-1]


def max_colour_cycle(
    succ: np.ndarray,
    ptr: np.ndarray,
    colour: np.ndarray,
    inside: np.ndarray,
    colours: Iterable[int],
) -> tuple[int, list[int]] | None:
    """First cycle inside the mask ``inside`` whose maximum colour is one of
    ``colours``, tried in order; ``(d, cycle)`` with the closing edge
    implicit, or ``None``.

    Vertex ``v`` has the successors ``succ[ptr[v]:ptr[v + 1]]``, at least
    one each.  For each ``d``, Emerson and Lei's fixpoint keeps the vertices
    of colour at most ``d`` that reach a colour-``d`` vertex kept in one step
    or more; it is non-empty exactly when such a cycle exists.  The cycle
    starts at the smallest colour-``d`` vertex whose breadth-first walk in
    the fixpoint comes back, and closes at the walk's first vertex with an
    edge back.
    """
    starts = ptr[:-1]
    for d in colours:
        kept = inside & (colour <= d)
        while (target := kept & (colour == d)).any():
            # widen the kept vertices with a path of one step or more to a
            # target, one gather of the successors a step
            reach = np.zeros_like(kept)
            while True:
                wider = kept & np.logical_or.reduceat((target | reach)[succ], starts)
                if np.array_equal(wider, reach):
                    break
                reach = wider
            if np.array_equal(reach, kept):
                succ_list, ptr_list, in_kept = succ.tolist(), ptr.tolist(), kept.tolist()
                for w in target.nonzero()[0].tolist():
                    order, rows = breadth_first(w, lambda v: [
                        t for t in succ_list[ptr_list[v]:ptr_list[v + 1]] if in_kept[t]])
                    closing = next((i for i, row in enumerate(rows) if 0 in row), None)
                    if closing is not None:
                        return d, [order[i] for i in tree_path(rows, closing)]
                raise AssertionError("no target of the fixpoint lies on a cycle")
            kept = reach
    return None
