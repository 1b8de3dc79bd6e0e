"""Small graph helpers shared by machine extraction, minimisation, the
strategy certifier and the machine verifier."""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence


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


def strongly_connected_components(
    vertices: Iterable[int],
    successors: Callable[[int], Sequence[int]],
) -> list[list[int]]:
    """Tarjan's algorithm, iterative to cope with long chains."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


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


def find_max_colour_cycle(
    vertices: Iterable[int],
    successors: Callable[[int], Sequence[int]],
    colour: Callable[[int], int],
    colours: Iterable[int],
) -> tuple[int, list[int]] | None:
    """First cycle whose maximum colour is one of ``colours``, tried in order.

    For each ``d``, the non-trivial SCCs of the subgraph on vertices of colour
    at most ``d`` are searched (in Tarjan order over ``vertices``) for one
    holding a colour-``d`` vertex; the cycle starts at the smallest such
    vertex.  Returns ``(d, cycle)`` with the closing edge implicit, or
    ``None``.
    """
    vertices = list(vertices)
    for d in colours:
        sub = [v for v in vertices if colour(v) <= d]
        sub_set = set(sub)

        def sub_succ(v: int) -> list[int]:
            return [t for t in successors(v) if t in sub_set]

        for component in strongly_connected_components(sub, sub_succ):
            witnesses = [v for v in component if colour(v) == d]
            if not witnesses:
                continue
            if len(component) == 1 and component[0] not in sub_succ(component[0]):
                continue
            # the cycle closes at the first vertex, breadth-first from the
            # witness, with an edge back to it
            inside = set(component)
            order, rows = breadth_first(
                min(witnesses), lambda v: [t for t in successors(v) if t in inside])
            closing = next(i for i, row in enumerate(rows) if 0 in row)
            return d, [order[i] for i in tree_path(rows, closing)]
    return None
