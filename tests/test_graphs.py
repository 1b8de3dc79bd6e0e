import random

import numpy as np
import pytest

from rabinsynth.graphs import breadth_first, max_colour_cycle, tree_path

from helpers import reference_cycle_colours

# (successor lists, colours, colours to check, expected (d, cycle) or None)
CASES = {
    "bad self-loop": ([[0]], [1], (1, 3), (1, [0])),
    "bad vertex without self-loop": ([[1], [1]], [1, 0], (1, 3), None),
    "odd cycle under an even maximum": (
        [[1], [0, 2], [1]], [1, 0, 2], (1, 3), (1, [0, 1])),
    "higher colour tried second": ([[0, 1], [0]], [3, 1], (1, 3), (3, [0])),
    "smallest bad vertex starts the cycle": (
        [[1], [2], [0]], [0, 3, 3], (1, 3), (3, [1, 2, 0])),
    "even colours for the other player": (
        [[1], [0], [2]], [4, 2, 0], range(0, 5, 2), (0, [2])),
    "even maximum only": ([[1], [0]], [1, 2], (1, 3), None),
    "two paths back: the breadth-first parent decides": (
        [[2, 1], [3], [3], [0]], [1, 0, 0, 0], (1, 3), (1, [0, 2, 3])),
}


def csr(succ: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Successor lists as the flat successor array and its row pointers."""
    return (np.array([t for row in succ for t in row], dtype=np.intp),
            np.cumsum([0] + [len(row) for row in succ]))


def assert_cycle(succ, colour, inside, d, cycle):
    """``cycle`` is a cycle of ``succ``, closing edge included, inside the
    mask, with maximum colour ``d``."""
    for i, v in enumerate(cycle):
        assert cycle[(i + 1) % len(cycle)] in succ[v]
        assert inside[v]
    assert max(colour[v] for v in cycle) == d


@pytest.mark.parametrize("succ, colour, colours, expected",
                         CASES.values(), ids=CASES.keys())
def test_find_max_colour_cycle(succ, colour, colours, expected):
    inside = [True] * len(succ)
    found = max_colour_cycle(*csr(succ), np.array(colour), np.array(inside), colours)
    assert found == expected
    if found is not None:
        assert_cycle(succ, colour, inside, *found)


def test_cycles_agree_with_the_reference_on_random_graphs():
    rng = random.Random(20_261_020)
    cycles = 0
    for _ in range(400):
        size = rng.randrange(1, 14)
        succ = []
        for v in range(size):
            row = [rng.randrange(size) for _ in range(rng.randrange(1, 4))]
            if rng.random() < 0.2:
                row.append(v)  # a self-loop
            if rng.random() < 0.2:
                row.append(row[0])  # a repeated successor
            succ.append(row)
        colour = [rng.randrange(5) for _ in range(size)]
        inside = [rng.random() < 0.8 for _ in range(size)]
        arrays = (*csr(succ), np.array(colour), np.array(inside))
        expected = reference_cycle_colours(succ, colour, inside, range(5))
        for d in range(5):
            found = max_colour_cycle(*arrays, (d,))
            assert (found is not None) == (d in expected)
            if found is not None:
                assert found[0] == d
                assert_cycle(succ, colour, inside, *found)
                cycles += 1
        colours = rng.sample(range(5), rng.randrange(1, 6))
        found = max_colour_cycle(*arrays, colours)
        first = next((d for d in colours if d in expected), None)
        assert (None if found is None else found[0]) == first
        if found is not None:
            assert_cycle(succ, colour, inside, *found)
    assert cycles > 300


BREADTH_FIRST_CASES = {
    "discovery order": (
        {0: [2, 1], 1: [3], 2: [3, 0], 3: [], 4: [0]}, 0,
        [0, 2, 1, 3], [[1, 2], [3, 0], [3], []]),
    "self-loops and repeated successors": (
        {"a": ["a", "b", "a", "b"], "b": ["b", "b"]}, "a",
        ["a", "b"], [[0, 1, 0, 1], [1, 1]]),
    "pairs as vertices": (
        {(0, 0): [(0, 1), (1, 0)], (0, 1): [(0, 0)], (1, 0): [(1, 0)]}, (0, 0),
        [(0, 0), (0, 1), (1, 0)], [[1, 2], [0], [2]]),
    "no successors": ({7: []}, 7, [7], [[]]),
}


@pytest.mark.parametrize("succ, start, order, rows",
                         BREADTH_FIRST_CASES.values(), ids=BREADTH_FIRST_CASES.keys())
def test_breadth_first(succ, start, order, rows):
    assert breadth_first(start, succ.__getitem__) == (order, rows)


TREE_PATH_CASES = {
    "root": ([[0, 1], [0]], 0, [0]),
    "chain": ([[1], [2], [0]], 2, [0, 1, 2]),
    "two paths to the target: the first row to list it decides": (
        [[1, 2], [3], [3], [0]], 3, [0, 1, 3]),
    "repeats and self-loops": ([[0, 1, 1], [2, 1], [2, 0]], 2, [0, 1, 2]),
}


@pytest.mark.parametrize("rows, target, path",
                         TREE_PATH_CASES.values(), ids=TREE_PATH_CASES.keys())
def test_tree_path(rows, target, path):
    assert tree_path(rows, target) == path


def test_tree_paths_are_shortest_walks_in_the_rows():
    rng = random.Random(20_261_021)
    for _ in range(200):
        size = rng.randrange(1, 30)
        succ = [[rng.randrange(size) for _ in range(rng.randrange(4))] for _ in range(size)]
        order, rows = breadth_first(0, succ.__getitem__)
        distance = {0: 0}
        for v, row in enumerate(rows):  # the rows list the vertices breadth-first
            for w in row:
                distance.setdefault(w, distance[v] + 1)
        for target in range(len(order)):
            path = tree_path(rows, target)
            assert path[0] == 0 and path[-1] == target
            assert len(path) == distance[target] + 1
            assert all(w in rows[v] for v, w in zip(path, path[1:]))
