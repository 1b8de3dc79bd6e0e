import random

import pytest

from rabinsynth.graphs import breadth_first, find_max_colour_cycle, tree_path

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


@pytest.mark.parametrize("succ, colour, colours, expected",
                         CASES.values(), ids=CASES.keys())
def test_find_max_colour_cycle(succ, colour, colours, expected):
    found = find_max_colour_cycle(
        range(len(succ)), succ.__getitem__, colour.__getitem__, colours)
    assert found == expected
    if found is not None:
        d, cycle = found
        for i, v in enumerate(cycle):
            assert cycle[(i + 1) % len(cycle)] in succ[v]
        assert max(colour[v] for v in cycle) == d


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
