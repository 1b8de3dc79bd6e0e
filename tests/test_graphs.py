import pytest

from rabinsynth.graphs import breadth_first, find_max_colour_cycle

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
