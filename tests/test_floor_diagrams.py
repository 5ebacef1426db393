import itertools

import pytest

from refsev.graphs import refined_count, s_beta
from refsev.ylaurent import YLaurent

from floor_diagrams import (
    FloorDiagram,
    FloorDiagramTooLarge,
    _marking_classes,
    enumerate_floor_diagrams,
    floor_diagram_count,
    marking_count,
)
from oracles import marking_count_literal


def test_cogenus_zero_is_one():
    assert floor_diagram_count(0, 1, 3, 0).is_one()
    for d in range(1, 9):
        assert floor_diagram_count(0, 1, d, 0, 1) == 1


def test_twelve_rational_cubics():
    assert floor_diagram_count(0, 1, 3, 1, 1) == 12
    assert floor_diagram_count(0, 1, 3, 1) == YLaurent({2: 1, 0: 10, -2: 1})


def test_hand_checked_d3_diagrams():
    # three cogenus-1 diagrams for the plane cubic: multiplicities 4, 1, 1
    # with marking counts 1, 5, 3
    ds = enumerate_floor_diagrams(0, 1, 3, 1)
    got = sorted((D.multiplicity(1), marking_count(D)) for D in ds)
    assert got == [(1, 3), (1, 5), (4, 1)]


def test_divergence_condition_enforced():
    for D in enumerate_floor_diagrams(2, 2, 3, 2):
        for j in range(1, D.d + 1):
            assert D.div(j) <= D.m + D.s[j - 1]
        assert sum(D.s) + D.free == 2


def test_fiber_only_surface():
    # d = 0: the curve is c fibers; only delta = 0 counts, and it counts 1
    assert floor_diagram_count(3, 1, 0, 0, 1) == 1
    assert floor_diagram_count(3, 1, 0, 2, 1) == 0
    with pytest.raises(ValueError, match="y must be"):
        floor_diagram_count(3, 1, 0, 2, "refined")


def test_marking_count_against_literal_orbits():
    checked = mixed = 0
    for (c, m, d, delta) in [(0, 1, 2, 0), (0, 1, 2, 1), (1, 1, 2, 1),
                             (0, 2, 2, 1), (2, 0, 2, 1), (0, 1, 3, 2)]:
        for D in enumerate_floor_diagrams(c, m, d, delta):
            try:
                lit = marking_count_literal(D, guard=7)
            except FloorDiagramTooLarge:
                continue
            assert lit == marking_count(D), D
            checked += 1
            # classes pinned to one gap beside classes that move
            widths = {hi > lo for _, lo, hi in _marking_classes(D)}
            mixed += widths == {False, True}
    assert checked >= 10 and mixed >= 5


def test_cross_engine_small_grid():
    for (c, m, d) in itertools.product(range(3), range(3), range(1, 4)):
        for delta in range(3):
            N = refined_count(s_beta(c, m, d), delta)
            assert floor_diagram_count(c, m, d, delta) == N, (c, m, d, delta)
            # the integer counts are the evaluations at y = 1 and y = -1
            assert floor_diagram_count(c, m, d, delta, 1) == N.at_one()
            assert floor_diagram_count(c, m, d, delta, -1) == \
                N.at_minus_one(), (c, m, d, delta)
    F = floor_diagram_count(1, 1, 3, 3)
    assert F == refined_count(s_beta(1, 1, 3), 3)
    assert all(type(v) is int for v in F.terms.values())


@pytest.mark.slow
def test_cross_engine_full_oracle_grid():
    # the full oracle range: all c, d <= 4, m <= 2, delta <= 3
    for (c, m, d) in itertools.product(range(5), range(3), range(1, 5)):
        for delta in range(4):
            assert floor_diagram_count(c, m, d, delta) == \
                refined_count(s_beta(c, m, d), delta), (c, m, d, delta)


def test_size_guard():
    with pytest.raises(FloorDiagramTooLarge):
        floor_diagram_count(0, 1, 12, 1)
