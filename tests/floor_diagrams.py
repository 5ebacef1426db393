"""Floor diagrams for the polygons Delta_{c,m,d} and their marking counts.

This is the tests' brute-force engine: it enumerates weighted directed graphs on
vertices 1..d with a divergence condition, and counts markings of each
diagram up to equivalence by the four-step construction (attach s_j source
leaves and m+s_j-div(j) sink leaves, subdivide edges, linearly order).
It exists to cross-check the long-edge-graph engine and the recursion on
small inputs, so clarity beats speed throughout.
"""
from __future__ import annotations

import itertools
from math import comb

from refsev.ylaurent import ring_at

__all__ = [
    "FloorDiagram",
    "enumerate_floor_diagrams",
    "marking_count",
    "floor_diagram_count",
]


class FloorDiagramTooLarge(ValueError):
    pass


class FloorDiagram:
    """Vertices 1..d, weighted edges (i -> j, w) with i < j, the source
    sequence (s_1, ..., s_d), and `free` weight-1 fiber components that
    run from the bottom to the top boundary without meeting a floor
    (possible only when c > 0); sum(s) + free = c."""

    __slots__ = ("d", "m", "edges", "s", "free")

    def __init__(self, d: int, m: int, edges, s, free: int = 0):
        self.d = d
        self.m = m
        self.edges = tuple(sorted(edges))
        self.s = tuple(s)
        self.free = free

    def div(self, j: int) -> int:
        out = sum(w for i, k, w in self.edges if i == j)
        into = sum(w for i, k, w in self.edges if k == j)
        return out - into

    def multiplicity(self, y="sym"):
        """prod [w]_y^2 over the edges: refined (y='sym'), Severi (y=1) or
        Welschinger (y=-1) multiplicity."""
        return ring_at(y).multiplicity(w for _, _, w in self.edges)

    def __repr__(self):
        return f"FD(d={self.d}, edges={list(self.edges)}, s={self.s}, free={self.free})"


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_floor_diagrams(c: int, m: int, d: int, delta: int):
    """All Delta_{c,m,d}-floor diagrams of cogenus delta.

    The cogenus is #(Delta cap Z^2) - 1 - (total marked vertices), which
    pins the edge count: E = dim|L| - d - 2c - md + free - delta. Each of
    the `free` fibers contributes cogenus d on its own.
    """
    dim = (d + 1) * (c + 1) + m * d * (d + 1) // 2 - 1
    out = []
    if d == 0:
        # only fibers; delta-nodal reduced curves need delta = 0
        if delta == 0:
            out.append(FloorDiagram(0, m, [], (), free=c))
        return out
    for free in range(c + 1):
        e_target = dim - d - 2 * c - m * d + free - delta
        if e_target < 0:
            continue
        for s in _compositions(c - free, d):
            # process source vertices in order; in-weights are then known
            def rec(i: int, edges: list, in_w: list, used: int):
                if i == d:
                    if used == e_target:
                        out.append(FloorDiagram(d, m, list(edges), s, free=free))
                    return
                cap = m + s[i - 1] + in_w[i]  # div(i) = out_i - in_i <= m + s_i
                # crude upper bound on future edges to prune hopeless branches
                future = 0
                run = 0
                for k in range(i, d):
                    ck = m + s[k - 1] + in_w[k] + run
                    run += ck
                    future += ck
                if used + future < e_target:
                    return

                def pick(jw_min, budget, edges2, in2, used2):
                    rec(i + 1, edges2, in2, used2)
                    j0, w0 = jw_min
                    for j in range(j0, d + 1):
                        for w in (range(w0, budget + 1) if j == j0 else range(1, budget + 1)):
                            in3 = list(in2)
                            in3[j] += w
                            pick((j, w), budget - w, edges2 + [(i, j, w)], in3, used2 + 1)

                pick((i + 1, 1), cap, list(edges), list(in_w), used)

            rec(1, [], [0] * (d + 1), 0)
    return out


def _marking_classes(D: FloorDiagram):
    """Classes of indistinguishable added items with their gap windows.

    Gaps are numbered 0..d: gap 0 sits before vertex 1 and gap g after
    vertex g. Source leaves at j may sit in gaps 0..j-1, sink leaves at j
    in gaps j..d, the midpoint of an edge (i -> j) in gaps i..j-1.
    """
    classes = []
    for j in range(1, D.d + 1):
        if D.s[j - 1] > 0:
            classes.append((D.s[j - 1], 0, j - 1))
        sinks = D.m + D.s[j - 1] - D.div(j)
        if sinks < 0:
            raise ValueError("divergence condition violated")
        if sinks > 0:
            classes.append((sinks, j, D.d))
    for e, grp in itertools.groupby(D.edges):
        i, j, _ = e
        classes.append((len(list(grp)), i, j - 1))
    if D.free:
        classes.append((D.free, 0, D.d))
    return classes


def marking_count(D: FloorDiagram) -> int:
    """Number of markings of D up to equivalence: assign each class of
    indistinguishable items to gaps inside its window, narrowest windows
    first as they branch least; a gap holding n items from classes of sizes
    (m_1, m_2, ...) contributes the multiset permutation count n!/(m_1! m_2! ...)."""
    classes = sorted(_marking_classes(D), key=lambda t: t[2] - t[1])

    def place(ci: int, gaps: tuple) -> int:
        if ci == len(classes):
            return 1
        cnt, lo, hi = classes[ci]
        total = 0
        for takes in _compositions(cnt, hi - lo + 1):
            factor, after = 1, list(gaps)
            for g, take in enumerate(takes, lo):
                factor *= comb(after[g] + take, take)
                after[g] += take
            total += factor * place(ci + 1, tuple(after))
        return total

    return place(0, (0,) * (D.d + 1))


def floor_diagram_count(c: int, m: int, d: int, delta: int, y="sym"):
    """Sum of mult(D) * nu(D) over Delta_{c,m,d}-floor diagrams of cogenus
    delta: the brute-force value of the refined Severi degree at y ('sym'
    for the Laurent polynomial, 1 or -1 for its integer value)."""
    dim = (d + 1) * (c + 1) + m * d * (d + 1) // 2 - 1
    if d > 8 or dim > 70:
        raise FloorDiagramTooLarge(
            f"floor-diagram brute force guarded out (d={d}, dim={dim})"
        )
    ring = ring_at(y)
    acc = ring.zero
    for D in enumerate_floor_diagrams(c, m, d, delta):
        nu = marking_count(D)
        if nu:
            acc = acc + D.multiplicity(y) * nu
    return acc
