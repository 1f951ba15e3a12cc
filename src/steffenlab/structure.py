"""Cycle partitions, fans, and ring subgraphs.

A cycle partition greedily peels shortest cycles off the underlying simple
graph until the remainder V_0 is acyclic.  A t-fan is a union of t internally
disjoint paths from a V_0 vertex to one partition cycle, with all interior
vertices in V_0.  A ring graph is a multigraph whose underlying simple graph
is a single spanning cycle.

Cycle enumeration walks `invariants.simple_paths`, and partition
verification asks `invariants.require_shortest_cycle` about each stage.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceTooLarge, NotShortestCycle, VertexNotInV0
from .coloring import chromatic_index
from .invariants import (
    INFINITE_GIRTH,
    CycleSeq,
    bfs_dist,
    ceil_div,
    require_shortest_cycle,
    shortest_cycle,
    simple_paths,
    subgraph_girth,
)
from .multigraph import Multigraph, SimpleGraphView

CYCLE_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class CyclePartition:
    cycles: tuple[CycleSeq, ...]
    v0: frozenset[int]

    def stage_vertex_sets(self, n: int) -> list[frozenset[int]]:
        """Vertex set each cycle was extracted from: stage i excludes cycles < i."""
        remaining = set(range(n))
        stages = []
        for cyc in self.cycles:
            stages.append(frozenset(remaining))
            remaining -= cyc.vertex_set()
        return stages

    def to_json_obj(self) -> dict:
        return {
            "cycles": [list(c.vertices) for c in self.cycles],
            "v0": sorted(self.v0),
        }


@dataclass(frozen=True)
class Fan:
    """t internally disjoint paths from `apex` in V_0 to cycle `cycle_index`."""

    apex: int
    cycle_index: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return len(self.paths)

    def interior_vertices(self) -> frozenset[int]:
        """The fan minus its cycle endpoints (a tree inside V_0)."""
        out: set[int] = set()
        for p in self.paths:
            out.update(p[:-1])
        return frozenset(out)


@dataclass(frozen=True)
class RingSubgraph:
    cycle: CycleSeq
    multiplicities: tuple[int, ...]
    chi: int

    def to_multigraph(self) -> Multigraph:
        """Standalone ring on vertices 0..len-1 in cycle order."""
        from .generators import ring  # imported here: the enumerator is the CLI's largest import

        return ring(len(self.cycle), self.multiplicities)

    def to_json_obj(self) -> dict:
        return {
            "cycle": list(self.cycle.vertices),
            "multiplicities": list(self.multiplicities),
            "chi": self.chi,
        }


def cycle_partition(G: Multigraph) -> CyclePartition:
    """Greedy shortest-cycle peeling with the canonical cycle tie-break."""
    view = G.simple
    remaining = set(range(G.n))
    cycles: list[CycleSeq] = []
    while True:
        cyc = shortest_cycle(view, remaining)
        if cyc is None:
            break
        cycles.append(cyc)
        remaining -= cyc.vertex_set()
    return CyclePartition(tuple(cycles), frozenset(remaining))


def verify_cycle_partition(G: Multigraph, P: CyclePartition) -> list[str]:
    """Re-verify the partition invariants; returns human-readable problems."""
    view = G.simple
    problems: list[str] = []
    remaining = set(range(G.n))
    for idx, cyc in enumerate(P.cycles):
        try:
            require_shortest_cycle(view, cyc, frozenset(remaining))
        except NotShortestCycle as exc:
            problems.append(f"cycle {idx}: {exc}")
        remaining -= cyc.vertex_set()
    if subgraph_girth(view, frozenset(remaining)) != INFINITE_GIRTH:
        problems.append("remainder V_0 is not acyclic")
    if frozenset(remaining) != P.v0:
        problems.append("V_0 does not match the unpeeled remainder")
    return problems


def max_fan(G: Multigraph, P: CyclePartition, v0: int, h: int) -> Fan | None:
    """A fan from v0 to cycle h with the maximum number of paths, or None.

    Computed as vertex-disjoint paths in the simple graph on V_0 + V(C_h)
    with interior vertices restricted to V_0: unit vertex capacities off the
    apex make augmenting BFS find the exact maximum.
    """
    if v0 not in P.v0:
        raise VertexNotInV0(f"vertex {v0} is not in the acyclic remainder")
    view = G.simple
    cyc = P.cycles[h].vertex_set()
    zone = P.v0 | cyc

    # node ids: 2*v = v_in, 2*v + 1 = v_out; source = v0_out, sink = 2*n
    sink = 2 * G.n
    cap: dict[tuple[int, int], int] = {}
    for v in sorted(zone):
        if v != v0:
            cap[(2 * v, 2 * v + 1)] = 1
    for u in sorted(zone):
        if u in cyc:
            continue  # paths stop at their first cycle vertex
        for w in sorted(view.adj[u]):
            if w in zone and w != v0:
                cap[(2 * u + 1, 2 * w)] = 1
    for x in sorted(cyc):
        cap[(2 * x + 1, sink)] = 1

    adj: dict[int, list[int]] = {}
    flow: dict[tuple[int, int], int] = {}
    for a, b in list(cap):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
        flow[(a, b)] = 0
        flow.setdefault((b, a), 0)
        cap.setdefault((b, a), 0)

    source = 2 * v0 + 1
    while True:
        parent = {source: -1}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            if x == sink:
                break
            for y in adj.get(x, ()):
                if y not in parent and cap.get((x, y), 0) - flow[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if sink not in parent:
            break
        node = sink
        while node != source:
            prev = parent[node]
            flow[(prev, node)] += 1
            flow[(node, prev)] -= 1
            node = prev

    t = sum(flow[(2 * x + 1, sink)] for x in cyc if (2 * x + 1, sink) in flow)
    if t == 0:
        return None

    paths: list[tuple[int, ...]] = []
    for first in sorted(view.adj[v0]):
        if first not in zone or flow.get((source, 2 * first), 0) <= 0:
            continue
        flow[(source, 2 * first)] -= 1
        path = [v0, first]
        node = first
        while node not in cyc:
            flow[(2 * node, 2 * node + 1)] -= 1
            nxt = None
            for y in sorted(view.adj[node]):
                if y in zone and flow.get((2 * node + 1, 2 * y), 0) > 0:
                    nxt = y
                    break
            assert nxt is not None, "flow decomposition lost the path"
            flow[(2 * node + 1, 2 * nxt)] -= 1
            path.append(nxt)
            node = nxt
        flow[(2 * node, 2 * node + 1)] -= 1
        flow[(2 * node + 1, sink)] -= 1
        paths.append(tuple(path))
    assert len(paths) == t, "flow value and decomposed path count disagree"
    return Fan(v0, h, tuple(sorted(paths)))


def fan_bound_check(F: Fan, C_h: CycleSeq) -> bool:
    """True iff |T^0| >= (t-1)|C_h|/2 - (t-1) (compared exactly, doubled)."""
    t = F.t
    interior = len(F.interior_vertices())
    return 2 * interior >= (t - 1) * len(C_h) - 2 * (t - 1)


def is_ring_graph(G: Multigraph) -> bool:
    """True iff the underlying simple graph is one cycle spanning all vertices."""
    if G.n < 3:
        return False
    view = G.simple
    if any(view.degree(v) != 2 for v in range(G.n)):
        return False
    # connected 2-regular graph = single cycle
    return len(bfs_dist(view, range(G.n), 0)) == G.n


def enumerate_cycles(view: SimpleGraphView) -> list[CycleSeq]:
    """All simple cycles, canonically oriented, sorted by (length, sequence)."""
    cycles: list[tuple[int, ...]] = []
    for start in range(view.n):
        closing = view.adj[start]
        if sum(y > start for y in closing) < 2:
            continue  # a cycle leaves its least vertex by two higher neighbours
        for path in simple_paths(view, start, range(start + 1, view.n), view.n):
            if len(path) >= 3 and path[1] < path[-1] and path[-1] in closing:
                cycles.append(tuple(path))
                if len(cycles) > CYCLE_ENUMERATION_CAP:
                    raise InstanceTooLarge(
                        f"more than {CYCLE_ENUMERATION_CAP} cycles in the underlying graph"
                    )
    cycles.sort(key=lambda c: (len(c), c))
    return [CycleSeq(c) for c in cycles]


def _ring_chi(mults: list[int]) -> int:
    """chi' of the ring with multiplicities `mults` around its cycle, in closed form.

    An even ring is bipartite, so chi' = Delta (Koenig).  An odd ring has
    chi' = max(Delta, ceil(m / floor(g/2))): the whole vertex set is a
    density witness.
    """
    g = len(mults)
    delta_max = max(mults[i - 1] + mults[i] for i in range(g))
    if g % 2 == 0:
        return delta_max
    return max(delta_max, ceil_div(sum(mults), g // 2))


def _stepped(mults: list[int], steps: int) -> list[int]:
    """`mults` after `steps` copy deletions, each from the first pair with copies to spare."""
    out = []
    for m in mults:
        out.append(m - min(steps, m - 1))
        steps -= m - out[-1]
    return out


def find_ring_subgraph_with_chi(
    G: Multigraph, target: int, deadline: float | None = None
) -> RingSubgraph | None:
    """First ring subgraph (by canonical cycle order) with chromatic index `target`.

    For each cycle of the underlying graph, the maximal ring takes all
    parallel copies on the cycle edges; chi' is monotone under copy deletion,
    so if the maximal ring overshoots, stepping copies off one at a time
    passes through every value down to the simple cycle and hits the target
    exactly if it is reachable.  The first step that does is found by
    bisection, each probe taking chi' from the ring's closed form; the
    solver checks the returned ring once.
    """
    if target < 1:
        return None
    view = G.simple
    for cyc in enumerate_cycles(view):
        g = len(cyc)
        mults = [G.mult(cyc.vertices[i], cyc.vertices[(i + 1) % g]) for i in range(g)]
        lo, hi = 0, sum(m - 1 for m in mults)
        while lo < hi:
            mid = (lo + hi) // 2
            if _ring_chi(_stepped(mults, mid)) <= target:
                hi = mid
            else:
                lo = mid + 1
        mults = _stepped(mults, lo)
        chi = _ring_chi(mults)
        if chi == target:
            ring = RingSubgraph(cyc, tuple(mults), chi)
            solved = chromatic_index(ring.to_multigraph(), deadline=deadline)[0]
            if solved != chi:
                raise RuntimeError(
                    f"ring {ring.to_json_obj()}: closed form gives {chi}, solver {solved}"
                )
            return ring
    return None
