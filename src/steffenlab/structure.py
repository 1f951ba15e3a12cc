"""Cycle partitions, fans, and ring subgraphs.

A cycle partition greedily peels shortest cycles off the underlying simple
graph until the remainder V_0 is acyclic.  A t-fan is a union of t internally
disjoint paths from a V_0 vertex to one partition cycle, with all interior
vertices in V_0.  A ring graph is a multigraph whose underlying simple graph
is a single spanning cycle.

Each function reads the underlying simple graph from the multigraph's
neighbour sets (`Multigraph.adj`).  Cycle enumeration walks
`invariants.simple_paths`, and partition verification asks
`invariants.require_shortest_cycle` about each stage.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from .errors import (DEADLINE_POLL_INTERVAL, InstanceTooLarge, NotShortestCycle, VertexNotInV0,
                     check_deadline)
from .invariants import (
    INFINITE_GIRTH,
    CycleSeq,
    ceil_div,
    is_connected,
    require_shortest_cycle,
    shortest_cycle,
    simple_paths,
    subgraph_girth,
)
from .multigraph import Multigraph, Value, ring

CYCLE_ENUMERATION_CAP = 10**6


class CyclePartition(Value):
    _fields = ("cycles", "v0")

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


class Fan(Value):
    """t internally disjoint paths from `apex` in V_0 to cycle `cycle_index`."""

    _fields = ("apex", "cycle_index", "paths")

    @property
    def t(self) -> int:
        return len(self.paths)

    def interior_vertices(self) -> frozenset[int]:
        """The fan minus its cycle endpoints (a tree inside V_0)."""
        out: set[int] = set()
        for p in self.paths:
            out.update(p[:-1])
        return frozenset(out)


class RingSubgraph(Value):
    _fields = ("cycle", "multiplicities", "chi")

    def to_multigraph(self) -> Multigraph:
        """Standalone ring on vertices 0..len-1 in cycle order."""
        return ring(len(self.cycle), self.multiplicities)

    def to_json_obj(self) -> dict:
        return {
            "cycle": list(self.cycle.vertices),
            "multiplicities": list(self.multiplicities),
            "chi": self.chi,
        }


def cycle_partition(G: Multigraph) -> CyclePartition:
    """Greedy shortest-cycle peeling with the canonical cycle tie-break."""
    remaining = set(range(G.n))
    cycles: list[CycleSeq] = []
    while True:
        cyc = shortest_cycle(G, remaining)
        if cyc is None:
            break
        cycles.append(cyc)
        remaining -= cyc.vertex_set()
    return CyclePartition(tuple(cycles), frozenset(remaining))


def verify_cycle_partition(G: Multigraph, P: CyclePartition) -> list[str]:
    """Re-verify the partition invariants; returns human-readable problems."""
    problems: list[str] = []
    remaining = frozenset(range(G.n))
    for idx, (cyc, stage) in enumerate(zip(P.cycles, P.stage_vertex_sets(G.n))):
        try:
            require_shortest_cycle(G, cyc, stage)
        except NotShortestCycle as exc:
            problems.append(f"cycle {idx}: {exc}")
        remaining = stage - cyc.vertex_set()
    if subgraph_girth(G, remaining) != INFINITE_GIRTH:
        problems.append("remainder V_0 is not acyclic")
    if remaining != P.v0:
        problems.append("V_0 does not match the unpeeled remainder")
    return problems


def max_fan(G: Multigraph, P: CyclePartition, v0: int, h: int) -> Fan | None:
    """A fan from v0 to cycle h with the maximum number of paths, or None.

    Edmonds-Karp with unit vertex capacities off the apex, on vertex states
    (v, entered) and (v, left).  The paths are kept as the vertices they use
    and their steps u -> w, with interior vertices in V_0 and each path
    stopping at its first vertex of C_h.  Each round takes a shortest
    augmenting path, breadth-first from (v0, left) to an unused cycle
    vertex, trying the moves in a fixed order: from an entered vertex,
    leave it if unused, else go back along the step into it; from a left
    vertex, go back into it if used, then step to its sorted neighbours.
    """
    if v0 not in P.v0:
        raise VertexNotInV0(f"vertex {v0} is not in the acyclic remainder")
    adj = G.adj
    cyc = P.cycles[h].vertex_set()
    zone = P.v0 | cyc
    used: set[int] = set()  # vertices on a path, the apex excepted
    steps: set[tuple[int, int]] = set()
    while True:
        parent: dict[tuple[int, bool], tuple[int, bool] | None] = {(v0, True): None}
        queue = deque(parent)
        end = None
        while queue and end is None:
            v, left = state = queue.popleft()
            if left:
                moves = [(v, False)] if v in used else []
                moves += [(w, False) for w in sorted(adj[v])
                          if w in zone and w != v0 and (v, w) not in steps]
            else:
                moves = [] if v in used else [(v, True)]
                moves += [(u, True) for u in sorted(adj[v]) if (u, v) in steps]
            for move in moves:
                if move not in parent:
                    parent[move] = state
                    queue.append(move)
                    if move[0] in cyc and move[0] not in used:
                        end = move  # entered a cycle vertex no path reaches
                        break
        if end is None:
            break
        used.add(end[0])  # the new path leaves its cycle vertex for the sink
        while (prev := parent[end]) is not None:
            (a, _), (b, b_left) = prev, end
            if a == b:
                (used.add if b_left else used.discard)(a)
            elif b_left:
                steps.discard((b, a))  # went back along the step b -> a
            else:
                steps.add((a, b))
            end = prev

    paths = []
    for first in adj[v0]:
        if (v0, first) in steps:
            path = [v0, first]
            while path[-1] not in cyc:
                path.append(next(w for w in adj[path[-1]] if (path[-1], w) in steps))
            paths.append(tuple(path))
    return Fan(v0, h, tuple(sorted(paths))) if paths else None


def fan_bound_check(F: Fan, C_h: CycleSeq) -> bool:
    """True iff |T^0| >= (t-1)|C_h|/2 - (t-1) (compared exactly, doubled)."""
    t = F.t
    interior = len(F.interior_vertices())
    return 2 * interior >= (t - 1) * len(C_h) - 2 * (t - 1)


def is_ring_graph(G: Multigraph) -> bool:
    """True iff the underlying simple graph is one cycle spanning all vertices."""
    # a connected 2-regular graph is one cycle
    return G.n >= 3 and all(len(nbrs) == 2 for nbrs in G.adj) and is_connected(G)


def enumerate_cycles(G: Multigraph, deadline: float | None = None) -> list[CycleSeq]:
    """All simple cycles of the underlying simple graph, canonically oriented,
    sorted by (length, sequence).  The walk polls `deadline`."""
    return [CycleSeq(c) for c in chain.from_iterable(_cycles_by_length(G, deadline))]


def _cycles_by_length(G: Multigraph, deadline: float | None) -> list[list[tuple[int, ...]]]:
    """The cycles of `enumerate_cycles` as vertex tuples, one list per length.

    Each list is already in sequence order: the walk takes the least vertex
    of a cycle as its start in increasing order, and `simple_paths` yields
    each start's paths in lexicographic order.  So nothing is sorted after
    the walk, which polls `deadline` at its first path and every 1,024th.
    """
    by_length: list[list[tuple[int, ...]]] = [[] for _ in range(G.n + 1)]
    found = walked = 0
    for start in range(G.n):
        closing = G.adj[start]
        if sum(y > start for y in closing) < 2:
            continue  # a cycle leaves its least vertex by two higher neighbours
        for path in simple_paths(G, start, range(start + 1, G.n), G.n):
            if not walked % DEADLINE_POLL_INTERVAL:
                check_deadline(deadline, "cycle enumeration")
            walked += 1
            if len(path) >= 3 and path[1] < path[-1] and path[-1] in closing:
                by_length[len(path)].append(tuple(path))
                found += 1
                if found > CYCLE_ENUMERATION_CAP:
                    raise InstanceTooLarge(
                        f"more than {CYCLE_ENUMERATION_CAP} cycles in the underlying graph"
                    )
    return by_length


def _ring_chi(mults: list[int]) -> int:
    """chi' of the ring with multiplicities `mults` around its cycle, in closed form:
    max(Delta, ceil(m / floor(g/2))).

    An odd ring's whole vertex set is a density witness.  An even ring is
    bipartite, so chi' = Delta (Koenig), and the formula agrees: Delta is at
    least 2m/g, the mean of the g degrees.
    """
    g = len(mults)
    delta_max = max(mults[i - 1] + mults[i] for i in range(g))
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
    exactly if it is reachable.  A cycle whose maximal ring is already below
    the target is skipped; otherwise the first step that reaches it is found
    by bisection, each probe taking chi' from the ring's closed form, which
    the tests check against the solver.  The cycle walk and this loop poll
    `deadline`; no colouring decision is made.  No ring's closed form
    exceeds 3 mu, so a larger target is answered None without a walk.
    """
    if target < 1 or target > 3 * G.max_mult:
        return None
    cycles = chain.from_iterable(_cycles_by_length(G, deadline))
    for tried, cyc in enumerate(cycles):
        if not tried % DEADLINE_POLL_INTERVAL:
            check_deadline(deadline, "ring search")
        g = len(cyc)
        mults = [G.mult(cyc[i], cyc[(i + 1) % g]) for i in range(g)]
        if _ring_chi(mults) < target:
            continue  # stepping copies off only lowers chi'
        lo, hi = 0, sum(m - 1 for m in mults)
        while lo < hi:
            mid = (lo + hi) // 2
            if _ring_chi(_stepped(mults, mid)) <= target:
                hi = mid
            else:
                lo = mid + 1
        mults = _stepped(mults, lo)
        if _ring_chi(mults) == target:
            return RingSubgraph(CycleSeq(cyc), tuple(mults), target)
    return None
