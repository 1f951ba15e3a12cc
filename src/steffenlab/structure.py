"""Cycles: shortest cycles, cycle partitions, fans, and ring subgraphs.

A cycle is the tuple of its vertices in canonical order: it starts at its
least vertex and goes on towards the smaller of that vertex's two cycle
neighbours.  Every simple-path search runs on `simple_paths`, one walk over
an explicit stack: the shortest cycle, the short-cycle clauses' outside
paths and `enumerate_cycles`, the one walk over all cycles.

A cycle partition greedily peels shortest cycles off the underlying simple
graph until the remainder V_0 is acyclic.  A t-fan is a union of t internally
disjoint paths from a V_0 vertex to one partition cycle, with all interior
vertices in V_0.  A ring graph is a multigraph whose underlying simple graph
is a single spanning cycle.

Each function reads the underlying simple graph from the multigraph's
neighbour sets (`Multigraph.adj`), and the girth of each vertex set it asks
about from `invariants.subgraph_girth`, which memoises it on the graph.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container, Iterator
from itertools import chain

from .errors import (DEADLINE_POLL_INTERVAL, InstanceTooLarge, NotShortestCycle, VertexNotInV0,
                     check_deadline)
from .invariants import INFINITE_GIRTH, ceil_div, is_connected, subgraph_girth
from .multigraph import Multigraph, Value

CYCLE_ENUMERATION_CAP = 10**6

# (clause, least cycle length, outside path vertices, most C-neighbours), in report order
_SHORT_CYCLE_CLAUSES = ((1, 5, 1, 1), (2, 7, 2, 1), (4, 6, 3, 2), (3, 8, 5, 2))


class ShortCycleViolation(Value):
    """One failed clause of the shortest-cycle neighborhood bounds."""

    _fields = ("clause", "vertices", "value", "limit")


class CyclePartition(Value):
    _fields = ("cycles", "v0")

    def stage_vertex_sets(self, n: int) -> list[frozenset[int]]:
        """Vertex set each cycle was extracted from: stage i excludes cycles < i."""
        remaining = set(range(n))
        stages = []
        for cyc in self.cycles:
            stages.append(frozenset(remaining))
            remaining -= frozenset(cyc)
        return stages


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


def simple_paths(
    G: Multigraph, first: int, allowed: Container[int], most: int
) -> Iterator[list[int]]:
    """Every simple path that starts at `first`, continues inside `allowed` and
    has at most `most` vertices, in lexicographic order (prefixes first).

    The walk keeps a stack of neighbour iterators, not the call stack, so a
    path may be as long as the graph.  Each path is yielded as the walker's
    own list, which the next step changes: callers copy what they keep.
    """
    adj = G.adj
    steps: dict[int, list[int]] = {}  # sorted neighbours inside `allowed`, per vertex
    path = [first]
    on_path = {first}
    stack = [iter(sorted(y for y in adj[first] if y in allowed))] if most > 1 else []
    yield path
    while stack:
        for y in stack[-1]:
            if y in on_path:
                continue
            path.append(y)
            yield path
            if len(path) < most:
                on_path.add(y)
                nxt = steps.get(y)
                if nxt is None:
                    nxt = steps[y] = sorted(x for x in adj[y] if x in allowed)
                stack.append(iter(nxt))
                break
            path.pop()
        else:
            stack.pop()
            on_path.discard(path.pop())


def shortest_cycle(G: Multigraph, within: frozenset[int] | set[int]) -> tuple[int, ...] | None:
    """Canonical shortest cycle of the subgraph induced on `within`, or None.

    Tie-break among minimum-length cycles: each cycle is rotated/reflected to
    start at its smallest vertex; the lexicographically least sequence wins.
    Paths come in lex order, so that is the first closing path of g vertices
    from the least start that has one.
    """
    within = frozenset(within)
    g = subgraph_girth(G, within)
    if g == INFINITE_GIRTH:
        return None
    for start in sorted(within):
        closing = G.adj[start]
        for path in simple_paths(G, start, {v for v in within if v > start}, g):
            if len(path) == g and path[-1] in closing:
                return tuple(path)
    return None  # unreachable: finite girth guarantees a cycle


def require_shortest_cycle(G: Multigraph, C: tuple[int, ...], within: frozenset[int]) -> None:
    """Raise NotShortestCycle unless C is a shortest cycle of the subgraph on `within`."""
    if len(C) < 3 or len(set(C)) != len(C):
        raise NotShortestCycle("not a simple cycle sequence")
    for v in C:
        if v not in within:
            raise NotShortestCycle(f"cycle vertex {v} outside the given vertex set")
    for i in range(len(C)):
        u, v = C[i], C[(i + 1) % len(C)]
        if v not in G.adj[u]:
            raise NotShortestCycle(f"consecutive vertices {u}, {v} not adjacent")
    g = subgraph_girth(G, within)
    if g != len(C):
        raise NotShortestCycle(f"cycle has length {len(C)} but girth is {g}")


def check_short_cycle_properties(
    G: Multigraph, C: tuple[int, ...], within: frozenset[int] | set[int]
) -> list[ShortCycleViolation]:
    """Evaluate the neighbor-count bounds a shortest cycle forces on outside vertices.

    Clauses, by cycle length threshold (all neighborhoods taken in the
    subgraph induced on `within`):
      1. |C| >= 5: every outside vertex has at most 1 neighbor on C.
      2. |C| >= 7: every adjacent outside pair has at most 1 C-neighbor total.
      3. |C| >= 8: every outside 5-vertex path has at most 2 C-neighbors total.
      4. |C| >= 6: every outside 3-vertex path has at most 2 C-neighbors total.

    Returns the list of violated clause instances (empty when all bounds hold;
    they always hold for genuine shortest cycles, so any violation is a bug).
    """
    within = frozenset(within)
    require_shortest_cycle(G, C, within)
    cyc = frozenset(C)
    outside = sorted(within - cyc)
    ncount = {v: len(cyc & G.adj[v]) for v in outside}
    violations: list[ShortCycleViolation] = []
    for clause, least, k, limit in _SHORT_CYCLE_CLAUSES:
        if len(C) < least:
            continue
        for p in _outside_paths(G, outside, k):
            value = sum(ncount[v] for v in p)
            if value > limit:
                violations.append(ShortCycleViolation(clause, p, value, limit))
    return violations


def _outside_paths(G: Multigraph, outside: list[int], k: int) -> Iterator[tuple[int, ...]]:
    """All simple k-vertex paths inside `outside`, one orientation per path."""
    allowed = set(outside)
    for v in outside:
        for p in simple_paths(G, v, allowed, k):
            if len(p) == k and p[0] <= p[-1]:
                yield tuple(p)


def cycle_partition(G: Multigraph) -> CyclePartition:
    """Greedy shortest-cycle peeling with the canonical cycle tie-break."""
    remaining = set(range(G.n))
    cycles: list[tuple[int, ...]] = []
    while True:
        cyc = shortest_cycle(G, remaining)
        if cyc is None:
            break
        cycles.append(cyc)
        remaining -= frozenset(cyc)
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
        remaining = stage - frozenset(cyc)
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
    cyc = frozenset(P.cycles[h])
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


def fan_bound_check(F: Fan, C_h: tuple[int, ...]) -> bool:
    """True iff |T^0| >= (t-1)|C_h|/2 - (t-1) (compared exactly, doubled)."""
    t = F.t
    interior = len(F.interior_vertices())
    return 2 * interior >= (t - 1) * len(C_h) - 2 * (t - 1)


def is_ring_graph(G: Multigraph) -> bool:
    """True iff the underlying simple graph is one cycle spanning all vertices."""
    # a connected 2-regular graph is one cycle
    return G.n >= 3 and all(len(nbrs) == 2 for nbrs in G.adj) and is_connected(G)


def enumerate_cycles(G: Multigraph, deadline: float | None = None) -> list[tuple[int, ...]]:
    """All simple cycles of the underlying simple graph, canonically oriented,
    sorted by (length, sequence).

    The walk groups its cycles by length, and each length's are already in
    sequence order: it takes the least vertex of a cycle as its start in
    increasing order, and `simple_paths` yields each start's paths in
    lexicographic order.  So nothing is sorted after the walk, which polls
    `deadline` at its first path and every 1,024th.
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
    return list(chain.from_iterable(by_length))


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
    for tried, cyc in enumerate(enumerate_cycles(G, deadline)):
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
            return RingSubgraph(cyc, tuple(mults), target)
    return None
