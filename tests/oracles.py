"""Independent brute-force oracles for the test suite.

These deliberately share no code or strategy with the library: the coloring
oracle assigns colors copy by copy in serialized order with no symmetry
breaking, the density oracles enumerate odd subsets directly (two of them are
the library's previous kernels: the one that summed pair multiplicities,
kept to pin the witness tie-break, and the prefix-weight one that closed
every prefix unpruned), the
cycle oracles enumerate vertex sequences (the girth reference is the
library's previous BFS from every root), and the short-cycle clause oracle
finds outside paths among the permutations of the outside vertices.  The
ring-search oracle is the library's previous search over the cycle oracle's
own cycles, which asks the solver for chi' at every step instead of using
the ring's closed form.  The
criticality oracles are the library's previous loop, which builds every
G - e as a graph from the copies that remain, and the witness oracle sorts
each pair's colors and then each class, where the library relies on the
serialized pair order.  The static-order search is the
library's previous colorability decision, which branches on pairs in a fixed
order.  The canonical-form oracle is the library's previous search: whole-partition
refinement rounds on integer colors, a branch for every vertex of the target
class unless the class is interchangeable, and no automorphism pruning; its
automorphism oracle is the library's previous separate backtrack, and
the group itself is closed from the library's generators.  The
enumeration oracle uses it for every key and canonicalises every
candidate.  The whole-fan oracle is the library's previous `max_fan`: Edmonds-Karp
on a split-vertex network with capacity and flow tables, then a separate
flow decomposition.  The odd-set table oracle lists the rows of every odd
vertex set as edge sets and drops rows by comparing every pair of them.
Slow on purpose; only run on small inputs.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import accumulate, combinations, permutations, product

from steffenlab.coloring import EdgeColoring, chromatic_index, is_k_colorable
from steffenlab.errors import (
    DEADLINE_POLL_INTERVAL,
    InstanceTooLarge,
    SolverTimeout,
    VertexNotInV0,
    check_deadline,
)
from steffenlab.generators import _aut_edge_generators
from steffenlab.invariants import (
    INFINITE_GIRTH,
    DensityWitness,
    _fewest_inside,
    ceil_div,
    girth,
)
from steffenlab.multigraph import Multigraph, build
from steffenlab.structure import CyclePartition, Fan, RingSubgraph


def brute_force_chi(G: Multigraph) -> int:
    """Least k admitting a proper assignment over all k^|E| copy colorings.

    Explores assignments depth-first in serialized copy order, abandoning a
    prefix as soon as it is improper (pure exhaustive search otherwise).
    """
    copies: list[tuple[int, int]] = []
    for u, v, m in G.edges:
        copies.extend([(u, v)] * m)
    if not copies:
        return 0
    k = 0
    while True:
        k += 1
        seen = [set() for _ in range(G.n)]

        def assign(i: int) -> bool:
            if i == len(copies):
                return True
            u, v = copies[i]
            for color in range(1, k + 1):
                if color in seen[u] or color in seen[v]:
                    continue
                seen[u].add(color)
                seen[v].add(color)
                if assign(i + 1):
                    return True
                seen[u].remove(color)
                seen[v].remove(color)
            return False

        if assign(0):
            return k


def brute_force_density(G: Multigraph) -> int:
    """Max over odd subsets S, |S| >= 3, of ceil(2 E(G[S]) / (|S|-1))."""
    best = 0
    for size in range(3, G.n + 1, 2):
        for S in combinations(range(G.n), size):
            inside = sum(
                m for u, v, m in G.edges if u in S and v in S
            )
            best = max(best, -(-2 * inside // (size - 1)))
    return best


def odd_set_table_by_definition(S: Multigraph) -> set[tuple[frozenset[int], int]]:
    """The rows of `odd_set_table` as a set of (edge positions, d): every odd
    vertex set of size >= 3 gives (the positions of the pairs inside it,
    size - 1); an edge set keeps its least d, and a row is dropped when
    another row holds its edge set at a d no larger."""
    least: dict[frozenset[int], int] = {}
    for size in range(3, S.n + 1, 2):
        for U in combinations(range(S.n), size):
            E = frozenset(i for i, (u, v, _) in enumerate(S.edges) if u in U and v in U)
            least[E] = min(least.get(E, size - 1), size - 1)
    return {
        (E, d)
        for E, d in least.items()
        if not any(E2 != E and E <= E2 and d2 <= d for E2, d2 in least.items())
    }


def density_by_enumeration(G: Multigraph, cap: int = 22) -> DensityWitness:
    """Density with the library's witness rule, by summing pair multiplicities.

    The library's kernel before the prefix-weight rewrite, unchanged: every
    pair of every odd subset is looked up in the multiplicity map, sizes
    that cannot beat the incumbent are skipped, and ties go to the lex-least
    subset tuple.
    """
    if G.n > cap:
        raise InstanceTooLarge(f"density enumeration needs n <= {cap}, got {G.n}")
    if G.n < 3 or not G.edges:
        return DensityWitness(0, (0, 1, 2) if G.n >= 3 else ())
    total = G.edge_count
    best_gamma = 0
    best_set: tuple[int, ...] = (0, 1, 2)
    mult_map = G.mult_map
    for size in range(3, G.n + 1, 2):
        # no subset of this size can beat the incumbent: skip the whole size
        if -(-2 * total // (size - 1)) <= best_gamma:
            continue
        for S in combinations(range(G.n), size):
            inside = 0
            for i, u in enumerate(S):
                for v in S[i + 1 :]:
                    inside += mult_map.get((u, v), 0)
            gamma = -(-2 * inside // (size - 1))
            if gamma > best_gamma or (gamma == best_gamma and S < best_set):
                best_gamma = gamma
                best_set = S
    return DensityWitness(best_gamma, best_set)


def density_by_prefix_weights(G: Multigraph, deadline: float | None = None) -> DensityWitness:
    """The library's previous kernel, unchanged: every prefix T of every size
    is built from scratch and closed, with no prefix abandoned.

    Each odd set S = T + {v} of a size is closed from its prefix T (the
    |S| - 1 smallest vertices): one pass over T's higher-indexed neighbours
    gives |E(G[T])| and the weight w[v] of every later vertex towards T,
    so every closing v costs one addition and one comparison with the
    fewest inner edges that could tie the incumbent.
    """
    n = G.n
    if n < 3 or not G.edges:
        return DensityWitness(0, (0, 1, 2) if n >= 3 else ())
    higher: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in G.edges:
        higher[u].append((v, m))
    top_degrees = [0, *accumulate(sorted(G.degrees, reverse=True))]
    total = G.edge_count
    best_gamma = 0
    best_set: tuple[int, ...] = (0, 1, 2)
    visited = 0
    poll_at = DEADLINE_POLL_INTERVAL
    for size in range(3, n + 1, 2):
        d = size - 1
        # no subset of this size can beat the incumbent: skip the whole size
        if ceil_div(2 * total, d) <= best_gamma:
            continue
        # none can even tie it, since 2|E(G[S])| <= the degree sum of S
        if ceil_div(top_degrees[size], d) < best_gamma:
            continue
        tie = _fewest_inside(best_gamma, d)
        for T in combinations(range(n - 1), d):
            lo = T[-1] + 1
            visited += n - lo
            if visited >= poll_at:
                poll_at = visited + DEADLINE_POLL_INTERVAL
                check_deadline(deadline, f"density on n={n}")
            w = [0] * n
            inside = 0
            for x in T:
                inside += w[x]
                for y, m in higher[x]:
                    w[y] += m
            for v in range(lo, n):
                if inside + w[v] >= tie:
                    gamma = ceil_div(2 * (inside + w[v]), d)
                    S = (*T, v)
                    if gamma > best_gamma or S < best_set:
                        best_gamma = gamma
                        best_set = S
                        tie = _fewest_inside(best_gamma, d)
    return DensityWitness(best_gamma, best_set)


def all_cycles_by_bfs_style(G: Multigraph) -> list[tuple[int, ...]]:
    """Every simple cycle as a canonical tuple (min-vertex start, lex-min direction)."""
    adj: list[set[int]] = [set() for _ in range(G.n)]
    for u, v, _ in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    found: set[tuple[int, ...]] = set()

    def walk(path: list[int], members: set[int]):
        last = path[-1]
        for nxt in adj[last]:
            if nxt == path[0] and len(path) >= 3:
                a, b = path[1], path[-1]
                found.add(tuple(path) if a < b else (path[0],) + tuple(reversed(path[1:])))
            elif nxt not in members and nxt > path[0]:
                path.append(nxt)
                members.add(nxt)
                walk(path, members)
                path.pop()
                members.remove(nxt)

    for start in range(G.n):
        walk([start], {start})
    return sorted(found, key=lambda c: (len(c), c))


def brute_force_girth(G: Multigraph) -> int | None:
    cycles = all_cycles_by_bfs_style(G)
    return len(cycles[0]) if cycles else None


def girth_by_bfs_from_every_root(G: Multigraph, within: frozenset[int]) -> int | float:
    """The library's previous induced-subgraph girth: a BFS inside `within` from
    every root, the min closed-walk bound over non-tree edges."""
    best: int | float = INFINITE_GIRTH
    for root in sorted(within):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if 2 * dist[x] >= best:
                break
            for y in G.adj[x]:
                if y not in within:
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y and parent[y] != x:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def brute_force_shortest_cycle(G: Multigraph, within: set[int]) -> tuple[int, ...] | None:
    """Lex-least minimum-length cycle inside `within` (canonical orientation)."""
    sub = [c for c in all_cycles_by_bfs_style(G) if set(c) <= within]
    if not sub:
        return None
    shortest = min(len(c) for c in sub)
    return min(c for c in sub if len(c) == shortest)


def short_cycle_violations_by_permutation(
    G: Multigraph, cycle: tuple[int, ...], within
) -> list[tuple[int, tuple[int, ...], int, int]]:
    """(clause, vertices, value, limit) of every failed neighbour-count clause
    of `cycle` inside `within`, in the library's report order (1, 2, 4, 3).

    A clause of least cycle length L bounds, when |cycle| >= L, the number of
    cycle neighbours of every outside path of k vertices: the k-permutations
    of the outside vertices whose consecutive members are adjacent, one
    orientation each.  Whether `cycle` is shortest is not checked.
    """
    adjacent = {(u, v) for u, v, _ in G.edges} | {(v, u) for u, v, _ in G.edges}
    on_cycle = set(cycle)
    outside = sorted(set(within) - on_cycle)
    hits = {v: sum((v, c) in adjacent for c in on_cycle) for v in outside}
    found = []
    for clause, least, k, limit in ((1, 5, 1, 1), (2, 7, 2, 1), (4, 6, 3, 2), (3, 8, 5, 2)):
        if len(cycle) < least:
            continue
        for p in permutations(outside, k):
            if p[0] <= p[-1] and all((a, b) in adjacent for a, b in zip(p, p[1:])):
                value = sum(hits[v] for v in p)
                if value > limit:
                    found.append((clause, p, value, limit))
    return found


def max_disjoint_paths_oracle(G: Multigraph, apex: int, interior: set[int], targets: set[int]) -> int:
    """Max internally disjoint apex->target paths via exhaustive packing."""
    adj: list[set[int]] = [set() for _ in range(G.n)]
    for u, v, _ in G.edges:
        adj[u].add(v)
        adj[v].add(u)

    def paths_from(used_interior: set[int], used_targets: set[int]):
        """All simple paths apex -> fresh target with fresh interior vertices."""
        out = []

        def extend(path: list[int]):
            last = path[-1]
            for nxt in sorted(adj[last]):
                if nxt in targets and nxt not in used_targets:
                    out.append(path[1:] + [nxt])
                elif (
                    nxt in interior
                    and nxt != apex
                    and nxt not in used_interior
                    and nxt not in path
                ):
                    path.append(nxt)
                    extend(path)
                    path.pop()

        extend([apex])
        return out

    best = 0

    def pack(count: int, used_interior: set[int], used_targets: set[int]):
        nonlocal best
        best = max(best, count)
        for path in paths_from(used_interior, used_targets):
            pack(
                count + 1,
                used_interior | set(path[:-1]),
                used_targets | {path[-1]},
            )

    pack(0, set(), set())
    return best


def max_fan_by_flow_network(G: Multigraph, P: CyclePartition, v0: int, h: int) -> Fan | None:
    """max_fan as a max flow on the split-vertex network, then a flow decomposition.

    Computed as vertex-disjoint paths in the simple graph on V_0 + V(C_h)
    with interior vertices restricted to V_0: unit vertex capacities off the
    apex make augmenting BFS find the exact maximum.
    """
    if v0 not in P.v0:
        raise VertexNotInV0(f"vertex {v0} is not in the acyclic remainder")
    cyc = frozenset(P.cycles[h])
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
        for w in sorted(G.adj[u]):
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
    for first in sorted(G.adj[v0]):
        if first not in zone or flow.get((source, 2 * first), 0) <= 0:
            continue
        flow[(source, 2 * first)] -= 1
        path = [v0, first]
        node = first
        while node not in cyc:
            flow[(2 * node, 2 * node + 1)] -= 1
            nxt = None
            for y in sorted(G.adj[node]):
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


def refine_colors(colors: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
    """Stable neighborhood refinement of an integer vertex coloring."""
    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[u], m) for u, m in adj[v])))
            for v in range(n)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[sigs[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _relabeled_matrix(G: Multigraph, perm: list[int]) -> bytes:
    """Row-major upper triangle of the relabeled multiplicity matrix."""
    n = G.n
    mat = bytearray((n * (n - 1)) // 2)
    for u, v, m in G.edges:
        a, b = perm[u], perm[v]
        if a > b:
            a, b = b, a
        mat[(a * (2 * n - a - 1)) // 2 + (b - a - 1)] = m
    return bytes(mat)


def _interchangeable(members: list[int], adj, mult_map) -> bool:
    """True when every permutation of `members` (fixing the rest) is an automorphism.

    Holds iff the members induce a uniform pattern among themselves and have
    identical external neighborhoods; then one branch represents them all.
    """
    mset = set(members)
    first = members[0]
    ext_first = sorted((u, m) for u, m in adj[first] if u not in mset)
    for v in members[1:]:
        if sorted((u, m) for u, m in adj[v] if u not in mset) != ext_first:
            return False
    internal = {
        mult_map.get((min(a, b), max(a, b)), 0)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    }
    return len(internal) <= 1


def _canonical_search(G: Multigraph, colors: list[int], adj) -> tuple[bytes, list[int]]:
    colors = refine_colors(colors, adj)
    n = G.n
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    split_class = None
    for c in sorted(classes):
        if len(classes[c]) > 1:
            split_class = c
            break
    if split_class is None:
        rank = {c: i for i, c in enumerate(sorted(classes))}
        perm = [rank[colors[v]] for v in range(n)]
        return _relabeled_matrix(G, perm), perm
    best: tuple[bytes, list[int]] | None = None
    fresh = max(colors) + 1
    members = classes[split_class]
    if _interchangeable(members, adj, G.mult_map):
        members = members[:1]
    for v in members:
        branch = colors[:]
        branch[v] = fresh
        cand = _canonical_search(G, branch, adj)
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _adjacency(G: Multigraph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for u, v, m in G.edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
    return adj


def canonical_labeling(G: Multigraph) -> tuple[str, list[int]]:
    """Canonical key string plus the relabeling that realizes it, by the
    library's previous search.

    The key is the two-digit n, a dot, and the hex of the relabeled matrix.
    """
    if G.max_mult > 255:
        raise InstanceTooLarge("multiplicities above 255 not supported in keys")
    key_bytes, perm = _canonical_search(G, [0] * G.n, _adjacency(G))
    return f"{G.n:02d}." + key_bytes.hex(), perm


def canonicalize(G: Multigraph) -> tuple[str, Multigraph]:
    """Canonical key plus G relabeled by the permutation that realizes it."""
    key, perm = canonical_labeling(G)
    return key, build(G.n, [(perm[u], perm[v], m) for u, v, m in G.edges])


def edge_automorphisms_by_backtrack(S: Multigraph) -> list[tuple[int, ...]]:
    """Every non-identity automorphism of simple S as a permutation of edge
    indices, by the library's previous backtrack.

    Refinement colors are invariant under automorphisms, so each vertex maps
    into its own color class; the backtrack maps vertices smallest class
    first and keeps adjacency to every already mapped vertex.  Entry i of a
    permutation is the index in S.edges of the image of S.edges[i].
    """
    n = S.n
    adj = _adjacency(S)
    colors = refine_colors([0] * n, adj)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    order = sorted(range(n), key=lambda v: (len(classes[colors[v]]), v))
    nbrs = [frozenset(u for u, _ in adj[v]) for v in range(n)]
    index = {(u, v): i for i, (u, v, _) in enumerate(S.edges)}
    identity = tuple(range(len(S.edges)))
    image = [-1] * n
    taken = [False] * n
    perms: list[tuple[int, ...]] = []

    def extend(depth: int) -> None:
        if depth == n:
            perm = tuple(
                index[(a, b) if a < b else (b, a)]
                for a, b in ((image[u], image[v]) for u, v, _ in S.edges)
            )
            if perm != identity:
                perms.append(perm)
            return
        v = order[depth]
        for w in classes[colors[v]]:
            if taken[w]:
                continue
            if all((x in nbrs[v]) == (image[x] in nbrs[w]) for x in order[:depth]):
                image[v] = w
                taken[w] = True
                extend(depth + 1)
                taken[w] = False
        image[v] = -1

    extend(0)
    return perms


def aut_edge_perms(S: Multigraph) -> list[tuple[int, ...]]:
    """Every non-identity automorphism of S as a permutation of edge indices:
    the group closed from the generators the library's labelling finds.
    The library walks orbits by the generators and never lists the group;
    this closure checks that the generators generate all of it."""
    gens = _aut_edge_generators(S)
    identity = tuple(range(len(S.edges)))
    group, seen = [identity], {identity}
    for p in group:
        for g in gens:
            q = tuple([p[i] for i in g])
            if q not in seen:
                seen.add(q)
                group.append(q)
    return sorted(seen - {identity})


def enumerate_by_dedup(spec) -> list[tuple[str, Multigraph]]:
    """Every class of the spec, found by canonicalising every candidate.

    Two layers with no symmetry pruning: simple graphs grown one edge at a
    time and deduplicated by canonical key, then every multiplicity vector
    on every simple representative, deduplicated by the canonical key of the
    multigraph it gives.  Returns (key, representative) pairs sorted by key.
    """
    found: dict[str, Multigraph] = {}
    for n in range(spec.n_min, spec.n_max + 1):
        level = {canonicalize(build(n, []))[0]: build(n, [])}
        simples = list(level.values())
        for _ in range(min(spec.max_edge_copies, n * (n - 1) // 2)):
            nxt: dict[str, Multigraph] = {}
            for G in level.values():
                for u, v in combinations(range(n), 2):
                    if G.mult(u, v):
                        continue
                    H = build(n, list(G.edges) + [(u, v, 1)])
                    g = girth(H)
                    if g != INFINITE_GIRTH and g < spec.girth_min:
                        continue
                    key, rep = canonicalize(H)
                    nxt.setdefault(key, rep)
            level = nxt
            simples.extend(level.values())
        for S in simples:
            if not S.edges or 0 in S.degrees:
                continue
            g = girth(S)
            if g == INFINITE_GIRTH and spec.require_cycle:
                continue
            if spec.connected_only and not _connected_by_search(S):
                continue
            pairs = [(u, v) for u, v, _ in S.edges]
            for vec in product(range(1, spec.max_mu + 1), repeat=len(pairs)):
                if sum(vec) > spec.max_edge_copies:
                    continue
                key, rep = canonicalize(build(n, [(u, v, m) for (u, v), m in zip(pairs, vec)]))
                found.setdefault(key, rep)
    return sorted(found.items())


def _connected_by_search(G: Multigraph) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for u, v, _ in G.edges:
            for a, b in ((u, v), (v, u)):
                if a == x and b not in reach:
                    reach.add(b)
                    frontier.append(b)
    return len(reach) == G.n


def find_ring_by_solver(G: Multigraph, target: int) -> RingSubgraph | None:
    """find_ring_subgraph_with_chi with a solver call for every ring it tries."""
    if target < 1:
        return None

    def ring_chi(mults):
        g = len(mults)
        return chromatic_index(build(g, [(i, (i + 1) % g, mults[i]) for i in range(g)]))[0]

    for cyc in all_cycles_by_bfs_style(G):
        g = len(cyc)
        mults = [G.mult(cyc[i], cyc[(i + 1) % g]) for i in range(g)]
        chi = ring_chi(mults)
        if chi == target:
            return RingSubgraph(cyc, tuple(mults), chi)
        while chi > target and any(m > 1 for m in mults):
            for i in range(g):
                if mults[i] > 1:
                    mults[i] -= 1
                    break
            chi = ring_chi(mults)
            if chi == target:
                return RingSubgraph(cyc, tuple(mults), chi)
    return None


def minus_one_copy(G: Multigraph, u: int, v: int) -> Multigraph:
    """G - e for one copy e of the pair {u, v}, built from G's copies."""
    copies = [(a, b) for a, b, m in G.edges for _ in range(m)]
    copies.remove((min(u, v), max(u, v)))
    return build(G.n, [(a, b, 1) for a, b in copies])


def drop_keeping_chi_by_rebuild(
    G: Multigraph, chi: int, deadline: float | None = None
) -> Multigraph | None:
    """G minus one copy of the first pair, in serialized order, whose removal
    keeps chi' = chi, building each G - e with minus_one_copy."""
    for u, v, _ in G.edges:
        reduced = minus_one_copy(G, u, v)
        if is_k_colorable(reduced, chi - 1, deadline) is None:
            return reduced
    return None


def is_critical_by_rebuild(G: Multigraph, chi: int) -> bool:
    return drop_keeping_chi_by_rebuild(G, chi) is None


def extract_critical_by_rebuild(G: Multigraph, deadline: float | None = None) -> Multigraph:
    chi = chromatic_index(G, deadline=deadline)[0]
    while (reduced := drop_keeping_chi_by_rebuild(G, chi, deadline)) is not None:
        G = reduced
    return G


def witness_by_sorting(k: int, pairs, chosen) -> EdgeColoring:
    """The solver's witness assembled from its pairs and their chosen masks:
    each pair's colors sorted, each copy put in its color's class, then every
    class sorted."""
    classes = [[] for _ in range(k)]
    for (u, v, m), mask in zip(pairs, chosen):
        colors = []
        bit = 0
        while mask:
            if mask & 1:
                colors.append(bit + 1)
            mask >>= 1
            bit += 1
        for color in sorted(colors):
            classes[color - 1].append((u, v))
    return EdgeColoring(k, tuple(tuple(sorted(cls)) for cls in classes))


def search_static_order(
    n: int,
    edges: tuple[tuple[int, int, int], ...],
    degrees: tuple[int, ...] | list[int],
    k: int,
    deadline: float | None,
) -> tuple[list[tuple[int, int, int]], list[int]] | None:
    """The library's previous k-colorability decision, unchanged: pairs in a
    fixed order (degree sum descending, then serialized order), recursion
    once per pair, and a suffix-demand lookahead.

    `edges` are (u, v, mult) triples on vertices 0..n-1 and `degrees` their
    degree vector, so a caller can ask about a graph it never builds.
    Returns the pairs in search order with the color mask chosen for each,
    or None when no proper k-coloring exists.  An edgeless graph is
    k-colorable for every k >= 0.  No separate multiplicity test is needed:
    a pair's multiplicity never exceeds its endpoints' degrees.
    """
    if max(degrees, default=0) > k:
        return None

    # most-constrained pairs first; serialized order breaks ties
    pairs = sorted(edges, key=lambda e: (-(degrees[e[0]] + degrees[e[1]]), e[:2]))
    p = len(pairs)

    # remaining color demand per vertex over pair suffixes (for lookahead pruning)
    rem = [[0] * n for _ in range(p + 1)]
    for i in range(p - 1, -1, -1):
        u, v, m = pairs[i]
        row = rem[i + 1][:]
        row[u] += m
        row[v] += m
        rem[i] = row

    full = (1 << k) - 1
    used = [0] * n
    free = [k] * n
    chosen = [0] * p
    nodes = 0

    def dfs(i: int, next_new: int) -> bool:
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes % DEADLINE_POLL_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise SolverTimeout(f"k={k} decision exceeded budget")
        if i == p:
            return True
        u, v, m = pairs[i]
        avail = full & ~(used[u] | used[v])
        if avail.bit_count() < m:
            return False
        rem_i = rem[i + 1]
        old_avail = avail & ((1 << next_new) - 1)
        old_bits = []
        while old_avail:
            b = old_avail & -old_avail
            old_bits.append(b)
            old_avail ^= b
        max_new = min(m, k - next_new)
        for new_cnt in range(max_new + 1):
            old_cnt = m - new_cnt
            if old_cnt > len(old_bits) or old_cnt < 0:
                continue
            new_mask = ((1 << new_cnt) - 1) << next_new
            for comb in combinations(old_bits, old_cnt):
                mask = new_mask
                for b in comb:
                    mask |= b
                used[u] |= mask
                used[v] |= mask
                free[u] -= m
                free[v] -= m
                if free[u] >= rem_i[u] and free[v] >= rem_i[v]:
                    chosen[i] = mask
                    if dfs(i + 1, next_new + new_cnt):
                        return True
                used[u] &= ~mask
                used[v] &= ~mask
                free[u] += m
                free[v] += m
        return False

    if not dfs(0, 0):
        return None
    return pairs, chosen
