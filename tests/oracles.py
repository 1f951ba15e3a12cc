"""Independent brute-force oracles for the test suite.

These deliberately share no code or strategy with the library: the coloring
oracle assigns colors copy by copy in serialized order with no symmetry
breaking, the density oracles enumerate odd subsets directly (one of them
is the library's previous kernel, kept to pin the witness tie-break), the
cycle oracles enumerate vertex sequences, and the short-cycle clause oracle
finds outside paths among the permutations of the outside vertices.  The
ring-search oracle is the library's previous search, which asks the solver
for chi' at every step instead of using the ring's closed form.  The
criticality oracles are the library's previous loop, which builds every
G - e as a graph, and the witness oracle is its previous assembly, which
sorts the copies.  The static-order search is the library's previous
colorability decision, which branches on pairs in a fixed order.  The
enumeration oracle shares only the canonical key with the library (the key
defines the classes) and canonicalises every candidate.  Slow on purpose;
only run on small inputs.
"""

from __future__ import annotations

import time
from itertools import combinations, permutations, product

from steffenlab.coloring import (
    _TIMEOUT_CHECK_MASK,
    EdgeColoring,
    chromatic_index,
    is_k_colorable,
)
from steffenlab.errors import InstanceTooLarge, SolverTimeout
from steffenlab.generators import _canonical_labeling
from steffenlab.invariants import INFINITE_GIRTH, DensityWitness, girth
from steffenlab.multigraph import Multigraph, build, remove_edges
from steffenlab.structure import RingSubgraph, enumerate_cycles


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


def canonicalize(G: Multigraph) -> tuple[str, Multigraph]:
    """Canonical key plus G relabeled by the permutation that realizes it."""
    key, perm = _canonical_labeling(G)
    return key, build(G.n, [(perm[u], perm[v], m) for u, v, m in G.edges])


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
            pairs = list(S.pairs())
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

    for cyc in enumerate_cycles(G.simple):
        g = len(cyc)
        mults = [G.mult(cyc.vertices[i], cyc.vertices[(i + 1) % g]) for i in range(g)]
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


def drop_keeping_chi_by_rebuild(G: Multigraph, chi: int) -> Multigraph | None:
    """G minus one copy of the first pair, in serialized order, whose removal
    keeps chi' = chi, building each G - e with remove_edges."""
    for u, v, _ in G.edges:
        reduced = remove_edges(G, u, v, 1)
        if is_k_colorable(reduced, chi - 1) is None:
            return reduced
    return None


def is_critical_by_rebuild(G: Multigraph, chi: int) -> bool:
    return drop_keeping_chi_by_rebuild(G, chi) is None


def extract_critical_by_rebuild(G: Multigraph) -> Multigraph:
    chi = chromatic_index(G)[0]
    while (reduced := drop_keeping_chi_by_rebuild(G, chi)) is not None:
        G = reduced
    return G


def witness_by_sorting(k: int, pairs, chosen) -> EdgeColoring:
    """The solver's witness assembled from its pairs and their chosen masks:
    each pair's colors sorted, then every copy sorted by ((u, v), copy)."""
    assignment = []
    for (u, v, m), mask in zip(pairs, chosen):
        colors = []
        bit = 0
        while mask:
            if mask & 1:
                colors.append(bit + 1)
            mask >>= 1
            bit += 1
        for idx, color in enumerate(sorted(colors)):
            assignment.append((((u, v), idx), color))
    assignment.sort()
    return EdgeColoring(k, tuple(assignment))


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
        if deadline is not None and (nodes & _TIMEOUT_CHECK_MASK) == 0:
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
