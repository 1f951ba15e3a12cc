"""Exact edge-coloring decisions, chromatic index, criticality, and
near-perfect matching decompositions.

The k-colorability solver backtracks over vertex pairs (most-constrained
first), assigning each pair a color *set* of size mult(u, v): parallel copies
of a pair are interchangeable, so per-copy assignment would only multiply the
search space by mu!.  Per-vertex used-color sets are bitmasks.  Global color
symmetry is broken by allowing a new color index only once all smaller
indices already appear somewhere.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .errors import CoverageMismatch, PreconditionFailed, SolverTimeout
from .invariants import bound_at_girth, density, is_bipartite
from .multigraph import Multigraph, remove_edges

_TIMEOUT_CHECK_MASK = 0x3FF  # poll the clock every 1024 search nodes


def _deadline(timeout_seconds: float | None) -> float | None:
    """Fresh per-decision deadline: the budget applies to each (G, k) call."""
    return None if timeout_seconds is None else time.monotonic() + timeout_seconds


@dataclass(frozen=True)
class EdgeColoring:
    """Assignment of a color in 1..k to every parallel copy ((u, v), copy_index)."""

    k: int
    assignment: tuple[tuple[tuple[tuple[int, int], int], int], ...]

    def classes(self) -> list[list[tuple[int, int]]]:
        """Color classes 1..k, each a sorted list of pairs."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.k)]
        for (pair, _), color in self.assignment:
            out[color - 1].append(pair)
        return [sorted(cls) for cls in out]

    def to_json_obj(self) -> dict:
        return {"k": self.k, "classes": [[[u, v] for u, v in cls] for cls in self.classes()]}


@dataclass(frozen=True)
class MatchingDecomposition:
    """Color classes of G-e that are all near-perfect matchings."""

    classes: tuple[tuple[tuple[int, int], ...], ...]
    missed_vertex: tuple[int, ...]


@dataclass(frozen=True)
class DegreeIdentityReport:
    residuals: tuple[int, ...]
    min_degree_bound: str  # "holds" | "violated" | "not-applicable"


def validate_coloring(G: Multigraph, coloring: EdgeColoring) -> bool:
    """True iff the coloring is a proper edge coloring of exactly G's copies."""
    got = {key for key, _ in coloring.assignment}
    expected = set(G.copies())
    if got != expected or len(coloring.assignment) != len(expected):
        raise CoverageMismatch(
            f"coloring covers {len(got)} copies, graph has {len(expected)}"
        )
    seen: list[set[int]] = [set() for _ in range(G.n)]
    for ((u, v), _), color in coloring.assignment:
        if not (1 <= color <= coloring.k):
            return False
        if color in seen[u] or color in seen[v]:
            return False
        seen[u].add(color)
        seen[v].add(color)
    return True


def is_k_colorable(
    G: Multigraph, k: int, deadline: float | None = None
) -> EdgeColoring | None:
    """A proper k-edge-coloring of G, or None.  Deterministic given (G, k)."""
    found = _search(G.n, G.edges, G.degrees, k, deadline)
    if found is None:
        return None
    # copies of a pair take its mask's colors lowest first, and walking the
    # pairs in serialized order lists the copies in ((u, v), copy) order
    mask_of = dict(zip(*found))
    assignment = []
    for pair in G.edges:
        mask = mask_of[pair]
        copy = 0
        while mask:
            low = mask & -mask
            assignment.append(((pair[:2], copy), low.bit_length()))
            mask ^= low
            copy += 1
    return EdgeColoring(k, tuple(assignment))


def _search(
    n: int,
    edges: tuple[tuple[int, int, int], ...],
    degrees: tuple[int, ...] | list[int],
    k: int,
    deadline: float | None,
) -> tuple[list[tuple[int, int, int]], list[int]] | None:
    """The decision behind `is_k_colorable`, on a bare edge list.

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


def chromatic_index(
    G: Multigraph, mode: str = "search", timeout_seconds: float | None = None
) -> tuple[int, EdgeColoring]:
    """Exact chromatic index with a witness coloring.

    A linear ascent on k from max(Delta, Gamma) up to Delta + mu; the lower
    end is exact, so the first feasible k is chi'.  Mode "gs" asserts the
    Goldberg-Seymour identity: when Gamma >= Delta + 2 the ascent starts at
    k = Gamma, and a first decision that finds no Gamma-coloring raises
    PreconditionFailed("density-coloring") instead of climbing further.
    Density is skipped when the underlying simple graph is bipartite: then
    Gamma <= Delta, so max(Delta, Gamma) = Delta at any order.  Otherwise it
    gets the same time budget as each decision.
    """
    if mode not in ("search", "gs"):
        raise ValueError(f"unknown mode {mode!r}")
    if not G.edges:
        return 0, EdgeColoring(0, ())
    delta_max = max(G.degrees)
    mu = G.max_mult
    if is_bipartite(G):
        gamma = delta_max
    else:
        gamma = density(G, deadline=_deadline(timeout_seconds)).gamma
    for k in range(max(delta_max, gamma), delta_max + mu + 1):
        witness = is_k_colorable(G, k, _deadline(timeout_seconds))
        if witness is not None:
            return k, witness
        if mode == "gs" and gamma >= delta_max + 2:
            raise PreconditionFailed(
                "density-coloring", f"no {gamma}-coloring found although Gamma={gamma}"
            )
    raise PreconditionFailed("vizing-gupta", "no coloring within Delta + mu colors")


def is_critical(
    G: Multigraph, chi: int | None = None, timeout_seconds: float | None = None
) -> bool:
    """True iff removing any single copy of any pair lowers the chromatic index.

    Single-copy deletion suffices: deleting more copies only lowers chi'
    further, and vertex deletion is edge deletion plus isolated vertices.
    """
    if not G.edges:
        raise PreconditionFailed("nonempty", "criticality needs at least one edge")
    if chi is None:
        chi = chromatic_index(G, timeout_seconds=timeout_seconds)[0]
    return _drop_keeping_chi(G, chi, timeout_seconds) is None


def _drop_keeping_chi(
    G: Multigraph, chi: int, timeout_seconds: float | None
) -> Multigraph | None:
    """G minus one copy of the first pair, in serialized order, whose removal
    leaves chi' = chi, or None when every such removal lowers chi'.

    Each G - e is decided as an edge list and a degree vector; only the one
    returned is built as a graph.
    """
    edges = G.edges
    for i, (u, v, m) in enumerate(edges):
        kept = ((u, v, m - 1),) if m > 1 else ()
        reduced = edges[:i] + kept + edges[i + 1 :]
        degrees = list(G.degrees)
        degrees[u] -= 1
        degrees[v] -= 1
        if _search(G.n, reduced, degrees, chi - 1, _deadline(timeout_seconds)) is None:
            return Multigraph(G.n, reduced)
    return None


def extract_critical(G: Multigraph, timeout_seconds: float | None = None) -> Multigraph:
    """Greedily delete copies whose removal preserves chi' until none remains.

    Scans pairs in serialized order for reproducibility; the result is a
    critical subgraph with the same chromatic index.
    """
    if not G.edges:
        raise PreconditionFailed("nonempty", "need at least one edge")
    chi = chromatic_index(G, timeout_seconds=timeout_seconds)[0]
    current = G
    while (reduced := _drop_keeping_chi(current, chi, timeout_seconds)) is not None:
        current = reduced
    return current


def near_perfect_matching_decomposition(
    G: Multigraph,
    e: tuple[int, int],
    assume_critical: bool = False,
    chi: int | None = None,
    timeout_seconds: float | None = None,
) -> MatchingDecomposition:
    """Partition E(G-e) into chi'-1 near-perfect matchings.

    Requires G critical with chi' >= Delta + 2 and n odd.  Any proper
    (chi'-1)-coloring of G-e works: the edge count forces every class to
    have exactly (n-1)/2 edges, each missing a single vertex.
    """
    u, v = min(e), max(e)
    if G.mult(u, v) < 1:
        raise PreconditionFailed("edge-exists", f"pair ({u}, {v}) absent")
    if chi is None:
        chi = chromatic_index(G, timeout_seconds=timeout_seconds)[0]
    delta_max = max(G.degrees)
    if chi < delta_max + 2:
        raise PreconditionFailed("chi-ge-delta-plus-2", f"chi'={chi}, Delta={delta_max}")
    if G.n % 2 == 0:
        raise PreconditionFailed("n-odd", f"n={G.n} is even")
    if not assume_critical and not is_critical(G, chi=chi, timeout_seconds=timeout_seconds):
        raise PreconditionFailed("critical", "graph is not critical")
    reduced = remove_edges(G, u, v, 1)
    witness = is_k_colorable(reduced, chi - 1, _deadline(timeout_seconds))
    if witness is None:
        raise PreconditionFailed("decomposition", f"G-e has no ({chi - 1})-coloring")
    classes = witness.classes()
    want = (G.n - 1) // 2
    missed = []
    for cls in classes:
        if len(cls) != want:
            raise PreconditionFailed(
                "near-perfect", f"class size {len(cls)} != {want}"
            )
        covered = {x for pair in cls for x in pair}
        missing = sorted(set(range(G.n)) - covered)
        if len(missing) != 1:
            raise PreconditionFailed("near-perfect", f"class misses {missing}")
        missed.append(missing[0])
    return MatchingDecomposition(
        tuple(tuple(cls) for cls in classes), tuple(missed)
    )


def degree_identity_check(
    G: Multigraph,
    chi: int | None = None,
    check_critical: bool = True,
    timeout_seconds: float | None = None,
) -> DegreeIdentityReport:
    """Residuals of d(v) = sum_{w != v}(chi'-1-d(w)) + 2, plus the min-degree bound.

    The bound delta >= n*mu/g + 1 applies for every integer g >= 5 with
    n >= g and chi' = Delta + ceil(mu / floor(g/2)); it is checked for all
    such g and reported "not-applicable" when no g qualifies.
    """
    if chi is None:
        chi = chromatic_index(G, timeout_seconds=timeout_seconds)[0]
    delta_max = max(G.degrees, default=0)
    if chi < delta_max + 2:
        raise PreconditionFailed("chi-ge-delta-plus-2", f"chi'={chi}, Delta={delta_max}")
    if check_critical and not is_critical(G, chi=chi, timeout_seconds=timeout_seconds):
        raise PreconditionFailed("critical", "graph is not critical")
    total = sum(G.degrees)
    residuals = []
    for v in range(G.n):
        rhs = (G.n - 1) * (chi - 1) - (total - G.degrees[v]) + 2
        residuals.append(G.degrees[v] - rhs)

    mu = G.max_mult
    delta_min = min(G.degrees, default=0)
    applicable = [g for g in range(5, G.n + 1) if chi == bound_at_girth(delta_max, mu, g)]
    if not applicable:
        bound = "not-applicable"
    elif all(delta_min * g >= G.n * mu + g for g in applicable):
        # exact rational comparison of delta >= n*mu/g + 1 for every valid g
        bound = "holds"
    else:
        bound = "violated"
    return DegreeIdentityReport(tuple(residuals), bound)
