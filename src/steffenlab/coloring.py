"""Exact edge-coloring decisions, chromatic index, criticality, and
near-perfect matching decompositions.

The k-colorability solver backtracks over vertex pairs, assigning each pair
a color *set* of size mult(u, v): parallel copies of a pair are
interchangeable, so per-copy assignment would only multiply the search space
by mu!.  Per-vertex used-color sets are bitmasks.  The pair to branch on is
chosen afresh at every node: the one with the fewest spare colors (its
slack), and a pair with no colors left for it ends the branch (forward
checking).  Global color symmetry is broken by allowing a new color index
only once all smaller indices already appear somewhere.  The search walks an
explicit stack, so its depth is not bounded by Python's recursion limit.
A branched pair takes its first color set directly, and the iterator over
its other sets is built only once the search backtracks to it.
`chromatic_index` turns the color masks of its feasible decision into a
witness coloring; `chromatic_index_value` runs the same ascent for callers
that keep chi' alone, and assembles none.
Criticality and the matching decomposition decide each G - e on a bare edge
list; criticality walks the pairs once, never returning to a pair whose
removal lowered chi', as it lowers chi' in every subgraph too (`_reductions`).
Each function takes `deadline`, one time.monotonic() instant or None, and
hands it to every density call and decision it makes; its caller starts the
budget.  A decision uses at most COLOR_CAP colors.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations

from .errors import (DEADLINE_POLL_INTERVAL, CoverageMismatch, InstanceTooLarge,
                     PreconditionFailed, check_deadline)
from .invariants import DENSITY_ENUMERATION_CAP, density_gamma, in_theorem_regime, is_bipartite
from .multigraph import Multigraph, Value

COLOR_CAP = 4096  # the most colors a decision may use: its witness costs about k^2
_Edges = tuple[tuple[int, int, int], ...]  # (u, v, mult) triples in serialized order
_Decision = tuple[_Edges, list[int] | None]  # G - e and its color masks, if colorable


class EdgeColoring(Value):
    """Assignment of a color in 1..k to every parallel copy ((u, v), copy_index)."""

    _fields = ("k", "assignment")

    def classes(self) -> list[list[tuple[int, int]]]:
        """Color classes 1..k, each a sorted list of pairs."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.k)]
        for (pair, _), color in self.assignment:
            out[color - 1].append(pair)
        return [sorted(cls) for cls in out]

    def to_json_obj(self) -> dict:
        return {"k": self.k, "classes": [[[u, v] for u, v in cls] for cls in self.classes()]}


class MatchingDecomposition(Value):
    """Color classes of G-e that are all near-perfect matchings."""

    _fields = ("classes", "missed_vertex")


class DegreeIdentityReport(Value):
    """Per-vertex degree identity residuals; `min_degree_bound` is "holds",
    "violated" or "not-applicable"."""

    _fields = ("residuals", "min_degree_bound")


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
    masks = _search(G.n, G.edges, G.degrees, k, deadline)
    return None if masks is None else _witness(G.edges, k, masks)


def _witness(edges: _Edges, k: int, masks: list[int]) -> EdgeColoring:
    """The coloring of the copies of `edges` by the color masks `_search` chose for them."""
    # copies of a pair take its mask's colors lowest first, and walking the
    # pairs in serialized order lists the copies in ((u, v), copy) order
    assignment = []
    for pair, mask in zip(edges, masks):
        copy = 0
        while mask:
            low = mask & -mask
            assignment.append(((pair[:2], copy), low.bit_length()))
            mask ^= low
            copy += 1
    return EdgeColoring(k, tuple(assignment))


def _search(
    n: int, edges: _Edges, degrees: tuple[int, ...] | list[int], k: int, deadline: float | None
) -> list[int] | None:
    """The decision behind `is_k_colorable`, on a bare edge list.

    `edges` are (u, v, mult) triples on vertices 0..n-1 and `degrees` their
    degree vector, so a caller can ask about a graph it never builds.
    Returns the color mask chosen for each pair, aligned with `edges`, or
    None when no proper k-coloring exists.  An edgeless graph is k-colorable
    for every k >= 0.  No separate multiplicity test is needed: a pair's
    multiplicity never exceeds its endpoints' degrees.

    Every node branches on the unassigned pair of least slack (colors free
    at both ends minus its multiplicity); ties go to the larger degree sum,
    then to serialized order, and the scan stops at a pair of slack 0, whose
    one color set is forced.  A pair of negative slack sends the search
    back.  `todo` holds the unassigned pairs as (index, u, v, k - mult), and
    each `stack` frame a branched pair's position in `todo`, its entry, its
    untried color sets and the number of colors open before it.  Those sets
    are None until the search first backtracks to the frame; undoing its
    mask then restores the colors free at branching, and `_color_sets` of
    these and the frame's open count, less the first set, replaces None.
    """
    if k > COLOR_CAP:
        raise InstanceTooLarge(f"coloring search needs k <= {COLOR_CAP}, got {k}")
    if max(degrees, default=0) > k:
        return None
    full = (1 << k) - 1
    poll = DEADLINE_POLL_INTERVAL - 1
    todo = sorted(
        ((i, u, v, k - m) for i, (u, v, m) in enumerate(edges)),
        key=lambda entry: -(degrees[entry[1]] + degrees[entry[2]]),
    )
    used = [0] * n
    masks = [0] * len(edges)
    stack = []
    opened = nodes = 0
    while True:
        if deadline is not None and not nodes & poll:
            check_deadline(deadline, f"k={k} decision")
        nodes += 1
        if not todo:
            return masks
        least = k
        for pos, (i, u, v, cap) in enumerate(todo):
            slack = cap - (used[u] | used[v]).bit_count()
            if slack < least:
                least, best = slack, pos
                if slack <= 0:
                    break
        if least >= 0:
            entry = todo.pop(best)
            i, u, v, cap = entry
            avail = full & ~(used[u] | used[v])
            # never 0: slack >= 0 leaves m colors in avail, which holds every
            # color not yet opened
            if least:
                mask, rest = _first_set(avail, k - cap, opened, k), None
            else:
                mask, rest = avail, _NO_OTHER
            masks[i] = mask
            used[u] |= mask
            used[v] |= mask
            stack.append((best, entry, rest, opened))
            opened = max(opened, mask.bit_length())
            continue
        while stack:
            pos, entry, rest, before = stack[-1]
            i, u, v, cap = entry
            used[u] ^= masks[i]
            used[v] ^= masks[i]
            if rest is None:
                # first backtrack here: used is back to its value at
                # branching, so this is the frame's own order, less the
                # first set, already tried
                rest = _color_sets(full & ~(used[u] | used[v]), k - cap, before, k)
                next(rest)
                stack[-1] = (pos, entry, rest, before)
            masks[i] = mask = next(rest, 0)
            if mask:
                used[u] |= mask
                used[v] |= mask
                opened = max(before, mask.bit_length())
                break
            stack.pop()
            todo.insert(pos, entry)
        else:
            return None


_NO_OTHER = iter(())  # a forced pair's other color sets: none, ever


def _first_set(avail: int, m: int, opened: int, k: int) -> int:
    """The first mask `_color_sets(avail, m, opened, k)` yields, or 0 when it
    yields none: the lowest opened colors of `avail`, up to m of them, then
    the next new indices in order."""
    old = avail & ((1 << opened) - 1)
    while old.bit_count() > m:
        old ^= 1 << (old.bit_length() - 1)
    m -= old.bit_count()
    return 0 if m > k - opened else old | ((1 << m) - 1) << opened


def _color_sets(avail: int, m: int, opened: int, k: int):
    """The masks of m colors from `avail` a pair may take, fewest new colors
    first.  Colors not yet `opened` anywhere are interchangeable, so new ones
    are only ever the next indices in order (symmetry break).  This is the
    one definition of the order; `_first_set` is its first element."""
    old_bits = []
    old = avail & ((1 << opened) - 1)
    while old:
        low = old & -old
        old_bits.append(low)
        old ^= low
    for new_cnt in range(min(m, k - opened) + 1):
        new_mask = ((1 << new_cnt) - 1) << opened
        for comb in combinations(old_bits, m - new_cnt):
            yield new_mask | sum(comb)


def chromatic_index(
    G: Multigraph, mode: str = "search", deadline: float | None = None
) -> tuple[int, EdgeColoring]:
    """Exact chromatic index with a witness coloring.

    A linear ascent on k from max(Delta, Gamma) up to Delta + mu; the lower
    end is exact, so the first feasible k is chi'.  Mode "gs" asserts the
    Goldberg-Seymour identity: when Gamma >= Delta + 2 the ascent starts at
    k = Gamma, and a first decision that finds no Gamma-coloring raises
    PreconditionFailed("density-coloring") instead of climbing further.
    Density is skipped when the underlying simple graph is bipartite: then
    Gamma <= Delta, so max(Delta, Gamma) = Delta at any order.  Mode "search"
    also skips it above density's vertex cap, starting at Delta: any lower
    bound on chi' gives the same first feasible k.  Density and every
    decision share the one `deadline`.
    """
    k, masks = _ascent(G, mode, deadline)
    return k, _witness(G.edges, k, masks)


def chromatic_index_value(G: Multigraph, deadline: float | None = None) -> int:
    """chi'(G) alone: the ascent of `chromatic_index`, with the same decisions
    and deadline polls, but no witness coloring assembled."""
    return _ascent(G, "search", deadline)[0]


def _ascent(G: Multigraph, mode: str, deadline: float | None) -> tuple[int, list[int]]:
    """chi'(G) and the color masks of its feasible decision (`chromatic_index`)."""
    if mode not in ("search", "gs"):
        raise ValueError(f"unknown mode {mode!r}")
    if not G.edges:
        return 0, []
    delta_max = max(G.degrees)
    mu = G.max_mult
    if (mode == "search" and G.n > DENSITY_ENUMERATION_CAP) or is_bipartite(G):
        gamma = delta_max
    else:
        gamma = density_gamma(G, deadline)
    for k in range(max(delta_max, gamma), delta_max + mu + 1):
        masks = _search(G.n, G.edges, G.degrees, k, deadline)
        if masks is not None:
            return k, masks
        if mode == "gs" and gamma >= delta_max + 2:
            raise PreconditionFailed(
                "density-coloring", f"no {gamma}-coloring found although Gamma={gamma}"
            )
    raise PreconditionFailed("vizing-gupta", "no coloring within Delta + mu colors")


def is_critical(
    G: Multigraph, chi: int | None = None, deadline: float | None = None
) -> bool:
    """True iff removing any single copy of any pair lowers the chromatic index.

    Single-copy deletion suffices: deleting more copies only lowers chi'
    further, and vertex deletion is edge deletion plus isolated vertices.
    So G is critical iff the walk of `extract_critical` takes no copy.
    """
    return all(masks is not None for _, masks in _reductions(G, chi, deadline))


def _reductions(G: Multigraph, chi: int | None, deadline: float | None) -> Iterator[_Decision]:
    """Each decision of the walk of `extract_critical`, in order: G - e and the
    masks of a (chi - 1)-coloring of it, or None when the walk takes the copy.

    The walk goes through the pairs in serialized order.  It takes a copy of
    the current pair while that removal leaves chi' = chi (by default chi'(G)),
    and moves on once the removal lowers chi': it then lowers chi' in every
    later subgraph too, since G' ⊆ G makes G' - e ⊆ G - e.  Each G - e is an
    edge list and a degree vector, and no graph is built for it; one that keeps
    a vertex of degree >= chi needs chi colors, and `_search` settles it at entry.
    """
    if not G.edges:
        raise PreconditionFailed("nonempty", "criticality needs at least one edge")
    if chi is None:
        chi = chromatic_index_value(G, deadline=deadline)
    edges, degrees, i = G.edges, G.degrees, 0
    while i < len(edges):
        reduced, left = _less_one_copy(edges, degrees, i)
        masks = _search(G.n, reduced, left, chi - 1, deadline)
        yield reduced, masks
        if masks is None:
            edges, degrees = reduced, left
        else:
            i += 1


def _less_one_copy(edges: _Edges, degrees: Sequence[int], i: int) -> tuple[_Edges, list[int]]:
    """G - e: `edges` less one copy of pair i, in serialized order, and its degrees."""
    u, v, m = edges[i]
    left = list(degrees)
    left[u] -= 1
    left[v] -= 1
    return edges[:i] + (((u, v, m - 1),) if m > 1 else ()) + edges[i + 1 :], left


def extract_critical(
    G: Multigraph, chi: int | None = None, deadline: float | None = None
) -> Multigraph:
    """Greedily delete copies whose removal preserves chi' until none remains.

    Scans pairs in serialized order for reproducibility; the result is a
    critical subgraph with the same chromatic index, G itself iff G is critical.
    The scan is one pass (`_reductions`): it decides each pair once, plus once
    per copy it takes, and builds one graph, the result.
    """
    taken = [edges for edges, masks in _reductions(G, chi, deadline) if masks is None]
    return Multigraph(G.n, taken[-1]) if taken else G


def _lemma_chi(
    G: Multigraph, chi: int | None, critical_known: bool, deadline: float | None
) -> int:
    """chi'(G), or `chi` when given, once the structural lemmas' shared hypotheses
    hold: chi' >= Delta + 2, and G critical unless the caller asserts it."""
    if chi is None:
        chi = chromatic_index_value(G, deadline=deadline)
    delta_max = max(G.degrees, default=0)
    if chi < delta_max + 2:
        raise PreconditionFailed("chi-ge-delta-plus-2", f"chi'={chi}, Delta={delta_max}")
    if not critical_known and not is_critical(G, chi=chi, deadline=deadline):
        raise PreconditionFailed("critical", "graph is not critical")
    return chi


def near_perfect_matching_decomposition(
    G: Multigraph,
    e: tuple[int, int],
    assume_critical: bool = False,
    chi: int | None = None,
    deadline: float | None = None,
) -> MatchingDecomposition:
    """Partition E(G-e) into chi'-1 near-perfect matchings.

    Requires G critical with chi' >= Delta + 2 and n odd.  Any proper
    (chi'-1)-coloring of G-e works, here the decision `is_critical` makes on
    its edge list: every class has (n-1)/2 edges, so misses one vertex.
    """
    u, v = min(e), max(e)
    if G.mult(u, v) < 1:
        raise PreconditionFailed("edge-exists", f"pair ({u}, {v}) absent")
    if G.n % 2 == 0:
        raise PreconditionFailed("n-odd", f"n={G.n} is even")
    chi = _lemma_chi(G, chi, assume_critical, deadline)
    reduced, left = _less_one_copy(G.edges, G.degrees, G.edges.index((u, v, G.mult(u, v))))
    masks = _search(G.n, reduced, left, chi - 1, deadline)
    if masks is None:
        raise PreconditionFailed("decomposition", f"G-e has no ({chi - 1})-coloring")
    return _near_perfect_classes(G.n, reduced, chi - 1, masks)


def _near_perfect_classes(n: int, edges: _Edges, k: int, masks: list[int]) -> MatchingDecomposition:
    """The classes of the k-coloring `masks` of `edges`, each near-perfect on n vertices."""
    classes = _witness(edges, k, masks).classes()
    missed = []
    for cls in classes:
        # a class is a matching, so it misses one vertex iff it has (n-1)/2 edges
        missing = sorted(set(range(n)).difference(*cls))
        if len(missing) != 1:
            raise PreconditionFailed("near-perfect", f"class misses {missing}")
        missed.append(missing[0])
    return MatchingDecomposition(tuple(tuple(cls) for cls in classes), tuple(missed))


def degree_identity_check(
    G: Multigraph,
    chi: int | None = None,
    check_critical: bool = True,
    deadline: float | None = None,
) -> DegreeIdentityReport:
    """Residuals of d(v) = sum_{w != v}(chi'-1-d(w)) + 2, plus the min-degree bound.

    The residual of every vertex is the same number, 2|E| - (n-1)(chi'-1) - 2.
    The bound delta >= n*mu/g + 1 applies for every integer g <= n at which
    the values of G are in the theorem's regime (`in_theorem_regime`); it is
    checked for all such g and reported "not-applicable" when no g qualifies.
    """
    chi = _lemma_chi(G, chi, not check_critical, deadline)
    residual = sum(G.degrees) - (G.n - 1) * (chi - 1) - 2

    delta_max, delta_min = max(G.degrees), min(G.degrees)
    mu = G.max_mult
    applicable = [g for g in range(5, G.n + 1) if in_theorem_regime(delta_max, mu, g, chi)]
    if not applicable:
        bound = "not-applicable"
    elif all(delta_min * g >= G.n * mu + g for g in applicable):
        # exact rational comparison of delta >= n*mu/g + 1 for every valid g
        bound = "holds"
    else:
        bound = "violated"
    return DegreeIdentityReport((residual,) * G.n, bound)
