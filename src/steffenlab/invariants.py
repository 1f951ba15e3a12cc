"""Girth, distances, density, and the girth-refined coloring bound.

Girth is always computed on the underlying simple graph: parallel pairs never
count as 2-cycles (cycles start at length 3).  Acyclic graphs have infinite
girth, represented as math.inf.  Girth takes the vertices in turn as roots of
a BFS inside the vertices not yet taken, and drops with each root every
vertex left with fewer than two neighbours among them (a 2-core peel), so a
forest starts no BFS at any numbering and a cycle starts one.

Every distance, girth's levels and bipartiteness included, comes from the one
BFS `bfs_dist`.  The cycles themselves (shortest cycles, the path walk and
the short-cycle clauses) live in `structure`.

`is_bipartite`, `density` and its value alone, `density_gamma`, are
memoised on the graph (`Multigraph.memo`) by name, and the girth of each
induced subgraph asked about by its vertex set, the whole graph's (`girth`)
included.  So a scan record, `steffen_bound` and `chromatic_index` share
one value per graph, and a cycle partition, its verification and the
short-cycle clauses share each BFS run.  Girth and bipartiteness depend on
the underlying simple graph alone, and every multigraph on one simple graph
S has S's odd vertex sets, so `seeder` makes each class's scan seed from S:
S's girth and bipartiteness and the class's Gamma, read from one table of
S's odd sets (`odd_set_table`, read by `table_gamma`).  A scan seeds each
record's memo with it (`seed_memo`): no scan record computes its girth or
bipartiteness or enumerates odd sets for its graph.

Density enumerates odd vertex sets size by size.  A whole size s is skipped
when no set of that size can change the answer: when ceil(2m/(s-1)) is at
most the incumbent, or when ceil(D_s/(s-1)) is below it, where D_s is the
sum of the s largest degrees (2|E(G[S])| <= sum of the degrees in S).
Within a size, a walk over the sets' prefixes abandons one when a like degree
bound over the vertices after it shows that no set through it can tie.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Container
from itertools import accumulate, combinations

from .errors import DEADLINE_POLL_INTERVAL, InstanceTooLarge, check_deadline
from .multigraph import Multigraph, Value

INFINITE_GIRTH = math.inf

DENSITY_ENUMERATION_CAP = 22

# a class's scan seed, made by `seeder`: (girth, bipartite, Gamma)
Seed = tuple[int | float, bool, int]


class DensityWitness(Value):
    _fields = ("gamma", "witness")


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def bound_at_girth(delta_max: int, mu: int, g: int | float) -> int:
    """Delta + ceil(mu / floor(g/2)): Steffen's bound at girth g >= 3 or inf.

    An infinite girth takes the g -> inf limit of the ceiling term, which is 1
    for mu >= 1 (sound: Vizing gives chi' <= Delta + 1 when mu = 1, and
    bipartite acyclic graphs have chi' = Delta anyway).  Edgeless graphs
    (mu = 0) give Delta = 0.
    """
    if mu == 0:
        return delta_max
    if g == INFINITE_GIRTH:
        return delta_max + 1
    return delta_max + ceil_div(mu, int(g) // 2)


def in_theorem_regime(delta_max: int, mu: int, g: int | float, chi: int) -> bool:
    """The main theorem's hypotheses on values: finite girth g >= 5, chi' >= Delta + 2
    and chi' = Delta + ceil(mu / floor(g/2)).  A critical graph in it is an odd ring."""
    if not 5 <= g < INFINITE_GIRTH:
        return False
    return chi >= delta_max + 2 and chi == bound_at_girth(delta_max, mu, g)


def subgraph_girth(G: Multigraph, within: frozenset[int]) -> int | float:
    """Girth of the subgraph induced on `within`, memoised on G per vertex set."""
    memo = G.memo
    if within not in memo:
        memo[within] = _bfs_girth(G, within)
    return memo[within]


def _bfs_girth(G: Multigraph, within: frozenset[int]) -> int | float:
    """The least closed walk over the roots' BFS levels (`bfs_dist`): a vertex
    on level d with two neighbours on level d - 1 closes one of 2d edges, else
    one with a neighbour on level d one of 2d + 1.  It is exact, as a shortest
    cycle's least vertex sees it all at its distances along it, and the 2-core
    peel keeps the cycle's vertices alive until that vertex is a root."""
    adj = G.adj
    alive = set(within)
    degree = {v: sum(y in alive for y in adj[v]) for v in alive}
    doomed = [v for v in alive if degree[v] < 2]
    best: int | float = INFINITE_GIRTH
    for root in sorted(within):
        while doomed:
            x = doomed.pop()
            if x in alive:
                alive.remove(x)
                for y in adj[x]:
                    if y in alive:
                        degree[y] -= 1
                        if degree[y] == 1:
                            doomed.append(y)
        if root not in alive:
            continue
        # levels in BFS order; every alive neighbour of a reached vertex is reached
        dist = bfs_dist(G, alive, root)
        for y, d in dist.items():
            if 2 * d >= best:
                break
            levels = [dist.get(x) for x in adj[y]]
            if levels.count(d - 1) > 1:
                best = 2 * d
            elif d in levels:
                best = 2 * d + 1
        doomed.append(root)
    return best


def girth(G: Multigraph) -> int | float:
    """Length of a shortest cycle (>= 3) of the underlying simple graph, or inf."""
    return subgraph_girth(G, frozenset(range(G.n)))


def bfs_dist(G: Multigraph, allowed: Container[int], src: int) -> dict[int, int]:
    """Hop distance from src to every vertex it reaches inside `allowed`."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in G.adj[x]:
            if y in allowed and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_connected(G: Multigraph) -> bool:
    """True iff one BFS from vertex 0 reaches every vertex (the empty graph is connected)."""
    return G.n == 0 or len(bfs_dist(G, range(G.n), 0)) == G.n


def is_bipartite(G: Multigraph) -> bool:
    """True iff the underlying simple graph has a proper 2-coloring."""
    memo = G.memo
    if "bipartite" not in memo:
        memo["bipartite"] = _two_colorable(G)
    return memo["bipartite"]


def _two_colorable(G: Multigraph) -> bool:
    """Hop-distance parity from one root per component with an edge is a
    2-coloring unless some edge joins two vertices at the same distance."""
    dist: dict[int, int] = {}
    for root in range(G.n):
        if G.degrees[root] and root not in dist:
            dist.update(bfs_dist(G, range(G.n), root))
    return all(dist[u] != dist[v] for u, v, _ in G.edges)


def seed_memo(G: Multigraph, seed: Seed) -> None:
    """Memoise on G its seed (girth, bipartite, Gamma), made by `seeder` on a
    simple graph isomorphic to G's underlying one; G then computes none of
    the three."""
    memo = G.memo
    memo[frozenset(range(G.n))], memo["bipartite"], memo["gamma"] = seed


def density(G: Multigraph, deadline: float | None = None) -> DensityWitness:
    """Exact max over odd vertex sets S, |S| >= 3, of ceil(2|E(G[S])| / (|S|-1)).

    Induced subgraphs dominate all subgraphs on a fixed vertex set, so this
    realizes the maximum over all odd-order subgraphs.  The witness is the
    lex-least maximising tuple among the sizes enumerated; a size whose sets
    can at best tie the incumbent is not enumerated.  `deadline` is a
    time.monotonic() instant; past it the enumeration raises SolverTimeout
    and nothing is memoised.
    """
    if G.n > DENSITY_ENUMERATION_CAP:
        raise InstanceTooLarge(
            f"density enumeration needs n <= {DENSITY_ENUMERATION_CAP}, got {G.n}"
        )
    memo = G.memo
    if "density" not in memo:
        memo["density"] = _odd_set_density(G, deadline)
    return memo["density"]


def density_gamma(G: Multigraph, deadline: float | None = None) -> int:
    """Gamma(G) without a witness: the value a scan seeded (`seed_memo`),
    else `density(G).gamma`, memoised on G."""
    memo = G.memo
    if "gamma" not in memo:
        memo["gamma"] = density(G, deadline).gamma
    return memo["gamma"]


def _odd_set_density(G: Multigraph, deadline: float | None) -> DensityWitness:
    """The density enumeration behind `density`.

    Each odd set S = T + {v} of a size is closed from its prefix T (the
    |S| - 1 smallest vertices) with one addition.  The prefixes are walked
    depth first, in `combinations(range(n - 1), |S| - 1)` order, and a push
    or pop of x updates |E(G[T])| and every later y's weight w[y] towards T
    in one pass over x's higher neighbours.  A prefix ending at p, r vertices
    short of S, is abandoned when 2|E(G[T])| plus the r largest 2 w[y] + s(y)
    over y > p, s(y) being y's copies to the vertices after p, is below
    2 `tie`, the fewest inner edges that could tie the incumbent.  The walk
    polls `deadline` at its first node and every 1,024th.
    """
    n = G.n
    if n < 3 or not G.edges:
        return DensityWitness(0, (0, 1, 2) if n >= 3 else ())
    higher: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    after = [[0] * n for _ in range(n + 1)]  # after[x][y]: y's copies to x..n-1, for y >= x
    for u, v, m in G.edges:
        higher[u].append((v, m))
        for x in range(u + 1):
            after[x][u] += m
            after[x][v] += m
    top_degrees = [0, *accumulate(sorted(G.degrees, reverse=True))]
    total = G.edge_count
    best_gamma = 0
    best_set: tuple[int, ...] = (0, 1, 2)
    nodes = 0
    for size in range(3, n + 1, 2):
        d = size - 1
        # no subset of this size can beat the incumbent: skip the whole size
        if ceil_div(2 * total, d) <= best_gamma:
            continue
        # none can even tie it, since 2|E(G[S])| <= the degree sum of S
        if ceil_div(top_degrees[size], d) < best_gamma:
            continue
        tie = _fewest_inside(best_gamma, d)
        w = [0] * n
        inside = 0
        T: list[int] = []
        x = 0  # the next vertex to push
        while True:
            if x < n - d + len(T):  # room after x for the rest of T and v
                if not nodes % DEADLINE_POLL_INTERVAL:
                    check_deadline(deadline, f"density on n={n}")
                nodes += 1
                inside += w[x]
                for y, m in higher[x]:
                    w[y] += m
                T.append(x)
                x += 1
                if len(T) < d:
                    s = after[x]
                    ends = sorted([2 * w[y] + s[y] for y in range(x, n)])
                    if 2 * inside + sum(ends[len(T) - d - 1 :]) >= 2 * tie:
                        continue  # descend
                else:
                    for v in range(x, n):
                        if inside + w[v] >= tie:
                            gamma = ceil_div(2 * (inside + w[v]), d)
                            S = (*T, v)
                            if gamma > best_gamma or S < best_set:
                                best_gamma = gamma
                                best_set = S
                                tie = _fewest_inside(best_gamma, d)
            elif not T:
                break
            x = T.pop()
            for y, m in higher[x]:
                w[y] -= m
            inside -= w[x]
            x += 1
    return DensityWitness(best_gamma, best_set)


def _fewest_inside(gamma: int, d: int) -> int:
    """Least e with ceil(2e / d) >= gamma: sets with fewer inner edges cannot tie."""
    return (gamma - 1) * d // 2 + 1


def odd_set_table(S: Multigraph) -> list[tuple[tuple[int, ...], int]]:
    """Rows (E, d) from which `table_gamma` reads Gamma of every multigraph on
    the pairs of S: E is the positions in S.edges of the pairs inside an odd
    vertex set U, |U| >= 3, and d = |U| - 1.

    An edge set keeps its least d, and a row is dropped when another row
    (E', d') has E' ⊇ E and d' <= d: with positive multiplicities its value
    ceil(2 x(E') / d') is at least the dropped row's.  Rows are ordered by d,
    then by size, so a row's droppers come before it.
    """
    n = S.n
    ends = [(1 << u) | (1 << v) for u, v, _ in S.edges]
    least: dict[int, int] = {}  # bitmask of edge positions -> least d
    for size in range(3, n + 1, 2):
        for U in combinations(range(n), size):
            within = sum(1 << u for u in U)
            E = sum(1 << i for i, uv in enumerate(ends) if uv & within == uv)
            least.setdefault(E, size - 1)
    table: list[tuple[int, int]] = []
    for E, d in sorted(least.items(), key=lambda row: (row[1], -row[0].bit_count())):
        if not any(E & ~E2 == 0 and d2 <= d for E2, d2 in table):
            table.append((E, d))
    return [(tuple(i for i in range(len(ends)) if E >> i & 1), d) for E, d in table]


def table_gamma(table: list[tuple[tuple[int, ...], int]], mults: tuple[int, ...]) -> int:
    """Gamma of the multigraph whose pairs, in the table's order, have `mults`:
    ceil(2 x(E) / d) at the row of largest x(E) / d, which is exact as
    `odd_set_table` keeps a row at least as large as every odd set's value."""
    best_inside, best_d = 0, 1
    for E, d in table:
        inside = 0
        for i in E:
            inside += mults[i]
        if inside * best_d > best_inside * d:
            best_inside, best_d = inside, d
    return ceil_div(2 * best_inside, best_d)


def seeder(S: Multigraph) -> Callable[[tuple[int, ...]], Seed]:
    """The seeds of the multigraphs on the pairs of the simple graph S: a
    function from their multiplicities, in S.edges order, to (girth,
    bipartite, Gamma), with S's own girth and bipartiteness, which they all
    share, and Gamma read from S's one `odd_set_table`.  Equal seeds are one
    tuple."""
    table = odd_set_table(S)
    layer = girth(S), is_bipartite(S)
    seeds: dict[int, Seed] = {}

    def seed(mults: tuple[int, ...]) -> Seed:
        gamma = table_gamma(table, mults)
        return seeds.setdefault(gamma, (*layer, gamma))

    return seed


def steffen_bound(G: Multigraph) -> int:
    """Delta + ceil(mu / floor(g/2)); Delta + 1 for acyclic graphs with an edge
    and 0 for edgeless ones (`bound_at_girth`)."""
    return bound_at_girth(max(G.degrees, default=0), G.max_mult, girth(G))
