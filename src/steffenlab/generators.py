"""Named multigraph families, canonical forms, and exhaustive enumeration.

Canonical forms: iterated neighborhood refinement partitions the vertices
into structurally distinct classes; remaining symmetry is resolved by
individualizing one vertex of the first non-singleton class and recursing,
taking the minimum multiplicity-matrix key over all completions.  This is an
exhaustive permutation search pruned to class-respecting relabelings, exact
for every multigraph (n <= 10 keeps even the fully symmetric cases cheap).

Enumeration proceeds in two layers.  The simple-graph layer grows
non-isomorphic simple graphs one edge at a time with canonical-key
deduplication (girth constraints prune whole branches, since adding edges
never increases girth).  The multiplicity layer is orderly (Read, 1978): for
each simple representative S it computes Aut(S) once, as permutations of
S's edge list, and keeps a multiplicity vector only if it is the lex-min of
its orbit.  Isomorphic multigraphs have isomorphic underlying simple graphs,
so each class comes from exactly one S and one orbit and is canonicalised
exactly once (McKay, "Isomorph-free exhaustive generation", 1998).  Each
simple representative is an independent task: `class_keys` maps the
multiplicity layer over the representatives with whatever `map` it is given,
so a scan shards it over its worker pool.  A class travels as its key, and
`graph_from_key` rebuilds the representative; girth and bipartiteness, which
depend on the simple layer alone, are computed once per simple
representative and travel with its keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from heapq import merge
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterator

from .errors import BadParameter, ConfigError, InstanceTooLarge
from .invariants import INFINITE_GIRTH, bfs_dist, girth, simple_layer
from .multigraph import Multigraph, build

CANONICAL_N_CAP = 10


@dataclass(frozen=True)
class EnumSpec:
    """Bounds for exhaustive enumeration of non-isomorphic multigraphs.

    Emits one representative per isomorphism class of graphs with minimum
    degree >= 1 (isolated vertices never change any invariant in scope) on
    exactly n vertices for each n in n_min..n_max, with per-pair multiplicity
    <= max_mu, total edge copies <= max_edge_copies, and girth >= girth_min
    (infinite girth passes unless require_cycle is set).
    """

    n_min: int = 2
    n_max: int = 6
    max_mu: int = 1
    girth_min: int = 3
    max_edge_copies: int = 64
    require_cycle: bool = False
    connected_only: bool = False

    def __post_init__(self):
        if self.n_max > CANONICAL_N_CAP:
            raise InstanceTooLarge(f"enumeration needs n <= {CANONICAL_N_CAP}")
        if self.n_min < 0 or self.n_min > self.n_max:
            raise ConfigError(f"bad vertex range {self.n_min}..{self.n_max}")
        if self.max_mu < 1 or self.girth_min < 3 or self.max_edge_copies < 0:
            raise ConfigError("max_mu >= 1, girth_min >= 3, max_edge_copies >= 0 required")

    def to_json_obj(self) -> dict:
        return {
            "nRange": [self.n_min, self.n_max],
            "maxMu": self.max_mu,
            "girthMin": self.girth_min,
            "maxEdgeCopies": self.max_edge_copies,
            "requireCycle": self.require_cycle,
            "connectedOnly": self.connected_only,
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "EnumSpec":
        if not isinstance(obj, dict):
            raise ConfigError(f"enumeration spec must be a JSON object, got {obj!r}")
        # the keys are those to_json_obj writes
        unknown = sorted(set(obj) - set(EnumSpec().to_json_obj()))
        if unknown:
            raise ConfigError(f"unknown enumeration spec key(s): {', '.join(unknown)}")
        try:
            n_range = obj["nRange"]
            if type(n_range) is not list or len(n_range) != 2 or any(
                type(x) is not int for x in n_range
            ):
                raise ConfigError(f"nRange must be two integers, got {n_range!r}")
            return EnumSpec(
                n_min=n_range[0],
                n_max=n_range[1],
                max_mu=json_value("maxMu", obj["maxMu"], int),
                girth_min=json_value("girthMin", obj["girthMin"], int),
                max_edge_copies=json_value("maxEdgeCopies", obj["maxEdgeCopies"], int),
                require_cycle=json_value("requireCycle", obj.get("requireCycle", False), bool),
                connected_only=json_value("connectedOnly", obj.get("connectedOnly", False), bool),
            )
        except KeyError as exc:
            raise ConfigError(f"bad enumeration spec: missing {exc}") from exc


# what each conversion accepts, as (description, test of the parsed JSON
# value); a bool is not an integer, and a number is never rounded to one
_JSON_KINDS = {
    bool: ("true or false", lambda x: type(x) is bool),
    int: ("an integer", lambda x: type(x) is int),
    float: ("a number", lambda x: type(x) in (int, float)),
    str: ("a string", lambda x: type(x) is str),
    tuple: ("a list of strings", lambda x: type(x) is list and all(type(s) is str for s in x)),
}


def json_value(key: str, value, kind: type):
    """`kind(value)` for a config value whose JSON type `kind` accepts, else
    ConfigError naming `key`: `"ringCheck": "false"` or `"workers": 2.7`
    must not become True or 2."""
    what, accepts = _JSON_KINDS[kind]
    if not accepts(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def mu_cycle(g: int, mu: int) -> Multigraph:
    """Cycle of length g with every edge duplicated mu times."""
    if g < 3 or mu < 1:
        raise BadParameter(f"need g >= 3 and mu >= 1, got g={g}, mu={mu}")
    return build(g, [(i, (i + 1) % g, mu) for i in range(g)])


def mu_complete(n: int, mu: int) -> Multigraph:
    """Complete graph on n vertices with every edge duplicated mu times."""
    if n < 2 or mu < 1:
        raise BadParameter(f"need n >= 2 and mu >= 1, got n={n}, mu={mu}")
    return build(n, [(u, v, mu) for u in range(n) for v in range(u + 1, n)])


def ring(g: int, mults: list[int] | tuple[int, ...]) -> Multigraph:
    """Ring graph: cycle of length g with consecutive pair i of multiplicity mults[i]."""
    if g < 3 or len(mults) != g:
        raise BadParameter(f"need g >= 3 and exactly g multiplicities, got g={g}")
    if any(m < 1 for m in mults):
        raise BadParameter("all ring multiplicities must be >= 1")
    return build(g, [(i, (i + 1) % g, mults[i]) for i in range(g)])


def _refine(colors: list[int], adj: list[list[tuple[int, int]]]) -> list[int]:
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


def _matrix_key(G: Multigraph, perm: list[int]) -> bytes:
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
    colors = _refine(colors, adj)
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
        return _matrix_key(G, perm), perm
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


def _canonical_labeling(G: Multigraph) -> tuple[str, list[int]]:
    """Canonical key string plus the relabeling that realizes it.

    The key is the two-digit n, a dot, and the hex of the relabeled matrix.
    """
    if G.n > CANONICAL_N_CAP:
        raise InstanceTooLarge(f"canonical form needs n <= {CANONICAL_N_CAP}, got {G.n}")
    if G.max_mult > 255:
        raise InstanceTooLarge("multiplicities above 255 not supported in keys")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
    for u, v, m in G.edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
    key_bytes, perm = _canonical_search(G, [0] * G.n, adj)
    return f"{G.n:02d}." + key_bytes.hex(), perm


def graph_from_key(key: str) -> Multigraph:
    """The canonical representative: the graph whose matrix key is `key`.

    Equals any member of the class relabeled by its canonical labeling, so
    workers can ship keys alone.
    """
    head, _, body = key.partition(".")
    n = int(head)
    mat = bytes.fromhex(body)
    edges = []
    i = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mat[i]:
                edges.append((u, v, mat[i]))
            i += 1
    return Multigraph(n, tuple(edges))


def canonical_form(G: Multigraph) -> str:
    """Isomorphism-class key: equal keys iff isomorphic with multiplicities."""
    return _canonical_labeling(G)[0]


def _is_connected(G: Multigraph) -> bool:
    return G.n == 0 or len(bfs_dist(G.simple, range(G.n), 0)) == G.n


def _simple_graphs(n: int, girth_min: int, max_edges: int) -> Iterator[Multigraph]:
    """Non-isomorphic simple graphs on exactly n labeled-canonical vertices.

    Grown one edge at a time with canonical dedup; intermediate graphs may
    have isolated vertices (callers filter at emission).  Branches whose
    girth already dropped below girth_min are pruned: more edges never help.
    """
    empty = build(n, [])
    level: dict[str, Multigraph] = {_canonical_labeling(empty)[0]: empty}
    yield empty
    edge_budget = min(max_edges, n * (n - 1) // 2)
    for _ in range(edge_budget):
        nxt: dict[str, Multigraph] = {}
        for G in level.values():
            present = set(G.pairs())
            for u in range(n):
                for v in range(u + 1, n):
                    if (u, v) in present:
                        continue
                    H = build(n, list(G.edges) + [(u, v, 1)])
                    g = girth(H)
                    if g != INFINITE_GIRTH and g < girth_min:
                        continue
                    key = _canonical_labeling(H)[0]
                    if key not in nxt:
                        nxt[key] = graph_from_key(key)
        level = nxt
        for key in sorted(level):
            yield level[key]
        if not level:
            break


def simple_representatives(spec: EnumSpec) -> Iterator[Multigraph]:
    """The simple graphs that underlie the spec's classes, one per class of them."""
    for n in range(spec.n_min, spec.n_max + 1):
        for simple in _simple_graphs(n, spec.girth_min, spec.max_edge_copies):
            if not simple.edges or 0 in simple.degrees:
                continue
            g = girth(simple)
            if g == INFINITE_GIRTH:
                if spec.require_cycle:
                    continue
            elif g < spec.girth_min:
                continue
            if spec.connected_only and not _is_connected(simple):
                continue
            yield simple


def _edge_automorphisms(S: Multigraph) -> list[tuple[int, ...]]:
    """Every non-identity automorphism of simple S as a permutation of edge indices.

    Refinement colors are invariant under automorphisms, so each vertex maps
    into its own color class; the backtrack maps vertices smallest class
    first and keeps adjacency to every already mapped vertex.  Entry i of a
    permutation is the index in S.edges of the image of S.edges[i].
    """
    n = S.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in S.edges:
        adj[u].append((v, m))
        adj[v].append((u, m))
    colors = _refine([0] * n, adj)
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


def _assignments(m: int, max_mu: int, budget: int) -> Iterator[tuple[int, ...]]:
    """All multiplicity vectors in {1..max_mu}^m with sum <= budget, in lex order."""
    if m > budget:
        return
    vec = [1] * m

    def fill(i: int, spent: int) -> Iterator[tuple[int, ...]]:
        if i == m:
            yield tuple(vec)
            return
        # each later edge still needs at least one copy
        cap = min(max_mu, budget - spent - (m - i - 1))
        for x in range(1, cap + 1):
            vec[i] = x
            yield from fill(i + 1, spent + x)

    yield from fill(0, 0)


def multiplicity_keys(spec: EnumSpec, simple: Multigraph) -> list[str]:
    """Canonical keys of the spec's classes whose underlying simple graph is `simple`.

    Two multiplicity vectors on the edges of `simple` give isomorphic
    multigraphs iff an automorphism of `simple` carries one onto the other,
    so only the lex-min vector of each orbit is canonicalised, and each key
    comes out exactly once.
    """
    pairs = [(u, v) for u, v, _ in simple.edges]
    images = [itemgetter(*perm) for perm in _edge_automorphisms(simple)]
    keys = []
    for vec in _assignments(len(pairs), spec.max_mu, spec.max_edge_copies):
        if any(image(vec) < vec for image in images):
            continue  # a smaller vector of the same orbit is kept instead
        H = build(simple.n, [(u, v, m) for (u, v), m in zip(pairs, vec)])
        keys.append(_canonical_labeling(H)[0])
    return keys


def class_keys(
    spec: EnumSpec, mapper: Callable = map
) -> tuple[list[str], list[tuple[int | float, bool]]]:
    """Canonical keys of the spec's classes, sorted, and aligned with them the
    `simple_layer` (girth, bipartite) of each key's simple representative.

    `mapper` runs the multiplicity layer, one simple representative per task:
    the builtin `map` in process, or a pool's `map` to shard it.  Keys of
    different representatives never collide, so the merge is a merge of the
    sorted shards.  The keys of one representative share its pair: a scan
    seeds each record's memo with it instead of recomputing it per record.
    """
    simples = list(simple_representatives(spec))
    layers = [simple_layer(S) for S in simples]
    shards = mapper(partial(multiplicity_keys, spec), simples)
    runs = [zip(sorted(shard), repeat(layer)) for shard, layer in zip(shards, layers)]
    keys: list[str] = []
    key_layers: list[tuple[int | float, bool]] = []
    for key, layer in merge(*runs):
        keys.append(key)
        key_layers.append(layer)
    return keys, key_layers


def enumerate_with_keys(spec: EnumSpec) -> Iterator[tuple[str, Multigraph]]:
    """(canonical key, graph) pairs, one per isomorphism class, key-sorted."""
    for key in class_keys(spec)[0]:
        yield key, graph_from_key(key)


def random_multigraph(rng: random.Random, n_max: int = 12, mu_max: int = 3) -> Multigraph:
    """Seeded sampler for the property suites; mixes sparse and dense regimes."""
    n = rng.randint(4, n_max)
    style = rng.random()
    if style < 0.5:
        p = rng.uniform(0.08, 0.22)
    elif style < 0.8:
        p = rng.uniform(0.22, 0.45)
    else:
        p = rng.uniform(0.45, 0.75)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.randint(1, mu_max)))
    return build(n, edges)
