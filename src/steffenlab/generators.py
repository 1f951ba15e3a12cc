"""Named multigraph families, canonical forms, and exhaustive enumeration.

Canonical forms come from one individualization-refinement search
(McKay, "Practical graph isomorphism", 1981; McKay & Piperno, 2014).
Refinement splits the cells of an ordered vertex partition by sorted
neighbor lists until it is stable; the search individualizes each vertex of
the first non-singleton cell in turn, and the key is the least
multiplicity-matrix key over the leaves.  Equal leaf keys give
automorphisms, which cut branches that are images of branches already
searched; the key is exact for every multigraph with n <= 12.

Enumeration proceeds in two layers.  The simple-graph layer grows
non-isomorphic simple graphs one edge at a time with canonical-key
deduplication (girth constraints prune whole branches, since adding edges
never increases girth).  The multiplicity layer is orderly (Read, 1978): for
each simple representative S it takes generators of Aut(S) on S's edge
list from the search that labels S, and keeps a multiplicity vector only if
no vector of its orbit, walked by the generators, is lex-smaller.
Isomorphic multigraphs have isomorphic underlying simple graphs, so each
class comes from exactly one S and one orbit and is canonicalised exactly
once (McKay, "Isomorph-free exhaustive generation", 1998).  Each
simple representative is an independent task: `class_keys` maps the
multiplicity layer over the representatives with whatever `map` it is given,
so a scan shards it over its worker pool.  A class travels as its key, and
`graph_from_key` rebuilds the representative; each key travels with its
seed (girth, bipartite, Gamma), which the task makes from its simple
representative with `invariants.seeder`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from heapq import merge
from operator import itemgetter
from typing import Callable, Iterator

from .errors import BadParameter, ConfigError, InstanceTooLarge, ParseError
from .invariants import INFINITE_GIRTH, Seed, bfs_dist, girth, is_connected, seeder
from .multigraph import Multigraph, build, ring

CANONICAL_N_CAP = 12


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
        if self.n_max >= 2 and min(self.max_mu, self.max_edge_copies) > 255:
            raise InstanceTooLarge("multiplicities above 255 not supported in keys")

    @property
    def _n_range(self) -> list[int]:
        return [self.n_min, self.n_max]

    def to_json_obj(self) -> dict:
        return {key: getattr(self, name) for key, (name, _) in _SPEC_KEYS.items()}

    @staticmethod
    def from_json_obj(obj: dict) -> "EnumSpec":
        values = json_fields("enumeration spec", obj, _SPEC_KEYS, _SPEC_REQUIRED)
        n_min, n_max = values.pop("_n_range")
        return EnumSpec(n_min, n_max, **values)


# JSON key -> (EnumSpec attribute, kind) of every spec key, in the order
# to_json_obj writes them; `nRange` is the pair (n_min, n_max)
_SPEC_KEYS = {
    "nRange": ("_n_range", list),
    "maxMu": ("max_mu", int),
    "girthMin": ("girth_min", int),
    "maxEdgeCopies": ("max_edge_copies", int),
    "requireCycle": ("require_cycle", bool),
    "connectedOnly": ("connected_only", bool),
}
_SPEC_REQUIRED = ("nRange", "maxMu", "girthMin", "maxEdgeCopies")


# what each conversion accepts, as (description, test of the parsed JSON
# value); a bool is not an integer, and a number is never rounded to one.
# `list` is an integer pair, as `nRange` is
_JSON_KINDS = {
    bool: ("true or false", lambda x: type(x) is bool),
    int: ("an integer", lambda x: type(x) is int),
    float: ("a number", lambda x: type(x) in (int, float)),
    str: ("a string", lambda x: type(x) is str),
    tuple: ("a list of strings", lambda x: type(x) is list and all(type(s) is str for s in x)),
    list: ("two integers", lambda x: type(x) is list and [type(i) for i in x] == [int, int]),
}


def json_value(key: str, value, kind):
    """`kind(value)` for a config value whose JSON type `kind` accepts, else
    ConfigError naming `key`: `"ringCheck": "false"` or `"workers": 2.7`
    must not become True or 2.  A kind outside `_JSON_KINDS`, such as
    `EnumSpec.from_json_obj`, reads and checks the value itself."""
    if kind in _JSON_KINDS:
        what, accepts = _JSON_KINDS[kind]
        if not accepts(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    return kind(value)


def json_fields(what: str, obj, keys: dict, required: tuple[str, ...]) -> dict:
    """The attributes a JSON config object sets: `keys` maps each JSON key to
    its (attribute, kind), and an absent optional key keeps its default.  Not
    an object, an unknown or missing key, or a value not of its kind is a
    ConfigError, so a misspelt option cannot silently change a scan."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"bad {what}: missing {key!r}")
    return {name: json_value(key, obj[key], kind)
            for key, (name, kind) in keys.items() if key in obj}


def mu_cycle(g: int, mu: int) -> Multigraph:
    """Cycle of length g with every edge duplicated mu times."""
    if g < 3 or mu < 1:
        raise BadParameter(f"need g >= 3 and mu >= 1, got g={g}, mu={mu}")
    return ring(g, [mu] * g)


def mu_complete(n: int, mu: int) -> Multigraph:
    """Complete graph on n vertices with every edge duplicated mu times."""
    if n < 2 or mu < 1:
        raise BadParameter(f"need n >= 2 and mu >= 1, got n={n}, mu={mu}")
    return build(n, [(u, v, mu) for u in range(n) for v in range(u + 1, n)])


def _refine(cells: list[list[int]], adj: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Refine an ordered vertex partition until it is stable or discrete.

    Each round splits every non-singleton cell at once by its members'
    sorted neighbor lists of (cell index, multiplicity), in list order.
    """
    n = len(adj)
    lab = [0] * n
    while len(cells) < n:
        for i, cell in enumerate(cells):
            i <<= 8  # (cell index, multiplicity < 256) as one integer
            for v in cell:
                lab[v] = i
        out = []
        for cell in cells:
            if len(cell) > 1:
                sigs = [sorted([lab[u] + m for u, m in adj[v]]) for v in cell]
                if sigs.count(sigs[0]) < len(sigs):
                    prev = None
                    for sig, v in sorted(zip(sigs, cell)):
                        if sig != prev:
                            out.append([v])
                            prev = sig
                        else:
                            out[-1].append(v)
                    continue
            out.append(cell)
        if len(out) == len(cells):
            break
        cells = out
    return cells


# byte of pair (a, b), a < b, in the key of an n-vertex multigraph: _ROWS[n][a] + b
_ROWS = [[(a * (2 * n - a - 1)) // 2 - a - 1 for a in range(n)] for n in range(CANONICAL_N_CAP + 1)]


def _matrix_key(n: int, edges, order: list[int]) -> bytes:
    """Row-major upper triangle of the multiplicity matrix, vertex order[p] as p."""
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    row = _ROWS[n]
    mat = bytearray((n * (n - 1)) // 2)
    for u, v, m in edges:
        a, b = pos[u], pos[v]
        mat[row[a] + b if a < b else row[b] + a] = m
    return bytes(mat)


def _search(n: int, edges) -> tuple[bytes, list[dict[int, int]]]:
    """The least leaf key of the multigraph on 0..n-1 with (u, v, mult) `edges`,
    and automorphisms, as vertex maps, that generate its automorphism group.

    A node refines its partition and branches on each member of its first
    non-singleton cell, which becomes a singleton cell after all others.  A
    leaf whose key equals the first leaf's or the least one's gives an
    automorphism gamma; when gamma fixes the two leaves' common ancestor and
    maps the earlier leaf's branch there to the later one's, the later
    branch is an image of a searched one and is left.  A node skips a child
    in the orbit of a searched one under the automorphisms found that fix
    the node.  No key is lost, and the comparisons with the first leaf find
    generators of the whole group (McKay, "Practical graph isomorphism", 1981).
    """
    if n > CANONICAL_N_CAP:
        raise InstanceTooLarge(f"canonical form needs n <= {CANONICAL_N_CAP}, got {n}")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, m in edges:
        if m > 255:
            raise InstanceTooLarge("multiplicities above 255 not supported in keys")
        adj[u].append((v, m))
        adj[v].append((u, m))
    cells = _refine([list(range(n))] if n else [], adj)
    if len(cells) == n:
        return _matrix_key(n, edges, [c[0] for c in cells]), []
    gens: list[dict[int, int]] = []
    first = best = None  # (key, vertex order, individualized vertices) of a leaf

    def explore(cells: list[list[int]], seq: list[int]) -> int | None:
        """Search below a node; the depth of the node to return to, or None."""
        nonlocal first, best
        if len(cells) == n:
            order = [c[0] for c in cells]
            key = _matrix_key(n, edges, order)
            if first is None:
                first = best = (key, order, seq)
            elif key in (first[0], best[0]):
                _, ref_order, ref_seq = first if key == first[0] else best
                gamma = dict(zip(ref_order, order))
                gens.append(gamma)
                c = next(i for i, (x, y) in enumerate(zip(ref_seq, seq)) if x != y)
                if gamma[ref_seq[c]] == seq[c] and all(gamma[x] == x for x in seq[:c]):
                    return c
            elif key < best[0]:
                best = (key, order, seq)
            return None
        t = next(i for i, cell in enumerate(cells) if len(cell) > 1)
        cell = cells[t]
        done: set[int] = set()
        for w in cell:
            fixing = [g for g in gens if all(g[x] == x for x in seq)]
            orbit = [w]
            for x in orbit:
                orbit += {g[x] for g in fixing} - set(orbit)
            if not done.isdisjoint(orbit):
                continue
            child = cells[:t] + [[x for x in cell if x != w]] + cells[t + 1 :] + [[w]]
            back = explore(_refine(child, adj), seq + [w])
            if back is not None and back < len(seq):
                return back
            done.add(w)
        return None

    explore(cells, [])
    return best[0], gens


def _canonical_key(n: int, edges) -> str:
    """Canonical key of the multigraph on 0..n-1 with (u, v, mult) `edges`, in
    any order: the two-digit n, a dot, and the hex of the least leaf key."""
    return f"{n:02d}." + _search(n, edges)[0].hex()


def graph_from_key(key: str) -> Multigraph:
    """The canonical representative: the graph whose matrix key is `key`.

    Equals any member of the class relabeled by its canonical labeling, so
    workers can ship keys alone.  A key is the vertex count n, a dot and
    exactly n(n-1)/2 hex bytes, else ParseError.
    """
    head, _, body = key.partition(".")
    try:
        n, mat = int(head), bytes.fromhex(body)
        if not head.isdecimal() or not 2 * len(mat) == len(body) == n * (n - 1):
            raise ValueError
    except ValueError:
        raise ParseError(f"not a class key: {key!r}") from None
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
    return _canonical_key(G.n, G.edges)


def _simple_graphs(n: int, girth_min: int, max_edges: int) -> Iterator[Multigraph]:
    """Non-isomorphic simple graphs on exactly n labeled-canonical vertices.

    Grown one edge at a time with canonical dedup; intermediate graphs may
    have isolated vertices (callers filter at emission).  Branches whose
    girth already dropped below girth_min are pruned: more edges never help.
    A new edge uv closes cycles of length dist(u, v) + 1 and no shorter, so
    it is added only between vertices at distance >= girth_min - 1.
    """
    empty = Multigraph(n, ())
    level: dict[str, Multigraph] = {_canonical_key(n, ()): empty}
    yield empty
    for _ in range(min(max_edges, n * (n - 1) // 2)):
        nxt: dict[str, Multigraph] = {}
        for G in level.values():
            for u in range(n):
                near = bfs_dist(G, range(n), u)
                for v in range(u + 1, n):
                    if v in near and near[v] < girth_min - 1:
                        continue
                    key = _canonical_key(n, G.edges + ((u, v, 1),))
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
            if spec.require_cycle and girth(simple) == INFINITE_GIRTH:
                continue
            if spec.connected_only and not is_connected(simple):
                continue
            yield simple


def _aut_edge_generators(S: Multigraph) -> list[tuple[int, ...]]:
    """Generators of Aut(S) found by labelling S that move an edge, as edge index
    permutations: entry i is the index in S.edges of the image of S.edges[i]."""
    index = {(u, v): i for i, (u, v, _) in enumerate(S.edges)}
    gens = {
        tuple(index[min(g[u], g[v]), max(g[u], g[v])] for u, v, _ in S.edges)
        for g in _search(S.n, S.edges)[1]
    }
    return sorted(gens - {tuple(range(len(S.edges)))})


def _is_orbit_min(vec: tuple[int, ...], images: list[Callable]) -> bool:
    """True iff no vector of the orbit of `vec` under the group that `images`
    generate is lex-smaller; the walk stops at the first that is."""
    orbit, seen = [vec], {vec}
    for w in orbit:
        for image in images:
            x = image(w)
            if x < vec:
                return False
            if x not in seen:
                seen.add(x)
                orbit.append(x)
    return True


def _multiplicity_vectors(m: int, max_mu: int, budget: int) -> Iterator[tuple[int, ...]]:
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


def multiplicity_keys(spec: EnumSpec, simple: Multigraph) -> list[tuple[str, Seed]]:
    """(canonical key, seed) of the spec's classes whose underlying simple
    graph is `simple`, sorted; each seed is `invariants.seeder`'s.

    Two multiplicity vectors on the edges of `simple` give isomorphic
    multigraphs iff an automorphism of `simple` carries one onto the other,
    so only the lex-min vector of each orbit is canonicalised, and each key
    comes out exactly once.
    """
    pairs = [(u, v) for u, v, _ in simple.edges]
    images = [itemgetter(*perm) for perm in _aut_edge_generators(simple)]
    seed = seeder(simple)
    keys = []
    for vec in _multiplicity_vectors(len(pairs), spec.max_mu, spec.max_edge_copies):
        if not _is_orbit_min(vec, images):
            continue  # a smaller vector of the same orbit is kept instead
        key = _canonical_key(simple.n, [(u, v, m) for (u, v), m in zip(pairs, vec)])
        keys.append((key, seed(vec)))
    return sorted(keys)


def class_keys(spec: EnumSpec, mapper: Callable = map) -> tuple[list[str], list[Seed]]:
    """Canonical keys of the spec's classes, sorted, and aligned with them
    each key's seed (girth, bipartite, Gamma) from `multiplicity_keys`.

    `mapper` runs the multiplicity layer, one simple representative per task:
    the builtin `map` in process, or a pool's `map` to shard it.  Keys of
    different representatives never collide, so the merge is a merge of the
    sorted shards.  Equal seeds are one tuple, so a key costs the seed list
    one reference; a scan seeds each record's memo with it
    (`invariants.seed_memo`) instead of computing the three per record.
    """
    shards = mapper(partial(multiplicity_keys, spec), simple_representatives(spec))
    interned: dict[Seed, Seed] = {}
    keys: list[str] = []
    seeds: list[Seed] = []
    for key, seed in merge(*shards):
        keys.append(key)
        seeds.append(interned.setdefault(seed, seed))
    return keys, seeds


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
