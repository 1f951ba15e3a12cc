"""Immutable values, loopless multigraphs and MGR text/JSON serialization.

The graphs, colorings, partitions, fans and rings the package returns are
`Value`s, made from their fields by position and never changed after.  A
value's JSON form is `to_json_obj()`: its fields by name, in order, with
tuples written as lists and a frozenset as a sorted list.  A graph's is
{"n": count, "edges": [[u, v, mult], ...]}, which `from_json_obj` reads
back.  Vertices are dense integers 0..n-1.  Parallel edges are stored as a
multiplicity per unordered pair, never as individual copies; a coloring
lists a pair of multiplicity m in m of its color classes.  Graph values are
safe to share between concurrent workers.

A `Multigraph` is a `Value`: two graphs are equal, hash alike and print
alike exactly when their vertex counts and edge triples are equal, and no
attribute can be assigned after construction.  Invariants that only depend
on the graph value are computed once per graph and kept on it.  The degree
vector, the edge count and the largest multiplicity are set by the
constructor's loop that checks the triples; the pair map and the neighbour
sets of the underlying simple graph (`adj`) are cached properties, built on
first use; values computed elsewhere (girth per induced vertex set,
bipartiteness, density, chi' and the criticality walk) go in `memo`.  None of them takes part in equality,
hashing or repr, and all of them travel with a pickled graph.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from functools import cached_property

from .errors import (
    BadParameter,
    LoopRejected,
    NonPositiveMultiplicity,
    ParseError,
    VertexOutOfRange,
)


class Value:
    """An immutable value, as a frozen dataclass is: made from, equal, hashed
    and shown by the attributes `_fields` names, in that order.  `__init__`
    takes one value per field, by position, and sets each with
    `object.__setattr__` (on CPython 3.11, reading `self.__dict__` there
    would give each instance a dict object of its own); setting or deleting
    an attribute later raises AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def to_json_obj(self) -> dict:
        """The JSON form: {field: value} in `_fields` order, a frozenset field
        sorted; `json` writes the tuples as lists."""
        return {
            name: sorted(value) if isinstance(value, frozenset) else value
            for name, value in zip(self._fields, self._key())
        }

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Multigraph(Value):
    """A loopless multigraph: vertex count plus sorted (u, v, mult) triples, u < v."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int, int], ...]):
        if n < 0:
            raise VertexOutOfRange(f"negative vertex count {n}")
        deg = [0] * n
        count = top = 0
        prev = (-1, -1)
        for u, v, m in edges:
            _check_triple(n, u, v, m)
            if u > v or (u, v) <= prev:
                raise VertexOutOfRange(f"edge list not sorted/unique at ({u}, {v})")
            prev = (u, v)
            deg[u] += m
            deg[v] += m
            count += m
            if m > top:
                top = m
        Value.__init__(self, n, edges)
        object.__setattr__(self, "degrees", tuple(deg))
        object.__setattr__(self, "edge_count", count)
        object.__setattr__(self, "max_mult", top)
        # values other modules compute once for this graph, by name or vertex set
        object.__setattr__(self, "memo", {})

    @cached_property
    def mult_map(self) -> dict[tuple[int, int], int]:
        return {(u, v): m for u, v, m in self.edges}

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets of the underlying simple graph: u ~ v iff mult(u, v) >= 1."""
        # an isolated vertex shares one empty set: frozenset() of it is itself
        empty: frozenset[int] = frozenset()
        adj: list[set[int] | frozenset[int]] = [set() if d else empty for d in self.degrees]
        for u, v, _ in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(map(frozenset, adj))

    def mult(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self.mult_map.get((u, v), 0)


def _check_triple(n: int, u: int, v: int, m: int, where: str = "") -> None:
    """The contract of one (u, v, mult) triple on n vertices: no loop, both
    endpoints in 0..n-1 and a positive multiplicity.  `where` prefixes the
    message, as MGR parsing's line number does."""
    if u == v:
        raise LoopRejected(f"{where}loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise VertexOutOfRange(f"{where}edge ({u}, {v}) outside 0..{n - 1}")
    if m <= 0:
        raise NonPositiveMultiplicity(f"{where}edge ({u}, {v}) has multiplicity {m}")


def build(n: int, edges: Iterable[tuple[int, int, int]]) -> Multigraph:
    """Build a multigraph from (u, v, mult) triples; repeated pairs accumulate."""
    acc: dict[tuple[int, int], int] = {}
    for u, v, m in edges:
        _check_triple(n, u, v, m)
        key = (u, v) if u < v else (v, u)
        acc[key] = acc.get(key, 0) + m
    return Multigraph(n, tuple((u, v, acc[(u, v)]) for u, v in sorted(acc)))


def ring(g: int, mults: list[int] | tuple[int, ...]) -> Multigraph:
    """Ring graph: cycle of length g with consecutive pair i of multiplicity mults[i]."""
    if g < 3 or len(mults) != g:
        raise BadParameter(
            f"need g >= 3 and exactly g multiplicities, got g={g} and {len(mults)} multiplicities"
        )
    if any(m < 1 for m in mults):
        raise BadParameter("all ring multiplicities must be >= 1")
    return build(g, [(i, (i + 1) % g, mults[i]) for i in range(g)])


def induced(G: Multigraph, S: Iterable[int]) -> Multigraph:
    """Induced sub-multigraph on S, relabeled 0..|S|-1 in ascending original order."""
    verts = sorted(set(S))
    for v in verts:
        if not (0 <= v < G.n):
            raise VertexOutOfRange(f"vertex {v} outside 0..{G.n - 1}")
    relabel = {v: i for i, v in enumerate(verts)}
    keep = set(verts)
    out = []
    for u, v, m in G.edges:
        if u in keep and v in keep:
            a, b = relabel[u], relabel[v]
            out.append((a, b, m) if a < b else (b, a, m))
    return Multigraph(len(verts), tuple(sorted(out)))


def serialize(G: Multigraph) -> str:
    """Canonical MGR text: 'n <count>' then 'e <u> <v> <mult>' lines, u < v, sorted."""
    lines = [f"n {G.n}"]
    lines.extend(f"e {u} {v} {m}" for u, v, m in G.edges)
    return "\n".join(lines) + "\n"


def parse(text: str) -> Multigraph:
    """Parse MGR text.  Repeated pairs accumulate, matching build()."""
    n: int | None = None
    triples: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise ParseError("duplicate 'n' line", lineno)
            if len(fields) != 2:
                raise ParseError("expected 'n <count>'", lineno)
            try:
                n = int(fields[1])
            except ValueError:
                raise ParseError(f"bad vertex count {fields[1]!r}", lineno) from None
            if n < 0:
                raise ParseError(f"negative vertex count {n}", lineno)
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before 'n' line", lineno)
            if len(fields) != 4:
                raise ParseError("expected 'e <u> <v> <mult>'", lineno)
            try:
                u, v, m = int(fields[1]), int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"non-integer field in {line!r}", lineno) from None
            _check_triple(n, u, v, m, f"line {lineno}: ")
            triples.append((u, v, m))
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'n' line", 1)
    return build(n, triples)


def from_json_obj(obj: dict) -> Multigraph:
    """Build from {"n": count, "edges": [[u, v, mult], ...]}; ParseError if malformed.

    The count, endpoints and multiplicities must be JSON integers: 2.7, true
    and "3" are refused, not converted.
    """
    try:
        n = _json_int(obj["n"], "n")
        triples = [
            (
                _json_int(u, f"edges[{i}] u"),
                _json_int(v, f"edges[{i}] v"),
                _json_int(m, f"edges[{i}] mult"),
            )
            for i, (u, v, m) in enumerate(obj["edges"])
        ]
    except KeyError as exc:
        raise ParseError(f"JSON graph lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed JSON graph: {exc}") from None
    return build(n, triples)


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise ParseError(f"JSON graph field {field} is not an integer: {json.dumps(value)}")
    return value


def parse_any(text: str) -> Multigraph:
    """Parse MGR text, or the JSON form if the payload starts with '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except ValueError as exc:
            raise ParseError(f"bad JSON: {exc}") from None
        return from_json_obj(obj)
    return parse(text)
