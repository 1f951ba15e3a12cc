import random
from typing import NamedTuple

import pytest

import steffenlab as sl
from steffenlab.generators import EnumSpec, enumerate_with_keys
from oracles import minus_one_copy, search_static_order


@pytest.fixture(scope="session")
def petersen() -> sl.Multigraph:
    edges = [(i, (i + 1) % 5, 1) for i in range(5)]
    edges += [(i, i + 5, 1) for i in range(5)]
    edges += [(min(a, b), max(a, b), 1) for a, b in [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]]
    return sl.build(10, edges)


class DecidedClass(NamedTuple):
    """One class of the decision corpus and the static-order oracle's answers:
    `ascent[j]` is whether G is (Delta + j)-colorable for j = 0..mu, and
    `minus_one[i]` whether G less one copy of its i-th pair is
    (chi - 1)-colorable."""

    key: str
    G: sl.Multigraph
    ascent: tuple[bool, ...]
    chi: int
    minus_one: tuple[bool, ...]


@pytest.fixture(scope="session")
def decision_corpus() -> tuple[DecidedClass, ...]:
    """Every class on 2..5 vertices with mu <= 3 (10,687 classes), each k in
    Delta..Delta+mu, then each G - e at chi' - 1: 122,084 decisions, each
    answered once by `search_static_order`.  Only the answers are kept; a
    test builds each G - e it needs with `minus_one_copy`.  The graphs are
    shared by the whole session, and chi' and the criticality walk are
    memoised on a graph, so a test that counts or checks the library's
    decisions on them takes a fresh `Multigraph(G.n, G.edges)`."""
    spec = EnumSpec(n_min=2, n_max=5, max_mu=3, girth_min=3, max_edge_copies=30)
    corpus = []
    for key, G in enumerate_with_keys(spec):
        delta = max(G.degrees)
        ascent = tuple(
            search_static_order(G.n, G.edges, G.degrees, k, None) is not None
            for k in range(delta, delta + G.max_mult + 1)
        )
        chi = delta + ascent.index(True)
        minus_one = []
        for u, v, _ in G.edges:
            H = minus_one_copy(G, u, v)
            minus_one.append(search_static_order(H.n, H.edges, H.degrees, chi - 1, None) is not None)
        corpus.append(DecidedClass(key, G, ascent, chi, tuple(minus_one)))
    return tuple(corpus)


class Search(NamedTuple):
    """One call of `coloring._search`: its arguments and the masks it returned."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    degrees: tuple[int, ...] | list[int]
    k: int
    deadline: float | None
    masks: list[int] | None


@pytest.fixture()
def searches(monkeypatch) -> list[Search]:
    """Every coloring decision the test makes, in order."""
    import steffenlab.coloring as col

    seen = []
    search = col._search

    def search_spy(n, edges, degrees, k, deadline):
        masks = search(n, edges, degrees, k, deadline)
        seen.append(Search(n, edges, degrees, k, deadline, masks))
        return masks

    monkeypatch.setattr(col, "_search", search_spy)
    return seen


class _Deadlines(dict):
    """Deadlines by the name of the call: `density`'s from its spy, and
    `_search`'s read from `searches` at each lookup."""

    def __init__(self, searches: list[Search]):
        super().__init__(density=[])
        self.searches = searches

    def __missing__(self, name: str) -> list[float | None]:
        if name != "_search":
            raise KeyError(name)
        return [call.deadline for call in self.searches]


@pytest.fixture()
def deadlines(searches, monkeypatch) -> dict:
    """The deadline of every coloring decision and density call, by name."""
    import steffenlab.invariants as inv

    seen = _Deadlines(searches)
    density = inv.density

    def density_spy(G, deadline=None):
        seen["density"].append(deadline)
        return density(G, deadline=deadline)

    monkeypatch.setattr(inv, "density", density_spy)
    return seen


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


def random_small_multigraph(rng: random.Random, n_max: int = 6, mu_max: int = 3) -> sl.Multigraph:
    return sl.random_multigraph(rng, n_max=n_max, mu_max=mu_max)
