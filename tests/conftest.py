import random

import pytest

import steffenlab as sl


@pytest.fixture(scope="session")
def petersen() -> sl.Multigraph:
    edges = [(i, (i + 1) % 5, 1) for i in range(5)]
    edges += [(i, i + 5, 1) for i in range(5)]
    edges += [(min(a, b), max(a, b), 1) for a, b in [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]]
    return sl.build(10, edges)


@pytest.fixture()
def deadlines(monkeypatch) -> dict:
    """The deadline of every coloring decision and density call, by name."""
    import steffenlab.coloring as col
    import steffenlab.invariants as inv

    seen = {"_search": [], "density": []}
    search, density = col._search, inv.density

    def search_spy(n, edges, degrees, k, deadline):
        seen["_search"].append(deadline)
        return search(n, edges, degrees, k, deadline)

    def density_spy(G, deadline=None):
        seen["density"].append(deadline)
        return density(G, deadline=deadline)

    monkeypatch.setattr(col, "_search", search_spy)
    monkeypatch.setattr(inv, "density", density_spy)
    return seen


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(1234)


def random_small_multigraph(rng: random.Random, n_max: int = 6, mu_max: int = 3) -> sl.Multigraph:
    return sl.random_multigraph(rng, n_max=n_max, mu_max=mu_max)
