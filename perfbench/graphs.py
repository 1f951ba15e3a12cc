"""Seeded multigraph generator for the `queries` workload.

Every graph is built from a stdlib `random.Random` seeded by a string, so a
pool entry (class, index) is the same graph on every machine and Python
version.  The workload seed only chooses which pool entries a run queries;
`golden/queries.json` holds the expected CLI output for every pool entry.

Graphs are emitted as MGR text; the benchmark never hands the CLI anything
else.
"""

from __future__ import annotations

import random

# Query classes: how many pool entries each class has, and the CLI commands a
# graph of that class receives.  Density enumerates 2^(n-1) odd subsets, so a
# 16-vertex graph costs about 20 times a 12-vertex one: the 16-vertex graphs
# are classes of their own (`wide`, `big`), one of each per block, so that
# the workload seed changes which graphs run but not how many heavy ones.
# The commands that are solver-bound or search thousands of cycles on the
# dense classes (`ring-find` and `critical` on `dense`, everything but
# `invariants` on `big`) run as the fixed `HARD` queries of every block
# (queries.py) instead, so that their share of a block does not depend on
# the seed.  Seeded draws skip the few `dense` graphs whose `chi` is
# solver-bound (queries.UNSTEADY).
ALL_COMMANDS = ("invariants", "chi", "critical", "partition", "ring-find")
CLASSES = {
    "named": (3, ALL_COMMANDS),
    "sparse": (120, ALL_COMMANDS),
    "medium": (60, ALL_COMMANDS),
    "wide": (40, ALL_COMMANDS),
    "dense": (60, ("invariants", "chi", "partition")),
    "big": (30, ("invariants",)),
}


def _mgr(n: int, edges: list[tuple[int, int, int]]) -> str:
    lines = [f"n {n}"]
    lines += [f"e {u} {v} {m}" for u, v, m in sorted(edges)]
    return "\n".join(lines) + "\n"


def _tree_plus(rng: random.Random, n: int, extra: int, mu_max: int) -> str:
    """Random labelled spanning tree plus `extra` chords: `extra` independent cycles."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs: set[tuple[int, int]] = set()
    for i in range(1, n):
        a, b = perm[i], perm[rng.randrange(i)]
        pairs.add((min(a, b), max(a, b)))
    while len(pairs) < n - 1 + extra:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    return _mgr(n, [(u, v, rng.randint(1, mu_max)) for u, v in sorted(pairs)])


def _gnp(rng: random.Random, n: int, p: float, mu_max: int) -> str:
    edges = [
        (u, v, rng.randint(1, mu_max))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return _mgr(n, edges)


def _named(index: int) -> str:
    if index == 0:  # 2K_5
        return _mgr(5, [(u, v, 2) for u in range(5) for v in range(u + 1, 5)])
    if index == 1:  # mu_cycle(7, 4)
        return _mgr(7, [(min(i, (i + 1) % 7), max(i, (i + 1) % 7), 4) for i in range(7)])
    # Petersen graph
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return _mgr(10, [(min(a, b), max(a, b), 1) for a, b in outer + spokes + inner])


def pool_graph(cls: str, index: int) -> str:
    """MGR text of pool entry `index` of query class `cls`."""
    if cls == "named":
        return _named(index)
    rng = random.Random(f"steffenlab-queries:{cls}:{index}")
    if cls == "sparse":
        return _tree_plus(rng, rng.randint(9, 14), rng.randint(2, 5), 3)
    if cls == "medium":
        return _tree_plus(rng, rng.randint(9, 14), rng.randint(6, 8), 3)
    if cls == "wide":
        return _tree_plus(rng, 16, rng.randint(2, 8), 3)
    if cls == "dense":
        return _gnp(rng, rng.randint(9, 12), rng.uniform(0.5, 0.8), 3)
    if cls == "big":
        return _gnp(rng, 16, rng.uniform(0.6, 0.9), 3)
    raise ValueError(f"unknown query class {cls!r}")


def pool():
    """Every (class, index, mgr) pool entry."""
    for cls, (size, _) in CLASSES.items():
        for index in range(size):
            yield cls, index, pool_graph(cls, index)
