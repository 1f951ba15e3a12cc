import pickle
import random
import runpy
import time
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import steffenlab as sl
from steffenlab import invariants, structure
from steffenlab.errors import InstanceTooLarge, NotShortestCycle, SolverTimeout
from steffenlab.generators import EnumSpec, enumerate_with_keys
from steffenlab.invariants import is_bipartite
from steffenlab.scan import ScanConfig, compute_record
from oracles import (
    all_cycles_by_bfs_style,
    brute_force_density,
    brute_force_girth,
    brute_force_shortest_cycle,
    density_by_enumeration,
    density_by_prefix_weights,
    girth_by_bfs_from_every_root,
    minus_one_copy,
    short_cycle_violations_by_permutation,
)


def long_cycle_graph(rng):
    """A cycle of 3..9 vertices, some outside vertices joined to each other
    and to it at random, and a vertex set holding the cycle and most of the
    rest.  The cycle is rarely shortest, so the clauses can fail."""
    length = rng.randint(3, 9)
    n = length + rng.randint(1, 6)
    order = rng.sample(range(n), n)
    cycle = order[:length]
    pairs = {frozenset((cycle[i - 1], cycle[i])) for i in range(length)}
    for u in range(n):
        for v in range(u + 1, n):
            # chance of an edge by how many of its ends are on the cycle: 0, 1, 2
            if rng.random() < (0.4, 0.2, 0.05)[(u in cycle) + (v in cycle)]:
                pairs.add(frozenset((u, v)))
    G = sl.build(n, [(*sorted(p), rng.randint(1, 2)) for p in pairs])
    within = frozenset(cycle) | {v for v in order[length:] if rng.random() < 0.85}
    return G, tuple(cycle), within


def clause_tuples(violations):
    return [(x.clause, x.vertices, x.value, x.limit) for x in violations]


def interior_first(pairs: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The graph on positions 0..1499 with these pairs, relabelled so that
    the odd positions come first, then the even ones."""
    label = {p: i for i, p in enumerate([*range(1, 1500, 2), *range(0, 1500, 2)])}
    return [(min(label[a], label[b]), max(label[a], label[b]), 1) for a, b in pairs]


class TestGirth:
    def test_3c5(self):
        assert sl.girth(sl.mu_cycle(5, 3)) == 5

    def test_petersen(self, petersen):
        # frozen from the exhaustive cycle oracle
        assert brute_force_girth(petersen) == 5
        assert sl.girth(petersen) == 5

    def test_tripled_path_is_acyclic(self):
        G = sl.build(4, [(0, 1, 3), (1, 2, 1), (2, 3, 1)])
        assert sl.girth(G) == sl.INFINITE_GIRTH

    def test_even_cycle_found_where_an_odd_walk_also_closes(self):
        # from root 0, vertex 4 is on level 2 with two neighbours on level 1
        # (the 4-cycle 0-1-4-2) and one on its own level (the 5-cycle
        # 0-1-4-5-3): the even bound is the girth, and no later root sees it
        G = sl.build(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 4, 1), (2, 4, 1), (3, 5, 1),
                         (4, 5, 1)])
        assert brute_force_girth(G) == 4
        assert sl.girth(G) == 4

    def test_parallel_pair_is_not_a_2_cycle(self):
        assert sl.girth(sl.build(2, [(0, 1, 5)])) == sl.INFINITE_GIRTH

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed):
        G = sl.random_multigraph(random.Random(seed), n_max=8, mu_max=2)
        want = brute_force_girth(G)
        got = sl.girth(G)
        assert (want is None) == (got == sl.INFINITE_GIRTH)
        if want is not None:
            assert got == want

    def test_subgraph_girth_matches_bfs_from_every_root(self):
        # random vertex sets inside random multigraphs, whose labels are random,
        # so the least vertex of a shortest cycle falls anywhere
        rng = random.Random(20261019)
        for _ in range(3000):
            G = sl.random_multigraph(rng, n_max=12, mu_max=2)
            keep = rng.random()
            within = frozenset(v for v in range(G.n) if rng.random() < keep)
            want = girth_by_bfs_from_every_root(G, within)
            assert invariants._bfs_girth(G, within) == want

    @pytest.mark.parametrize(
        "edges, girth, starts",
        [
            ([(i, (i + 1) % 1500, 1) for i in range(1500)], 1500, 1),
            (interior_first([(i, (i + 1) % 1500) for i in range(1500)]), 1500, 1),
            ([(i, i + 1, 1) for i in range(1499)], sl.INFINITE_GIRTH, 0),
            (interior_first([(i, i + 1) for i in range(1499)]), sl.INFINITE_GIRTH, 0),
            # the binary tree on heap positions
            (interior_first([((i - 1) // 2, i) for i in range(1, 1500)]), sl.INFINITE_GIRTH, 0),
        ],
        ids=["cycle", "cycle-odd-first", "path", "path-odd-first", "tree-odd-first"],
    )
    def test_retired_roots_start_no_bfs(self, monkeypatch, edges, girth, starts):
        # each BFS makes one queue: a vertex left with fewer than two alive
        # neighbours is on no cycle, so only the 2-core's least vertex searches
        queues = []
        real = invariants.deque
        monkeypatch.setattr(invariants, "deque", lambda *a: queues.append(1) or real(*a))
        assert sl.girth(sl.build(1500, edges)) == girth
        assert len(queues) == starts


class TestShortestCycle:
    def test_disjoint_c5_c6(self):
        edges = [(i, (i + 1) % 5, 1) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 6, 1) for i in range(6)]
        G = sl.build(11, edges)
        cyc = sl.shortest_cycle(G, frozenset(range(11)))
        assert cyc == (0, 1, 2, 3, 4)

    def test_petersen_canonical(self, petersen):
        cyc = sl.shortest_cycle(petersen, frozenset(range(10)))
        assert cyc == brute_force_shortest_cycle(petersen, set(range(10))) == (0, 1, 2, 3, 4)

    def test_tree_has_none(self):
        G = sl.build(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
        assert sl.shortest_cycle(G, frozenset(range(4))) is None

    def test_respects_within(self, petersen):
        cyc = sl.shortest_cycle(petersen, frozenset(range(5, 10)))
        assert cyc == (5, 7, 9, 6, 8)

    def test_long_cycle(self):
        cyc = sl.shortest_cycle(sl.mu_cycle(1500, 1), frozenset(range(1500)))
        assert cyc == tuple(range(1500))

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed):
        G = sl.random_multigraph(random.Random(seed), n_max=8, mu_max=2)
        got = sl.shortest_cycle(G, frozenset(range(G.n)))
        want = brute_force_shortest_cycle(G, set(range(G.n)))
        assert got == want


class TestSimplePaths:
    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_permutations(self, seed):
        # every simple path from `first` inside `allowed` with at most `most`
        # vertices, in lexicographic order
        rng = random.Random(seed)
        G = sl.random_multigraph(rng, n_max=7, mu_max=1)
        first = rng.randrange(G.n)
        allowed = {v for v in range(G.n) if rng.random() < 0.8}
        most = rng.randint(1, G.n)
        got = [tuple(p) for p in structure.simple_paths(G, first, allowed, most)]
        rest = sorted(allowed - {first})
        want = sorted(
            (first, *p)
            for k in range(most)
            for p in permutations(rest, k)
            if all(G.mult(a, b) for a, b in zip((first, *p), p))
        )
        assert got == want


class TestDensity:
    def test_3c5(self):
        w = sl.density(sl.mu_cycle(5, 3))
        assert w.gamma == 8 == brute_force_density(sl.mu_cycle(5, 3))
        assert w.witness == (0, 1, 2, 3, 4)

    def test_simple_c5(self):
        assert sl.density(sl.mu_cycle(5, 1)).gamma == 3

    def test_2k5(self):
        assert sl.density(sl.mu_complete(5, 2)).gamma == 10 == brute_force_density(
            sl.mu_complete(5, 2)
        )

    def test_witness_reproduces_gamma(self):
        G = sl.mu_complete(5, 2)
        w = sl.density(G)
        H = sl.induced(G, w.witness)
        assert -(-2 * H.edge_count // (len(w.witness) - 1)) == w.gamma

    def test_cap(self):
        with pytest.raises(InstanceTooLarge):
            sl.density(sl.build(23, [(0, 1, 1)]))

    def test_small_graphs(self):
        assert sl.density(sl.build(2, [(0, 1, 4)])).gamma == 0
        assert sl.density(sl.build(0, [])).gamma == 0

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_and_monotone(self, seed):
        G = sl.random_multigraph(random.Random(seed), n_max=7, mu_max=3)
        gamma = sl.density(G).gamma
        assert gamma == brute_force_density(G)
        if G.edges:
            u, v, _ = G.edges[0]
            assert sl.density(minus_one_copy(G, u, v)).gamma <= gamma


class TestDensityKernel:
    """The pruned prefix walk against the two previous kernels: same gamma, same witness."""

    @staticmethod
    def assert_same(graphs, previous=density_by_enumeration):
        count = 0
        for G in graphs:
            assert sl.density(G) == previous(G), sl.serialize(G)
            count += 1
        return count

    def test_full6_shaped_corpus(self):
        spec = EnumSpec(n_min=1, n_max=5, max_mu=3, girth_min=3, max_edge_copies=12)
        assert self.assert_same(G for _, G in enumerate_with_keys(spec)) > 1000

    def test_girth5_shaped_corpus(self):
        spec = EnumSpec(
            n_min=5, n_max=6, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True
        )
        assert self.assert_same(G for _, G in enumerate_with_keys(spec)) == 1951

    def test_seeded_random_graphs(self):
        rng = random.Random(303)
        graphs = [sl.random_multigraph(rng, n_max=12, mu_max=3) for _ in range(200)]
        assert self.assert_same(graphs) == 200

    def test_sixteen_vertices(self):
        rng = random.Random(16)
        dense = sl.build(
            16, [(u, v, rng.randint(1, 3)) for u in range(16) for v in range(u + 1, 16)
                 if rng.random() < 0.6]
        )
        # sparse: the degree-sum skip drops the large sizes
        sparse = sl.build(16, [(i, (i + 1) % 16, 1 + i % 3) for i in range(16)] + [(0, 8, 4)])
        assert self.assert_same([dense, sparse]) == 2

    def test_query_pool(self):
        pool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "graphs.py"))
        graphs = [sl.parse(mgr) for _, _, mgr in pool["pool"]()]
        assert sum(G.n == 16 for G in graphs) == 70
        assert self.assert_same(graphs, density_by_prefix_weights) == 313

    def test_seeded_random_graphs_past_twelve_vertices(self):
        # the sampler's three density regimes, at n 13..18
        rng = random.Random(1318)
        graphs = []
        for _ in range(300):
            n = rng.randint(13, 18)
            p = rng.choice([rng.uniform(0.08, 0.22), rng.uniform(0.22, 0.45), rng.uniform(0.45, 0.75)])
            graphs.append(sl.build(n, [(u, v, rng.randint(1, 3)) for u in range(n)
                                       for v in range(u + 1, n) if rng.random() < p]))
        assert self.assert_same(graphs, density_by_prefix_weights) == 300

    def test_first_node_polls_the_deadline(self):
        G = sl.mu_cycle(5, 3)
        with pytest.raises(SolverTimeout, match="^density on n=5 exceeded budget$"):
            sl.density(G, deadline=time.monotonic() - 1)
        assert G.memo == {}

    def test_deadline_raises_and_is_not_memoised(self):
        G = sl.mu_complete(14, 1)
        with pytest.raises(SolverTimeout):
            sl.density(G, deadline=time.monotonic() - 1.0)
        assert "density" not in G.memo
        assert sl.density(G) == density_by_enumeration(G)

    def test_cap_checked_before_memo(self):
        G = sl.mu_cycle(23, 1)
        G.memo["density"] = sl.density(sl.mu_cycle(5, 1))
        with pytest.raises(InstanceTooLarge):
            sl.density(G)


class TestMemo:
    def count_calls(self, monkeypatch, name):
        """Calls of invariants.<name>, counted by their first argument."""
        seen = Counter()
        original = getattr(invariants, name)

        def counted(first, *args):
            seen[first] += 1
            return original(first, *args)

        monkeypatch.setattr(invariants, name, counted)
        return seen

    def test_one_density_and_one_girth_per_record(self, monkeypatch):
        kernel = self.count_calls(monkeypatch, "_odd_set_density")
        bfs = self.count_calls(monkeypatch, "_bfs_girth")
        G = sl.mu_cycle(5, 3)  # not bipartite: chromatic_index needs density too
        record = compute_record("k", G, ScanConfig(output_path="unused"))
        assert (record["gamma"], record["chi"], record["girth"]) == (8, 8, 5)
        assert kernel == Counter({G: 1})
        assert bfs == Counter({G: 1})

    def test_girth_and_shortest_cycle_share_one_bfs(self, monkeypatch):
        bfs = self.count_calls(monkeypatch, "_bfs_girth")
        G = sl.mu_cycle(7, 2)
        assert sl.girth(G) == 7
        assert sl.shortest_cycle(G, range(G.n)) == tuple(range(7))
        assert bfs == Counter({G: 1})
        # the whole graph's girth is the memo's entry for its vertex set
        assert G.memo == {frozenset(range(7)): 7}

    def test_cli_invariants_reuses_values(self, monkeypatch, tmp_path, capsys):
        from steffenlab.cli import cli_main

        kernel = self.count_calls(monkeypatch, "_odd_set_density")
        bfs = self.count_calls(monkeypatch, "_bfs_girth")
        path = tmp_path / "g.mgr"
        path.write_text(sl.serialize(sl.mu_cycle(7, 2)))
        assert cli_main(["invariants", str(path)]) == 0
        assert '"girth": 7' in capsys.readouterr().out
        assert sum(kernel.values()) == 1
        assert sum(bfs.values()) == 1

    def test_bipartite_memoised(self, monkeypatch):
        two_coloring = self.count_calls(monkeypatch, "_two_colorable")
        G = sl.mu_cycle(6, 2)
        assert is_bipartite(G) and is_bipartite(G)
        assert sl.chromatic_index(G)[0] == 4
        assert G.memo["bipartite"] is True
        assert two_coloring == Counter({G: 1})

    def test_memoised_graph_is_the_same_value(self):
        # a graph's value is n and its edges: the counts, the memo and the
        # neighbour sets take no part in it, and travel with a pickle
        G = sl.mu_cycle(5, 3)
        fresh = sl.build(5, G.edges)
        sl.girth(G), sl.density(G), G.adj
        assert G.memo and not fresh.memo
        # n and edges alone decide equality: either one differing makes another value
        assert G != sl.build(6, G.edges) and G != sl.build(5, G.edges[1:])
        assert G == fresh and hash(G) == hash(fresh) and repr(G) == repr(fresh)
        assert repr(G) == f"Multigraph(n=5, edges={G.edges!r})"
        back = pickle.loads(pickle.dumps(G))
        assert back == fresh and hash(back) == hash(fresh)
        for name in ("degrees", "edge_count", "max_mult", "memo", "adj"):
            assert back.__dict__[name] == G.__dict__[name]
        assert sl.density(back) == sl.density(fresh)
        assert sl.girth(back) == sl.girth(fresh) == 5
        assert back.adj == fresh.adj


class TestBipartite:
    def test_matches_odd_cycle_oracle(self):
        # bipartite iff no odd cycle
        rng = random.Random(21)
        seen = set()
        for _ in range(150):
            G = sl.random_multigraph(rng, n_max=8, mu_max=2)
            want = all(len(c) % 2 == 0 for c in all_cycles_by_bfs_style(G))
            assert is_bipartite(G) == want, sl.serialize(G)
            seen.add(want)
        assert seen == {True, False}

    def test_forest_and_disconnected(self):
        assert is_bipartite(sl.build(5, [(0, 1, 3), (3, 4, 1)]))
        assert not is_bipartite(sl.build(7, [(0, 1, 1), (2, 3, 1), (3, 4, 2), (2, 4, 1)]))


class TestSteffenBound:
    def test_3c5(self):
        assert sl.steffen_bound(sl.mu_cycle(5, 3)) == 8

    def test_2k5(self):
        assert sl.steffen_bound(sl.mu_complete(5, 2)) == 10

    def test_acyclic_convention(self):
        G = sl.build(2, [(0, 1, 3)])
        assert sl.steffen_bound(G) == 4
        assert sl.chromatic_index(G)[0] == 3  # bound stays valid

    def test_edgeless(self):
        assert sl.steffen_bound(sl.build(3, [])) == 0

    def test_mu_cycle_family_closed_form(self):
        # for odd g, density of the full vertex set equals the bound
        for g in (3, 5, 7):
            for mu in (1, 2, 3, 4):
                G = sl.mu_cycle(g, mu)
                assert sl.steffen_bound(G) == 2 * mu + -(-mu // (g // 2))
                assert sl.density(G).gamma == sl.steffen_bound(G)


class TestShortCycleProperties:
    def test_petersen_outer_cycle_clean(self, petersen):
        out = sl.check_short_cycle_properties(
            petersen, (0, 1, 2, 3, 4), frozenset(range(10))
        )
        assert out == []

    def test_not_shortest_rejected(self):
        edges = [(i, (i + 1) % 6, 1) for i in range(6)] + [(0, 6, 1), (3, 6, 1)]
        G = sl.build(7, edges)
        with pytest.raises(NotShortestCycle):
            sl.check_short_cycle_properties(
                G, (0, 1, 2, 3, 4, 5), frozenset(range(7))
            )

    def test_invalid_cycle_rejected(self, petersen):
        with pytest.raises(NotShortestCycle):
            sl.check_short_cycle_properties(
                petersen, (0, 1, 2, 3, 9), frozenset(range(10))
            )

    def test_randomized_emptiness(self):
        # the clauses are theorems about shortest cycles: never violated
        rng = random.Random(42)
        checked = 0
        for _ in range(400):
            G = sl.random_multigraph(rng, n_max=10, mu_max=2)
            P = sl.cycle_partition(G)
            for cyc, stage in zip(P.cycles, P.stage_vertex_sets(G.n)):
                assert sl.check_short_cycle_properties(G, cyc, stage) == []
                checked += 1
        assert checked > 100

    def test_clauses_match_oracle_on_long_cycles(self, monkeypatch):
        # a cycle that is not shortest can break every clause: with the
        # shortest-cycle check off, each clause must fail exactly as the oracle says
        monkeypatch.setattr(structure, "require_shortest_cycle", lambda *args: None)
        rng = random.Random(20261018)
        fired = set()
        for _ in range(300):
            G, C, within = long_cycle_graph(rng)
            got = clause_tuples(sl.check_short_cycle_properties(G, C, within))
            assert got == short_cycle_violations_by_permutation(G, C, within)
            fired.update(clause for clause, *_ in got)
        assert fired == {1, 2, 3, 4}

    def test_clause_3_alone(self, monkeypatch):
        # 8-cycle 0..7 and the outside path 8-9-10-11-12 touching it at 0, 2
        # and 4: three C-neighbours on a 5-path, at most two on any shorter one
        monkeypatch.setattr(structure, "require_shortest_cycle", lambda *args: None)
        edges = [(i, (i + 1) % 8, 1) for i in range(8)]
        edges += [(8, 9, 1), (9, 10, 1), (10, 11, 1), (11, 12, 1)]
        edges += [(0, 8, 1), (2, 10, 1), (4, 12, 1)]
        G = sl.build(13, edges)
        C = tuple(range(8))
        got = clause_tuples(sl.check_short_cycle_properties(G, C, range(13)))
        assert got == [(3, (8, 9, 10, 11, 12), 3, 2)]
        assert got == short_cycle_violations_by_permutation(G, C, range(13))

    def test_clause_detection_on_forged_input(self):
        # monkeypatch-free negative: clause logic flags a hand-built violation
        # (vertex 7 with two neighbors on a 5-cycle cannot occur with a real
        # shortest cycle, so feed a graph where the cycle really is shortest
        # but the extra vertex would break clause 1 if the lemma were false)
        edges = [(i, (i + 1) % 5, 1) for i in range(5)] + [(0, 5, 1), (2, 5, 1)]
        G = sl.build(6, edges)
        # girth is 4 here (0,1,2,5), so the 5-cycle is rightly rejected
        with pytest.raises(NotShortestCycle):
            sl.check_short_cycle_properties(
                G, (0, 1, 2, 3, 4), frozenset(range(6))
            )
