import hashlib
import json
import random
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import steffenlab as sl
from steffenlab.coloring import (
    COLOR_CAP,
    _color_sets,
    _first_set,
    _reductions,
    _search,
    chromatic_index_value,
)
from steffenlab.errors import CoverageMismatch, InstanceTooLarge, PreconditionFailed, SolverTimeout
from steffenlab.generators import EnumSpec, enumerate_with_keys, graph_from_key
from oracles import (
    brute_force_chi,
    drop_keeping_chi_by_rebuild,
    extract_critical_by_rebuild,
    is_critical_by_rebuild,
    minus_one_copy,
    search_static_order,
    witness_by_sorting,
)

# Two pool graphs of the perfbench `queries` workload, as MGR text.  A fixed
# pair order stalled for minutes on chi' of the first (its Delta-coloring)
# and on the criticality of the second (the decision G - (0, 1) at k = 18).
BIG_16 = (
    "n 16\ne 0 2 3\ne 0 3 2\ne 0 4 1\ne 0 6 1\ne 0 7 1\n"
    "e 0 9 1\ne 0 11 2\ne 0 13 2\ne 0 14 1\ne 1 4 2\ne 1 5 1\n"
    "e 1 7 2\ne 1 8 2\ne 1 9 3\ne 1 10 3\ne 1 11 2\ne 1 14 3\n"
    "e 2 3 1\ne 2 6 3\ne 2 7 1\ne 2 9 3\ne 2 10 2\ne 2 11 3\n"
    "e 2 12 3\ne 2 14 2\ne 3 4 2\ne 3 5 1\ne 3 6 2\ne 3 7 1\n"
    "e 3 9 3\ne 3 10 3\ne 3 11 2\ne 3 13 1\ne 3 14 3\ne 3 15 3\n"
    "e 4 7 1\ne 4 8 1\ne 4 10 1\ne 4 11 2\ne 4 12 1\ne 4 14 2\n"
    "e 4 15 1\ne 5 6 3\ne 5 7 3\ne 5 8 2\ne 5 9 3\ne 5 11 2\n"
    "e 5 12 1\ne 5 13 3\ne 6 8 1\ne 6 10 1\ne 6 11 3\ne 6 12 1\n"
    "e 6 13 2\ne 6 14 1\ne 6 15 1\ne 7 9 2\ne 7 10 3\ne 7 12 3\n"
    "e 7 13 1\ne 8 9 2\ne 8 10 3\ne 8 11 1\ne 8 13 3\ne 8 14 1\n"
    "e 9 10 1\ne 9 11 1\ne 9 14 1\ne 10 11 1\ne 10 12 3\ne 10 14 1\n"
    "e 10 15 3\ne 11 13 3\ne 11 14 3\ne 11 15 2\ne 12 13 3\ne 12 14 3\n"
    "e 12 15 2\ne 13 14 1\ne 13 15 2\n"
)
DENSE_18 = (
    "n 9\ne 0 1 2\ne 0 2 1\ne 0 3 3\ne 0 4 2\ne 0 5 2\n"
    "e 0 7 2\ne 0 8 3\ne 1 2 2\ne 1 3 1\ne 1 4 3\ne 1 5 3\n"
    "e 1 6 3\ne 1 7 2\ne 1 8 3\ne 2 4 2\ne 2 6 2\ne 2 7 3\n"
    "e 2 8 3\ne 3 4 1\ne 3 5 1\ne 3 6 3\ne 3 7 3\ne 3 8 1\n"
    "e 4 5 2\ne 4 6 3\ne 4 7 3\ne 4 8 1\ne 5 6 2\ne 6 7 1\n"
    "e 6 8 3\ne 7 8 3\n"
)


class TestValidateColoring:
    def test_c5_proper(self):
        G = sl.mu_cycle(5, 1)
        c = sl.EdgeColoring(3, (((0, 1), (2, 3)), ((1, 2), (3, 4)), ((0, 4),)))
        assert sl.validate_coloring(G, c) is True

    def test_c5_improper(self):
        G = sl.mu_cycle(5, 1)
        c = sl.EdgeColoring(2, (((0, 1), (0, 4), (2, 3)), ((1, 2), (3, 4))))
        assert sl.validate_coloring(G, c) is False
        # three matchings are not a 2-coloring
        over_k = sl.EdgeColoring(2, (((0, 1), (2, 3)), ((1, 2), (3, 4)), ((0, 4),)))
        assert sl.validate_coloring(G, over_k) is False

    def test_parallel_copies_conflict(self):
        G = sl.build(2, [(0, 1, 3)])
        good = sl.EdgeColoring(3, (((0, 1),), ((0, 1),), ((0, 1),)))
        assert sl.validate_coloring(G, good) is True
        bad = sl.EdgeColoring(2, (((0, 1), (0, 1)), ((0, 1),)))
        assert sl.validate_coloring(G, bad) is False

    def test_coverage_mismatch(self):
        G = sl.build(2, [(0, 1, 3)])
        partial = sl.EdgeColoring(1, (((0, 1),),))
        with pytest.raises(CoverageMismatch):
            sl.validate_coloring(G, partial)


class TestIsKColorable:
    def test_odd_cycle_needs_three(self):
        G = sl.mu_cycle(5, 1)
        assert sl.is_k_colorable(G, 2) is None
        assert sl.is_k_colorable(G, 3) is not None

    def test_3c5_threshold(self):
        G = sl.mu_cycle(5, 3)
        assert sl.is_k_colorable(G, 7) is None
        w = sl.is_k_colorable(G, 8)
        assert w is not None and sl.validate_coloring(G, w)

    def test_k4_three_colorable(self):
        # frozen from the brute-force oracle: chi'(K_4) = 3
        G = sl.mu_complete(4, 1)
        assert brute_force_chi(G) == 3
        assert sl.is_k_colorable(G, 2) is None
        w = sl.is_k_colorable(G, 3)
        assert w is not None and sl.validate_coloring(G, w)

    def test_empty_graph(self):
        assert sl.is_k_colorable(sl.build(3, []), 0) is not None

    def test_deterministic(self):
        G = sl.mu_complete(5, 2)
        assert sl.is_k_colorable(G, 10) == sl.is_k_colorable(G, 10)


class TestChromaticIndex:
    def test_3c5(self):
        assert sl.chromatic_index(sl.mu_cycle(5, 3))[0] == 8

    def test_2k5(self):
        assert sl.chromatic_index(sl.mu_complete(5, 2))[0] == 10

    def test_petersen(self, petersen):
        assert sl.chromatic_index(petersen)[0] == 4

    def test_witness_always_validates(self):
        rng = random.Random(9)
        for _ in range(40):
            G = sl.random_multigraph(rng, n_max=6, mu_max=3)
            chi, w = sl.chromatic_index(G)
            assert sl.validate_coloring(G, w)
            assert w.k == chi

    def test_modes_agree(self):
        rng = random.Random(10)
        for _ in range(40):
            G = sl.random_multigraph(rng, n_max=6, mu_max=3)
            assert sl.chromatic_index(G, "search")[0] == sl.chromatic_index(G, "gs")[0]

    def test_gs_fastpath_alias_rejected(self):
        with pytest.raises(ValueError):
            sl.chromatic_index(sl.mu_complete(5, 2), "gs-fastpath")

    def test_failed_first_decision_at_gamma(self, monkeypatch):
        # 3C5: Delta 6, Gamma 8, mu 3.  With no 8-coloring the gs identity
        # fails at its first decision, while the ascent climbs to 9.
        from steffenlab import coloring

        decide = coloring._search
        monkeypatch.setattr(
            coloring, "_search", lambda n, edges, degrees, k, *a: (
                None if k == 8 else decide(n, edges, degrees, k, *a)
            )
        )
        G = sl.mu_cycle(5, 3)
        with pytest.raises(PreconditionFailed) as info:
            sl.chromatic_index(G, mode="gs")
        assert info.value.clause == "density-coloring"
        chi, witness = sl.chromatic_index(G, mode="search")
        assert chi == 9 and witness.k == 9
        assert sl.validate_coloring(G, witness)

    def test_bipartite_beyond_density_cap(self):
        # n = 24 is past the density cap; bipartite graphs never need density
        path = sl.build(24, [(i, i + 1, 1) for i in range(23)])
        cycle = sl.mu_cycle(24, 1)
        for G in (path, cycle):
            chi, witness = sl.chromatic_index(G)
            assert chi == 2
            assert sl.validate_coloring(G, witness)
        assert sl.chromatic_index(sl.mu_cycle(24, 3), "gs")[0] == 6

    @given(st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_oracle_agreement_small(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = []
        budget = 7
        for u, v in pairs:
            if budget <= 0 or rng.random() < 0.4:
                continue
            m = rng.randint(1, min(3, budget))
            budget -= m
            edges.append((u, v, m))
        G = sl.build(n, edges)
        assert sl.chromatic_index(G)[0] == brute_force_chi(G)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_monotonicity(self, seed):
        G = sl.random_multigraph(random.Random(seed), n_max=6, mu_max=3)
        if not G.edges:
            return
        chi = sl.chromatic_index(G)[0]
        delta_max = max(G.degrees)
        gamma = sl.density(G).gamma
        assert max(delta_max, gamma) <= chi <= delta_max + G.max_mult
        assert chi <= sl.steffen_bound(G)
        if chi >= delta_max + 2:
            assert chi == gamma
        u, v, _ = G.edges[0]
        chi_minus = sl.chromatic_index(minus_one_copy(G, u, v))[0]
        assert chi_minus in (chi, chi - 1)


class TestCriticality:
    def test_3c5_critical(self):
        assert sl.is_critical(sl.mu_cycle(5, 3)) is True

    def test_3c5_every_pair_drops(self):
        G = sl.mu_cycle(5, 3)
        for u, v, _ in G.edges:
            assert sl.chromatic_index(minus_one_copy(G, u, v))[0] == 7

    def test_disjoint_union_not_critical(self):
        edges = [(i, (i + 1) % 5, 1) for i in range(5)]
        edges += [(5 + i, 5 + (i + 1) % 5, 1) for i in range(5)]
        assert sl.is_critical(sl.build(10, edges)) is False

    def test_tripled_edge_critical(self):
        assert sl.is_critical(sl.build(2, [(0, 1, 3)])) is True

    def test_extract_pendant(self):
        G = sl.build(6, [(i, (i + 1) % 5, 3) for i in range(5)] + [(0, 5, 1)])
        core = sl.extract_critical(G)
        assert core.edges == sl.mu_cycle(5, 3).edges  # vertex 5 left isolated

    def test_extract_fixed_point(self):
        G = sl.mu_cycle(5, 3)
        assert sl.extract_critical(G) == G

    def test_extract_path(self):
        # chi'(P_4) = 2; the Delta-preserving core is a 2-edge star
        core = sl.extract_critical(sl.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]))
        assert core.edges == ((1, 2, 1), (2, 3, 1))
        assert sl.chromatic_index(core)[0] == 2
        assert sl.is_critical(core)

    def test_extract_preserves_chi(self):
        rng = random.Random(17)
        for _ in range(20):
            G = sl.random_multigraph(rng, n_max=6, mu_max=3)
            if not G.edges:
                continue
            chi = sl.chromatic_index(G)[0]
            core = sl.extract_critical(G)
            assert sl.chromatic_index(core)[0] == chi
            assert sl.is_critical(core)


class TestCriticalityWithoutRebuild:
    """is_critical and extract_critical decide each G - e as an edge list;
    the oracle builds every G - e with minus_one_copy.  Each class gets one
    budget far above its cost, so a search that loses a pruning rule fails
    by running out of it."""

    BUDGET_SECONDS = 10.0

    def test_exhaustive_small_corpus(self):
        # every class on 2..5 vertices with mu <= 3 (10,687 classes); on the
        # critical ones with chi' >= Delta + 2, every pair's decomposition
        # also colors G - e as the built graph's decision does
        spec = EnumSpec(n_min=2, n_max=5, max_mu=3, girth_min=3, max_edge_copies=30)
        critical = high = pairs = 0
        for key, G in enumerate_with_keys(spec):
            deadline = time.monotonic() + self.BUDGET_SECONDS
            chi = sl.chromatic_index(G, deadline=deadline)[0]
            want = drop_keeping_chi_by_rebuild(G, chi, deadline)
            # the walk's first decision that finds no (chi' - 1)-coloring takes the copy
            taken = (edges for edges, masks in _reductions(G, chi, deadline) if masks is None)
            assert next(taken, None) == (want and want.edges), key
            assert sl.is_critical(G, chi=chi, deadline=deadline) == (want is None), key
            critical += want is None
            # extraction resumes the same walk; its full comparison on the
            # classes with at most 12 copies keeps the test short
            if want is not None and G.edge_count <= 12:
                got = sl.extract_critical(G, deadline=deadline)
                assert got == extract_critical_by_rebuild(G, deadline), key
            if want is None and chi >= max(G.degrees) + 2:
                high += 1
                for u, v, _ in G.edges:
                    dec = sl.near_perfect_matching_decomposition(
                        G, (u, v), assume_critical=True, chi=chi, deadline=deadline
                    )
                    built = sl.is_k_colorable(minus_one_copy(G, u, v), chi - 1, deadline)
                    assert dec.classes == built.classes, (key, u, v)
                    pairs += 1
        assert (critical, high, pairs) == (1262, 157, 1445)

    @pytest.mark.parametrize(
        "G",
        [
            sl.build(2, [(0, 1, 1)]),  # K2: G - e is edgeless
            sl.build(2, [(0, 1, 2)]),  # one pair of multiplicity 2
            sl.build(3, [(0, 1, 1)]),  # G - e is edgeless with an isolated vertex
            sl.build(4, [(0, 1, 1), (2, 3, 1)]),  # each G - e keeps chi' = 1
            sl.build(3, [(0, 1, 2), (1, 2, 1)]),
        ],
        ids=["K2", "mult-2-pair", "K2-plus-isolated", "2K2", "path-with-double"],
    )
    def test_edge_cases(self, G):
        chi = sl.chromatic_index(G)[0]
        for k in range(chi + 2):  # a given chi need not be chi'
            assert sl.is_critical(G, chi=k) == is_critical_by_rebuild(G, k)
        assert sl.extract_critical(G) == extract_critical_by_rebuild(G)

    def test_named_edge_case_answers(self):
        assert sl.is_critical(sl.build(2, [(0, 1, 1)]))
        assert sl.is_critical(sl.build(2, [(0, 1, 2)]))
        assert not sl.is_critical(sl.build(4, [(0, 1, 1), (2, 3, 1)]))
        assert sl.extract_critical(sl.build(4, [(0, 1, 1), (2, 3, 1)])) == sl.build(
            4, [(2, 3, 1)]
        )

    def test_degree_settles_before_a_search(self):
        # two disjoint K_{1,3}: every G - e keeps the other star's centre at
        # degree chi' = 3, so the decision's entry test answers each one; a
        # search would poll the spent deadline at its first node and raise
        G = sl.build(8, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 5, 1), (4, 6, 1), (4, 7, 1)])
        spent = time.monotonic() - 1
        walk = _reductions(G, 3, spent)
        want = [(G.edges[1:], None), (G.edges[2:], None), (G.edges[3:], None)]
        assert [next(walk) for _ in range(3)] == want
        assert not sl.is_critical(G, chi=3, deadline=spent)

    def test_no_graph_per_decision(self, monkeypatch):
        import steffenlab.multigraph as mg

        G = sl.mu_cycle(5, 3)
        H = sl.build(6, [*G.edges, (0, 5, 1)])  # 3C5 plus a pendant edge
        core = sl.build(6, G.edges)
        built = []
        init = mg.Multigraph.__init__
        monkeypatch.setattr(
            mg.Multigraph, "__init__", lambda G, *args: built.append(G) or init(G, *args)
        )
        assert sl.is_critical(G, chi=8)
        assert not sl.is_critical(H, chi=8)
        assert built == []
        assert sl.extract_critical(H) == core
        assert built == [core]  # only the G - e that was kept
        # copies go from two pairs, one of which vanishes: still one graph
        K = sl.build(6, [(0, 1, 4), *G.edges[1:], (0, 5, 1)])
        built.clear()
        assert sl.extract_critical(K, chi=8) == core
        assert built == [core]

    def test_one_decision_per_pair_and_removed_copy(self, monkeypatch):
        # a pair that lowered chi' still lowers it in every subgraph, so the
        # walk never decides a pair again after it moves past it
        from steffenlab import coloring

        G = sl.parse_any(DENSE_18)
        chi = chromatic_index_value(G)
        calls = []
        search = coloring._search
        monkeypatch.setattr(
            coloring, "_search", lambda *args: calls.append(args) or search(*args)
        )
        core = sl.extract_critical(G, chi=chi)
        assert len(calls) <= len(G.edges) + G.edge_count - core.edge_count
        monkeypatch.setattr(coloring, "_search", search)
        assert core == extract_critical_by_rebuild(G)


class TestValueOnlyAscent:
    """chromatic_index_value runs the ascent of chromatic_index and builds no witness."""

    def test_exhaustive_small_corpus(self, monkeypatch):
        # every class on 2..5 vertices with mu <= 3 (10,687 classes): the same
        # chi' from the same decisions, under the same deadline
        from steffenlab import coloring

        decisions = []
        search = coloring._search

        def logged(n, edges, degrees, k, deadline):
            decisions.append((edges, k, deadline))
            return search(n, edges, degrees, k, deadline)

        monkeypatch.setattr(coloring, "_search", logged)
        spec = EnumSpec(n_min=2, n_max=5, max_mu=3, girth_min=3, max_edge_copies=30)
        deadline = time.monotonic() + 600
        count = 0
        for key, G in enumerate_with_keys(spec):
            decisions.clear()
            chi = chromatic_index_value(G, deadline)
            value_decisions = decisions[:]
            decisions.clear()
            assert chi == sl.chromatic_index(G, deadline=deadline)[0], key
            assert value_decisions == decisions, key
            count += 1
        assert count == 10687

    @pytest.mark.parametrize(
        "G", [sl.mu_cycle(5, 3), sl.mu_cycle(6, 2)], ids=["needs-density", "bipartite"]
    )
    def test_expired_deadline_raises(self, G):
        with pytest.raises(SolverTimeout):
            chromatic_index_value(G, deadline=time.monotonic() - 1.0)

    def test_builds_no_witness(self, monkeypatch):
        from steffenlab import coloring

        monkeypatch.setattr(coloring, "EdgeColoring", None)  # any witness fails
        assert chromatic_index_value(sl.mu_cycle(5, 3)) == 8
        assert chromatic_index_value(sl.build(3, [])) == 0


# the Petersen graph minus a vertex: the first known graph with chi' > max(Delta, Gamma)
PETERSEN_MINUS_VERTEX = "09.010000000000000101000100000000000001000100010000010100010000010001000000"


class TestPetersenMinusVertex:
    def test_key_and_values(self, petersen):
        # vertex 0 and its edges go (u < v in every triple), the rest move down by one
        minus_0 = sl.build(9, [(u - 1, v - 1, 1) for u, v, _ in petersen.edges if u])
        assert sl.canonical_form(minus_0) == PETERSEN_MINUS_VERTEX
        G = graph_from_key(PETERSEN_MINUS_VERTEX)
        assert (G.n, max(G.degrees), sl.density(G).gamma) == (9, 3, 3)
        assert sl.chromatic_index(G)[0] == 4
        assert sl.is_critical(G) is True

    def test_two_decisions(self, monkeypatch):
        # the ascent starts at max(Delta, Gamma) = 3, which is refuted
        from steffenlab import coloring

        decisions = []
        search = coloring._search

        def logged(n, edges, degrees, k, deadline):
            masks = search(n, edges, degrees, k, deadline)
            decisions.append((k, masks is not None))
            return masks

        monkeypatch.setattr(coloring, "_search", logged)
        assert chromatic_index_value(graph_from_key(PETERSEN_MINUS_VERTEX)) == 4
        assert decisions == [(3, False), (4, True)]


class TestDynamicOrderSearch:
    """The dynamic-order search against the static-order oracle.  Each
    decision gets a budget far above its cost, so a search that loses a
    pruning rule fails by running out of it."""

    BUDGET_SECONDS = 10.0
    # the sha256 of every witness the corpus walk below gets, in its order
    WITNESS_DIGEST = "d4ea4f62307b9796f67bf770737cba8f0348336293c692b3ba550ba0254e3065"

    def _decides_like_oracle(self, G, k):
        witness = sl.is_k_colorable(G, k, time.monotonic() + self.BUDGET_SECONDS)
        want = search_static_order(G.n, G.edges, G.degrees, k, None)
        assert (witness is None) == (want is None), (sl.serialize(G), k)
        assert witness is None or sl.validate_coloring(G, witness)
        return witness

    def test_exhaustive_small_corpus(self):
        # every class on 2..5 vertices with mu <= 3 (10,687 classes): each k
        # in Delta..Delta+mu, then each G - e at chi' - 1; the digest pins
        # the witnesses themselves, not only which decisions are feasible
        spec = EnumSpec(n_min=2, n_max=5, max_mu=3, girth_min=3, max_edge_copies=30)
        ascent = 0
        digest = hashlib.sha256()

        def decide(G, k):
            witness = self._decides_like_oracle(G, k)
            obj = None if witness is None else witness.to_json_obj()
            digest.update(json.dumps(obj).encode() + b"\n")
            return witness is not None

        for _, G in enumerate_with_keys(spec):
            delta = max(G.degrees)
            ks = range(delta, delta + G.max_mult + 1)
            feasible = [decide(G, k) for k in ks]
            ascent += len(feasible)
            chi = delta + feasible.index(True)
            for u, v, _ in G.edges:
                decide(minus_one_copy(G, u, v), chi - 1)
        assert ascent == 41924
        assert digest.hexdigest() == self.WITNESS_DIGEST


class TestColorSets:
    """A branched pair takes its first color set from `_first_set`, and
    `_color_sets` gives the rest only once the search backtracks to it."""

    def test_first_set_is_first_of_color_sets(self):
        for k in range(1, 8):
            for avail in range(1 << k):
                for m in range(1, k + 1):
                    for opened in range(k + 1):
                        want = next(_color_sets(avail, m, opened, k), 0)
                        assert _first_set(avail, m, opened, k) == want, (avail, m, opened, k)

    @staticmethod
    def _built(monkeypatch, G, k):
        from steffenlab import coloring

        built = []

        def counted(*args):
            built.append(args)
            return _color_sets(*args)

        monkeypatch.setattr(coloring, "_color_sets", counted)
        return _search(G.n, G.edges, G.degrees, k, None), built

    def test_first_path_builds_no_iterator(self, monkeypatch):
        masks, built = self._built(monkeypatch, sl.mu_cycle(5, 1), 3)
        assert masks == [1, 2, 2, 1, 4] and built == []

    def test_backtrack_keeps_the_witness(self, monkeypatch):
        # the smallest searched decision of the girth >= 5 scan whose first
        # path dead-ends: a G - e of its criticality walk, feasible at k = 3
        G = sl.parse_any("n 6\ne 0 2 1\ne 1 4 2\ne 1 5 1\ne 2 3 2\ne 3 5 1\n")
        masks, built = self._built(monkeypatch, G, 3)
        assert len(built) == 1
        assert masks == [4, 5, 2, 3, 4]
        assert sl.validate_coloring(G, sl.is_k_colorable(G, 3))


class TestStalledDecisions:
    """Decisions a fixed pair order stalled on.  Each must answer inside the
    solver budget: running out of it raises SolverTimeout and fails."""

    def test_random_multigraph_draw(self):
        rng = random.Random(20261018)
        for _ in range(151):
            G = sl.random_multigraph(rng, n_max=8, mu_max=3)
        assert (G.n, G.edge_count, max(G.degrees)) == (8, 47, 15)
        chi, witness = sl.chromatic_index(G, deadline=time.monotonic() + 3)
        assert chi == 15
        assert sl.validate_coloring(G, witness)

    def test_big_16_is_delta_colorable(self):
        G = sl.parse_any(BIG_16)
        chi, witness = sl.chromatic_index(G, deadline=time.monotonic() + 5)
        assert chi == max(G.degrees) == 27
        assert sl.validate_coloring(G, witness)

    def test_dense_18_is_not_critical(self):
        assert sl.is_critical(sl.parse_any(DENSE_18), deadline=time.monotonic() + 5) is False


class TestWitnessAssembly:
    def test_matches_sorting_oracle(self):
        rng = random.Random(20261018)
        for _ in range(150):
            G = sl.random_multigraph(rng, n_max=8, mu_max=3)
            chi, witness = sl.chromatic_index(G)
            masks = _search(G.n, G.edges, G.degrees, chi, None)
            assert witness == witness_by_sorting(chi, G.edges, masks), sl.serialize(G)
            assert sl.validate_coloring(G, witness)

    def test_classes_sorted_and_covering(self):
        G = sl.build(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (0, 3, 1)])
        witness = sl.is_k_colorable(G, 5)
        assert len(witness.classes) == 5
        assert all(list(cls) == sorted(cls) for cls in witness.classes)
        assert Counter(pair for cls in witness.classes for pair in cls) == G.mult_map
        assert sl.validate_coloring(G, witness)


class TestMatchingDecomposition:
    def test_3c5_shape(self):
        G = sl.mu_cycle(5, 3)
        dec = sl.near_perfect_matching_decomposition(G, (0, 1))
        assert len(dec.classes) == 7
        assert all(len(cls) == 2 for cls in dec.classes)
        assert len(dec.missed_vertex) == 7

    def test_classes_partition_g_minus_e(self):
        G = sl.mu_cycle(5, 3)
        dec = sl.near_perfect_matching_decomposition(G, (0, 1))
        from collections import Counter

        counted = Counter(pair for cls in dec.classes for pair in cls)
        want = Counter()
        for u, v, m in minus_one_copy(G, 0, 1).edges:
            want[(u, v)] = m
        assert counted == want

    def test_missed_vertex_is_the_gap(self):
        G = sl.mu_cycle(5, 3)
        dec = sl.near_perfect_matching_decomposition(G, (0, 1))
        for cls, miss in zip(dec.classes, dec.missed_vertex):
            covered = {x for pair in cls for x in pair}
            assert covered == set(range(5)) - {miss}

    def test_one_decision_and_no_graph(self, monkeypatch):
        # with chi' given, G - e is one decision on its edge list
        import steffenlab.multigraph as mg
        from steffenlab import coloring

        G = sl.mu_cycle(5, 3)
        calls, built = [], []
        search, init = coloring._search, mg.Multigraph.__init__
        monkeypatch.setattr(coloring, "_search", lambda *args: calls.append(args) or search(*args))
        monkeypatch.setattr(
            mg.Multigraph, "__init__", lambda H, *args: built.append(H) or init(H, *args)
        )
        dec = sl.near_perfect_matching_decomposition(G, (1, 2), assume_critical=True, chi=8)
        assert len(dec.classes) == 7
        assert built == []
        ((n, edges, degrees, k, deadline),) = calls
        assert (n, k, deadline) == (5, 7, None)
        assert edges == minus_one_copy(G, 1, 2).edges
        assert list(degrees) == [6, 5, 5, 6, 6]

    def test_rejects_chi_delta_plus_1(self):
        with pytest.raises(PreconditionFailed) as err:
            sl.near_perfect_matching_decomposition(sl.mu_cycle(5, 1), (0, 1))
        assert err.value.clause == "chi-ge-delta-plus-2"

    def test_rejects_even_order(self):
        G = sl.build(6, [(0, 1, 3), (2, 3, 3), (4, 5, 3)])
        with pytest.raises(PreconditionFailed) as err:
            sl.near_perfect_matching_decomposition(G, (0, 1))
        assert err.value.clause == "n-odd"  # parity is tested before chi' is needed

    def test_rejects_noncritical(self):
        G = sl.build(7, [(i, (i + 1) % 5, 3) for i in range(5)] + [(5, 6, 1)])
        with pytest.raises(PreconditionFailed) as err:
            sl.near_perfect_matching_decomposition(G, (0, 1))
        assert err.value.clause in ("critical", "n-odd")


class TestDegreeIdentity:
    def test_3c5_residuals_zero(self):
        report = sl.degree_identity_check(sl.mu_cycle(5, 3))
        assert report.residuals == (0, 0, 0, 0, 0)
        assert report.min_degree_bound == "holds"

    def test_5k3_residuals_zero(self):
        report = sl.degree_identity_check(sl.mu_complete(3, 5))
        assert report.residuals == (0, 0, 0)
        # n = 3 < 5: no qualifying g
        assert report.min_degree_bound == "not-applicable"

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            sl.degree_identity_check(sl.mu_cycle(5, 1))

    def test_residual_off_the_identity(self):
        # chi' = 9 is not 3C5's: 2|E| - (n-1)(chi'-1) - 2 = 30 - 32 - 2 at every vertex
        report = sl.degree_identity_check(sl.mu_cycle(5, 3), chi=9, check_critical=False)
        assert report.residuals == (-4,) * 5


class TestTimeouts:
    def test_expired_deadline_raises(self):
        # a decision polls the clock at its first node, so a chain of small
        # decisions cannot run on past a shared deadline
        from steffenlab.errors import SolverTimeout

        with pytest.raises(SolverTimeout):
            sl.is_k_colorable(sl.mu_cycle(5, 3), 8, deadline=0.0)

    def test_chromatic_index_propagates_timeout(self):
        from steffenlab.errors import SolverTimeout

        with pytest.raises(SolverTimeout):
            sl.chromatic_index(sl.mu_cycle(5, 3), deadline=time.monotonic() - 1.0)

    def test_is_critical_honours_the_deadline(self):
        from steffenlab.errors import SolverTimeout

        with pytest.raises(SolverTimeout):
            sl.is_critical(sl.mu_cycle(5, 3), deadline=time.monotonic() - 1)

    def test_density_honours_the_budget(self):
        from steffenlab.errors import SolverTimeout

        G = sl.mu_complete(21, 1)  # not bipartite; density alone visits 2^20 odd sets
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            sl.chromatic_index(G, deadline=time.monotonic() + 0.2)
        assert time.monotonic() - start < 2.0
        assert "density" not in G.memo

    def test_every_timeout_message(self, monkeypatch):
        # the four messages a caller can see, each raised by an expired
        # deadline; perfbench scores a timed-out query by their words
        import steffenlab.structure as structure_mod

        def message(call, *args):
            with pytest.raises(SolverTimeout) as caught:
                call(*args, deadline=time.monotonic() - 1.0)
            return str(caught.value)

        K52 = sl.mu_complete(5, 2)
        assert message(sl.is_k_colorable, sl.mu_cycle(5, 3), 8) == "k=8 decision exceeded budget"
        assert message(sl.density, sl.mu_complete(14, 1)) == "density on n=14 exceeded budget"
        assert message(sl.enumerate_cycles, K52) == "cycle enumeration exceeded budget"
        # the walk polls before the loop over its cycles: hand the loop the walk's result
        cycles = structure_mod.enumerate_cycles(K52)
        monkeypatch.setattr(structure_mod, "enumerate_cycles", lambda G, deadline: cycles)
        assert message(sl.find_ring_subgraph_with_chi, K52, 1) == "ring search exceeded budget"

    def test_doubled_even_complete_is_class_one(self):
        G = sl.mu_complete(6, 2)
        chi, w = sl.chromatic_index(G)
        assert chi == 10 == max(G.degrees)  # K_6 is 1-factorable
        assert sl.validate_coloring(G, w)


class TestColorCap:
    def test_at_the_cap(self):
        # a path, so bipartite: the ascent starts and ends at k = Delta
        G = sl.build(3, [(0, 1, COLOR_CAP - 1), (1, 2, 1)])
        chi, witness = sl.chromatic_index(G)
        assert chi == COLOR_CAP
        assert sl.validate_coloring(G, witness)

    def test_over_the_cap(self):
        G = sl.build(3, [(0, 1, COLOR_CAP), (1, 2, 1)])
        with pytest.raises(InstanceTooLarge, match="k <= 4096, got 4097"):
            sl.chromatic_index(G)
        with pytest.raises(InstanceTooLarge):
            sl.is_k_colorable(sl.mu_cycle(5, 3), COLOR_CAP + 1)


class TestOddRingClosedForm:
    def test_sweep(self):
        # odd ring: chi' = max(Delta, ceil(m / floor(g/2))), and the full
        # vertex set is a density witness, so it also equals max(Delta, Gamma)
        count = 0
        for g, mu in ((3, 4), (5, 4), (7, 3)):
            for mults in product(range(1, mu + 1), repeat=g):
                G = sl.ring(g, mults)
                delta = max(G.degrees)
                closed = max(delta, -(-G.edge_count // (g // 2)))
                assert sl.chromatic_index(G)[0] == closed, mults
                assert max(delta, sl.density(G).gamma) == closed, mults
                count += 1
        assert count == 3275
