import random
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import steffenlab as sl
from steffenlab.coloring import _drop_keeping_chi, _search
from steffenlab.errors import CoverageMismatch, PreconditionFailed
from steffenlab.generators import EnumSpec, enumerate_with_keys
from oracles import (
    brute_force_chi,
    drop_keeping_chi_by_rebuild,
    extract_critical_by_rebuild,
    is_critical_by_rebuild,
    witness_by_sorting,
)


def _coloring_for(G, colors_by_copy):
    """Build an EdgeColoring from {((u,v),i): color}."""
    return sl.EdgeColoring(max(colors_by_copy.values()), tuple(sorted(colors_by_copy.items())))


class TestValidateColoring:
    def test_c5_proper(self):
        G = sl.mu_cycle(5, 1)
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        c = _coloring_for(G, {(p, 0): col for p, col in zip(pairs, [1, 2, 1, 2, 3])})
        assert sl.validate_coloring(G, c) is True

    def test_c5_improper(self):
        G = sl.mu_cycle(5, 1)
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        c = _coloring_for(G, {(p, 0): col for p, col in zip(pairs, [1, 2, 1, 2, 1])})
        assert sl.validate_coloring(G, c) is False

    def test_parallel_copies_conflict(self):
        G = sl.build(2, [(0, 1, 3)])
        good = _coloring_for(G, {((0, 1), i): i + 1 for i in range(3)})
        assert sl.validate_coloring(G, good) is True
        bad = _coloring_for(G, {((0, 1), 0): 1, ((0, 1), 1): 1, ((0, 1), 2): 2})
        assert sl.validate_coloring(G, bad) is False

    def test_coverage_mismatch(self):
        G = sl.build(2, [(0, 1, 3)])
        partial = _coloring_for(G, {((0, 1), 0): 1})
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

        decide = coloring.is_k_colorable
        monkeypatch.setattr(
            coloring, "is_k_colorable", lambda G, k, *a: None if k == 8 else decide(G, k, *a)
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
        inv = sl.basic_invariants(G)
        gamma = sl.density(G).gamma
        assert max(inv.Delta, gamma) <= chi <= inv.Delta + inv.mu
        assert chi <= sl.steffen_bound(G)
        if chi >= inv.Delta + 2:
            assert chi == gamma
        u, v, _ = G.edges[0]
        chi_minus = sl.chromatic_index(sl.remove_edges(G, u, v, 1))[0]
        assert chi_minus in (chi, chi - 1)


class TestCriticality:
    def test_3c5_critical(self):
        assert sl.is_critical(sl.mu_cycle(5, 3)) is True

    def test_3c5_every_pair_drops(self):
        G = sl.mu_cycle(5, 3)
        for u, v, _ in G.edges:
            assert sl.chromatic_index(sl.remove_edges(G, u, v, 1))[0] == 7

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
    the oracle builds every G - e with remove_edges."""

    def test_exhaustive_small_corpus(self):
        # every class on 2..5 vertices with mu <= 3 (10,687 classes)
        spec = EnumSpec(n_min=2, n_max=5, max_mu=3, girth_min=3, max_edge_copies=30)
        critical = 0
        for key, G in enumerate_with_keys(spec):
            chi = sl.chromatic_index(G)[0]
            want = drop_keeping_chi_by_rebuild(G, chi)
            assert _drop_keeping_chi(G, chi, None) == want, key
            assert sl.is_critical(G, chi=chi) == (want is None), key
            critical += want is None
            # extraction repeats the same step; its full comparison on the
            # classes with at most 12 copies keeps the test short
            if want is not None and G.edge_count <= 12:
                assert sl.extract_critical(G) == extract_critical_by_rebuild(G), key
        assert critical == 1262

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

    def test_no_graph_per_decision(self, monkeypatch):
        import steffenlab.coloring as col
        import steffenlab.multigraph as mg

        G = sl.mu_cycle(5, 3)
        H = sl.build(6, [*G.edges, (0, 5, 1)])  # 3C5 plus a pendant edge
        core = sl.build(6, G.edges)
        built = []
        init = mg.Multigraph.__post_init__
        monkeypatch.setattr(col, "remove_edges", None)
        monkeypatch.setattr(mg.Multigraph, "__post_init__", lambda G: built.append(G) or init(G))
        assert sl.is_critical(G, chi=8)
        assert built == []
        assert sl.extract_critical(H) == core
        assert built == [core]  # only the G - e that was kept


class TestWitnessAssembly:
    def test_matches_sorting_oracle(self):
        rng = random.Random(20261018)
        for _ in range(150):
            G = sl.random_multigraph(rng, n_max=8, mu_max=3)
            chi, witness = sl.chromatic_index(G)
            pairs, chosen = _search(G.n, G.edges, G.degrees, chi, None)
            assert witness == witness_by_sorting(chi, pairs, chosen), sl.serialize(G)
            assert sl.validate_coloring(G, witness)

    def test_copies_in_serialized_order(self):
        G = sl.build(4, [(0, 1, 3), (1, 2, 1), (2, 3, 2), (0, 3, 1)])
        witness = sl.is_k_colorable(G, 5)
        assert [copy for copy, _ in witness.assignment] == list(G.copies())
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
        for u, v, m in sl.remove_edges(G, 0, 1, 1).edges:
            want[(u, v)] = m
        assert counted == want

    def test_missed_vertex_is_the_gap(self):
        G = sl.mu_cycle(5, 3)
        dec = sl.near_perfect_matching_decomposition(G, (0, 1))
        for cls, miss in zip(dec.classes, dec.missed_vertex):
            covered = {x for pair in cls for x in pair}
            assert covered == set(range(5)) - {miss}

    def test_rejects_chi_delta_plus_1(self):
        with pytest.raises(PreconditionFailed) as err:
            sl.near_perfect_matching_decomposition(sl.mu_cycle(5, 1), (0, 1))
        assert err.value.clause == "chi-ge-delta-plus-2"

    def test_rejects_even_order(self):
        G = sl.build(6, [(0, 1, 3), (2, 3, 3), (4, 5, 3)])
        with pytest.raises(PreconditionFailed):
            sl.near_perfect_matching_decomposition(G, (0, 1))

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


class TestTimeouts:
    def test_expired_deadline_raises(self, monkeypatch):
        import steffenlab.coloring as col
        from steffenlab.errors import SolverTimeout

        monkeypatch.setattr(col, "_TIMEOUT_CHECK_MASK", 0)  # poll every node
        with pytest.raises(SolverTimeout):
            sl.is_k_colorable(sl.mu_cycle(5, 3), 8, deadline=0.0)

    def test_chromatic_index_propagates_timeout(self, monkeypatch):
        import steffenlab.coloring as col
        from steffenlab.errors import SolverTimeout

        monkeypatch.setattr(col, "_TIMEOUT_CHECK_MASK", 0)
        with pytest.raises(SolverTimeout):
            sl.chromatic_index(sl.mu_cycle(5, 3), timeout_seconds=-1.0)

    def test_density_honours_the_budget(self):
        from steffenlab.errors import SolverTimeout

        G = sl.mu_complete(21, 1)  # not bipartite; density alone visits 2^20 odd sets
        start = time.monotonic()
        with pytest.raises(SolverTimeout):
            sl.chromatic_index(G, timeout_seconds=0.2)
        assert time.monotonic() - start < 2.0
        assert "density" not in G.memo

    def test_doubled_even_complete_is_class_one(self):
        G = sl.mu_complete(6, 2)
        chi, w = sl.chromatic_index(G)
        assert chi == 10 == max(G.degrees)  # K_6 is 1-factorable
        assert sl.validate_coloring(G, w)


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
