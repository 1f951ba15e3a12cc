import random
import time
from itertools import product

import pytest

import steffenlab as sl
from steffenlab.coloring import chromatic_index_value
from steffenlab.errors import SolverTimeout, VertexNotInV0
from steffenlab.generators import EnumSpec, enumerate_with_keys, graph_from_key
from steffenlab.invariants import in_theorem_regime
from steffenlab.structure import _ring_chi, enumerate_cycles
from oracles import (
    all_cycles_by_bfs_style,
    find_ring_by_solver,
    max_disjoint_paths_oracle,
    max_fan_by_flow_network,
)


@pytest.fixture()
def fan_graph():
    """C_5 on 0..4 plus V_0 = {5, 6}: 5~0, 5~6, 6~2."""
    return sl.build(
        7,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1), (0, 5, 1), (5, 6, 1), (2, 6, 1)],
    )


class TestCyclesAreTuples:
    """A cycle is the tuple of its vertices: it starts at its least vertex
    and goes on towards the smaller of that vertex's cycle neighbours."""

    def test_every_cycle_search_returns_plain_tuples(self, petersen):
        cycles = [
            sl.shortest_cycle(petersen, range(5, 10)),
            *enumerate_cycles(petersen)[:3],
            *sl.cycle_partition(petersen).cycles,
            sl.find_ring_subgraph_with_chi(petersen, 2).cycle,
        ]
        assert [type(c) for c in cycles] == [tuple] * len(cycles)
        assert cycles == [
            (5, 7, 9, 6, 8),
            (0, 1, 2, 3, 4),
            (0, 1, 2, 7, 5),
            (0, 1, 6, 8, 5),
            (0, 1, 2, 3, 4),
            (5, 7, 9, 6, 8),
            (0, 1, 2, 3, 8, 5),
        ]


class TestCyclePartition:
    def test_petersen_two_cycles(self, petersen):
        P = sl.cycle_partition(petersen)
        assert P.cycles == ((0, 1, 2, 3, 4), (5, 7, 9, 6, 8))
        assert P.v0 == frozenset()
        assert sl.verify_cycle_partition(petersen, P) == []

    def test_3c5_single_cycle(self):
        P = sl.cycle_partition(sl.mu_cycle(5, 3))
        assert len(P.cycles) == 1 and P.v0 == frozenset()

    def test_tree(self):
        G = sl.build(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
        P = sl.cycle_partition(G)
        assert P.cycles == () and P.v0 == frozenset(range(4))

    def test_verify_catches_wrong_v0(self, petersen):
        P = sl.cycle_partition(petersen)
        forged = sl.CyclePartition(P.cycles, frozenset({9}))
        assert sl.verify_cycle_partition(petersen, forged) != []

    def test_verify_catches_non_shortest(self, petersen):
        # a 6-cycle of Petersen is not shortest at stage 0
        forged = sl.CyclePartition(
            ((0, 1, 6, 9, 7, 5),), frozenset(range(10)) - {0, 1, 6, 9, 7, 5}
        )
        assert any("girth" in p for p in sl.verify_cycle_partition(petersen, forged))

    def test_checks_reuse_the_partitions_girth_runs(self, petersen, monkeypatch):
        from steffenlab import invariants

        G = sl.Multigraph(petersen.n, petersen.edges)  # a copy with nothing memoised
        P = sl.cycle_partition(G)
        runs = []
        bfs = invariants._bfs_girth
        monkeypatch.setattr(
            invariants, "_bfs_girth", lambda G, within: runs.append(within) or bfs(G, within)
        )
        assert sl.verify_cycle_partition(G, P) == []
        for cyc, stage in zip(P.cycles, P.stage_vertex_sets(G.n)):
            assert sl.check_short_cycle_properties(G, cyc, stage) == []
        assert sl.girth(G) == 5
        assert runs == []

    def test_random_partitions_verify(self):
        rng = random.Random(3)
        for _ in range(60):
            G = sl.random_multigraph(rng, n_max=9, mu_max=2)
            assert sl.verify_cycle_partition(G, sl.cycle_partition(G)) == []


class TestMaxFan:
    def test_two_fan_from_v0(self, fan_graph):
        P = sl.cycle_partition(fan_graph)
        fan = sl.max_fan(fan_graph, P, 5, 0)
        assert fan.t == 2
        assert fan.paths == ((5, 0), (5, 6, 2))
        assert fan.interior_vertices() == frozenset({5, 6})

    def test_two_fan_from_other_apex(self, fan_graph):
        P = sl.cycle_partition(fan_graph)
        fan = sl.max_fan(fan_graph, P, 6, 0)
        assert fan.t == 2
        assert fan.paths == ((6, 2), (6, 5, 0))

    def test_isolated_apex(self):
        G = sl.build(6, [(i, (i + 1) % 5, 1) for i in range(5)])
        P = sl.cycle_partition(G)
        assert sl.max_fan(G, P, 5, 0) is None

    def test_apex_must_be_in_v0(self, fan_graph):
        P = sl.cycle_partition(fan_graph)
        with pytest.raises(VertexNotInV0):
            sl.max_fan(fan_graph, P, 0, 0)

    def test_matches_packing_oracle(self):
        rng = random.Random(77)
        for _ in range(80):
            G = sl.random_multigraph(rng, n_max=8, mu_max=2)
            P = sl.cycle_partition(G)
            for v0 in sorted(P.v0):
                for h in range(len(P.cycles)):
                    fan = sl.max_fan(G, P, v0, h)
                    want = max_disjoint_paths_oracle(
                        G, v0, set(P.v0), frozenset(P.cycles[h])
                    )
                    assert (fan.t if fan else 0) == want

    def test_paths_internally_disjoint_and_v0_interior(self):
        rng = random.Random(78)
        for _ in range(60):
            G = sl.random_multigraph(rng, n_max=9, mu_max=2)
            P = sl.cycle_partition(G)
            for v0 in sorted(P.v0):
                for h in range(len(P.cycles)):
                    fan = sl.max_fan(G, P, v0, h)
                    if fan is None:
                        continue
                    cyc = frozenset(P.cycles[h])
                    seen_interior = set()
                    seen_ends = set()
                    for path in fan.paths:
                        assert path[0] == v0
                        assert path[-1] in cyc
                        assert all(x in P.v0 for x in path[:-1])
                        interior = set(path[1:-1])
                        assert not interior & seen_interior
                        seen_interior |= interior
                        assert path[-1] not in seen_ends
                        seen_ends.add(path[-1])


@pytest.fixture(scope="module")
def seed42_graphs():
    """The lemma suite's random graphs under its default config, seed 42."""
    rng = random.Random(42)
    return [sl.random_multigraph(rng, n_max=12, mu_max=3) for _ in range(1000)]


class TestMaxFanAgainstFlowNetwork:
    def test_every_seed42_fan(self, seed42_graphs):
        count = 0
        for G in seed42_graphs:
            P = sl.cycle_partition(G)
            for v0 in sorted(P.v0):
                for h in range(len(P.cycles)):
                    assert sl.max_fan(G, P, v0, h) == max_fan_by_flow_network(G, P, v0, h)
                    count += 1
        assert count == 2895

    @pytest.mark.parametrize(
        "index, v0, paths",
        [
            (6, 5, ((5, 10),)),  # the nearest exit, not (5, 6, 10)
            (16, 5, ((5, 0), (5, 2), (5, 4))),
            (730, 6, ((6, 1, 5), (6, 4, 3))),  # the second search steps back along 1 -> 3
        ],
    )
    def test_pinned_seed42_fans(self, seed42_graphs, index, v0, paths):
        G = seed42_graphs[index]
        assert sl.max_fan(G, sl.cycle_partition(G), v0, 0) == sl.Fan(v0, 0, paths)


class TestFanBound:
    def test_example_two_fan(self, fan_graph):
        P = sl.cycle_partition(fan_graph)
        fan = sl.max_fan(fan_graph, P, 5, 0)
        # |T^0| = 2 >= 1*5/2 - 1
        assert sl.fan_bound_check(fan, P.cycles[0]) is True

    def test_one_fan_trivial(self):
        fan = sl.Fan(0, 0, ((0, 3),))
        assert sl.fan_bound_check(fan, (3, 4, 5)) is True

    def test_constructed_negative(self):
        # hand-built object: t=3 direct paths into a 6-cycle, interior = apex only
        fan = sl.Fan(9, 0, ((9, 0), (9, 2), (9, 4)))
        assert sl.fan_bound_check(fan, (0, 1, 2, 3, 4, 5)) is False

    def test_always_holds_on_real_fans(self):
        rng = random.Random(79)
        for _ in range(80):
            G = sl.random_multigraph(rng, n_max=9, mu_max=3)
            P = sl.cycle_partition(G)
            for v0 in sorted(P.v0):
                for h in range(len(P.cycles)):
                    fan = sl.max_fan(G, P, v0, h)
                    if fan is not None:
                        assert sl.fan_bound_check(fan, P.cycles[h])


class TestRingRecognition:
    def test_3c5(self):
        assert sl.is_ring_graph(sl.mu_cycle(5, 3)) is True

    def test_petersen(self, petersen):
        assert sl.is_ring_graph(petersen) is False

    def test_mixed_ring(self):
        assert sl.is_ring_graph(sl.ring(7, [3, 1, 2, 1, 3, 1, 2])) is True

    def test_cycle_plus_chord_is_not(self):
        G = sl.build(5, [(i, (i + 1) % 5, 2) for i in range(5)] + [(0, 2, 1)])
        assert sl.is_ring_graph(G) is False

    def test_disconnected_cycles_are_not(self):
        edges = [(i, (i + 1) % 3, 1) for i in range(3)]
        edges += [(3 + i, 3 + (i + 1) % 3, 1) for i in range(3)]
        assert sl.is_ring_graph(sl.build(6, edges)) is False


class TestCycleEnumeration:
    def test_matches_oracle(self, petersen):
        # 2K7 and the Petersen graph have cycles of every length from their
        # girth up, from every start vertex but the last few
        rng = random.Random(80)
        graphs = [sl.random_multigraph(rng, n_max=7, mu_max=1) for _ in range(40)]
        for G in [*graphs, sl.mu_complete(7, 2), petersen]:
            got = enumerate_cycles(G)
            assert got == all_cycles_by_bfs_style(G)

    def test_long_cycle(self):
        # the walk keeps its path on an explicit stack, not the call stack
        (cycle,) = enumerate_cycles(sl.mu_cycle(1500, 1))
        assert cycle == tuple(range(1500))

    def test_petersen_cycle_count(self, petersen):
        cycles = enumerate_cycles(petersen)
        assert len(cycles) == len(all_cycles_by_bfs_style(petersen))
        assert [len(c) for c in cycles[:12]] == [5] * 12  # twelve 5-cycles


class TestFindRingSubgraph:
    def test_3c5_is_its_own_ring(self):
        G = sl.mu_cycle(5, 3)
        ring = sl.find_ring_subgraph_with_chi(G, 8)
        assert ring is not None
        assert ring.chi == 8
        assert ring.multiplicities == (3, 3, 3, 3, 3)

    def test_petersen_has_no_chi4_ring(self, petersen):
        assert sl.find_ring_subgraph_with_chi(petersen, 4) is None

    def test_petersen_has_chi3_ring(self, petersen):
        ring = sl.find_ring_subgraph_with_chi(petersen, 3)
        assert ring is not None and len(ring.cycle) == 5

    def test_chorded_ring_search(self):
        G = sl.build(5, [(i, (i + 1) % 5, 3) for i in range(5)] + [(0, 2, 1)])
        chi = sl.chromatic_index(G)[0]
        ring = sl.find_ring_subgraph_with_chi(G, chi)
        assert ring is not None
        assert ring.chi == chi
        # witness multiplicities never exceed the host graph's
        vs = ring.cycle
        for i, m in enumerate(ring.multiplicities):
            assert m <= G.mult(vs[i], vs[(i + 1) % len(vs)])

    def test_descent_hits_intermediate_target(self):
        G = sl.mu_cycle(5, 3)  # maximal ring chi' = 8
        ring = sl.find_ring_subgraph_with_chi(G, 6)
        assert ring is not None
        assert ring.chi == 6
        assert sl.chromatic_index(sl.ring(len(ring.cycle), ring.multiplicities))[0] == 6

    def test_unreachable_target(self):
        assert sl.find_ring_subgraph_with_chi(sl.mu_cycle(5, 1), 2) is None

    def test_target_three_mu_is_searched(self):
        # 3C3: ceil(9 / 1) = 9 = 3 mu, the most any ring with mu = 3 reaches
        ring = sl.find_ring_subgraph_with_chi(sl.mu_cycle(3, 3), 9)
        assert ring == sl.RingSubgraph((0, 1, 2), (3, 3, 3), 9)

    def test_witness_chi_revalidated_by_solver(self):
        rng = random.Random(81)
        for _ in range(20):
            G = sl.random_multigraph(rng, n_max=7, mu_max=3)
            if sl.girth(G) == sl.INFINITE_GIRTH:
                continue
            chi = sl.chromatic_index(G)[0]
            ring = sl.find_ring_subgraph_with_chi(G, chi)
            if ring is not None:
                assert sl.chromatic_index(sl.ring(len(ring.cycle), ring.multiplicities))[0] == chi


class TestRingSearchDeadline:
    """2K10 has 556,014 cycles: without a poll, its walk runs for seconds
    past any budget.  Target 1 is walked in full, as every ring has chi' >= 2."""

    def test_expired_deadline_stops_the_cycle_walk(self):
        G = sl.mu_complete(10, 2)
        with pytest.raises(SolverTimeout, match="cycle enumeration exceeded budget"):
            enumerate_cycles(G, deadline=time.monotonic() - 1.0)
        with pytest.raises(SolverTimeout):
            sl.find_ring_subgraph_with_chi(G, 1, deadline=time.monotonic() - 1.0)

    def test_expired_deadline_stops_the_cycle_loop(self, monkeypatch):
        import steffenlab.structure as structure_mod

        cycles = structure_mod.enumerate_cycles(sl.mu_complete(5, 2))
        monkeypatch.setattr(structure_mod, "enumerate_cycles", lambda G, deadline: cycles)
        with pytest.raises(SolverTimeout, match="ring search exceeded budget"):
            sl.find_ring_subgraph_with_chi(
                sl.mu_complete(5, 2), 1, deadline=time.monotonic() - 1.0
            )


class TestTheoremReduction:
    """A graph with g >= 5 that attains Steffen's bound with chi' >= Delta + 2,
    critical or not, reduces by `extract_critical` to an odd ring with the same
    chi', once the isolated vertices it leaves are dropped."""

    @pytest.mark.parametrize(
        "G, core",
        [
            (sl.mu_cycle(5, 3), sl.mu_cycle(5, 3)),
            # 3C5 plus a disjoint edge, a record of the n <= 8 corpus
            (graph_from_key("07.000000010000030000000300000300000303000000"), sl.mu_cycle(5, 3)),
            # the non-critical rings in the regime with g = 5 and mu <= 6
            (sl.mu_cycle(5, 4), sl.ring(5, [3, 4, 4, 4, 4])),
            (sl.mu_cycle(5, 6), sl.ring(5, [5, 6, 6, 6, 6])),
            # ... and with g = 7 and mu <= 5
            (sl.mu_cycle(7, 5), sl.ring(7, [4, 5, 5, 5, 5, 5, 5])),
        ],
        ids=["3C5", "3C5-plus-edge", "4C5", "6C5", "5C7"],
    )
    def test_extract_critical_gives_an_odd_ring(self, G, core):
        chi = chromatic_index_value(G)
        assert in_theorem_regime(max(G.degrees), G.max_mult, sl.girth(G), chi)
        reduced = sl.extract_critical(G)
        H = sl.induced(reduced, [v for v in range(G.n) if reduced.degrees[v]])
        assert sl.is_critical(H)
        assert sl.is_ring_graph(H) and H.n % 2 == 1
        assert chromatic_index_value(H) == chi
        assert sl.canonical_form(H) == sl.canonical_form(core)  # up to rotation


class TestHypothesisWitnesses:
    """Each hypothesis of the main theorem is needed: without it, a graph that
    meets the others need not be an odd ring."""

    def test_chi_at_least_delta_plus_2_is_needed(self):
        # a record of the girth >= 5 corpus: critical, g = 5, and it attains
        # Steffen's bound, but with chi' = Delta + 1
        G = graph_from_key("07.010000000100010000000102000000000100010200")
        assert (sl.girth(G), max(G.degrees), G.max_mult) == (5, 3, 2)
        chi = chromatic_index_value(G)
        assert sl.steffen_bound(G) == chi == max(G.degrees) + 1 == 4
        assert sl.is_critical(G)
        assert not sl.is_ring_graph(G)

    def test_girth_at_least_5_is_needed(self):
        # one of the fewest-copy (28) critical classes on 7 vertices with
        # girth 4: chi' = Delta + 2 reaches Steffen's bound, and it is no ring
        G = graph_from_key("07.010003000004000003040003000401020000000300")
        assert (sl.girth(G), max(G.degrees), G.max_mult, G.n) == (4, 8, 4, 7)
        chi = chromatic_index_value(G)
        assert sl.steffen_bound(G) == chi == max(G.degrees) + 2 == 10
        assert sl.is_critical(G)
        assert not sl.is_ring_graph(G)
        # girth is the only hypothesis of the theorem that fails
        assert in_theorem_regime(8, 4, 5, 10) and not in_theorem_regime(8, 4, 4, 10)


class TestRingClosedForm:
    """The closed-form search finds the solver search's ring for every target."""

    @staticmethod
    def assert_same(graphs) -> int:
        pairs = 0
        for G in graphs:
            if sl.girth(G) == sl.INFINITE_GIRTH:
                continue
            delta_max = max(G.degrees)
            for target in range(delta_max - 1, delta_max + G.max_mult + 1):
                got = sl.find_ring_subgraph_with_chi(G, target)
                assert got == find_ring_by_solver(G, target), (sl.serialize(G), target)
                pairs += 1
        return pairs

    def test_full6_shaped_corpus(self):
        spec = EnumSpec(n_min=1, n_max=5, max_mu=3, girth_min=3, max_edge_copies=12)
        assert self.assert_same(G for _, G in enumerate_with_keys(spec)) > 1000

    def test_random_multigraphs(self):
        rng = random.Random(82)
        graphs = [sl.random_multigraph(rng, n_max=7, mu_max=4) for _ in range(200)]
        assert self.assert_same(graphs) > 300

    def test_huge_multiplicity_steps_down_at_once(self):
        # stepping off one copy at a time would take 10^20 steps
        G = sl.build(3, [(0, 1, 10**20), (1, 2, 1), (0, 2, 1)])
        assert sl.find_ring_subgraph_with_chi(G, 5).multiplicities == (3, 1, 1)
        assert sl.find_ring_subgraph_with_chi(G, 3).multiplicities == (1, 1, 1)
        assert sl.find_ring_subgraph_with_chi(G, 2) is None

    def test_closed_form_on_every_small_ring(self):
        # every multiplicity vector, not only one per rotation and reflection:
        # 3,779 rings, odd and even
        vectors = [(g, mults) for g in range(3, 8) for mults in product(range(1, 4), repeat=g)]
        vectors += [(9, mults) for mults in product(range(1, 3), repeat=9)]
        assert len(vectors) == 3779
        for g, mults in vectors:
            assert _ring_chi(mults) == chromatic_index_value(sl.ring(g, mults)), mults


class TestEvenRingsBipartite:
    def test_fifty_even_rings(self):
        rng = random.Random(2024)
        for _ in range(50):
            g = rng.choice([4, 6, 8])
            mults = [rng.randint(1, 4) for _ in range(g)]
            R = sl.ring(g, mults)
            chi, w = sl.chromatic_index(R)
            assert chi == max(R.degrees)
            assert sl.validate_coloring(R, w)
