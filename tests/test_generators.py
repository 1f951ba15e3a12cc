import itertools
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import steffenlab as sl
from steffenlab.errors import BadParameter, InstanceTooLarge, ParseError
from steffenlab.generators import (
    EnumSpec,
    _simple_graphs,
    class_keys,
    enumerate_with_keys,
    graph_from_key,
    simple_representatives,
)
from steffenlab.invariants import is_bipartite, odd_set_table, table_gamma
from oracles import (
    aut_edge_perms,
    canonical_labeling,
    canonicalize,
    edge_automorphisms_by_backtrack,
    enumerate_by_dedup,
    odd_set_table_by_definition,
)


class TestFamilies:
    def test_mu_cycle_53(self):
        G = sl.mu_cycle(5, 3)
        assert (max(G.degrees), G.max_mult) == (6, 3)
        assert sl.girth(G) == 5
        assert sl.chromatic_index(G)[0] == 8

    def test_mu_cycle_35_is_5k3(self):
        assert sl.mu_cycle(3, 5) == sl.mu_complete(3, 5)
        assert sl.chromatic_index(sl.mu_cycle(3, 5))[0] == 15

    def test_mu_cycle_62_bipartite(self):
        G = sl.mu_cycle(6, 2)
        assert sl.chromatic_index(G)[0] == 4 == max(G.degrees)

    def test_mu_cycle_invariants(self):
        for g in (3, 4, 5, 6, 7):
            for mu in (1, 2, 3):
                G = sl.mu_cycle(g, mu)
                assert max(G.degrees) == min(G.degrees) == 2 * mu
                assert G.max_mult == mu
                assert sl.girth(G) == g

    def test_mu_complete(self):
        assert sl.chromatic_index(sl.mu_complete(5, 2))[0] == 10
        assert sl.chromatic_index(sl.mu_complete(3, 1))[0] == 3
        assert sl.chromatic_index(sl.mu_complete(2, 4))[0] == 4

    def test_ring_equivalence(self):
        assert sl.ring(5, [3, 3, 3, 3, 3]) == sl.mu_cycle(5, 3)

    def test_ring_examples(self):
        G = sl.ring(5, [2, 1, 2, 1, 2])
        assert (max(G.degrees), G.edge_count) == (4, 8)
        assert sl.density(G).gamma == 4
        assert sl.chromatic_index(G)[0] == 4
        H = sl.ring(3, [1, 1, 2])
        assert max(H.degrees) == 3
        assert sl.chromatic_index(H)[0] == 4

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            sl.mu_cycle(2, 1)
        with pytest.raises(BadParameter):
            sl.mu_complete(1, 1)
        with pytest.raises(BadParameter, match=r"got g=4 and 3 multiplicities"):
            sl.ring(4, [1, 1, 1])


def _icosahedron() -> sl.Multigraph:
    # apex 0, upper pentagon 1..5, lower pentagon 6..10, apex 11
    pairs = []
    for i in range(5):
        j = (i + 1) % 5
        pairs += [(0, 1 + i), (6 + i, 11), (1 + i, 1 + j), (6 + i, 6 + j), (1 + i, 6 + i), (1 + i, 6 + j)]
    return sl.build(12, [(min(a, b), max(a, b), 1) for a, b in pairs])


# fully or highly symmetric graphs at the canonical cap n = 12
SYMMETRIC_12 = {
    "K12 mu 2": sl.mu_complete(12, 2),
    "K6,6": sl.build(12, [(a, b, 1) for a in range(6) for b in range(6, 12)]),
    "C12": sl.mu_cycle(12, 1),
    "3K4": sl.build(
        12, [(4 * k + a, 4 * k + b, 1) for k in range(3) for a in range(4) for b in range(a + 1, 4)]
    ),
    "icosahedron": _icosahedron(),
}


class TestCanonicalForm:
    def test_relabelings_collide(self):
        rng = random.Random(6)
        for _ in range(60):
            G = sl.random_multigraph(rng, n_max=7, mu_max=3)
            perm = list(range(G.n))
            rng.shuffle(perm)
            H = sl.build(G.n, [(perm[u], perm[v], m) for u, v, m in G.edges])
            assert sl.canonical_form(G) == sl.canonical_form(H)

    def test_rotation_detected(self):
        a = sl.ring(5, [2, 1, 1, 1, 1])
        b = sl.ring(5, [1, 2, 1, 1, 1])
        assert sl.canonical_form(a) == sl.canonical_form(b)

    def test_distinct_multisets_distinct(self):
        a = sl.ring(5, [2, 1, 1, 1, 1])
        b = sl.ring(5, [2, 2, 1, 1, 1])
        assert sl.canonical_form(a) != sl.canonical_form(b)

    def test_reflection_detected(self):
        a = sl.ring(6, [1, 2, 3, 1, 1, 1])
        b = sl.ring(6, [3, 2, 1, 1, 1, 1])
        assert sl.canonical_form(a) == sl.canonical_form(b)

    def test_nonisomorphic_same_degrees(self):
        # C_6 vs two triangles: both 2-regular
        c6 = sl.mu_cycle(6, 1)
        twok3 = sl.build(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        assert sl.canonical_form(c6) != sl.canonical_form(twok3)

    def test_cap(self):
        with pytest.raises(InstanceTooLarge):
            sl.canonical_form(sl.build(13, [(0, 1, 1)]))

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_12))
    def test_symmetric_graphs_at_the_cap(self, name):
        G = SYMMETRIC_12[name]
        start = time.monotonic()
        key = sl.canonical_form(G)
        assert time.monotonic() - start < 1.0
        rng = random.Random(name)
        perm = list(range(G.n))
        rng.shuffle(perm)
        H = sl.build(G.n, [(perm[u], perm[v], m) for u, v, m in G.edges])
        assert sl.canonical_form(H) == key

    def test_matches_oracle_on_random_multigraphs(self):
        rng = random.Random(12)
        for _ in range(3000):
            G = sl.random_multigraph(rng, n_max=10, mu_max=rng.choice((1, 2, 4)))
            assert sl.canonical_form(G) == canonical_labeling(G)[0], G

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.sampled_from((0, 0, 0, 1, 2, 3, 4)),
                    min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2,
                ),
                st.permutations(range(n)),
            )
        )
    )
    def test_relabeling_and_oracle_property(self, drawn):
        mults, perm = drawn
        n = len(perm)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        G = sl.build(n, [(u, v, m) for (u, v), m in zip(pairs, mults) if m])
        H = sl.build(n, [(perm[u], perm[v], m) for u, v, m in G.edges])
        key = sl.canonical_form(G)
        assert sl.canonical_form(H) == key
        assert canonical_labeling(G)[0] == key


class TestSimpleEnumeration:
    def test_known_counts(self):
        assert sum(1 for _ in _simple_graphs(4, 3, 100)) == 11
        assert sum(1 for _ in _simple_graphs(5, 3, 100)) == 34

    def test_girth_filter_prunes(self):
        got = [G for G in _simple_graphs(5, 5, 100) if sl.girth(G) != sl.INFINITE_GIRTH]
        assert len(got) == 1  # only C_5 is cyclic with girth >= 5 on 5 vertices
        assert sl.canonical_form(got[0]) == sl.canonical_form(sl.mu_cycle(5, 1))


class TestEnumerateMultigraphs:
    def test_c5_uniqueness(self):
        spec = EnumSpec(n_min=5, n_max=5, max_mu=1, girth_min=5, require_cycle=True)
        graphs = [G for _, G in enumerate_with_keys(spec)]
        assert len(graphs) == 1
        assert sl.canonical_form(graphs[0]) == sl.canonical_form(sl.mu_cycle(5, 1))

    def test_burnside_count_on_c5(self):
        # multiplicity necklaces over {1,2,3} on C_5 up to dihedral symmetry:
        # (3^5 + 4*3 + 5*3^3) / 10 = 39
        spec = EnumSpec(n_min=5, n_max=5, max_mu=3, girth_min=5, max_edge_copies=15, require_cycle=True)
        graphs = [G for _, G in enumerate_with_keys(spec)]
        assert len(graphs) == 39

    def test_k3_among_cyclic_simple(self):
        spec = EnumSpec(n_min=3, n_max=3, max_mu=1, girth_min=3, require_cycle=True)
        graphs = [G for _, G in enumerate_with_keys(spec)]
        assert len(graphs) == 1
        assert graphs[0] == sl.mu_complete(3, 1)

    def test_keys_unique_and_reproducible(self):
        spec = EnumSpec(n_min=2, n_max=5, max_mu=2, girth_min=3, max_edge_copies=8)
        run1 = list(enumerate_with_keys(spec))
        run2 = list(enumerate_with_keys(spec))
        keys1 = [k for k, _ in run1]
        assert len(keys1) == len(set(keys1))
        assert keys1 == [k for k, _ in run2]

    def test_emitted_graphs_satisfy_spec(self):
        spec = EnumSpec(
            n_min=3, n_max=6, max_mu=2, girth_min=4, max_edge_copies=9, require_cycle=True
        )
        count = 0
        for _, G in enumerate_with_keys(spec):
            count += 1
            assert 3 <= G.n <= 6
            assert G.max_mult <= 2
            assert G.edge_count <= 9
            assert all(d >= 1 for d in G.degrees)
            g = sl.girth(G)
            assert g != sl.INFINITE_GIRTH and g >= 4
        assert count > 10

    def test_relabeled_corpus_same_keys(self):
        spec = EnumSpec(n_min=4, n_max=4, max_mu=2, girth_min=3, max_edge_copies=6)
        rng = random.Random(8)
        for key, G in enumerate_with_keys(spec):
            perm = list(range(G.n))
            rng.shuffle(perm)
            H = sl.build(G.n, [(perm[u], perm[v], m) for u, v, m in G.edges])
            assert sl.canonical_form(H) == key

    def test_connected_only_filter(self):
        spec_all = EnumSpec(n_min=6, n_max=6, max_mu=1, girth_min=3, max_edge_copies=6)
        spec_conn = EnumSpec(
            n_min=6, n_max=6, max_mu=1, girth_min=3, max_edge_copies=6, connected_only=True
        )
        all_count = sum(1 for _ in enumerate_with_keys(spec_all))
        conn_count = sum(1 for _ in enumerate_with_keys(spec_conn))
        assert conn_count < all_count


ORACLE_SPECS = {
    "full6-shaped": EnumSpec(n_min=1, n_max=5, max_mu=3, girth_min=3, max_edge_copies=12),
    "girth5-shaped": EnumSpec(
        n_min=5, n_max=6, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True
    ),
    "connected-only": EnumSpec(
        n_min=2, n_max=6, max_mu=2, girth_min=3, max_edge_copies=8, connected_only=True
    ),
    "acyclic-admitted": EnumSpec(n_min=2, n_max=7, max_mu=2, girth_min=4, max_edge_copies=9),
}


class TestOrbitPruning:
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_matches_dedup_oracle(self, name):
        spec = ORACLE_SPECS[name]
        got = list(enumerate_with_keys(spec))
        assert got == enumerate_by_dedup(spec)
        if name == "acyclic-admitted":
            assert any(sl.girth(G) == sl.INFINITE_GIRTH for _, G in got)

    def test_each_class_canonicalised_once(self, monkeypatch):
        from steffenlab import generators

        spec = ORACLE_SPECS["girth5-shaped"]
        calls = []
        labeling = generators._canonical_key
        monkeypatch.setattr(
            generators, "_canonical_key", lambda n, edges: calls.append(edges) or labeling(n, edges)
        )
        for simple in list(generators.simple_representatives(spec)):
            calls.clear()
            keys = generators.multiplicity_keys(spec, simple)
            assert len(calls) == len(keys) == len(set(keys))

    def test_star_classes_are_multisets(self):
        # Aut(K_{1,9}) has 9! elements; orbits are walked by its generators
        from steffenlab.generators import multiplicity_keys

        star = sl.build(10, [(0, v, 1) for v in range(1, 10)])
        spec = EnumSpec(n_min=10, n_max=10, max_mu=3, max_edge_copies=27)
        keys = multiplicity_keys(spec, star)
        multisets = {tuple(sorted(m for _, _, m in graph_from_key(key).edges)) for key, _ in keys}
        assert len(keys) == len(multisets) == 55
        assert multisets == {
            tuple(sorted(c)) for c in itertools.combinations_with_replacement((1, 2, 3), 9)
        }

    def test_graph_from_key_is_canonical_representative(self):
        rng = random.Random(11)
        for _ in range(80):
            G = sl.random_multigraph(rng, n_max=8, mu_max=4)
            key, rep = canonicalize(G)
            assert graph_from_key(key) == rep
        spec = ORACLE_SPECS["full6-shaped"]
        for key, G in enumerate_with_keys(spec):
            assert canonicalize(G) == (key, G)

    @pytest.mark.parametrize(
        "key",
        ["03.0101010101", "03.01", "03.0101zz", "03.0101  ", "-3.010101010101", "3_0.", "03",
         ""],
    )
    def test_graph_from_key_refuses_a_malformed_key(self, key):
        # a key is n, a dot and exactly n(n-1)/2 hex bytes: a longer body is
        # not silently cut, nor a shorter one an IndexError
        with pytest.raises(ParseError):
            graph_from_key(key)

    @pytest.mark.parametrize(
        "G, order",
        [
            (sl.mu_cycle(5, 1), 10),
            (sl.mu_complete(4, 1), 24),
            (sl.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]), 2),
            (sl.build(6, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (3, 5, 1)]), 8),
            (SYMMETRIC_12["icosahedron"], 120),
        ],
    )
    def test_automorphism_counts(self, G, order):
        perms = aut_edge_perms(G)
        assert len(perms) == order - 1  # the identity is left out
        assert len(set(perms)) == len(perms)
        for perm in perms:
            assert sorted(perm) == list(range(len(G.edges)))

    def test_petersen_automorphisms(self, petersen):
        assert len(aut_edge_perms(petersen)) == 119

    @pytest.mark.parametrize(
        "spec",
        [
            EnumSpec(n_min=1, n_max=6, max_mu=3, girth_min=3, max_edge_copies=12),
            EnumSpec(n_min=5, n_max=8, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True),
        ],
        ids=["full6", "girth5"],
    )
    def test_automorphisms_match_backtrack_oracle(self, spec):
        for S in simple_representatives(spec):
            assert set(aut_edge_perms(S)) == set(edge_automorphisms_by_backtrack(S)), S


class TestKeyCap:
    def test_impossible_multiplicity_rejected_at_once(self):
        with pytest.raises(InstanceTooLarge):
            EnumSpec(n_min=2, n_max=2, max_mu=300, max_edge_copies=300)
        # no pair, no multiplicity
        EnumSpec(n_min=0, n_max=1, max_mu=300, max_edge_copies=300)

    def test_copies_below_the_cap_keep_working(self):
        spec = EnumSpec(n_min=2, n_max=2, max_mu=300, max_edge_copies=16)
        assert len(class_keys(spec)[0]) == 16  # one pair, 1..16 copies


class TestClassKeys:
    @pytest.mark.parametrize("name", ["full6-shaped", "girth5-shaped"])
    def test_same_keys_for_every_map(self, name):
        spec = ORACLE_SPECS[name]
        want = [key for key, _ in enumerate_by_dedup(spec)]
        assert class_keys(spec)[0] == want
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert class_keys(spec, pool.map)[0] == want

    def test_layers_match_fresh_graphs(self):
        # forests, bipartite graphs with cycles and graphs with odd cycles
        spec = EnumSpec(n_min=2, n_max=6, max_mu=2, girth_min=3, max_edge_copies=9)
        keys, layers = class_keys(spec)
        assert len(layers) == len(keys)
        for key, layer in zip(keys, layers):
            G = graph_from_key(key)
            assert G.memo == {}
            assert layer == (sl.girth(G), is_bipartite(G), sl.density(G).gamma), key
        kinds = {(g == sl.INFINITE_GIRTH, bipartite) for g, bipartite, _ in layers}
        assert kinds == {(True, True), (False, True), (False, False)}
        # equal seeds are one tuple, shared by all of their keys
        assert len({id(layer) for layer in layers}) == len(set(layers))
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert class_keys(spec, pool.map) == (keys, layers)


FULL6_SPEC = EnumSpec(n_min=1, n_max=6, max_mu=3, girth_min=3, max_edge_copies=12)
GIRTH5_SPEC = EnumSpec(
    n_min=5, n_max=7, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True
)


def simple_of(G):
    return sl.build(G.n, [(u, v, 1) for u, v, _ in G.edges])


class TestOddSetTable:
    """Gamma read from one table per simple graph against the density kernel,
    and the table's rows against their definition."""

    @pytest.mark.parametrize("spec", [FULL6_SPEC, GIRTH5_SPEC], ids=["full6", "girth5"])
    def test_seeds_match_density_on_every_class(self, spec):
        keys, seeds = class_keys(spec)
        assert len(keys) == {FULL6_SPEC: 18207, GIRTH5_SPEC: 19701}[spec]
        for key, (_, _, gamma) in zip(keys, seeds):
            assert gamma == sl.density(graph_from_key(key)).gamma, key

    def test_seeded_random_multigraphs(self):
        rng = random.Random(20261019)
        for _ in range(2000):
            G = sl.random_multigraph(rng, n_max=9, mu_max=3)
            mults = tuple(m for _, _, m in G.edges)
            assert table_gamma(odd_set_table(simple_of(G)), mults) == sl.density(G).gamma, (
                sl.serialize(G)
            )

    def test_rows_match_definition(self):
        rng = random.Random(5)
        graphs = [*simple_representatives(FULL6_SPEC), *simple_representatives(GIRTH5_SPEC)]
        graphs += [simple_of(sl.random_multigraph(rng, n_max=8, mu_max=1)) for _ in range(200)]
        for S in graphs:
            table = odd_set_table(S)
            rows = {(frozenset(E), d) for E, d in table}
            assert len(rows) == len(table)
            assert rows == odd_set_table_by_definition(S), sl.serialize(S)

    def test_small_and_edgeless_graphs(self):
        assert odd_set_table(sl.build(2, [(0, 1, 1)])) == []
        assert table_gamma([], ()) == 0
        # n >= 3 without pairs: one row with no pair in it
        assert odd_set_table(sl.build(3, [])) == [((), 2)]
        # the triangle plus two isolated vertices keeps d = 2 for its three pairs
        table = odd_set_table(sl.build(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1)]))
        assert table == [((0, 1, 2), 2)]
        assert table_gamma(table, (1, 1, 1)) == 3
