import io
import json
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

import steffenlab as sl
from steffenlab.cli import cli_main
from steffenlab.coloring import _less_one_copy
from steffenlab.errors import (
    GraphError,
    LoopRejected,
    NonPositiveMultiplicity,
    ParseError,
    VertexOutOfRange,
)
from steffenlab.multigraph import Value
from oracles import minus_one_copy


def triples(n_max=7, mu_max=4):
    def to_edges(pairs):
        return pairs

    return st.integers(min_value=2, max_value=n_max).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, mu_max)
                ).filter(lambda t: t[0] != t[1]),
                max_size=12,
            ),
        )
    )


class TestBuild:
    def test_single_pair(self):
        G = sl.build(2, [(0, 1, 3)])
        assert G.edge_count == 3
        assert G.max_mult == 3

    def test_mu_cycle_by_hand(self):
        G = sl.build(5, [(i, (i + 1) % 5, 3) for i in range(5)])
        assert G.edge_count == 15
        assert G == sl.mu_cycle(5, 3)

    def test_loop_rejected(self):
        with pytest.raises(LoopRejected):
            sl.build(3, [(0, 0, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            sl.build(2, [(0, 2, 1)])

    def test_nonpositive_multiplicity(self):
        with pytest.raises(NonPositiveMultiplicity):
            sl.build(2, [(0, 1, 0)])

    def test_repeated_pairs_accumulate(self):
        G = sl.build(3, [(0, 1, 1), (1, 0, 2)])
        assert G.mult(0, 1) == 3

    @given(triples())
    @settings(max_examples=80, deadline=None)
    def test_handshake(self, data):
        n, edges = data
        G = sl.build(n, edges)
        assert sum(G.degrees) == 2 * G.edge_count


class TestBasicInvariants:
    """The degree, size and multiplicity values that `invariants` prints."""

    @pytest.fixture()
    def invariants(self, capsys, monkeypatch):
        def run(G):
            monkeypatch.setattr("sys.stdin", io.StringIO(sl.serialize(G)))
            assert cli_main(["invariants", "-"]) == 0
            return json.loads(capsys.readouterr().out)

        return run

    def test_3c5(self, invariants):
        assert list(invariants(sl.mu_cycle(5, 3)).items()) == [
            ("n", 5), ("m", 15), ("Delta", 6), ("delta", 6), ("mu", 3), ("deltaSimple", 2),
            ("girth", 5), ("gamma", 8), ("steffenBound", 8),
        ]

    def test_2k5(self, invariants):
        assert invariants(sl.mu_complete(5, 2)) == {
            "n": 5, "m": 20, "Delta": 8, "delta": 8, "mu": 2, "deltaSimple": 4,
            "girth": 3, "gamma": 10, "steffenBound": 10,
        }

    def test_single_vertex(self, invariants):
        assert invariants(sl.build(1, [])) == {
            "n": 1, "m": 0, "Delta": 0, "delta": 0, "mu": 0, "deltaSimple": 0,
            "girth": None, "gamma": 0, "steffenBound": 0,
        }

    def test_ordering_chain(self, invariants):
        inv = invariants(sl.build(4, [(0, 1, 3), (1, 2, 1)]))
        assert (inv["Delta"], inv["delta"], inv["mu"], inv["deltaSimple"]) == (4, 0, 3, 0)
        assert inv["deltaSimple"] <= inv["delta"] <= inv["Delta"] <= inv["m"]
        assert inv["mu"] <= inv["Delta"]


def simple_pairs(G):
    """The pairs u < v of G's underlying simple graph, read from its neighbour sets."""
    return sorted((u, v) for u in range(G.n) for v in G.adj[u] if u < v)


class TestUnderlyingSimple:
    def test_3c5_gives_c5(self):
        assert simple_pairs(sl.mu_cycle(5, 3)) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_2k5_gives_k5(self):
        assert len(simple_pairs(sl.mu_complete(5, 2))) == 10

    def test_path_shape(self):
        G = sl.build(3, [(0, 1, 3), (1, 2, 1)])
        assert simple_pairs(G) == [(0, 1), (1, 2)]
        assert G.adj == (frozenset({1}), frozenset({0, 2}), frozenset({1}))


class TestRemoveEdges:
    """G - e as `coloring._less_one_copy` forms it: one copy of pair i fewer,
    with the degree vector of the result."""

    @staticmethod
    def less_one_copy(G, i):
        edges, degrees = _less_one_copy(G.edges, G.degrees, i)
        H = sl.Multigraph(G.n, edges)
        assert degrees == list(H.degrees)
        return H

    def test_partial_removal(self):
        G = self.less_one_copy(sl.mu_cycle(5, 3), 0)  # pair 0 is (0, 1)
        assert G.edge_count == 14
        assert G.mult(0, 1) == 2

    def test_full_removal_drops_pair(self):
        G = self.less_one_copy(sl.ring(5, [1, 3, 3, 3, 3]), 0)
        assert G.mult(0, 1) == 0
        assert simple_pairs(G) == [(0, 4), (1, 2), (2, 3), (3, 4)]

    @given(triples())
    @settings(max_examples=60, deadline=None)
    def test_degrees_untouched_elsewhere(self, data):
        n, edges = data
        G = sl.build(n, edges)
        for i, (u, v, m) in enumerate(G.edges):
            H = self.less_one_copy(G, i)
            assert H == minus_one_copy(G, u, v)
            assert H.mult(u, v) == m - 1
            assert [e for e in H.edges if e[:2] != (u, v)] == [*G.edges[:i], *G.edges[i + 1 :]]
            for w in range(n):
                assert H.degrees[w] == G.degrees[w] - (w in (u, v))


class TestInduced:
    def test_path_of_3c5(self):
        H = sl.induced(sl.mu_cycle(5, 3), {0, 1, 2})
        assert H.edges == ((0, 1, 3), (1, 2, 3))

    def test_2k3_inside_2k5(self):
        H = sl.induced(sl.mu_complete(5, 2), {0, 1, 2})
        assert H == sl.mu_complete(3, 2)

    def test_identity(self):
        G = sl.mu_cycle(5, 3)
        assert sl.induced(G, range(5)) == G

    def test_bad_vertex(self):
        with pytest.raises(VertexOutOfRange):
            sl.induced(sl.mu_cycle(5, 3), {0, 9})

    @given(triples())
    @settings(max_examples=60, deadline=None)
    def test_multiplicities_preserved(self, data):
        n, edges = data
        G = sl.build(n, edges)
        S = sorted(range(0, n, 2))
        H = sl.induced(G, S)
        relabel = {v: i for i, v in enumerate(S)}
        for u, v, m in G.edges:
            if u in relabel and v in relabel:
                assert H.mult(relabel[u], relabel[v]) == m


class TestSerialization:
    def test_parse_simple(self):
        G = sl.parse("n 2\ne 0 1 3\n")
        assert G == sl.build(2, [(0, 1, 3)])

    def test_serialize_orders_endpoints(self):
        assert sl.serialize(sl.build(2, [(1, 0, 2)])) == "n 2\ne 0 1 2\n"

    def test_comments_and_blanks(self):
        G = sl.parse("# a comment\n\nn 3\ne 0 1 1\n# trailing\n")
        assert G.edge_count == 1

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            sl.parse("n 2\ne 0 2 1\n")

    def test_loop(self):
        with pytest.raises(LoopRejected):
            sl.parse("n 2\ne 1 1 1\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            sl.parse("n 2\nq 0 1 1\n")
        assert err.value.line == 2

    def test_missing_n(self):
        with pytest.raises(ParseError):
            sl.parse("e 0 1 1\n")

    def test_json_roundtrip(self):
        G = sl.mu_cycle(5, 3)
        assert sl.from_json_obj(json.loads(json.dumps(sl.to_json_obj(G)))) == G

    @pytest.mark.parametrize(
        "obj",
        [{"n": 3}, {"edges": []}, {"n": 3, "edges": [[0, 1]]}, {"n": 3, "edges": [None]},
         {"n": "x", "edges": []}, {"n": 3, "edges": 5}],
    )
    def test_malformed_json_graph(self, obj):
        with pytest.raises(ParseError):
            sl.from_json_obj(obj)
        with pytest.raises(ParseError):
            sl.parse_any(json.dumps(obj))

    @pytest.mark.parametrize(
        "obj, field",
        [
            ({"n": 2.7, "edges": []}, "n"),
            ({"n": 3, "edges": [[0, True, 1]]}, "edges[0] v"),
            ({"n": 3, "edges": [[0, 1, 1], [1, 2, 1.9]]}, "edges[1] mult"),
            ({"n": "3", "edges": []}, "n"),
        ],
    )
    def test_json_graph_numbers_must_be_integers(self, obj, field):
        # int() would turn each of these into a graph: 2.7 -> 2, true -> 1,
        # 1.9 -> 1 and "3" -> 3
        with pytest.raises(ParseError, match=f"field {re.escape(field)} is not an integer"):
            sl.parse_any(json.dumps(obj))

    def test_parse_any_bad_json(self):
        with pytest.raises(ParseError):
            sl.parse_any('{"n": 3, "edges": [[0, 1')

    def test_parse_any_detects_json(self):
        G = sl.mu_cycle(3, 2)
        assert sl.parse_any(json.dumps(sl.to_json_obj(G))) == G
        assert sl.parse_any(sl.serialize(G)) == G

    @given(triples())
    @settings(max_examples=80, deadline=None)
    def test_text_roundtrip(self, data):
        n, edges = data
        G = sl.build(n, edges)
        assert sl.parse(sl.serialize(G)) == G
        # bit-exact: serializing the parse reproduces the text
        assert sl.serialize(sl.parse(sl.serialize(G))) == sl.serialize(G)


# endpoint and multiplicity fields that break the triple contract as often
# as they keep it: loops, endpoints outside 0..n-1, and zero, negative or
# non-integer multiplicities
MGR_FIELDS = st.one_of(st.integers(-2, 6), st.sampled_from(["1.5", "x", "0x1", "1e3"]))
JSON_FIELDS = st.one_of(
    st.integers(-2, 6), st.sampled_from([1.5, 2.0, "1", True, None, [1]])
)


@st.composite
def graph_texts(draw) -> str:
    """MGR or JSON graph text with any mix of valid and invalid triples."""
    n = draw(st.integers(-1, 5))
    if draw(st.booleans()):
        edges = draw(st.lists(st.lists(JSON_FIELDS, min_size=3, max_size=3), max_size=5))
        return json.dumps({"n": n, "edges": edges})
    edges = draw(st.lists(st.tuples(MGR_FIELDS, MGR_FIELDS, MGR_FIELDS), max_size=5))
    return "".join([f"n {n}\n"] + [f"e {u} {v} {m}\n" for u, v, m in edges])


class TestParseAnyContract:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(graph_texts(), st.text(max_size=200)))
    def test_graph_or_graph_error(self, text):
        try:
            G = sl.parse_any(text)
        except GraphError as exc:
            if not text.lstrip().startswith("{") and isinstance(
                exc, (LoopRejected, VertexOutOfRange, NonPositiveMultiplicity)
            ):
                # an MGR triple error names its line
                assert re.match(r"line \d+: ", str(exc))
            return
        assert isinstance(G, sl.Multigraph)
        assert all(0 <= u < v < G.n and m > 0 for u, v, m in G.edges)

    @pytest.mark.parametrize(
        "triple, error",
        [
            ((1, 1, 2), LoopRejected),
            ((0, 3, 1), VertexOutOfRange),
            ((-1, 2, 1), VertexOutOfRange),
            ((0, 1, 0), NonPositiveMultiplicity),
            ((0, 2, -4), NonPositiveMultiplicity),
        ],
    )
    def test_every_input_checks_the_triple(self, triple, error):
        u, v, m = triple
        with pytest.raises(error, match=r"^line 2: "):
            sl.parse_any(f"n 3\ne {u} {v} {m}\n")
        with pytest.raises(error):
            sl.parse_any(json.dumps({"n": 3, "edges": [list(triple)]}))
        with pytest.raises(error):
            sl.build(3, [triple])
        with pytest.raises(error):
            sl.Multigraph(3, (triple,))

    @pytest.mark.parametrize(
        "edges", [((1, 0, 1),), ((0, 1, 1), (0, 1, 2)), ((1, 2, 1), (0, 1, 1))]
    )
    def test_graph_value_edges_sorted_and_unique(self, edges):
        with pytest.raises(VertexOutOfRange, match="not sorted/unique"):
            sl.Multigraph(3, edges)


# one value of each `Value` class, made by position as the package makes them
_C5 = sl.CycleSeq((0, 1, 2, 3, 4))
VALUES = [
    sl.mu_cycle(5, 3),
    sl.CycleSeq((0, 1, 2)),
    sl.EdgeColoring(1, ((((0, 1), 0), 1),)),
    sl.DensityWitness(8, (0, 1, 2, 3, 4)),
    sl.ShortCycleViolation(1, (0, 1, 2, 3, 4), 2, 1),
    sl.MatchingDecomposition((((0, 1),), ((1, 2),), ((0, 2),)), (2, 0, 1)),
    sl.DegreeIdentityReport((0, 0, 0), "not-applicable"),
    sl.CyclePartition((_C5,), frozenset({5})),
    sl.Fan(5, 0, ((5, 0), (5, 6, 2))),
    sl.RingSubgraph(_C5, (3, 3, 3, 3, 3), 8),
]


class TestGraphValue:
    """A graph is checked, and its counts set, as it is made."""

    @pytest.mark.parametrize(
        "n, edges, error, message",
        [
            (3, ((1, 1, 2),), LoopRejected, "loop at vertex 1"),
            (3, ((0, 3, 1),), VertexOutOfRange, "edge (0, 3) outside 0..2"),
            (3, ((0, 1, 0),), NonPositiveMultiplicity, "edge (0, 1) has multiplicity 0"),
            (3, ((1, 0, 1),), VertexOutOfRange, "edge list not sorted/unique at (1, 0)"),
            (3, ((1, 2, 1), (0, 1, 1)), VertexOutOfRange, "edge list not sorted/unique at (0, 1)"),
            (-1, (), VertexOutOfRange, "negative vertex count -1"),
        ],
    )
    def test_bad_triples_keep_their_messages(self, n, edges, error, message):
        with pytest.raises(error) as info:
            sl.Multigraph(n, edges)
        assert str(info.value) == message

    def test_counts_come_from_the_triples(self):
        # the largest multiplicity is not the last one
        G = sl.Multigraph(4, ((0, 1, 3), (1, 2, 1), (2, 3, 2)))
        assert (G.degrees, G.edge_count, G.max_mult) == ((3, 4, 3, 2), 6, 3)
        empty = sl.Multigraph(2, ())
        assert (empty.degrees, empty.edge_count, empty.max_mult) == ((0, 0), 0, 0)

    def test_derived_values_are_not_arguments(self):
        # a memo passed in would be trusted as this graph's girths and Gamma
        with pytest.raises(TypeError):
            sl.Multigraph(2, (), {})
        with pytest.raises(TypeError):
            sl.Multigraph(2, (), memo={})
        with pytest.raises(TypeError):
            sl.Multigraph(2, (), degrees=(0, 0))

    @pytest.mark.parametrize(
        "value, name",
        [
            (sl.mu_cycle(5, 3), "edges"),
            (sl.mu_cycle(5, 3), "memo"),
            *((value, value._fields[0]) for value in VALUES[1:]),
        ],
        ids=["Multigraph.edges", "Multigraph.memo", *(type(v).__name__ for v in VALUES[1:])],
    )
    def test_fields_refuse_assignment(self, value, name):
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before

    def test_one_value_of_each_class(self):
        assert sorted(type(v).__name__ for v in VALUES) == sorted(
            cls.__name__ for cls in Value.__subclasses__()
        )

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_values_are_made_compared_shown_and_pickled_by_their_fields(self, value):
        cls, fields = type(value), [getattr(value, name) for name in value._fields]
        twin = cls(*fields)
        assert twin == value and hash(twin) == hash(value)
        # another class with the same fields, or any one field changed, is unequal
        assert type("Other", (cls,), {})(*fields) != value
        for i in range(len(fields)):
            changed = cls.__new__(cls)
            Value.__init__(changed, *fields[:i], object(), *fields[i + 1:])
            assert changed != value
        shown = ", ".join(f"{name}={field!r}" for name, field in zip(value._fields, fields))
        assert repr(value) == f"{cls.__name__}({shown})"
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is cls and copy == value
        with pytest.raises(TypeError):
            cls(*fields, None)
        with pytest.raises(TypeError):
            cls(*fields[:-1])
