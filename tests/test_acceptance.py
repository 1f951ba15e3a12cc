"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full corpus scans are shared across criteria via session fixtures.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

import steffenlab as sl
from steffenlab.generators import EnumSpec, enumerate_with_keys, graph_from_key
from steffenlab.scan import ScanConfig, run_lemma_suite, run_scan
from oracles import brute_force_chi

GOLDEN_DIR = Path(__file__).parent / "data"

WORKERS = 2


def _ceil_div(a, b):
    return -(-a // b)


@pytest.fixture(scope="session")
def full6_scan(tmp_path_factory):
    """Criteria 3/4/6 corpus: every multigraph with n <= 6, mu <= 3, <= 12 copies."""
    out = tmp_path_factory.mktemp("scan") / "full6.jsonl"
    spec = EnumSpec(n_min=1, n_max=6, max_mu=3, girth_min=3, max_edge_copies=12)
    cfg = ScanConfig(enum_spec=spec, output_path=str(out), workers=WORKERS)
    summary = run_scan(cfg)
    assert summary.total == 18207
    records = [json.loads(line) for line in open(out, encoding="utf-8")]
    return cfg, summary, records


@pytest.fixture(scope="session")
def girth5_scan(tmp_path_factory):
    """Criterion 5 corpus: n <= 8, girth >= 5, mu <= 4, <= 16 copies.

    Acyclic graphs are excluded: bipartite graphs have chi' = Delta, so they
    can never reach Delta + ceil(mu/2) >= Delta + 2 and never fire the gate.
    """
    out = tmp_path_factory.mktemp("scan") / "girth5.jsonl"
    spec = EnumSpec(
        n_min=5, n_max=8, max_mu=4, girth_min=5, max_edge_copies=16, require_cycle=True
    )
    cfg = ScanConfig(enum_spec=spec, output_path=str(out), workers=WORKERS)
    summary = run_scan(cfg)
    assert summary.total == 127705
    records = [json.loads(line) for line in open(out, encoding="utf-8")]
    return cfg, summary, records


def test_criterion_1_mu_cycle_formula():
    for g in (3, 5, 7):
        for mu in (1, 2, 3, 4):
            want = 2 * mu + _ceil_div(mu, g // 2)
            chi, witness = sl.chromatic_index(sl.mu_cycle(g, mu))
            assert chi == want, f"mu_cycle({g},{mu}): chi'={chi}, expected {want}"
            assert sl.validate_coloring(sl.mu_cycle(g, mu), witness)
    print("PASS criterion 1: chi'(mu_cycle(g,mu)) = 2mu + ceil(mu/floor(g/2)) on g in {3,5,7}, mu in 1..4")


def test_criterion_2_mu_complete_values():
    cases = [
        (sl.mu_complete(3, 1), 3),
        (sl.mu_complete(3, 2), 6),
        (sl.mu_complete(3, 3), 9),
        (sl.mu_complete(5, 1), 5),
        (sl.mu_complete(5, 2), 10),
    ]
    for G, want in cases:
        chi, witness = sl.chromatic_index(G, mode="search")
        assert chi == want
        assert sl.validate_coloring(G, witness)
    # the density fast path must agree with the direct 10-coloring of 2K_5
    G = sl.mu_complete(5, 2)
    chi_gs, witness_gs = sl.chromatic_index(G, mode="gs")
    assert chi_gs == 10
    assert sl.validate_coloring(G, witness_gs)
    direct = sl.is_k_colorable(G, 10)
    assert direct is not None and sl.validate_coloring(G, direct)
    assert sl.is_k_colorable(G, 9) is None
    print("PASS criterion 2: chi'(mu K_n) = mu*n on K_3/2K_3/3K_3/K_5/2K_5; gs mode agrees with direct witness")


def test_criterion_3_steffen_inequality(full6_scan):
    _, summary, records = full6_scan
    assert summary.total == len(records) > 18000
    assert summary.timeouts == 0
    assert summary.steffen_violations == []
    assert summary.theorem_violations == []
    for record in records:
        assert record["chi"] <= record["steffenBound"]
    print(f"PASS criterion 3: 0 girth-bound violations over {summary.total} graphs (n<=6, mu<=3, <=12 copies)")


def test_criterion_4_goldberg_seymour(full6_scan):
    _, summary, records = full6_scan
    assert summary.gs_violations == []
    hit = 0
    for record in records:
        if record["chi"] >= record["Delta"] + 2:
            hit += 1
            assert record["chi"] == record["gamma"]
    assert hit > 0
    print(f"PASS criterion 4: chi' = density on all {hit} graphs with chi' >= Delta+2; 0 violations")


def test_criterion_5_ring_containment(girth5_scan):
    _, summary, records = girth5_scan
    assert summary.timeouts == 0
    assert summary.ring_violations == []
    assert summary.theorem_violations == []
    fired = 0
    for record in records:
        if record["mu"] >= 3 and record["chi"] == record["Delta"] + _ceil_div(record["mu"], 2):
            fired += 1
            assert record["ringFound"] is True
            witness = record["ringWitness"]
            assert witness is not None
            ring = sl.ring(len(witness["cycle"]), witness["multiplicities"])
            assert sl.chromatic_index(ring)[0] == record["chi"] == witness["chi"]
    assert fired == summary.ring_gate_fired > 0
    print(
        f"PASS criterion 5: ring subgraph found for all {fired} bound-achievers with mu >= 3 "
        f"over {summary.total} graphs (n<=8, girth>=5, mu<=4, <=16 copies); 0 counterexamples"
    )


# sha256 of each corpus report; the worker count only picks the `map` that
# computes the records, so every count writes these bytes
REPORT_SHA256 = {
    "full6": "f85c57e95de447d4e687e84d4993811f8d63ab0c283d8a26f2fcb8e152b5b812",
    "girth5": "a2fa0b0b0160bf8fc179ee6c18739c5adad7c521fcb4bbad68bfba7a76d52597",
}


def test_reports_keep_their_bytes(full6_scan, girth5_scan):
    for name, (cfg, _, _) in (("full6", full6_scan), ("girth5", girth5_scan)):
        digest = hashlib.sha256(Path(cfg.output_path).read_bytes()).hexdigest()
        assert digest == REPORT_SHA256[name], name


def test_theorem_verdict_reads_girth_and_n(full6_scan):
    # the scan judges "odd ring" from a record's fields: girth == n exactly
    # when the underlying simple graph is one cycle through every vertex
    _, _, records = full6_scan
    rings = 0
    for record in records:
        ring = sl.is_ring_graph(graph_from_key(record["graphKey"]))
        assert ring == (record["girth"] == record["n"]), record["graphKey"]
        rings += ring
    assert rings == 120


def test_criterion_6_matching_decompositions(full6_scan, tmp_path):
    cfg, _, records = full6_scan
    extras = tuple(
        sl.serialize(G)
        for G in (sl.mu_cycle(5, 3), sl.mu_complete(3, 3), sl.mu_complete(3, 5))
    )
    suite_cfg = ScanConfig(
        enum_spec=cfg.enum_spec,
        output_path=str(tmp_path / "suite.json"),
        extra_graphs=extras,
        random_graphs=0,
        workers=WORKERS,
    )
    report = run_lemma_suite(suite_cfg, 0)
    stats = report["criticalSuite"]
    assert report["violations"] == []
    assert stats["criticalHighChi"] >= 6  # 4 triangle classes + 3C_5 + 5K_3 at least
    assert stats["decompositionsChecked"] >= stats["criticalHighChi"]
    assert stats["residualVectorsChecked"] == stats["criticalHighChi"]

    # spot checks on the named instances
    for G in (sl.mu_cycle(5, 3), sl.mu_complete(3, 3), sl.mu_complete(3, 5)):
        chi = sl.chromatic_index(G)[0]
        assert G.n % 2 == 1
        assert sl.is_critical(G, chi=chi)
        for u, v, _ in G.edges:
            dec = sl.near_perfect_matching_decomposition(G, (u, v), assume_critical=True, chi=chi)
            assert len(dec.classes) == chi - 1
            assert all(len(cls) == (G.n - 1) // 2 for cls in dec.classes)
        identity = sl.degree_identity_check(G, chi=chi, check_critical=False)
        assert all(r == 0 for r in identity.residuals)
        assert identity.min_degree_bound in ("holds", "not-applicable")
    count = stats["criticalHighChi"]
    print(f"PASS criterion 6: decomposition + degree identity + min-degree bound clean on {count} critical graphs")


@pytest.mark.parametrize("workers", [1, 2])
def test_criterion_7_property_suites_golden(tmp_path, workers):
    cfg = ScanConfig(
        enum_spec=EnumSpec(n_min=3, n_max=3, max_mu=3, girth_min=3, max_edge_copies=9),
        output_path=str(tmp_path / "lemma42.json"),
        random_graphs=1000,
        random_n_max=12,
        random_mu_max=3,
        workers=workers,
    )
    report = run_lemma_suite(cfg, 42)
    assert report["violationCount"] == 0
    stats = report["randomSuite"]
    assert stats["graphs"] == 1000
    assert stats["partitionsVerified"] == 1000
    assert stats["clauseViolations"] == 0
    assert stats["fanBoundViolations"] == 0
    assert stats["fanCapViolations"] == 0
    golden = GOLDEN_DIR / "lemma_suite_seed42.json"
    assert golden.exists(), "golden report missing; regenerate via tools in README"
    assert Path(cfg.output_path).read_bytes() == golden.read_bytes()
    print(f"PASS criterion 7: 1000-graph property suite clean; seed-42 report at workers {workers} matches the golden file byte for byte")


def test_criterion_8_solver_oracle_sweep():
    spec = EnumSpec(n_min=1, n_max=6, max_mu=8, girth_min=3, max_edge_copies=8)
    total = 0
    for _, G in enumerate_with_keys(spec):
        total += 1
        assert sl.chromatic_index(G)[0] == brute_force_chi(G), sl.serialize(G)
    assert total > 1200
    print(f"PASS criterion 8: solver equals k^|E| brute force on all {total} multigraphs with n<=6, <=8 copies")


def test_criterion_9_even_rings_bipartite():
    rng = random.Random(2024)
    for i in range(50):
        g = rng.choice([4, 6, 8])
        mults = [rng.randint(1, 4) for _ in range(g)]
        R = sl.ring(g, mults)
        chi, witness = sl.chromatic_index(R)
        assert chi == max(R.degrees), f"even ring {mults}: chi'={chi} != Delta"
        assert sl.validate_coloring(R, witness)
    print("PASS criterion 9: chi' = Delta exactly on 50 seeded even rings (g in {4,6,8})")
