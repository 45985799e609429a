"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The whole file is expected to run in a few minutes.
"""

import contextlib
import math
import random
from fractions import Fraction

import pytest

from conftest import DEMO6_EDGES, brute_connected_sets, cost_of_n, filled_index, random_levels
from vrgc.analysis import kl_divergence, rule_distribution
from vrgc.engine import decode, extract, record_bits, select_best
from vrgc.enumeration import EnumState, ExtractConfig, enumerate_connected_sets
from vrgc.graphs import DiGraph
from vrgc.mdl import (
    BitParams,
    b_application,
    b_graph,
    b_rule,
    compression_rate,
    pcr,
)
from vrgc.rules import RuleLibrary, canonical_code, code_edges
from vrgc.synth import (
    gen_binary_tree,
    gen_er,
    gen_ring_lattice,
    gen_tree_of_rings,
    rewire,
)


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def demo_graph():
    return DiGraph.from_edges(6, DEMO6_EDGES)


def test_criterion_1_lossless_roundtrip():
    with criterion(1, "lossless round-trip on synthetic generators and 50 ER graphs"):
        cfg = ExtractConfig(k_min=2, k_max=3, shortcut_s=1)
        for n in (100, 1000):
            for g in (
                gen_binary_tree(n),
                gen_tree_of_rings(3, 15, n),
                gen_ring_lattice(n, 4),
            ):
                assert decode(extract(g, cfg)) == g
        rng = random.Random(424242)
        for _ in range(50):
            n = rng.randrange(20, 201)
            cap = n * (n - 1) // 10
            m = rng.randrange(0, min(cap, 3 * n) + 1)
            g = gen_er(n, m, rng.randrange(1 << 30))
            assert decode(extract(g, cfg)) == g


def test_criterion_2_running_example_fidelity():
    with criterion(2, "worked-example sets, cost multiset {0,0,1,2}, full collapse"):
        g = demo_graph()
        pairs_cfg = ExtractConfig(k_min=2, k_max=2, shortcut_s=None)
        pairs = set(enumerate_connected_sets(EnumState(g, pairs_cfg)))
        assert pairs == {(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (3, 5)}
        triples_cfg = ExtractConfig(k_min=2, k_max=3, shortcut_s=None)
        sets3 = set(enumerate_connected_sets(EnumState(g, triples_cfg)))
        assert {t for t in sets3 if len(t) == 3} == {
            (0, 1, 2), (0, 1, 3), (1, 2, 3), (1, 3, 4),
            (1, 3, 5), (2, 3, 4), (2, 3, 5), (3, 4, 5),
        }
        state = filled_index(g, pairs_cfg)
        choice = select_best(state)
        costs = sorted(
            c for c, sets in state.tables[choice.code].items() for _ in sets
        )
        assert costs == [0, 0, 1, 2]
        res = extract(demo_graph(), pairs_cfg)
        assert res.residual.num_nodes() == 1
        assert decode(res) == demo_graph()


def test_criterion_3_enumeration_oracle():
    with criterion(3, "enumeration equals brute force on 100 small ER graphs"):
        rng = random.Random(33)
        cfg = ExtractConfig(k_min=2, k_max=5, shortcut_s=None)
        for _ in range(100):
            n = rng.randrange(3, 13)
            m = rng.randrange(0, n * (n - 1) // 2 + 1)
            g = gen_er(n, m, rng.randrange(1 << 30))
            emitted = list(enumerate_connected_sets(EnumState(g, cfg)))
            assert len(emitted) == len(set(emitted))
            assert set(emitted) == brute_connected_sets(g, 2, 5)


def test_criterion_4_pcr_equivalence():
    with criterion(4, "prefix-max prediction equals exhaustive search, 1000 tables"):
        rng = random.Random(44)
        for _ in range(1000):
            k = rng.randrange(2, 9)
            table = random_levels(rng, k)
            params = BitParams(
                C_R=rng.randrange(0, 64),
                C_ID=rng.randrange(1, 16),
                C_node=rng.randrange(1, 16),
                C_edit=rng.randrange(1, 16),
            )
            total = sum(len(sets) for sets in table.values())
            exhaustive = max(
                Fraction(n * k, cost_of_n(table, params, n)) for n in range(1, total + 1)
            )
            assert Fraction(*pcr(table, k, params)) == exhaustive


def test_criterion_5_bit_formulas_and_realized_identity():
    with criterion(5, "bit-formula spot checks and realized-bits identity"):
        assert b_graph(6, 6) == 35
        assert b_rule(2, 6) == 12
        assert b_application(2, 1, 6, same_rule_as_previous=True) == 10
        cfg = ExtractConfig(k_min=2, k_max=4, shortcut_s=1)
        for g in (gen_binary_tree(255), gen_er(60, 150, 5), demo_graph()):
            res = extract(g, cfg)
            assert decode(res) == g
            lib = res.grammar
            assert res.account.application_bits == sum(
                application for _, application in record_bits(res.records, lib.codes, g.n0)
            )
            assert res.account.rule_bits == sum(
                b_rule(lib.codes[rid][0], g.n0)
                for rid in range(len(lib))
                if lib.frequency[rid]
            )
            assert res.account.residual_bits == b_graph(
                res.residual.num_nodes(), res.residual.num_edges()
            )
            assert res.account.compressed_bits == (
                res.account.rule_bits
                + res.account.application_bits
                + res.account.residual_bits
            )


def test_criterion_6_binary_tree_interpretability():
    with criterion(6, "1023-node tree: dominant rule >= 95%, <= 5 rules"):
        g = gen_binary_tree(1023)
        res = extract(g, ExtractConfig(k_min=2, k_max=7, shortcut_s=1))
        freq = [f for f in res.grammar.frequency if f]
        assert len(freq) <= 5
        assert max(freq) / sum(freq) >= 0.95
        assert decode(res) == g


def test_criterion_7_compression_at_scale():
    with criterion(7, "3000-node tree compression rate 0.84 +/- 0.10"):
        g = gen_binary_tree(3000)
        res = extract(g, ExtractConfig(k_min=2, k_max=7, shortcut_s=1))
        rate = compression_rate(res.account)
        assert abs(rate - 0.84) <= 0.10, rate
        assert decode(res) == g


def test_criterion_8_shortcut_fidelity():
    with criterion(8, "shortcut keeps compression within 0.05 and is faster"):
        g = gen_binary_tree(1000)
        fast = extract(g, ExtractConfig(k_min=2, k_max=6, shortcut_s=1))
        slow = extract(g, ExtractConfig(k_min=2, k_max=6, shortcut_s=None))
        assert abs(
            compression_rate(fast.account) - compression_rate(slow.account)
        ) <= 0.05
        assert fast.runtime_seconds < slow.runtime_seconds


def test_criterion_9_noise_monotonicity():
    with criterion(9, "compression non-increasing in noise; positive at r=1"):
        base = gen_binary_tree(1000)
        cfg = ExtractConfig(k_min=2, k_max=3, shortcut_s=1)
        rates = []
        for r in (0.0, 0.08, 0.32, 1.0):
            g = rewire(base, r, 42)
            res = extract(g, cfg)
            rates.append(compression_rate(res.account))
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 0.03, rates
        assert rates[-1] > 0, rates


def test_criterion_10_kl_suite():
    with criterion(10, "divergence identity, additivity, hand-computed case"):
        res = extract(gen_binary_tree(255), ExtractConfig(k_min=2, k_max=4))
        p = rule_distribution(res.grammar)
        total, contributions = kl_divergence(p, p)
        assert total == 0
        lib_p = RuleLibrary()
        lib_q = RuleLibrary()
        shapes = [(2, (2, 0), m, 0) for m in range(4)]
        for shape, count in zip(shapes, (2, 1)):
            rid = lib_p.intern_code(canonical_code(*shape))
            lib_p.frequency[rid] = count
        for shape, count in zip(shapes, (0, 1, 2)):
            rid = lib_q.intern_code(canonical_code(*shape))
            lib_q.frequency[rid] = count
        total, contributions = kl_divergence(
            rule_distribution(lib_p), rule_distribution(lib_q)
        )
        assert total == pytest.approx(math.log(3) / 3, abs=1e-9)
        assert sum(contributions.values()) == pytest.approx(total, abs=1e-9)


def test_criterion_11_reciprocated_rules():
    with criterion(11, "reciprocated graph yields bidirected top rules"):
        base = gen_binary_tree(128)
        edges = list(base.edges())
        g = DiGraph.from_edges(128, edges + [(v, u) for u, v in edges])
        reciprocated = sum(1 for u, v in g.edges() if g.has_edge(v, u))
        assert reciprocated / g.num_edges() >= 0.90
        res = extract(g, ExtractConfig(k_min=2, k_max=3, shortcut_s=1))
        ranked = sorted(
            (rid for rid, f in enumerate(res.grammar.frequency) if f),
            key=lambda rid: -res.grammar.frequency[rid],
        )[:5]

        def bidirected(code):
            edges = set(code_edges(code))
            return any((j, i) in edges for i, j in edges)

        hits = sum(bidirected(res.grammar.codes[rid]) for rid in ranked)
        assert hits * 2 >= len(ranked)
