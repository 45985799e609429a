import math
from collections import Counter

import pytest

from vrgc.analysis import kl_divergence, rank_interesting, rule_distribution
from vrgc.engine import extract
from vrgc.enumeration import ExtractConfig
from vrgc.mdl import BitAccount, compression_rate
from vrgc.rules import RuleLibrary, canonical_code


def account(original, rule=0, app=0, residual=0):
    return BitAccount(
        original_bits=original,
        rule_bits=rule,
        application_bits=app,
        residual_bits=residual,
    )


def test_compression_rate_arithmetic():
    assert compression_rate(account(100, residual=100)) == 0.0
    assert compression_rate(account(100, rule=20, app=20, residual=10)) == 0.5
    assert compression_rate(account(100, rule=120)) == pytest.approx(-0.2)
    with pytest.raises(ValueError):
        compression_rate(account(0))


def library_with_counts(counts):
    lib = RuleLibrary()
    shapes = [
        (2, (2, 0), 0, 0),
        (2, (2, 0), 1, 0),
        (2, (2, 0), 2, 0),
        (2, (2, 0), 3, 0),
    ]
    for shape, count in zip(shapes, counts):
        rid = lib.intern_code(canonical_code(*shape))
        lib.frequency[rid] = count
    return lib


def test_rule_distribution(demo6):
    """An extraction's grammar holds only the rules its records use, so its
    distribution is every rule's code with the number of records naming it."""
    lib = library_with_counts([3, 1])
    assert rule_distribution(lib) == {lib.codes[0]: 3, lib.codes[1]: 1}
    assert rule_distribution(RuleLibrary()) == {}
    res = extract(demo6, ExtractConfig(k_min=2, k_max=3))
    dist = rule_distribution(res.grammar)
    assert dist == Counter(res.grammar.codes[r.rule_id] for r in res.records)
    assert list(dist) == res.grammar.codes


def test_single_rule_carries_full_mass(demo6):
    res = extract(demo6, ExtractConfig(k_min=2, k_max=2, shortcut_s=None))
    dist = rule_distribution(res.grammar)
    assert 2 * max(dist.values()) >= sum(dist.values()) == res.iterations


def test_kl_identity():
    dist = rule_distribution(library_with_counts([3, 2, 1]))
    total, contributions = kl_divergence(dist, dist)
    assert total == 0
    assert all(v == 0 for v in contributions.values())


def test_kl_hand_case():
    """counts p=(2,1,0), q=(0,1,2): smoothed total is (1/3) ln 3."""
    p = rule_distribution(library_with_counts([2, 1]))
    q = rule_distribution(library_with_counts([0, 1, 2]))
    total, contributions = kl_divergence(p, q)
    assert total == pytest.approx(math.log(3) / 3, abs=1e-9)
    assert sum(contributions.values()) == pytest.approx(total, abs=1e-9)


def test_kl_nonnegative_random():
    p = rule_distribution(library_with_counts([5, 1, 2]))
    q = rule_distribution(library_with_counts([1, 4, 0, 2]))
    total, _ = kl_divergence(p, q)
    assert total >= 0


def test_rank_interesting_hand_case():
    p_lib = library_with_counts([2, 1])
    p = rule_distribution(p_lib)
    q = rule_distribution(library_with_counts([0, 1, 2]))
    ranked = rank_interesting(kl_divergence(p, q)[1], p_lib)
    # the rule with counts (2, 0) must rank first
    assert ranked[0] == p_lib.codes[0]


def test_rank_ties_fall_back_to_library_id():
    lib = library_with_counts([1, 1, 1])
    dist = rule_distribution(lib)
    ranked = rank_interesting(kl_divergence(dist, dist)[1], lib)
    assert ranked == [lib.codes[0], lib.codes[1], lib.codes[2]]
