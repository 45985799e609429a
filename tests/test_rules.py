import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgc.rules import (
    RuleError,
    RuleLibrary,
    canonical_code,
    canonical_form,
    check_codes,
    code_edges,
    rule_to_dot,
)

# A rule in these tests is the tuple ``(k, adj, i_mask, o_mask)`` that
# ``canonical_form`` takes; ``fields`` reads it back from a code.


def fields(code):
    return code[0], tuple(code[3:]), code[1], code[2]


def is_valid(rule):
    try:
        check_codes([canonical_code(*rule)])
    except RuleError:
        return False
    return True


def all_connected_rules(k):
    """Every valid rule on k nodes (adjacency x both masks)."""
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    for present in itertools.product([0, 1], repeat=len(pairs)):
        adj = [0] * k
        for bit, (i, j) in zip(present, pairs):
            if bit:
                adj[i] |= 1 << j
        if not is_valid((k, tuple(adj), 0, 0)):
            continue
        for i_mask in range(1 << k):
            for o_mask in range(1 << k):
                yield k, tuple(adj), i_mask, o_mask


def permute(rule, perm):
    """Relabel the rule so new position ``n`` holds old position ``perm[n]``."""
    k, adj, i_mask, o_mask = rule
    new_of = {old: new for new, old in enumerate(perm)}
    new_adj = [0] * k
    for i, j in code_edges(bytes((k, i_mask, o_mask, *adj))):
        new_adj[new_of[i]] |= 1 << new_of[j]

    def mask(m):
        return sum(1 << new_of[v] for v in range(k) if m >> v & 1)

    return k, tuple(new_adj), mask(i_mask), mask(o_mask)


def orbit(rule):
    """All relabelings of a rule; the isomorphism-class oracle."""
    return frozenset(
        permute(rule, perm) for perm in itertools.permutations(range(rule[0]))
    )


@pytest.mark.parametrize("k", [2, 3])
def test_canonical_code_exhaustive(k):
    """Equal codes exactly when isomorphic, over every k-node rule."""
    by_orbit = {}
    for rule in all_connected_rules(k):
        by_orbit.setdefault(orbit(rule), set()).add(canonical_code(*rule))
    for codes in by_orbit.values():
        assert len(codes) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
def test_canonical_code_sampled(k):
    """Relabelling a rule, masks included, keeps its code.  Registration
    looks the mask pairs of every fragment up on the fragment's canonical
    rows, and this is what makes that exact."""
    rng = random.Random(k)
    for _ in range(80):
        adj = [0] * k
        for i in range(k):
            for j in range(k):
                if i != j and rng.random() < 0.5:
                    adj[i] |= 1 << j
        rule = (k, tuple(adj), rng.randrange(1 << k), rng.randrange(1 << k))
        if not is_valid(rule):
            continue
        perm = tuple(rng.sample(range(k), k))
        assert canonical_code(*rule) == canonical_code(*permute(rule, perm))


def reference_canonical_form(rule):
    """The rule-keyed canonical form as it was before the raw-field
    cache, frozen here as an oracle: brute force over within-group
    arrangements of the (i, o, out-degree, in-degree) invariant groups,
    scanning every column of every row."""
    k, adj, i_mask, o_mask = rule
    groups = {}
    for v in range(k):
        out = adj[v].bit_count()
        inn = sum(adj[u] >> v & 1 for u in range(k))
        groups.setdefault((i_mask >> v & 1, o_mask >> v & 1, out, inn), []).append(v)
    best_key = best_perm = None
    arrangements = (itertools.permutations(groups[key]) for key in sorted(groups))
    for combo in itertools.product(*arrangements):
        perm = tuple(v for part in combo for v in part)
        inv = [0] * k
        for new, old in enumerate(perm):
            inv[old] = new
        key = tuple(
            sum(1 << inv[j] for j in range(k) if adj[old] >> j & 1) for old in perm
        )
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    i_new = sum((i_mask >> old & 1) << new for new, old in enumerate(best_perm))
    o_new = sum((o_mask >> old & 1) << new for new, old in enumerate(best_perm))
    nbytes = (k + 7) // 8
    code = bytes([k, i_new, o_new]) + b"".join(row.to_bytes(nbytes, "big") for row in best_key)
    return code, best_perm


@st.composite
def connected_rules(draw):
    """A weakly connected fragment on 2..8 nodes: a random spanning tree
    with random directions, plus random extra edges, and random masks."""
    k = draw(st.integers(2, 8))
    adj = [0] * k
    for v in range(1, k):
        u = draw(st.integers(0, v - 1))
        if draw(st.booleans()):
            adj[u] |= 1 << v
        else:
            adj[v] |= 1 << u
    extra = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=2 * k))
    for u, v in extra:
        if u != v:
            adj[u] |= 1 << v
    masks = st.integers(0, (1 << k) - 1)
    return k, tuple(adj), draw(masks), draw(masks)


@settings(max_examples=150, deadline=None)
@given(rule=connected_rules())
def test_canonical_form_matches_reference(rule):
    assert canonical_form(*rule) == reference_canonical_form(rule)


def symmetric_fragments(k):
    ring = tuple(1 << (v + 1) % k for v in range(k))
    window = tuple(((1 << v + 1) | (1 << v + 2)) & ((1 << k) - 1) for v in range(k))
    star = ((1 << k) - 2,) + (0,) * (k - 1)
    complete_dag = tuple(((1 << k) - 1) & ~((1 << v + 1) - 1) for v in range(k))
    return [ring, window, star, complete_dag]


@pytest.mark.parametrize("k", [6, 7, 8])
def test_canonical_form_matches_reference_on_symmetric_fragments(k):
    """Directed ring, ring-lattice window, out-star and complete DAG, as
    built and in seeded random position orders, as a relabelled lattice
    presents them: the invariant groups are large, so many candidates tie
    on their first rows, and abandoning a candidate early must still keep
    the first of the tied ones, in code and in permutation."""
    rng = random.Random(k)
    full = (1 << k) - 1
    orders = [tuple(range(k))] + [tuple(rng.sample(range(k), k)) for _ in range(4)]
    for adj in symmetric_fragments(k):
        for i_mask, o_mask in [(0, 0), (full, full), (1, 0b10), (0b101, full)]:
            for perm in orders:
                rule = permute((k, adj, i_mask, o_mask), perm)
                assert canonical_form(*rule) == reference_canonical_form(rule)


@pytest.mark.parametrize(
    "code, message",
    [
        (bytes((2, 0, 0, 0, 0)), "weakly connected"),  # disconnected
        (bytes((3, 0, 0, 2, 0, 0)), "weakly connected"),  # one node isolated
        (bytes((2, 0, 0, 1, 2)), "self-loop"),
        (bytes((2, 0, 0, 4, 0)), "adjacency bits outside"),
        (bytes((2, 0b100, 0, 2, 0)), "mask bits outside"),
        (bytes((3, 0, 0, 2, 4)), "row count"),
    ],
    ids=["disconnected", "isolated_node", "self_loop", "adjacency_bit", "mask_bit", "row_count"],
)
def test_check_codes_rejects_invalid_fragments(code, message):
    """Codes are validated where they enter: ``canonical_form`` trusts its
    fields, so ``check_codes`` rejects a stored code of no valid rule before
    it is canonicalised."""
    with pytest.raises(RuleError, match=message):
        check_codes([code])


def test_canonical_rule_is_stable():
    rule = (3, (2, 4, 0), 0b100, 0b001)
    canon = canonical_code(*rule)
    assert canonical_code(*fields(canon)) == canon
    check_codes([canon])


def test_rule_code_roundtrip():
    """A code is ``k + 3`` bytes, and the fields it stores are a relabelling
    of the rule it was made from."""
    rule = (3, (6, 4, 1), 0b011, 0b101)
    code = canonical_code(*rule)
    assert len(code) == rule[0] + 3
    assert fields(code) in orbit(rule)
    assert canonical_code(*fields(code)) == code


def test_check_codes_rejects_wrong_length():
    """A code is exactly ``k + 3`` bytes, and a rule has at least 2 nodes."""
    code = canonical_code(3, (6, 4, 1), 0b011, 0b101)
    assert len(code) == 6
    check_codes([code])
    for bad in (code[:-1], code + b"\0"):
        with pytest.raises(RuleError, match="row count"):
            check_codes([bad])
    with pytest.raises(RuleError, match="fragment size 1"):
        check_codes([bytes.fromhex("01010100")])


def test_library_intern_and_ordering():
    lib = RuleLibrary()
    rid_a = lib.intern_code(canonical_code(2, (2, 0), 0b10, 0b10))
    rid_b = lib.intern_code(canonical_code(2, (0, 1), 0b01, 0b01))  # same structure, relabeled
    rid_c = lib.intern_code(canonical_code(2, (2, 0), 0b01, 0b01))
    assert (rid_a, rid_b, rid_c) == (0, 0, 1)
    assert len(lib) == 2
    assert lib.ordered_ids() == [rid_a, rid_c]  # no extractions: id order
    lib.record_extraction(rid_c)
    assert lib.frequency[rid_c] == 1
    assert lib.ordered_ids() == [rid_c, rid_a]  # more frequent first
    lib.record_extraction(rid_a)
    assert lib.ordered_ids() == [rid_a, rid_c]  # equal frequency: id order
    assert lib.to_json_obj()["order"] == [rid_a, rid_c]


def test_rule_to_dot_mentions_boundary():
    dot = rule_to_dot(canonical_code(2, (2, 0), 0b10, 0b01))
    assert "digraph" in dot
    assert "in1" in dot and "out0" in dot
