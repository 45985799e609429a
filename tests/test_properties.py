"""Properties of the paper's contract over every generator, and a fuzzed
artifact loader.

``decode(extract(G)) == G`` must hold on every generator, at every
``kmax`` up to 8, with the shortcut at 0, 1 and off and ``mdl_stop`` on and
off, also after the result goes through the artifact's JSON.  The loader
must turn any one-leaf change of a saved artifact into ``ArtifactInvalid``,
or else hand back a result that decodes to a graph or raises
``CorruptRecord``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrgc import synth
from vrgc.artifact import ArtifactInvalid, result_from_obj, result_to_obj
from vrgc.engine import CorruptRecord, decode, extract
from vrgc.enumeration import ExtractConfig
from vrgc.graphs import DiGraph


@st.composite
def small_graphs(draw):
    """A graph of 6 to 12 nodes from one of the five generators."""
    kind = draw(st.sampled_from(["bintree", "treerings", "ringlat", "er", "chunglu"]))
    if kind == "treerings":
        ring = draw(st.integers(3, 6))
        rings = draw(st.integers(-(-6 // ring), 12 // ring))
        return synth.gen_tree_of_rings(draw(st.integers(1, 3)), ring, ring * rings)
    n = draw(st.integers(6, 12))
    if kind == "bintree":
        return synth.gen_binary_tree(n)
    if kind == "ringlat":
        return synth.gen_ring_lattice(n, draw(st.sampled_from([2, 4])))
    seed = draw(st.integers(0, 10_000))
    if kind == "er":
        return synth.gen_er(n, draw(st.integers(n - 1, 2 * n)), seed)
    out_degrees = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
    return synth.gen_chung_lu_directed(out_degrees, draw(st.permutations(out_degrees)), seed)


# A fixed draw keeps tier-1's time fixed: these 12 examples cover all five
# generators, kmax 2..8, each shortcut and both mdl_stop values in about 9 s,
# most of it one Chung-Lu graph at kmax 8.
@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    g=small_graphs(),
    k_max=st.integers(2, 8),
    shortcut=st.sampled_from([0, 1, None]),
    mdl_stop=st.booleans(),
)
def test_roundtrip_every_generator(g, k_max, shortcut, mdl_stop):
    res = extract(g, ExtractConfig(k_min=2, k_max=k_max, shortcut_s=shortcut, mdl_stop=mdl_stop))
    assert decode(res) == g
    loaded, _ = result_from_obj(json.loads(json.dumps(result_to_obj(res))))
    assert decode(loaded) == g


FUZZ_CASES = {
    "bintree_40_k4": (lambda: synth.gen_binary_tree(40), ExtractConfig(k_min=2, k_max=4)),
    "er_30_80_k3": (lambda: synth.gen_er(30, 80, 1), ExtractConfig(k_min=2, k_max=3)),
    "ringlat_20_k5_off": (
        lambda: synth.gen_ring_lattice(20),
        ExtractConfig(k_min=2, k_max=5, shortcut_s=None),
    ),
}


def leaves(obj, path=()):
    """Paths to the scalar leaves of a JSON object, outside ``manifest``."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        if path == () and key == "manifest":
            continue
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def replacements(value):
    """The values one leaf is replaced by: generic wrong values, a step of
    one either way for a number, the other truth value for a bool, a code
    one byte shorter and one byte longer, and the other edit direction."""
    out = [0, -1, 10**6, "x", None, 0.5]
    if type(value) in (int, float):
        out += [value + 1, value - 1]
    elif type(value) is bool:
        out.append(not value)
    elif value in ("in", "out"):
        out.append("out" if value == "in" else "in")
    elif isinstance(value, str):
        out += [value[:-2], value + "00"]
    return out


def mutants(obj):
    """Make every single-leaf mutation of ``obj`` in place, yielding the
    mutated leaf's path; each leaf is restored after its last mutation."""
    for path in list(leaves(obj)):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        original = parent[path[-1]]
        for value in replacements(original):
            parent[path[-1]] = value
            yield path
        parent[path[-1]] = original


def load_and_decode(obj):
    """The decoded graph of a loaded artifact object, or the documented
    exception type that stopped it."""
    try:
        return decode(result_from_obj(obj)[0])
    except (ArtifactInvalid, CorruptRecord) as exc:
        return type(exc)


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_loader_fuzz_single_leaf(case):
    """Every one-leaf mutation of a saved artifact is rejected with
    ``ArtifactInvalid`` or ``CorruptRecord``, or decodes to a graph; no
    other exception escapes the loader or the decoder."""
    make, config = FUZZ_CASES[case]
    g = make()
    obj = json.loads(json.dumps(result_to_obj(extract(g, config))))
    assert load_and_decode(obj) == g
    sections = set()
    for path in mutants(obj):
        outcome = load_and_decode(obj)
        assert outcome in (ArtifactInvalid, CorruptRecord) or isinstance(outcome, DiGraph)
        sections.add(path[0])
    assert sections == set(obj) - {"manifest"}
    assert load_and_decode(obj) == g
