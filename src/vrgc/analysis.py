"""Run reporting and rule-distribution comparison.

Distributions are keyed by canonical rule code so that structurally equal
rules extracted from different graphs line up.  Divergence uses add-one
smoothing on raw counts over the union support, then natural-log KL.
"""

from __future__ import annotations

import math

from .rules import RuleLibrary


def rule_distribution(grammar: RuleLibrary) -> dict[bytes, int]:
    """Extraction counts of a grammar's rules, keyed by code; empty when
    nothing was extracted."""
    return dict(zip(grammar.codes, grammar.frequency))


def _smooth(p: dict[bytes, int], q: dict[bytes, int]) -> tuple[dict, dict]:
    support = sorted(set(p) | set(q))
    pt = sum(p.values()) + len(support)
    qt = sum(q.values()) + len(support)
    ps = {c: (p.get(c, 0) + 1) / pt for c in support}
    qs = {c: (q.get(c, 0) + 1) / qt for c in support}
    return ps, qs


def kl_divergence(
    p: dict[bytes, int], q: dict[bytes, int]
) -> tuple[float, dict[bytes, float]]:
    """Smoothed KL(p || q) over two ``rule_distribution`` count dicts, and
    the per-rule contribution terms."""
    ps, qs = _smooth(p, q)
    contributions = {c: ps[c] * math.log(ps[c] / qs[c]) for c in ps}
    return sum(contributions.values()), contributions


def rank_interesting(contributions: dict[bytes, float], library: RuleLibrary) -> list[bytes]:
    """The rule codes sorted by descending ``kl_divergence`` contribution; ties
    fall back to library id (codes absent from the library sort last)."""
    fallback = len(library)

    def key(code: bytes):
        return (-contributions[code], library.index.get(code, fallback), code)

    return sorted(contributions, key=key)


def report_json_obj(result, null_comparisons: dict[str, tuple[float, dict]] | None = None) -> dict:
    """Report payload: compression plus optional per-null KL summaries."""
    grammar = result.grammar
    obj = {
        "account": result.account.to_json_obj(),
        "iterations": result.iterations,
        "runtime_seconds": result.runtime_seconds,
        "rules": [
            {
                "id": rid,
                "k": grammar.codes[rid][0],
                "frequency": grammar.frequency[rid],
            }
            for rid in grammar.ordered_ids()
        ],
    }
    if null_comparisons:
        obj["kl"] = {
            name: {
                "total": total,
                "contributions": [
                    {"code": code.hex(), "value": value}
                    for code, value in sorted(
                        contributions.items(), key=lambda cv: (-cv[1], cv[0])
                    )
                ],
            }
            for name, (total, contributions) in sorted(null_comparisons.items())
        }
    return obj
