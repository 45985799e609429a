"""Run reporting and rule-distribution comparison.

Distributions are keyed by canonical rule code so that structurally equal
rules extracted from different graphs line up.  Divergence uses add-one
smoothing on raw counts over the union support, then natural-log KL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rules import RuleLibrary


class EmptyGrammar(Exception):
    pass


@dataclass
class RuleDistribution:
    counts: dict[bytes, int]
    probs: dict[bytes, float]


def rule_distribution(grammar: RuleLibrary) -> RuleDistribution:
    """Extraction-frequency distribution of a grammar's used rules."""
    counts = {
        grammar.codes[rid]: grammar.frequency[rid]
        for rid in range(len(grammar))
        if grammar.frequency[rid] > 0
    }
    total = sum(counts.values())
    if total == 0:
        raise EmptyGrammar("no extractions recorded")
    return RuleDistribution(counts, {c: f / total for c, f in counts.items()})


def _smooth(p: RuleDistribution, q: RuleDistribution) -> tuple[dict, dict]:
    support = sorted(set(p.counts) | set(q.counts))
    pt = sum(p.counts.values()) + len(support)
    qt = sum(q.counts.values()) + len(support)
    ps = {c: (p.counts.get(c, 0) + 1) / pt for c in support}
    qs = {c: (q.counts.get(c, 0) + 1) / qt for c in support}
    return ps, qs


def kl_divergence(
    p: RuleDistribution, q: RuleDistribution
) -> tuple[float, dict[bytes, float]]:
    """Smoothed KL(p || q) and the per-rule contribution terms."""
    ps, qs = _smooth(p, q)
    contributions = {c: ps[c] * math.log(ps[c] / qs[c]) for c in ps}
    return sum(contributions.values()), contributions


def rank_interesting(contributions: dict[bytes, float], library: RuleLibrary) -> list[bytes]:
    """Rule codes sorted by descending ``kl_divergence`` contribution; ties
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
            if grammar.frequency[rid] > 0
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
