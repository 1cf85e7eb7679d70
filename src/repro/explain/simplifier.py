"""Simplification driver (paper Figure 6, step 3).

Wraps the 15-rule rewrite engine with the explanation-specific
bookkeeping the benchmarks report: input/output constraint counts,
per-rule application counts, and an optional cone-of-influence
restriction that keeps only conjuncts (transitively) connected to the
symbolized variables -- an ablation the paper's discussion motivates
(generic simplification leaves "many low-level encoding variables").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..obs import Instrumentation
from ..runtime import Governor
from ..smt import And, RewriteEngine, RewriteRule, RewriteStats, Term
from ..smt.rewrite import Script
from .seed import SeedSpecification

__all__ = ["SimplifiedSeed", "simplify_seed", "cone_of_influence"]


@dataclass
class SimplifiedSeed:
    """Result of simplifying a seed specification."""

    term: Term
    stats: RewriteStats
    input_constraints: int
    output_constraints: int

    @property
    def constraint_reduction(self) -> float:
        if self.output_constraints == 0:
            return float("inf")
        return self.input_constraints / self.output_constraints

    @property
    def size_reduction(self) -> float:
        return self.stats.reduction_factor


def simplify_seed(
    seed: SeedSpecification,
    rules: Optional[Sequence[RewriteRule]] = None,
    use_cone_of_influence: bool = False,
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
    memo: Optional[Dict[Term, Script]] = None,
) -> SimplifiedSeed:
    """Apply the rewrite rules (optionally after a cone-of-influence
    restriction to the symbolized variables) until fixpoint.

    ``memo`` is a rewrite memo shared with sibling questions (see
    :class:`~repro.smt.rewrite.RewriteEngine`); it changes no output."""
    constraint = seed.constraint
    input_constraints = len(constraint.conjuncts())
    if use_cone_of_influence:
        hole_vars = frozenset(
            seed.encoding.holes.variable(name) for name in seed.holes
        )
        constraint = cone_of_influence(constraint, hole_vars)
    stats = RewriteStats()
    engine = RewriteEngine(rules, governor=governor, obs=obs, memo=memo)
    simplified = engine.simplify(constraint, stats)
    # Report sizes relative to the original seed even when the cone
    # restriction already removed conjuncts.
    stats.input_size = seed.constraint.size()
    return SimplifiedSeed(
        term=simplified,
        stats=stats,
        input_constraints=input_constraints,
        output_constraints=len(simplified.conjuncts()),
    )


def cone_of_influence(constraint: Term, anchor_vars: FrozenSet[Term]) -> Term:
    """Keep only conjuncts transitively sharing variables with the
    anchors.

    Conjuncts are connected when they share a free variable; the cone
    is the union of all conjuncts reachable from those mentioning an
    anchor variable.  Conjuncts with no variables at all are dropped
    (they are ground facts the rewrite rules fold anyway).
    """
    conjuncts = constraint.conjuncts()
    frontier = set(anchor_vars)
    selected: List[Term] = []
    remaining = list(conjuncts)
    changed = True
    while changed:
        changed = False
        still_remaining = []
        for conjunct in remaining:
            free = conjunct.free_variables()
            if free & frontier:
                selected.append(conjunct)
                frontier |= free
                changed = True
            else:
                still_remaining.append(conjunct)
        remaining = still_remaining
    return And(*selected)
