"""Property-based tests: the rewrite engine is sound and canonicalizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explain.family import SharedCaches
from repro.obs import Instrumentation
from repro.runtime import Governor, ResourceExhausted, WorkBudget
from repro.smt import (
    ALL_RULES,
    FALSE,
    TRUE,
    And,
    BoolVar,
    Implies,
    Not,
    Or,
    RewriteEngine,
    RewriteRule,
    RewriteStats,
    simplify,
)

from .strategies import all_assignments, terms_strategy


@given(terms_strategy())
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_semantics(term):
    """Every assignment gives the same truth value before and after."""
    simplified = simplify(term)
    for assignment in all_assignments(term):
        assert term.evaluate(assignment) == simplified.evaluate(assignment)


@given(terms_strategy())
@settings(max_examples=100, deadline=None)
def test_simplify_is_idempotent(term):
    engine = RewriteEngine()
    once = engine.simplify(term)
    assert engine.simplify(once) is once


@given(terms_strategy())
@settings(max_examples=100, deadline=None)
def test_simplified_free_variables_subset(term):
    """Simplification never invents variables."""
    simplified = simplify(term)
    assert simplified.free_variables() <= term.free_variables()


@given(terms_strategy(max_leaves=8))
@settings(max_examples=60, deadline=None)
def test_each_single_rule_engine_is_sound(term):
    """Engines restricted to any single rule still preserve semantics."""
    for rule in ALL_RULES:
        engine = RewriteEngine([rule])
        simplified = engine.simplify(term)
        for assignment in all_assignments(term):
            assert term.evaluate(assignment) == simplified.evaluate(assignment)


@given(terms_strategy())
@settings(max_examples=100, deadline=None)
def test_ground_terms_fold_to_constants(term):
    """Terms without variables always simplify to true or false."""
    if term.free_variables():
        return
    simplified = simplify(term)
    assert simplified.is_true() or simplified.is_false()
    assert simplified.value == term.evaluate({})


# -- the exact-replay memo ------------------------------------------------


def _run(term, rules=None, memo=None):
    """One engine per term, as ``simplify_seed`` builds them."""
    obs = Instrumentation()
    stats = RewriteStats()
    result = RewriteEngine(rules, obs=obs, memo=memo).simplify(term, stats)
    return result, stats, obs.metrics.counters


def _siblings(terms):
    """Terms sharing subterms, as sibling seeds do: each term, every
    pairwise conjunction, and the terms again."""
    pairs = [And(a, b) for a, b in zip(terms, terms[1:])]
    return list(terms) + pairs + [Or(*terms)] + list(terms)


@given(st.lists(terms_strategy(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_shared_memo_replays_a_cold_engine_exactly(terms):
    """A memo shared across engines changes no normal form, no
    ``RewriteStats`` field and no ``rewrite.*`` counter total."""
    memo = {}
    for term in _siblings(terms):
        cold, cold_stats, cold_counters = _run(term)
        warm, warm_stats, warm_counters = _run(term, memo=memo)
        assert warm is cold
        assert warm_stats == cold_stats
        assert warm_counters == cold_counters
    assert memo


def _counting(rules, calls):
    def wrap(rule):
        def apply(term):
            calls.append(rule.name)
            return rule.apply(term)

        return RewriteRule(rule.name, rule.description, apply)

    return [wrap(rule) for rule in rules]


def test_memo_hit_runs_no_rule():
    x, y = BoolVar("x"), BoolVar("y")
    term = And(Or(x, FALSE), Not(Not(y)), TRUE, Implies(FALSE, x))
    calls = []
    rules = _counting(ALL_RULES, calls)
    memo = {}
    first, first_stats, _ = _run(term, rules, memo)
    assert calls and first_stats.total_applications
    del calls[:]
    again, again_stats, _ = _run(term, rules, memo)
    assert calls == []
    assert again is first
    assert again_stats == first_stats


def test_governed_engine_ignores_the_memo():
    x, y = BoolVar("x"), BoolVar("y")
    term = And(Or(x, FALSE), y)
    poisoned = {term: ((), (), TRUE)}
    engine = RewriteEngine(governor=Governor(), memo=poisoned)
    assert engine.memo is None
    assert engine.simplify(term) is And(x, y)
    assert poisoned == {term: ((), (), TRUE)}


def test_counters_flush_when_a_governed_run_is_cut_short():
    x = BoolVar("x")
    term = Not(Not(Not(Not(Or(x, FALSE)))))
    obs = Instrumentation()
    engine = RewriteEngine(
        governor=Governor(budget=WorkBudget(rewrite_steps=1)), obs=obs
    )
    with pytest.raises(ResourceExhausted):
        engine.simplify(term)
    counters = obs.metrics.counters
    assert counters["rewrite.steps"] >= 1
    assert counters["rewrite.steps"] == sum(
        amount for name, amount in counters.items() if name.startswith("rewrite.rule.")
    )


@given(terms_strategy(max_leaves=8))
@settings(max_examples=40, deadline=None)
def test_rule_subsets_get_separate_memos(term):
    """Ablation engines share a ``SharedCaches`` but never a memo: the
    memo is keyed by rule names, so every subset replays its own cold
    results."""
    shared = SharedCaches(None, None)
    assert shared.rewrite_memo(None) is shared.rewrite_memo(list(ALL_RULES))
    subsets = [None] + [[rule] for rule in ALL_RULES] + [ALL_RULES[:7]]
    memos = {id(shared.rewrite_memo(rules)) for rules in subsets}
    assert len(memos) == len(subsets)
    for _ in range(2):
        for rules in subsets:
            cold = _run(term, rules)
            warm = _run(term, rules, shared.rewrite_memo(rules))
            assert warm[0] is cold[0]
            assert warm[1] == cold[1]
            assert warm[2] == cold[2]
