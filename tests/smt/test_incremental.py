"""Tests for assumption-based incremental sessions.

Covers the repeated-``solve()`` safety fix on the raw solver
(SAT -> UNSAT -> SAT sequences must not see stale trail state), the
failed-assumption cores, and the incremental-vs-fresh equivalence
property for :class:`IncrementalSession`.
"""

import random

import pytest

from repro.obs import Instrumentation
from repro.runtime import Governor, ResourceExhausted, WorkBudget
from repro.smt import (
    And,
    BoolVar,
    EnumSort,
    EnumVar,
    Eq,
    Implies,
    IncrementalSession,
    Not,
    Or,
    TermSession,
)
from repro.smt.sat import SatSolver, solve_clauses


def check_model(clauses, assignment):
    return all(
        any(assignment.get(abs(literal), False) == (literal > 0) for literal in clause)
        for clause in clauses
    )


class TestRepeatedSolve:
    """Regression: a second solve must not see the first one's state."""

    def test_sat_unsat_sat_sequence(self):
        solver = SatSolver(3)
        solver.add_clause([1, 2])
        solver.add_clause([-1, 3])
        assert solver.solve([1]).satisfiable
        assert not solver.solve([1, -3]).satisfiable
        result = solver.solve([2])
        assert result.satisfiable
        assert result.assignment[2] is True

    def test_unsat_then_unassumed_solve_is_sat(self):
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        assert not solver.solve([-1, -2]).satisfiable
        assert solver.solve().satisfiable

    def test_stale_levels_do_not_leak_across_calls(self):
        # First call stacks several assumption levels; the second uses
        # a disjoint assumption set and must start from a clean trail.
        solver = SatSolver(4)
        solver.add_clause([1, 2, 3, 4])
        solver.add_clause([-1, -2])
        assert solver.solve([1, 3]).satisfiable
        assert not solver.solve([-3, -4, 1, 2]).satisfiable
        result = solver.solve([2])
        assert result.satisfiable
        assert check_model([[1, 2, 3, 4], [-1, -2]], result.assignment)

    def test_early_unsat_exit_leaves_solver_reusable(self):
        # Contradicting units fail during watch attachment, before the
        # main loop; the next call must still work.
        solver = SatSolver(2)
        solver.add_clause([1])
        solver.add_clause([2])
        assert not solver.solve([-1]).satisfiable
        result = solver.solve()
        assert result.satisfiable
        assert result.assignment == {1: True, 2: True}

    def test_clauses_added_between_solves(self):
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        assert solver.solve([-1]).satisfiable
        solver.add_clause([-2])
        assert not solver.solve([-1]).satisfiable
        assert solver.solve().satisfiable

    def test_out_of_range_assumption_rejected(self):
        solver = SatSolver(2)
        solver.add_clause([1])
        with pytest.raises(ValueError):
            solver.solve([3])
        with pytest.raises(ValueError):
            solver.solve([0])


class TestFailedAssumptionCores:
    def test_core_empty_when_formula_itself_unsat(self):
        solver = SatSolver(1)
        solver.add_clause([1])
        solver.add_clause([-1])
        result = solver.solve([1])
        assert not result.satisfiable
        assert result.core == ()

    def test_directly_conflicting_assumptions(self):
        solver = SatSolver(2)
        solver.add_clause([1, 2])
        result = solver.solve([1, -1])
        assert not result.satisfiable
        assert set(result.core) == {1, -1}

    def test_core_is_relevant_subset(self):
        # x3 is irrelevant: the conflict is x1 & (x1 -> x2) & !x2.
        solver = SatSolver(3)
        solver.add_clause([-1, 2])
        result = solver.solve([1, -2, 3])
        assert not result.satisfiable
        assert set(result.core) <= {1, -2, 3}
        assert 3 not in result.core and -3 not in result.core
        # The core really is unsat with the clause set.
        fresh = SatSolver(3)
        fresh.add_clause([-1, 2])
        assert not fresh.solve(result.core).satisfiable

    def test_core_through_propagation_chain(self):
        solver = SatSolver(4)
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        result = solver.solve([4, 1, -3])
        assert not result.satisfiable
        assert 4 not in {abs(literal) for literal in result.core}
        fresh = SatSolver(4)
        fresh.add_clause([-1, 2])
        fresh.add_clause([-2, 3])
        assert not fresh.solve(result.core).satisfiable


class TestIncrementalSession:
    def test_counters(self):
        obs = Instrumentation()
        session = IncrementalSession(2, obs=obs)
        session.add_clause([1, 2])
        session.solve()
        session.solve([-1])
        session.solve([-2])
        counters = obs.metrics.counters
        assert counters["smt.session.instances"] == 1
        assert counters["smt.session.solves"] == 3
        assert counters["smt.session.reuse"] == 2

    def test_core_counter(self):
        obs = Instrumentation()
        session = IncrementalSession(2, obs=obs)
        session.add_clause([1, 2])
        assert not session.solve([-1, -2]).satisfiable
        assert obs.metrics.counters["smt.session.cores"] == 1


class TestTermSession:
    def test_selectors_pin_enum_values(self):
        color = EnumVar("color", EnumSort("Color3", ["red", "green", "blue"]))
        session = TermSession(Not(Eq(color, "green")))
        assert not session.solve_under({color: "green"}).satisfiable
        result = session.solve_under({color: "blue"})
        assert result.satisfiable
        assert session.model(result).assignment["color"] == "blue"

    def test_boolean_selector_polarity(self):
        flag = BoolVar("flag")
        session = TermSession(Or(flag, Not(flag)))
        assert session.solve([session.selector(flag, True)]).satisfiable
        assert session.solve([session.selector(flag, False)]).satisfiable

    def test_folded_variable_has_no_selector(self):
        color = EnumVar("color", EnumSort("Color2", ["red", "green"]))
        other = EnumVar("season", EnumSort("Season", ["wet", "dry"]))
        session = TermSession(Eq(color, "red"))
        assert session.selector(other, "wet") is None
        assert session.assumptions_for({other: "dry"}) == []

    def test_out_of_domain_value_rejected(self):
        color = EnumVar("color", EnumSort("Color2", ["red", "green"]))
        session = TermSession(Eq(color, "red"))
        with pytest.raises(ValueError):
            session.selector(color, "purple")

    def test_core_names_map_back_to_indicators(self):
        color = EnumVar("color", EnumSort("Color2", ["red", "green"]))
        size = EnumVar("size", EnumSort("Size", ["s", "m"]))
        session = TermSession(And(Implies(Eq(size, "s"), Eq(color, "red")), Eq(size, "s")))
        result = session.solve_under({color: "green", size: "s"})
        assert not result.satisfiable
        names = session.core_names(result)
        assert "color@green" in names

    def test_obs_counts_session_reuse(self):
        obs = Instrumentation()
        color = EnumVar("color", EnumSort("Color3", ["red", "green", "blue"]))
        session = TermSession(Not(Eq(color, "green")), obs=obs)
        for value in ("red", "green", "blue"):
            session.solve_under({color: value})
        counters = obs.metrics.counters
        assert counters["smt.session.instances"] == 1
        assert counters["smt.session.solves"] == 3
        assert counters["smt.session.reuse"] == 2


class TestIncrementalVsFreshProperty:
    def test_incremental_agrees_with_fresh_solves(self):
        """Property: across randomized clause sets and assumption
        subsets, a long-lived session returns the same satisfiability
        verdict as a fresh one-shot solve, SAT models satisfy the
        clauses and the assumptions, and UNSAT cores are themselves
        unsatisfiable subsets of the assumptions."""
        rng = random.Random(20260808)
        for round_index in range(30):
            num_vars = rng.randint(3, 9)
            num_clauses = rng.randint(2, 4 * num_vars)
            clauses = [
                [
                    variable if rng.random() < 0.5 else -variable
                    for variable in rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
                ]
                for _ in range(num_clauses)
            ]
            session = IncrementalSession(num_vars)
            session.add_clauses(clauses)
            for _ in range(8):
                assumptions = [
                    variable if rng.random() < 0.5 else -variable
                    for variable in rng.sample(
                        range(1, num_vars + 1), rng.randint(0, num_vars)
                    )
                ]
                incremental = session.solve(assumptions)
                fresh = solve_clauses(
                    num_vars, clauses + [[literal] for literal in assumptions]
                )
                assert incremental.satisfiable == fresh.satisfiable, (
                    clauses,
                    assumptions,
                )
                if incremental.satisfiable:
                    assert check_model(clauses, incremental.assignment)
                    assert check_model(
                        [[literal] for literal in assumptions], incremental.assignment
                    )
                else:
                    assert set(incremental.core) <= set(assumptions)
                    assert not solve_clauses(
                        num_vars, clauses + [[literal] for literal in incremental.core]
                    ).satisfiable

    def test_interleaved_clause_growth_matches_fresh(self):
        """Adding clauses between solves must behave as if the session
        had been built from scratch with the grown clause set."""
        rng = random.Random(7)
        for _ in range(10):
            num_vars = rng.randint(3, 7)
            clauses = []
            session = IncrementalSession(num_vars)
            for _ in range(12):
                clause = [
                    variable if rng.random() < 0.5 else -variable
                    for variable in rng.sample(range(1, num_vars + 1), rng.randint(1, 3))
                ]
                clauses.append(clause)
                session.add_clause(clause)
                assumptions = [rng.choice([1, -1]) * rng.randint(1, num_vars)]
                incremental = session.solve(assumptions)
                fresh = solve_clauses(
                    num_vars, clauses + [[literal] for literal in assumptions]
                )
                assert incremental.satisfiable == fresh.satisfiable


def random_cnf(rng, num_vars, num_clauses, width=3):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), width)]
        for _ in range(num_clauses)
    ]


def pigeonhole(pigeons, holes):
    """Pigeons-into-holes: unsatisfiable when pigeons > holes, and only
    refuted by search (no clause is a unit)."""
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return pigeons * holes, clauses


def counted_attach(solver):
    calls = []
    attach = solver._attach_all

    def counting():
        calls.append(1)
        return attach()

    solver._attach_all = counting
    return calls


class TestSessionKeepsWatches:
    """The solver attaches watches and propagates root units once, then
    answers later solves from the kept root level."""

    def test_randomized_sequences_match_fresh_solves(self):
        """Seeded random 3-CNFs near the phase transition, assumption
        sequences, clauses added between solves and one solve cut short
        by a governor: every verdict equals a fresh solver's, SAT models
        satisfy clauses and assumptions, and every core is an UNSAT
        subset of the assumptions."""
        rng = random.Random(15)
        interrupted = 0
        for _ in range(12):
            num_vars = rng.randint(20, 30)
            clauses = random_cnf(rng, num_vars, int(4.2 * num_vars))
            solver = SatSolver(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            interrupt_at = rng.randrange(10)
            for step in range(10):
                if step in (3, 7):
                    extra = random_cnf(rng, num_vars, 2)
                    clauses.extend(extra)
                    for clause in extra:
                        solver.add_clause(clause)
                assumptions = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, num_vars + 1), rng.randint(0, 4))
                ]
                if step == interrupt_at:
                    solver.governor = Governor(budget=WorkBudget(conflicts=1))
                    try:
                        solver.solve(assumptions)
                    except ResourceExhausted:
                        interrupted += 1
                    solver.governor = None
                result = solver.solve(assumptions)
                fresh = solve_clauses(num_vars, clauses + [[a] for a in assumptions])
                assert result.satisfiable == fresh.satisfiable, (clauses, assumptions)
                if result.satisfiable:
                    assert check_model(clauses, result.assignment)
                    assert check_model([[a] for a in assumptions], result.assignment)
                else:
                    assert set(result.core) <= set(assumptions)
                    assert not solve_clauses(
                        num_vars, clauses + [[a] for a in result.core]
                    ).satisfiable
        assert interrupted, "no solve was cut short; the governor case went untested"

    def test_attach_runs_once_without_new_clauses(self):
        rng = random.Random(3)
        solver = SatSolver(20)
        for clause in random_cnf(rng, 20, 60):
            solver.add_clause(clause)
        calls = counted_attach(solver)
        for _ in range(8):
            solver.solve([rng.choice([1, -1]) * rng.randint(1, 20)])
        assert len(calls) == 1

    def test_add_clause_after_solve_reattaches(self):
        solver = SatSolver(3)
        solver.add_clause([1, 2])
        calls = counted_attach(solver)
        assert solver.solve().satisfiable
        assert solver.solve([-1]).satisfiable
        solver.add_clause([-2])
        assert not solver.solve([-1]).satisfiable
        assert solver.solve().satisfiable
        assert len(calls) == 2

    def test_root_units_survive_between_solves(self):
        solver = SatSolver(3)
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        assert solver.solve().satisfiable
        result = solver.solve([-2])
        assert not result.satisfiable
        assert result.core == (-2,)
        assert solver.solve([3]).assignment == {1: True, 2: True, 3: True}

    def test_root_unsat_at_attach_stays_unsat(self):
        solver = SatSolver(2)
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2])
        for assumptions in ((), (1,), (-1, 2)):
            result = solver.solve(assumptions)
            assert not result.satisfiable
            assert result.core == ()

    def test_root_conflict_found_by_search_stays_unsat(self):
        num_vars, clauses = pigeonhole(4, 3)
        solver = SatSolver(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        assert not solver.solve().satisfiable
        conflicts = solver.conflicts
        assert conflicts > 0
        for assumptions in ((1,), (-1, -2), ()):
            result = solver.solve(assumptions)
            assert not result.satisfiable
            assert result.core == ()
        # Answered without searching again.
        assert solver.conflicts == conflicts

    def test_solve_cut_short_at_its_root_conflict_stays_unsat(self):
        # The last conflict refuting pigeonhole is at level 0; a budget
        # one conflict short interrupts exactly there, before the
        # conflict is analysed.  The next solve must not trust the
        # half-propagated root level.
        num_vars, clauses = pigeonhole(4, 3)
        reference = SatSolver(num_vars)
        for clause in clauses:
            reference.add_clause(clause)
        assert not reference.solve().satisfiable
        solver = SatSolver(
            num_vars,
            governor=Governor(budget=WorkBudget(conflicts=reference.conflicts - 1)),
        )
        for clause in clauses:
            solver.add_clause(clause)
        with pytest.raises(ResourceExhausted):
            solver.solve()
        solver.governor = None
        assert not solver.solve().satisfiable
        assert not solver.solve([1]).satisfiable

    def test_learned_clause_count_is_kept_running(self):
        num_vars, clauses = pigeonhole(4, 3)
        session = IncrementalSession(num_vars)
        session.add_clauses(clauses)
        session.solve([1])
        session.solve([2])
        scanned = sum(1 for clause in session._solver.clauses if clause.learned)
        assert scanned > 0
        assert session.learned_clauses == scanned
