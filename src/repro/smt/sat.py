"""A CDCL SAT solver over DIMACS-style clause lists.

Implements the standard modern architecture in pure Python:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style activity with exponential decay,
* phase saving,
* geometric restarts.

The solver is deliberately self-contained (no external dependencies)
and is sized for the formulas produced by the NetComplete-style BGP
encoder -- thousands of variables and clauses -- which it dispatches in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import Instrumentation
from ..runtime import Governor

__all__ = ["SatSolver", "SatResult", "solve_clauses"]

# Restart scheduling: the geometric interval is clamped so that very
# long runs neither overflow ``int(1.5 ** huge)`` nor effectively
# disable restarts forever.
_RESTART_BASE = 100
_RESTART_EXPONENT_CAP = 40.0
_RESTART_INTERVAL_CEILING = 1_000_000


@dataclass
class SatResult:
    """Outcome of a SAT call.

    ``core`` is only populated on unsatisfiable calls made under
    assumptions: it is a subset of the assumption literals that is
    already unsatisfiable together with the clause set (MiniSat's
    "failed assumptions").  An empty core on an UNSAT result means the
    clause set is unsatisfiable regardless of the assumptions.
    """

    satisfiable: bool
    assignment: Dict[int, bool]
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    core: Tuple[int, ...] = ()


class _Clause:
    __slots__ = ("literals", "learned", "activity")

    def __init__(self, literals: List[int], learned: bool = False) -> None:
        self.literals = literals
        self.learned = learned
        self.activity = 0.0


_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


class SatSolver:
    """CDCL solver supporting repeated assumption solves.

    Usage::

        solver = SatSolver(num_vars)
        solver.add_clause([1, -2])
        result = solver.solve()

    ``solve()`` may be called repeatedly (with different assumptions,
    and with further ``add_clause`` calls in between).  The first call
    attaches the watches and propagates the root units; later calls
    keep both -- together with learned clauses, variable activities and
    saved phases -- and start straight from the assumptions, so related
    queries get cheaper over time.  An ``add_clause`` after a solve
    marks the watches stale and the next call rebuilds them.  A
    conflict at decision level 0 means the clause set alone is
    unsatisfiable, so every later call answers UNSAT at once.  The
    ``conflicts``/``decisions``/``propagations``/``restarts`` counters
    on both the solver and its results are cumulative across calls.
    """

    def __init__(
        self,
        num_vars: int,
        governor: Optional[Governor] = None,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.num_vars = num_vars
        self.governor = governor
        self.obs = obs
        self.clauses: List[_Clause] = []
        self._watches: Dict[int, List[_Clause]] = {}
        # Assignment state: index by variable (1-based).
        self._values: List[int] = [_UNASSIGNED] * (num_vars + 1)
        self._levels: List[int] = [0] * (num_vars + 1)
        self._reasons: List[Optional[_Clause]] = [None] * (num_vars + 1)
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._activity: List[float] = [0.0] * (num_vars + 1)
        self._phase: List[bool] = [False] * (num_vars + 1)
        self._qhead = 0
        self._activity_inc = 1.0
        self._activity_decay = 0.95
        self._empty_clause = False
        #: Watches attached and root units propagated; cleared by
        #: ``add_clause`` and by an interrupted search.
        self._attached = False
        #: A conflict at decision level 0 was found: UNSAT for good.
        self._root_conflict = False
        #: Learned clauses kept in ``clauses`` (never deleted).
        self.num_learned = 0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause; the next :meth:`solve` re-attaches every watch."""
        unique: List[int] = []
        seen = set()
        for literal in literals:
            if literal == 0 or abs(literal) > self.num_vars:
                raise ValueError(f"literal {literal} out of range (num_vars={self.num_vars})")
            if -literal in seen:
                return  # tautology
            if literal not in seen:
                seen.add(literal)
                unique.append(literal)
        if not unique:
            self._empty_clause = True
            return
        clause = _Clause(unique)
        self.clauses.append(clause)
        self._attached = False

    def _attach_all(self) -> bool:
        """Attach watches; returns False if a top-level conflict exists."""
        self._watches = {}
        for clause in self.clauses:
            if len(clause.literals) == 1:
                if not self._enqueue(clause.literals[0], clause):
                    return False
            else:
                self._watch(clause, clause.literals[0])
                self._watch(clause, clause.literals[1])
        return True

    def _watch(self, clause: _Clause, literal: int) -> None:
        self._watches.setdefault(-literal, []).append(clause)

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------

    def _value_of(self, literal: int) -> int:
        value = self._values[abs(literal)]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value if literal > 0 else -value

    def _enqueue(self, literal: int, reason: Optional[_Clause]) -> bool:
        current = self._value_of(literal)
        if current == _TRUE:
            return True
        if current == _FALSE:
            return False
        variable = abs(literal)
        self._values[variable] = _TRUE if literal > 0 else _FALSE
        self._levels[variable] = len(self._trail_limits)
        self._reasons[variable] = reason
        self._phase[variable] = literal > 0
        self._trail.append(literal)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None."""
        head = self._qhead
        while head < len(self._trail):
            literal = self._trail[head]
            head += 1
            self.propagations += 1
            watchers = self._watches.get(literal)
            if not watchers:
                continue
            retained: List[_Clause] = []
            conflict: Optional[_Clause] = None
            index = 0
            while index < len(watchers):
                clause = watchers[index]
                index += 1
                lits = clause.literals
                # Normalise: watched literals live at positions 0 and 1.
                falsified = -literal
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                # lits[1] is now the falsified watch.
                if self._value_of(lits[0]) == _TRUE:
                    retained.append(clause)
                    continue
                moved = False
                for k in range(2, len(lits)):
                    if self._value_of(lits[k]) != _FALSE:
                        lits[1], lits[k] = lits[k], lits[1]
                        self._watch(clause, lits[1])
                        moved = True
                        break
                if moved:
                    continue
                retained.append(clause)
                if not self._enqueue(lits[0], clause):
                    conflict = clause
                    retained.extend(watchers[index:])
                    break
            self._watches[literal] = retained
            if conflict is not None:
                self._qhead = len(self._trail)
                return conflict
        self._qhead = head
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------

    def _analyze(self, conflict: _Clause) -> Tuple[List[int], int]:
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        literal = 0
        clause: Optional[_Clause] = conflict
        index = len(self._trail) - 1
        current_level = len(self._trail_limits)
        while True:
            assert clause is not None
            clause.activity += self._activity_inc
            for lit in clause.literals:
                variable = abs(lit)
                if lit == literal or seen[variable]:
                    continue
                if self._values[variable] == _UNASSIGNED:
                    continue
                seen[variable] = True
                self._bump(variable)
                if self._levels[variable] == current_level:
                    counter += 1
                elif self._levels[variable] > 0:
                    learned.append(lit)
            while True:
                literal = self._trail[index]
                index -= 1
                if seen[abs(literal)]:
                    break
            counter -= 1
            if counter == 0:
                break
            clause = self._reasons[abs(literal)]
        learned[0] = -literal
        backtrack_level = 0
        if len(learned) > 1:
            # Find the highest level among the non-asserting literals.
            max_index = 1
            for k in range(2, len(learned)):
                if self._levels[abs(learned[k])] > self._levels[abs(learned[max_index])]:
                    max_index = k
            learned[1], learned[max_index] = learned[max_index], learned[1]
            backtrack_level = self._levels[abs(learned[1])]
        return learned, backtrack_level

    def _bump(self, variable: int) -> None:
        self._activity[variable] += self._activity_inc
        if self._activity[variable] > 1e100:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1e-100
            self._activity_inc *= 1e-100

    def _backtrack(self, level: int) -> None:
        if len(self._trail_limits) <= level:
            return
        limit = self._trail_limits[level]
        for literal in reversed(self._trail[limit:]):
            variable = abs(literal)
            self._values[variable] = _UNASSIGNED
            self._levels[variable] = 0
            self._reasons[variable] = None
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._qhead = min(self._qhead, len(self._trail))

    def _decide(self) -> Optional[int]:
        best_var = 0
        best_activity = -1.0
        for variable in range(1, self.num_vars + 1):
            if self._values[variable] == _UNASSIGNED and self._activity[variable] > best_activity:
                best_activity = self._activity[variable]
                best_var = variable
        if best_var == 0:
            return None
        return best_var if self._phase[best_var] else -best_var

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Solve the formula, optionally under unit ``assumptions``."""
        try:
            result = self._solve(assumptions)
        except BaseException:
            # A governor interrupt can leave a root-level conflict
            # unanalysed or level-0 literals unpropagated; the next
            # call starts over from a clean root.
            self._attached = False
            raise
        if self.obs is not None:
            self.obs.count("sat.calls")
            self.obs.count("sat.conflicts", result.conflicts)
            self.obs.count("sat.decisions", result.decisions)
            self.obs.count("sat.propagations", result.propagations)
            self.obs.count("sat.restarts", result.restarts)
        return result

    def _reset_search(self) -> None:
        """Clear the whole trail, root level included, before the
        watches are rebuilt."""
        for literal in self._trail:
            variable = abs(literal)
            self._values[variable] = _UNASSIGNED
            self._levels[variable] = 0
            self._reasons[variable] = None
        self._trail.clear()
        self._trail_limits.clear()
        self._qhead = 0

    def _root(self) -> bool:
        """Bring the solver to a propagated root level; False when the
        clause set alone is unsatisfiable.

        Later calls must not observe the previous call's assumption
        levels: every exit backtracks to level 0, and so does this.
        The level-0 trail and the watches survive between calls until
        ``add_clause`` or an interrupted search marks them stale.
        """
        self._backtrack(0)
        if self._empty_clause or self._root_conflict:
            return False
        if self._attached:
            return True
        self._reset_search()
        if not self._attach_all() or self._propagate() is not None:
            self._root_conflict = True
            return False
        self._attached = True
        return True

    def _solve(self, assumptions: Sequence[int]) -> SatResult:
        for literal in assumptions:
            if literal == 0 or abs(literal) > self.num_vars:
                raise ValueError(
                    f"assumption literal {literal} out of range (num_vars={self.num_vars})"
                )
        assumption_set = frozenset(assumptions)
        if not self._root():
            return self._result(False)
        for literal in assumptions:
            if self._value_of(literal) == _TRUE:
                continue
            if self._value_of(literal) == _FALSE:
                # The assumption is already falsified: the failed core
                # is the assumption itself plus whatever assumptions
                # forced its negation.
                core = (literal,) + self._assumption_core([literal], assumption_set)
                return self._result(False, core=core)
            self._trail_limits.append(len(self._trail))
            self._enqueue(literal, None)
            conflict = self._propagate()
            if conflict is not None:
                core = self._assumption_core(conflict.literals, assumption_set)
                return self._result(False, core=core)
        assumption_level = len(self._trail_limits)
        conflict_budget = 100
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self.governor is not None:
                    self.governor.checkpoint("sat")
                if not self._trail_limits:
                    self._root_conflict = True
                    return self._result(False)
                if len(self._trail_limits) <= assumption_level:
                    core = self._assumption_core(conflict.literals, assumption_set)
                    return self._result(False, core=core)
                learned, backtrack_level = self._analyze(conflict)
                backtrack_level = max(backtrack_level, assumption_level)
                self._backtrack(backtrack_level)
                clause = _Clause(learned, learned=True)
                if len(learned) > 1:
                    self.clauses.append(clause)
                    self.num_learned += 1
                    self._watch(clause, learned[0])
                    self._watch(clause, learned[1])
                self._enqueue(learned[0], clause if len(learned) > 1 else None)
                self._activity_inc /= self._activity_decay
                conflict_budget -= 1
                if conflict_budget <= 0:
                    # Geometric restart (clamped; see module constants).
                    self.restarts += 1
                    conflict_budget = self._restart_interval()
                    self._backtrack(assumption_level)
                continue
            decision = self._decide()
            if decision is None:
                return self._result(True)
            self.decisions += 1
            self._trail_limits.append(len(self._trail))
            self._enqueue(decision, None)

    def _restart_interval(self) -> int:
        """The next geometric restart interval, clamped to a ceiling.

        The unclamped ``int(100 * 1.5 ** (conflicts / 100))`` raises
        ``OverflowError`` (via ``float('inf')``) once ``conflicts``
        passes ~175k; clamping both the exponent and the result keeps
        long runs restarting on a sane schedule.
        """
        exponent = min(self.conflicts / 100.0, _RESTART_EXPONENT_CAP)
        return min(int(_RESTART_BASE * 1.5 ** exponent), _RESTART_INTERVAL_CEILING)

    def _assumption_core(
        self, seed: Iterable[int], assumption_set: frozenset
    ) -> Tuple[int, ...]:
        """Failed-assumption analysis (MiniSat's ``analyzeFinal``).

        Walks antecedents backwards from the falsified ``seed``
        literals; every assumption decision reached belongs to a subset
        of the assumptions that is unsatisfiable together with the
        clause set.  Literals assigned at level 0 are implied by the
        clause set alone and contribute nothing, as are reason-less
        literals that are not assumptions (units asserted by conflict
        analysis, which are clause-set consequences).
        """
        seen = [False] * (self.num_vars + 1)
        pending = 0
        for lit in seed:
            variable = abs(lit)
            if self._levels[variable] > 0 and not seen[variable]:
                seen[variable] = True
                pending += 1
        core: List[int] = []
        for literal in reversed(self._trail):
            if pending == 0:
                break
            variable = abs(literal)
            if not seen[variable]:
                continue
            seen[variable] = False
            pending -= 1
            reason = self._reasons[variable]
            if reason is None:
                if literal in assumption_set:
                    core.append(literal)
            else:
                for lit in reason.literals:
                    v = abs(lit)
                    if self._levels[v] > 0 and not seen[v]:
                        seen[v] = True
                        pending += 1
        core.reverse()
        return tuple(core)

    def _result(self, satisfiable: bool, core: Tuple[int, ...] = ()) -> SatResult:
        assignment: Dict[int, bool] = {}
        if satisfiable:
            for variable in range(1, self.num_vars + 1):
                if self._values[variable] != _UNASSIGNED:
                    assignment[variable] = self._values[variable] == _TRUE
        result = SatResult(
            satisfiable,
            assignment,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
            core=core,
        )
        self._backtrack(0)
        return result


def solve_clauses(
    num_vars: int,
    clauses: Iterable[Iterable[int]],
    governor: Optional[Governor] = None,
    obs: Optional[Instrumentation] = None,
) -> SatResult:
    """One-shot convenience wrapper."""
    solver = SatSolver(num_vars, governor=governor, obs=obs)
    for clause in clauses:
        solver.add_clause(clause)
    return solver.solve()
