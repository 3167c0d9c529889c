"""Complete SAT solving for small CNF formulas, with search statistics.

The solver is a DPLL procedure with unit propagation and chronological
backtracking.  The branching rule is fixed on purpose: always pick the
lowest-index unassigned variable and try False before True.  With the
rule pinned, the reported statistics are a deterministic function of
the formula, which makes them usable as difficulty annotations.

Statistics semantics:

* ``decisions``     branching assignments (the False branch; flipping a
                    decision to True on backtrack is not recounted)
* ``conflicts``     clause falsifications, each triggering a backtrack
* ``propagations``  assignments forced by unit propagation

Once every clause is satisfied the remaining variables are filled in as
False without branching, so formulas decided by propagation alone
report ``decisions == 0``.

The search is one loop over variable bitmasks, with variable v at bit
v.  One pair of masks holds the variables assigned true and false; a
second pair holds the same for the part of the trail already
propagated.  Each clause is a positive and a negative variable mask,
listed under each of its literals in one list indexed by signed literal,
so -v wraps around the end of a list of 2n+1.  Propagating a literal
looks only at those clauses of its negation in which all literals but
one have been propagated false, counted on the propagated masks, and
then reads the assigned masks for the clause's one free literal or the
conflict.  Counting on the propagated masks keeps the order in which
units are found, and so ``propagations``, that of an engine counting
each clause's literals as they are propagated.  The trail holds the
literals made true, in order.  A decision pushes its literal and the
assigned masks onto the decision stack, whose literals are the decision
path, and a conflict restores the masks of the latest decision still to
flip in one step.

Validation happens at the boundary: :func:`solve` takes a
``CnfFormula``, whose constructors have checked every ``Clause`` and
``Literal``, and converts once to signed ints
(+v / -v).  The search itself, ``_dpll``, works on those int tuples
only and checks nothing, so the Monte Carlo in the sampler and the
grl, rcl and ruletaker generators can feed it clauses that are
canonical by construction without building objects.  Entailment has
the same split: :func:`check_entailment` checks the query and calls
``_entailment``, which ``verify`` calls directly on parsed int clauses
and which also returns the refuting solve's statistics.

Beside the search sit two truth-table routines over big-integer masks
of the 2^n assignments: :func:`solve_bruteforce`, the oracle, and
``_mask_scan``, one pass over a clause stream that gives the mask of
every model and stops at the shortest unsat prefix.  This module alone
chooses between the scan and the search, for three questions: where a
clause stream first turns unsat (``_unsat_threshold``, calibration's
thresholds), whether clauses are satisfiable (``_satisfiable``,
ruletaker's retrofit) and which literals they entail (``_backbone``,
ruletaker's conjectures).  Up to ``_MASK_SCAN_MAX_VARS`` variables each
is answered by ``_mask_scan`` and the decision budget is unused; above
it each searches with ``_dpll`` within the budget.  The scan's literal
masks are built once per n (``_literal_masks``), not once per scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .cnf import CnfFormula, Literal

DEFAULT_MAX_DECISIONS = 10_000_000

SAT = "sat"
UNSAT = "unsat"


class BudgetExhaustedError(RuntimeError):
    """Raised when the decision budget runs out before an answer."""


class DegenerateTheoryError(ValueError):
    """Raised when an entailment query is posed against an unsat theory."""


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0

    def as_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
        }


@dataclass
class SolveResult:
    label: str
    model: Optional[dict]
    stats: SolveStats


def solve(f: CnfFormula, max_decisions: int = DEFAULT_MAX_DECISIONS) -> SolveResult:
    """Decide satisfiability of a canonical formula.

    Returns a total model on sat (unconstrained variables default to
    False).  Raises BudgetExhaustedError when more than ``max_decisions``
    branching steps would be needed; never returns a wrong answer.
    """
    return _dpll(f.n_vars, f.to_int_clauses(), max_decisions)


def _dpll(n: int, clauses, max_decisions: int) -> SolveResult:
    """The search core: DPLL over signed-int clauses on variables 1..n.

    ``clauses`` is a sequence of canonical signed-int clauses (tuples or
    lists, +v / -v).  Nothing is validated here; callers either pass a
    canonical ``CnfFormula`` through :func:`solve` or build the clauses
    from a draw that is canonical by construction.
    """
    m = len(clauses)
    if m == 0:
        return SolveResult(SAT, {v: False for v in range(1, n + 1)}, SolveStats())

    # Variable v is bit v of every mask.  occ is indexed by signed
    # literal (-v wraps around to 2n+1-v) and lists, per clause holding
    # that literal, the clause's positive and negative variable masks
    # and its width - 1.
    occ = [[] for _ in range(2 * n + 1)]
    masks = []
    for cl in clauses:
        pos = neg = 0
        for lit in cl:
            if lit > 0:
                pos |= 1 << lit
            else:
                neg |= 1 << -lit
        entry = (pos, neg, len(cl) - 1)
        masks.append(entry)
        for lit in cl:
            occ[lit].append(entry)
    every_var = (2 << n) - 2              # bits 1..n
    at = af = 0                           # variables assigned true / false
    pt = pf = 0                           # the same for trail[:qhead], the propagated part
    trail = []                            # literals made true, in assignment order
    qhead = 0                             # next trail position to propagate
    first_open = 0                        # clauses before it are satisfied
    dstack = []                           # (decision literal, at, af, trail base, first_open)
    decisions = conflicts = propagations = 0

    # level-0 units seed the first propagation
    for cl in clauses:
        if len(cl) == 1:
            lit = cl[0]
            bit = 1 << (lit if lit > 0 else -lit)
            if not (at | af) & bit:
                propagations += 1
                if lit > 0:
                    at |= bit
                else:
                    af |= bit
                trail.append(lit)

    while True:
        # propagate the trail to fixpoint or to the first falsified clause
        conflict = False
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            if lit > 0:
                pt |= 1 << lit
            else:
                pf |= 1 << -lit
            for pos, neg, rest in occ[-lit]:
                # look only at a clause with all literals but one
                # propagated false, as counting them would; the assigned
                # masks, queued literals included, then skip it as
                # satisfied or give its free literal or the conflict
                if ((pos & pf) | (neg & pt)).bit_count() < rest or (pos & at) | (neg & af):
                    continue
                free = (pos | neg) & ~(at | af)
                if not free:
                    conflict = True
                    break
                propagations += 1
                if free & pos:
                    at |= free
                    trail.append(free.bit_length() - 1)
                else:
                    af |= free
                    trail.append(1 - free.bit_length())
            if conflict:
                break
        if conflict:
            conflicts += 1
            while dstack and dstack[-1][0] > 0:
                dstack.pop()  # both branches tried
            if not dstack:
                return SolveResult(UNSAT, None, SolveStats(decisions, conflicts, propagations))
            # back to the latest decision not yet flipped: the masks as
            # they were then, when every trail entry had been propagated
            lit, at, af, qhead, first_open = dstack[-1]
            dstack[-1] = (-lit, at, af, qhead, first_open)
            pt, pf = at, af
            del trail[qhead:]
            at |= 1 << -lit  # second branch: True
            trail.append(-lit)
            continue
        var = 0  # stays 0 when every clause is satisfied or no variable is unset
        while first_open < m:
            pos, neg, _ = masks[first_open]
            if not (pos & at) | (neg & af):
                free = every_var & ~(at | af)
                if free:
                    var = (free & -free).bit_length() - 1
                break
            first_open += 1
        if not var:
            model = {v: (at >> v) & 1 == 1 for v in range(1, n + 1)}
            if __debug__:
                true = {v if model[v] else -v for v in model}
                assert not any(map(true.isdisjoint, clauses))
            return SolveResult(SAT, model, SolveStats(decisions, conflicts, propagations))
        if decisions >= max_decisions:
            raise BudgetExhaustedError(
                f"budget exhausted: more than {max_decisions} decisions needed"
            )
        decisions += 1
        dstack.append((-var, at, af, len(trail), first_open))
        af |= 1 << var  # first branch: False
        trail.append(-var)


ENTAILED = "entailed"
CONTRADICTED = "contradicted"
UNKNOWN = "unknown"


def check_entailment(
    theory: CnfFormula, q: Literal, max_decisions: int = DEFAULT_MAX_DECISIONS
) -> str:
    """Classify a literal against a satisfiable theory by refutation.

    entailed      theory AND NOT q is unsat
    contradicted  theory AND q is unsat
    unknown       both augmentations are satisfiable
    """
    if q.var < 1 or q.var > theory.n_vars:
        raise ValueError(f"query variable {q.var} outside 1..{theory.n_vars}")
    status, _ = _entailment(theory.n_vars, theory.to_int_clauses(), q.to_int(), max_decisions)
    return status


def _entailment(n: int, clauses, q: int, max_decisions: int) -> tuple:
    """The entailment core, on signed-int clauses over 1..n and a signed-int q.

    Returns (status, stats): ``stats`` is the ``SolveStats`` of the
    refuting solve, theory + (-q) for entailed and theory + (q) for
    contradicted, and None for unknown.  Like ``_dpll``, it checks nothing.
    """
    clauses = list(clauses)
    with_not_q = _dpll(n, clauses + [(-q,)], max_decisions)
    with_q = _dpll(n, clauses + [(q,)], max_decisions)
    if with_not_q.label == UNSAT and with_q.label == UNSAT:
        raise DegenerateTheoryError("degenerate theory: unsatisfiable on its own")
    if with_not_q.label == UNSAT:
        return ENTAILED, with_not_q.stats
    if with_q.label == UNSAT:
        return CONTRADICTED, with_q.stats
    return UNKNOWN, None


BRUTEFORCE_MAX_VARS = 24

# Largest n whose sat answers come from truth-table masks rather than
# search.  Its 2^n-bit masks outgrow DPLL past here: per calibration
# trial at n=17 the scan took 0.12-0.26x bisection's time for every
# width mix tried, at 18 0.32-0.87x, and at 19 1.74x for p_int 0.5
# (20: 2.5-5.6x).
_MASK_SCAN_MAX_VARS = 17


@lru_cache(maxsize=2)
def _var_masks(n: int) -> tuple:
    """Bitmask per variable over the 2^n assignment space.

    Assignment index i encodes variable v in bit (n - v), so index
    order enumerates assignments lexicographically with False first.
    """
    size = 1 << n
    masks = [0] * (n + 1)
    for v in range(1, n + 1):
        run = 1 << (n - v)
        unit = ((1 << run) - 1) << run
        length = run << 1
        while length < size:
            unit |= unit << length
            length <<= 1
        masks[v] = unit
    return tuple(masks), (1 << size) - 1


@lru_cache(maxsize=2)
def _literal_masks(n: int) -> tuple:
    """The assignments that make each signed literal true, -v at 2n+1-v
    as in ``_dpll``'s occurrence lists; index 0 holds the full mask."""
    masks, full = _var_masks(n)
    return (full, *masks[1:], *[full ^ mask for mask in reversed(masks[1:])])


def solve_bruteforce(f: CnfFormula, max_vars: int = BRUTEFORCE_MAX_VARS) -> SolveResult:
    """Exhaustive truth-table check, usable as an oracle for n <= 24.

    Implemented over big-integer assignment masks rather than the
    search machinery above, so the two paths share no logic.  Returns
    the first satisfying assignment in lexicographic order (False
    before True, variable 1 outermost).
    """
    n = f.n_vars
    if n > max_vars:
        raise ValueError(f"brute force refused: n={n} exceeds cap {max_vars}")
    if n == 0:
        return SolveResult(SAT, {}, SolveStats())
    masks, full = _var_masks(n)
    acc = full
    for cl in f.clauses:
        cm = 0
        for lit in cl.literals:
            cm |= (full ^ masks[lit.var]) if lit.negated else masks[lit.var]
        acc &= cm
        if acc == 0:
            return SolveResult(UNSAT, None, SolveStats())
    idx = (acc & -acc).bit_length() - 1
    model = {v: bool((idx >> (n - v)) & 1) for v in range(1, n + 1)}
    return SolveResult(SAT, model, SolveStats())


def _mask_scan(n: int, clauses) -> tuple:
    """The models of signed-int clauses over 1..n, and how many were read.

    ``clauses`` is any iterable, read one clause at a time.  Each
    clause's assignment mask, the OR of its literals' ``_literal_masks``,
    is ANDed into a running mask over the truth table of 1..n (bit i is
    assignment i in ``_var_masks`` order), and the scan stops at the
    first prefix that leaves no assignment standing.  Returns (models,
    read): models is the running mask, 0
    when that prefix was found, and read is the number of clauses read,
    which is then that prefix's length.  No search, so no budget; the
    cost is a few 2^n-bit operations per clause.
    """
    masks = _literal_masks(n)
    acc = masks[0]
    read = 0
    for read, cl in enumerate(clauses, 1):
        if len(cl) == 3:
            a, b, c = cl
            acc &= masks[a] | masks[b] | masks[c]
        else:
            cm = 0
            for lit in cl:
                cm |= masks[lit]
            acc &= cm
        if not acc:
            break
    return acc, read


def _unsat_threshold(n: int, clauses, max_decisions: int) -> int:
    """Length of the shortest unsat prefix of clauses, or their count + 1 if none.

    Up to ``_MASK_SCAN_MAX_VARS`` variables it is one truth-table scan
    that reads ``clauses``, any iterable, only up to that prefix, so a
    lazy stream is drawn no further; the scan does no search and ignores
    ``max_decisions``.  Above it, adding clauses never makes an unsat
    formula sat, so bisection with ``_dpll`` finds it over the whole
    stream, and a solve may exhaust the budget.
    """
    if n <= _MASK_SCAN_MAX_VARS:
        models, read = _mask_scan(n, clauses)
        return read + 1 if models else read
    clauses = list(clauses)
    sat, unsat = 0, len(clauses) + 1  # known-sat and known-unsat lengths
    probe = len(clauses)              # solve the whole stream first
    while unsat - sat > 1:
        if _dpll(n, clauses[:probe], max_decisions).label == "sat":
            sat = probe
        else:
            unsat = probe
        probe = (sat + unsat) // 2
    return unsat


def _satisfiable(n: int, clauses, max_decisions: int) -> bool:
    """Whether signed-int clauses over 1..n have a model.

    Up to ``_MASK_SCAN_MAX_VARS`` variables it is one truth-table scan
    that reads ``clauses``, any iterable, only up to its first unsat
    prefix, and ignores ``max_decisions``.  Above it, it is one ``_dpll``
    solve over all of them, which may exhaust the budget.
    """
    if n <= _MASK_SCAN_MAX_VARS:
        return bool(_mask_scan(n, clauses)[0])
    return _dpll(n, list(clauses), max_decisions).label == SAT


def _backbone(n: int, clauses: list, max_decisions: int) -> list:
    """Every literal that signed-int clauses over 1..n entail, in variable order.

    Up to ``_MASK_SCAN_MAX_VARS`` variables it comes from the mask of
    all models: v is entailed when its models are all of them, and -v
    when it has none.  Above it, it is found from models by DPLL
    (Janota, Lynce & Marques-Silva 2015): starting from one model, each
    variable on which every model found so far agrees is tested once,
    by solving the clauses plus the negation of its literal.  A model of
    that formula rules out every candidate it flips, and
    unsatisfiability entails the literal.  Raises DegenerateTheoryError
    when the clauses have no model.
    """
    if n <= _MASK_SCAN_MAX_VARS:
        models, _ = _mask_scan(n, clauses)
        if not models:
            raise DegenerateTheoryError("degenerate theory: unsatisfiable on its own")
        masks, _ = _var_masks(n)
        entailed = []
        for v in range(1, n + 1):
            true_models = models & masks[v]
            if true_models == models:
                entailed.append(v)
            elif not true_models:
                entailed.append(-v)
        return entailed
    result = _dpll(n, clauses, max_decisions)
    if result.label != SAT:
        raise DegenerateTheoryError("degenerate theory: unsatisfiable on its own")
    candidates = {v: v if result.model[v] else -v for v in range(1, n + 1)}
    entailed = []
    while candidates:
        v, lit = next(iter(candidates.items()))
        del candidates[v]
        result = _dpll(n, clauses + [(-lit,)], max_decisions)
        if result.label == SAT:
            flipped = result.model
            candidates = {u: l for u, l in candidates.items() if flipped[u] == (l > 0)}
        else:
            entailed.append(lit)
    return entailed
