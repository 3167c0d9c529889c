"""Search engine: DPLL with propagation, brute force, entailment."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from nlsatgen.cnf import Clause, CnfFormula, Literal, evaluate
from nlsatgen.rng import derive_rng
from nlsatgen.sampler import SampleSpec, admissible_m, sample_clause
from nlsatgen.solver import (
    CONTRADICTED,
    DEFAULT_MAX_DECISIONS,
    ENTAILED,
    SAT,
    UNKNOWN,
    UNSAT,
    BudgetExhaustedError,
    DegenerateTheoryError,
    check_entailment,
    solve,
    solve_bruteforce,
)
from nlsatgen.solver import _MASK_SCAN_MAX_VARS, _dpll, _mask_scan


# ---------------------------------------------------------------- basics


def test_empty_formula_is_sat_with_no_work():
    r = solve(CnfFormula(0, ()))
    assert r.label == SAT
    assert r.model == {}
    assert r.stats.as_dict() == {"decisions": 0, "conflicts": 0, "propagations": 0}


def test_clause_free_formula_gets_all_false_model():
    r = solve(CnfFormula(3, ()))
    assert r.label == SAT
    assert r.model == {1: False, 2: False, 3: False}
    assert r.stats.decisions == 0


def test_complementary_units_unsat_without_deciding():
    r = solve(CnfFormula.from_ints(1, [(1,), (-1,)]))
    assert r.label == UNSAT
    assert r.model is None
    assert r.stats.decisions == 0
    assert r.stats.conflicts == 1


def test_hand_traced_three_clause_formula():
    # false-first branching: decide 1=F, decide 2=F, propagate 3=T,
    # clause (2,-3) falsifies -> backtrack, flip 2=T -> everything satisfied
    f = CnfFormula.from_ints(3, [(1, 2, 3), (-1, -2), (2, -3)])
    r = solve(f)
    assert r.label == SAT
    assert r.model == {1: False, 2: True, 3: False}
    assert r.stats.decisions == 2
    assert r.stats.conflicts == 1
    assert r.stats.propagations == 1


def test_unit_chain_needs_no_decisions():
    r = solve(CnfFormula.from_ints(2, [(1,), (-1, 2)]))
    assert r.label == SAT
    assert r.model == {1: True, 2: True}
    assert r.stats.decisions == 0
    assert r.stats.propagations == 2


def test_solve_is_deterministic():
    f = CnfFormula.from_ints(4, [(1, 2, 3), (-1, -2, 4), (2, -3, -4), (-1, 3)])
    a, b = solve(f), solve(f)
    assert a.label == b.label
    assert a.model == b.model
    assert a.stats.as_dict() == b.stats.as_dict()


def test_budget_exhaustion_raises():
    f = CnfFormula.from_ints(3, [(1, 2, 3)])
    with pytest.raises(BudgetExhaustedError) as exc:
        solve(f, max_decisions=0)
    assert "budget exhausted" in str(exc.value)
    # two false-first decisions then a forced literal satisfies it
    assert solve(f, max_decisions=2).label == SAT


# ---------------------------------------------------------------- propagation


def test_solve_propagates_units_to_fixpoint():
    r = solve(CnfFormula.from_ints(3, [(1,), (-1, 2), (-2, 3)]))
    assert r.label == SAT
    assert r.model == {1: True, 2: True, 3: True}
    assert (r.stats.decisions, r.stats.propagations) == (0, 3)


def test_solve_refutes_complementary_units_by_propagation():
    r = solve(CnfFormula.from_ints(1, [(1,), (-1,)]))
    assert r.label == UNSAT
    assert (r.stats.decisions, r.stats.conflicts) == (0, 1)


# a small propositional theory in the style of fact/rule reasoning demos:
# two entities, facts force a cascade through implication rules.
# vars: 1 round_B, 2 blue_A, 3 rough_A, 4 young_A, 5 big_A, 6 big_B,
#       7 green_A, 8 green_B, 9 round_A, 10 rough_B
_FACTS = [(1,), (2,), (3,), (4,)]
_RULES = [(-9, 5), (-1, 6), (-3, 7), (-10, 8), (-5, -7), (-6, -8)]


def _demo_theory():
    return CnfFormula.from_ints(10, _FACTS + _RULES)


def test_fact_rule_theory_solved_by_propagation_alone():
    r = solve(_demo_theory())
    assert r.label == SAT
    assert r.stats.decisions == 0
    # the cascade: facts -> green_A, big_B -> not green_B, not big_A...
    assert r.model[7] is True and r.model[8] is False


def test_fact_rule_theory_entailment_answers():
    theory = _demo_theory()
    assert check_entailment(theory, Literal(7)) == ENTAILED          # green_A
    assert check_entailment(theory, Literal(8)) == CONTRADICTED     # green_B
    assert check_entailment(theory, Literal(8, True)) == ENTAILED   # not green_B


def test_fact_rule_theory_conflict_by_propagation_only():
    denied = CnfFormula.from_ints(10, _FACTS + _RULES + [(-7,)])
    r2 = solve(denied)
    assert r2.label == UNSAT
    assert r2.stats.decisions == 0


# ---------------------------------------------------------------- entailment


def test_entailment_unknown_when_neither_side_refuted():
    assert check_entailment(CnfFormula.from_ints(2, [(1, 2)]), Literal(1)) == UNKNOWN


def test_entailment_rejects_degenerate_theory():
    with pytest.raises(DegenerateTheoryError) as exc:
        check_entailment(CnfFormula.from_ints(1, [(1,), (-1,)]), Literal(1))
    assert "degenerate theory" in str(exc.value)


def test_entailment_rejects_out_of_range_query():
    with pytest.raises(ValueError):
        check_entailment(CnfFormula.from_ints(2, [(1, 2)]), Literal(5))


def test_entailment_matches_bruteforce_semantics():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 8)
        m = rng.randint(1, 3 * n)
        clauses = set()
        while len(clauses) < m:
            width = rng.randint(1, min(3, n))
            variables = sorted(rng.sample(range(1, n + 1), width))
            clauses.add(tuple(v if rng.random() < 0.5 else -v for v in variables))
        f = CnfFormula.from_ints(n, sorted(clauses))
        if solve_bruteforce(f).label == UNSAT:
            continue
        q = Literal(rng.randint(1, n), rng.random() < 0.5)
        # oracle: enumerate all total assignments satisfying f
        holds_all, fails_all = True, True
        for bits in range(2 ** n):
            assignment = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
            if evaluate(f, assignment):
                if assignment[q.var] == (not q.negated):
                    fails_all = False
                else:
                    holds_all = False
        expected = ENTAILED if holds_all else CONTRADICTED if fails_all else UNKNOWN
        assert check_entailment(f, q) == expected


# ---------------------------------------------------------------- brute force


def test_bruteforce_first_model_is_lexicographic_false_first():
    r = solve_bruteforce(CnfFormula.from_ints(2, [(1, 2)]))
    assert r.label == SAT
    assert r.model == {1: False, 2: True}
    r2 = solve_bruteforce(CnfFormula.from_ints(2, [(-1, -2)]))
    assert r2.model == {1: False, 2: False}


def test_bruteforce_all_sign_patterns_is_unsat():
    clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    f = CnfFormula.from_ints(3, sorted(clauses))
    assert solve_bruteforce(f).label == UNSAT
    assert solve(f).label == UNSAT


def test_bruteforce_refuses_large_formulas():
    with pytest.raises(ValueError) as exc:
        solve_bruteforce(CnfFormula(25, ()))
    assert "brute force refused" in str(exc.value)


def test_bruteforce_empty_and_clause_free():
    assert solve_bruteforce(CnfFormula(0, ())).label == SAT
    r = solve_bruteforce(CnfFormula(2, ()))
    assert r.model == {1: False, 2: False}


# ---------------------------------------------------------------- agreement sweeps


def _sweep_specs():
    specs = []
    for i in range(240):
        p_int = (0.0, 0.5, 1.0)[i % 3]
        n = 3 + (i % 13)  # 3..15
        specs.append(SampleSpec(n=n, p_int=p_int, p_neg=0.5))
    return specs


def _band_m(spec, lo, hi, rng) -> int:
    """m uniform over the clause counts with lo <= m/n <= hi."""
    ms = admissible_m(spec.n, lo, hi)
    return ms[rng.randrange(len(ms))]


def _band_formula(spec, lo, hi, rng) -> CnfFormula:
    """A ``_band_m`` clause count, then that many clauses."""
    m = _band_m(spec, lo, hi, rng)
    return CnfFormula(spec.n, tuple([sample_clause(spec, rng) for _ in range(m)]))


def test_mask_scan_agrees_with_bruteforce():
    # widths 1-3 at every n up to the scan's limit, then n alternating
    # 8, 10, 12, 8 past the literal-mask cache's two entries: the scan
    # stops at the shortest unsat prefix, and its models' lowest bit is
    # the brute force's first model
    rng = random.Random(26)
    sizes = list(range(1, _MASK_SCAN_MAX_VARS + 1)) + [8, 10, 12, 8] * 3
    for n in sizes:
        for widths in ((1, 2, 3), (2, 3, 3), (3,)):
            widths = [w for w in widths if w <= n] or [1]
            clauses = []
            for _ in range(rng.randint(1, 6 * n)):
                variables = sorted(rng.sample(range(1, n + 1), rng.choice(widths)))
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
            models, read = _mask_scan(n, iter(clauses))
            prefix = CnfFormula.from_ints(n, clauses[:read])
            result = solve_bruteforce(prefix)
            if models:
                assert read == len(clauses)
                assert result.label == SAT
                idx = (models & -models).bit_length() - 1
                assert result.model == {v: bool((idx >> (n - v)) & 1) for v in range(1, n + 1)}
            else:
                assert result.label == UNSAT
                assert solve_bruteforce(CnfFormula.from_ints(n, clauses[:read - 1])).label == SAT


def test_solve_agrees_with_bruteforce_on_random_formulas():
    for i, spec in enumerate(_sweep_specs()):
        rng = derive_rng("solver-sweep", i)
        for k in range(3):
            f = _band_formula(spec, 1, 6, rng)
            fast, slow = solve(f), solve_bruteforce(f)
            assert fast.label == slow.label, f"disagree on {f.to_int_clauses()}"
            if fast.label == SAT:
                assert evaluate(f, fast.model) is True


def test_solve_agrees_with_bruteforce_on_retrofit_theories():
    # with-replacement draws that collapse into fact/rule theories —
    # the shape that historically stressed counter bookkeeping across
    # backtracking the hardest
    from nlsatgen.ruletaker import reindex_theory, retrofit

    checked = 0
    for seed in range(500):
        spec = SampleSpec(n=7 + seed % 4, p_int=1.0, p_neg=0.5, with_replacement=True)
        rng = derive_rng("retrofit-sweep", seed)
        theory = retrofit(spec, _band_m(spec, 3, 7, rng), rng)
        if theory is None:
            continue
        for candidate in (theory.formula(),):
            fast, slow = solve(candidate), solve_bruteforce(candidate)
            assert fast.label == slow.label, candidate.to_int_clauses()
            if fast.model is not None:
                assert evaluate(candidate, fast.model) is True
        try:
            renamed, _ = reindex_theory(theory)
        except ValueError:
            continue  # a variable never mentioned; renaming undefined
        f2 = renamed.formula()
        assert solve(f2).label == solve_bruteforce(f2).label
        checked += 1
    assert checked > 100


@st.composite
def canonical_formulas(draw):
    # hypothesis picks the size, the clause count and the mix of widths;
    # the clauses come from a seeded Random, because clause lists built
    # element by element lean on small repeated variables, and units
    # decide most formulas by propagation before any backtracking
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 6 * n))
    widths = draw(st.sampled_from(((3,), (2, 3, 3, 3), (1, 2, 3, 3, 3))))
    rnd = draw(st.randoms(use_true_random=True))
    clauses = []
    for _ in range(m):
        variables = sorted(rnd.sample(range(1, n + 1), min(rnd.choice(widths), n)))
        clauses.append(Clause(tuple(Literal(v, rnd.random() < 0.5) for v in variables)))
    return CnfFormula(n, clauses)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(canonical_formulas())
def test_dpll_core_agrees_with_bruteforce(f):
    result = solve(f)
    assert result.label == solve_bruteforce(f).label
    if result.label == SAT:
        assert evaluate(f, result.model) is True
    # the core gives the same answer on the boundary's lists and on the
    # tuples the Monte Carlo hands it
    for clauses in (f.to_int_clauses(), [cl.to_ints() for cl in f.clauses]):
        core = _dpll(f.n_vars, clauses, DEFAULT_MAX_DECISIONS)
        assert (core.label, core.model) == (result.label, result.model)
        assert core.stats == result.stats


def test_unsat_cores_with_deep_backtracking():
    # pigeonhole-flavored 3-SAT: every assignment falsified somewhere,
    # forcing many conflicts and full trail unwinding
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(4, 9)
        clauses = set()
        while True:
            width = rng.randint(2, min(3, n))
            variables = sorted(rng.sample(range(1, n + 1), width))
            clauses.add(tuple(v if rng.random() < 0.5 else -v for v in variables))
            if len(clauses) >= 6 * n:
                break
        f = CnfFormula.from_ints(n, sorted(clauses))
        assert solve(f).label == solve_bruteforce(f).label



def _dpll_pin_cases():
    """About 2,000 seeded formulas over n = 1..12, with unit clauses, each
    with a budget of 0, 1, 3 or 10^7 decisions; every n meets every budget."""
    rng = random.Random(1729)
    budgets = (0, 1, 3, 10**7)
    for i in range(2000):
        n = 1 + i % 12
        clauses = []
        for _ in range(rng.randint(0, 6 * n)):
            width = min(rng.choice((1, 2, 2, 3, 3, 3, 3, 3, 3, 3)), n)
            variables = sorted(rng.sample(range(1, n + 1), width))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        yield n, clauses, budgets[(i // 12) % 4]


def test_dpll_results_are_pinned():
    # one digest over every label, model and SolveStats, or the budget
    # error, so a rewrite of the search must reproduce all of them
    digest = hashlib.sha256()
    outcomes = set()
    for n, clauses, budget in _dpll_pin_cases():
        try:
            r = _dpll(n, clauses, budget)
            out = [r.label, sorted(r.model.items()) if r.model else None, r.stats.as_dict()]
        except BudgetExhaustedError as exc:
            out = ["budget", str(exc)]
        outcomes.add(out[0])
        digest.update(json.dumps(out).encode() + b"\n")
    assert outcomes == {SAT, UNSAT, "budget"}
    assert digest.hexdigest() == "b903e94f8eec9a60e0da45cd1b82c74d76463fbf28c0a3df4de81bec2aff126a"


def _dpll_wide_pin_cases():
    """About 1,000 seeded formulas over n = 13..40 near alpha 4.3, with
    unit and two-literal clauses, each with a budget of 0, 1, 3 or 10^7
    decisions; every n meets every budget.  From n = 30 on a variable's
    bit no longer fits one 30-bit digit of a Python int."""
    rng = random.Random(4330)
    budgets = (0, 1, 3, 10**7)
    for i in range(1008):
        n = 13 + i % 28
        clauses = []
        for _ in range(round(rng.uniform(3.9, 4.7) * n)):
            width = 1 if rng.random() < 0.005 else 2 if rng.random() < 0.05 else 3
            variables = sorted(rng.sample(range(1, n + 1), width))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        yield n, clauses, budgets[(i // 28) % 4]


def test_dpll_results_past_twelve_variables_are_pinned():
    # the same digest as above over wider formulas, each solved once from
    # tuples and once from lists, which must give the same outcome
    digest = hashlib.sha256()
    outcomes = set()
    for n, clauses, budget in _dpll_wide_pin_cases():
        outs = []
        for shaped in (clauses, [list(cl) for cl in clauses]):
            try:
                r = _dpll(n, shaped, budget)
                model = sorted(r.model.items()) if r.model else None
                outs.append([r.label, model, r.stats.as_dict()])
            except BudgetExhaustedError as exc:
                outs.append(["budget", str(exc)])
        assert outs[0] == outs[1]
        outcomes.add(outs[0][0])
        digest.update(json.dumps(outs[0]).encode() + b"\n")
    assert outcomes == {SAT, UNSAT, "budget"}
    assert digest.hexdigest() == "62a056b68d8a0e704f874d0068034c8a036bdaa627e6c9256e632655fd52fd5e"
