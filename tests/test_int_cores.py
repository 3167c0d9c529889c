"""The int cores that generate and verify share, against plain copies of
the per-literal code they replaced, kept here as references.

``solver._dpll``, ``fragments._reindex``, ``rcl._reindex`` and
``rcl._ground`` must give the reference's result on seeded random
canonical inputs: clauses of width 1 to 3, as tuples, as lists and mixed,
over 1 to 25 variables (both sides of the 21-variable table cap), and the
empty formula.  A ``SolveResult`` is compared whole (label, model and
stats), a renumbering with its maps (item order included), a grounding
clause by clause, and a refusal by its type and text.
"""

import random
from math import comb, perm

import pytest

from nlsatgen import cnf, rcl
from nlsatgen.cnf import CnfFormula, _dimacs, _dimacs_lines, _IntCnf
from nlsatgen.fragments import FragmentError, _reindex, reindex_formula
from nlsatgen.rcl import RclProblem, _IntProblem, reindex_problem
from nlsatgen.sampler import SampleSpec, _clause_stream, _clause_tables
from nlsatgen.solver import (
    SAT,
    UNSAT,
    BudgetExhaustedError,
    SolveResult,
    SolveStats,
    _clause_entries,
    _dpll,
)

# ---------------------------------------------------------------- references


def ref_dpll(n, clauses, max_decisions):
    m = len(clauses)
    if m == 0:
        return SolveResult(SAT, {v: False for v in range(1, n + 1)}, SolveStats())
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
    every_var = (2 << n) - 2
    at = af = 0
    pt = pf = 0
    trail = []
    qhead = 0
    first_open = 0
    dstack = []
    decisions = conflicts = propagations = 0
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
        conflict = False
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            if lit > 0:
                pt |= 1 << lit
            else:
                pf |= 1 << -lit
            for pos, neg, rest in occ[-lit]:
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
                dstack.pop()
            if not dstack:
                return SolveResult(UNSAT, None, SolveStats(decisions, conflicts, propagations))
            lit, at, af, qhead, first_open = dstack[-1]
            dstack[-1] = (-lit, at, af, qhead, first_open)
            pt, pf = at, af
            del trail[qhead:]
            at |= 1 << -lit
            trail.append(-lit)
            continue
        var = 0
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
            return SolveResult(SAT, model, SolveStats(decisions, conflicts, propagations))
        if decisions >= max_decisions:
            raise BudgetExhaustedError(
                f"budget exhausted: more than {max_decisions} decisions needed"
            )
        decisions += 1
        dstack.append((-var, at, af, len(trail), first_open))
        af |= 1 << var
        trail.append(-var)


def ref_appearance_map(var_walk):
    mapping = {}
    for v in var_walk:
        if v not in mapping:
            mapping[v] = len(mapping) + 1
    return mapping


def ref_check_all_mentioned(mapping, n, what="variables"):
    if len(mapping) != n:
        missing = sorted(set(range(1, n + 1)) - set(mapping))
        raise FragmentError(f"{what} never mentioned: {missing}")


def ref_in_var_order(a, b, c):
    x, y, z = abs(a), abs(b), abs(c)
    if x < y:
        if y < z:
            return a, b, c
        if x < z < y:
            return a, c, b
        if z < x:
            return c, a, b
    elif y < x:
        if x < z:
            return b, a, c
        if y < z < x:
            return b, c, a
        if z < y:
            return c, b, a
    return None


def ref_remap(cl, mapping):
    if len(cl) == 3:
        a, b, c = cl
        clause = ref_in_var_order(
            mapping[a] if a > 0 else -mapping[-a],
            mapping[b] if b > 0 else -mapping[-b],
            mapping[c] if c > 0 else -mapping[-c],
        )
        if clause is not None:
            return clause
    return tuple(sorted([mapping[v] if v > 0 else -mapping[-v] for v in cl], key=abs))


def ref_reindex(f):
    mapping = ref_appearance_map(abs(v) for cl in f.clauses for v in cl)
    ref_check_all_mentioned(mapping, f.n_vars)
    return _IntCnf(f.n_vars, [ref_remap(cl, mapping) for cl in f.clauses]), mapping


def ref_sentence_walk(cl):
    walk = [abs(v) for v in cl]
    r = -1
    for i, v in enumerate(cl):
        if v < 0:
            r = i
            break
    if r > 0:
        walk.insert(0, walk.pop(r))
    return walk


def ref_rcl_reindex(p):
    pred_walk = []
    for cl in p.universal_clauses:
        pred_walk.extend(ref_sentence_walk(cl))
    for _, cl in p.ground_clauses:
        pred_walk.extend([abs(v) for v in cl])
    pred_map = ref_appearance_map(pred_walk)
    ref_check_all_mentioned(pred_map, p.n_predicates, "predicates")
    const_map = ref_appearance_map(cid for cid, _ in p.ground_clauses)
    ref_check_all_mentioned(const_map, p.n_constants, "constants")
    universals = [ref_remap(cl, pred_map) for cl in p.universal_clauses]
    grounds = [(const_map[cid], ref_remap(cl, pred_map)) for cid, cl in p.ground_clauses]
    return _IntProblem(p.n_predicates, p.n_constants, universals, grounds), pred_map, const_map


def ref_shift(cl, off):
    return tuple([v + off if v > 0 else v - off for v in cl])


def ref_ground(p):
    n_predicates = p.n_predicates
    offsets = [(c - 1) * n_predicates for c in range(1, p.n_constants + 1)]
    clauses = [ref_shift(cl, off) for cl in p.universal_clauses for off in offsets]
    clauses += [ref_shift(cl, offsets[cid - 1]) for cid, cl in p.ground_clauses]
    return _IntCnf(n_predicates * p.n_constants, clauses)


# ---------------------------------------------------------------- inputs

N_RANGE = range(1, 26)
FORMS = ("tuple", "list", "mixed")


def clause(n, width, rng):
    variables = sorted(rng.sample(range(1, n + 1), min(width, n)))
    return tuple(-v if rng.random() < 0.5 else v for v in variables)


def draw(n, m, rng, widths=(1, 2, 3), weights=(1, 3, 12)):
    return [clause(n, rng.choices(widths, weights)[0], rng) for _ in range(m)]


def in_form(clauses, form, rng):
    if form == "tuple":
        return list(clauses)
    if form == "list":
        return [list(cl) for cl in clauses]
    return [list(cl) if rng.random() < 0.5 else cl for cl in clauses]


def outcome(fn, *args):
    """fn's result, or its exception's type and text."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def same(got, want):
    """Equal, and of the same types all the way down (a tuple is no list)."""
    if type(got) is not type(want):
        return False
    if isinstance(got, (list, tuple)):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(got, dict):
        return list(got.items()) == list(want.items())
    return got == want


# ---------------------------------------------------------------- _dpll


def test_dpll_matches_the_reference_on_the_empty_formula():
    for n in range(26):
        for clauses in ([], ()):
            assert same(_dpll(n, clauses, 0), ref_dpll(n, clauses, 0))


@pytest.mark.parametrize("n", N_RANGE)
def test_dpll_matches_the_reference(n):
    rng = random.Random(f"dpll:{n}")
    for trial in range(24):
        # from under-constrained to well past the 3-SAT threshold
        m = rng.randrange(1, 7 * n + 2)
        widths = rng.choice([(3,), (2, 3), (1, 2, 3), (1, 2), (1,)])
        clauses = draw(n, m, rng, widths, (1,) * len(widths))
        for form in FORMS:
            f = in_form(clauses, form, rng)
            kept = [list(cl) for cl in f]
            for budget in (10_000_000, trial % 4):
                want = outcome(ref_dpll, n, f, budget)
                got = outcome(_dpll, n, f, budget)
                assert same(got, want), (n, form, budget, f)
            assert [list(cl) for cl in f] == kept  # the clauses are not changed


def test_dpll_matches_the_reference_past_the_table_cap_with_repeats():
    # equal clauses, tuples of every width and a formula read twice in
    # one process, on both sides of 21 variables
    rng = random.Random("dpll-repeats")
    for n in (3, 20, 21, 22, 25):
        clauses = draw(n, 4 * n, rng)
        clauses += clauses[: n // 2]
        rng.shuffle(clauses)
        for _ in range(2):
            assert same(_dpll(n, clauses, 10**7), ref_dpll(n, clauses, 10**7))


# ---------------------------------------------------------------- fragments._reindex


@pytest.mark.parametrize("n", N_RANGE)
def test_reindex_matches_the_reference(n):
    rng = random.Random(f"reindex:{n}")
    for _ in range(30):
        m = rng.randrange(0, 5 * n + 2)
        clauses = draw(n, m, rng)
        for form in FORMS:
            f = _IntCnf(n, in_form(clauses, form, rng))
            assert same(outcome(_reindex, f), outcome(ref_reindex, f)), (n, form, f)


def test_reindex_matches_the_reference_on_the_empty_formula():
    for n in (0, 1, 5):
        f = _IntCnf(n, [])
        assert same(outcome(_reindex, f), outcome(ref_reindex, f))


def test_reindex_formula_refuses_with_the_reference_text():
    rng = random.Random("reindex-refusal")
    refused = 0
    for n in N_RANGE:
        for _ in range(10):
            clauses = draw(n, rng.randrange(0, 2 * n + 1), rng)
            want = outcome(ref_reindex, _IntCnf(n, clauses))
            got = outcome(reindex_formula, CnfFormula.from_ints(n, clauses))
            if isinstance(want, tuple) and want[0] is FragmentError:
                refused += 1
                assert want[1].startswith("variables never mentioned: [")
                assert got == want
            else:
                g, mapping = got
                assert g == CnfFormula.from_ints(n, want[0].clauses)
                assert list(mapping.items()) == list(want[1].items())
    assert refused > 20


# ---------------------------------------------------------------- rcl


def rcl_problem(rng, n_predicates, n_constants, m_universal, m_ground, widths=(1, 2, 3)):
    universals = draw(n_predicates, m_universal, rng, widths, (1,) * len(widths))
    grounds = [
        (rng.randrange(1, n_constants + 1), clause(n_predicates, rng.choice(widths), rng))
        for _ in range(m_ground)
    ]
    return universals, grounds


@pytest.mark.parametrize("n_predicates", range(2, 26))
def test_rcl_reindex_and_ground_match_the_reference(n_predicates):
    rng = random.Random(f"rcl:{n_predicates}")
    for _ in range(16):
        n_constants = rng.randrange(1, 6)
        universals, grounds = rcl_problem(
            rng, n_predicates, n_constants,
            rng.randrange(0, 3 * n_predicates), rng.randrange(0, 4 * n_constants),
            rng.choice([(3,), (1, 2, 3)]),
        )
        for form in FORMS:
            p = _IntProblem(
                n_predicates, n_constants,
                in_form(universals, form, rng),
                [(cid, cl) for cid, cl in zip(
                    [cid for cid, _ in grounds], in_form([cl for _, cl in grounds], form, rng)
                )],
            )
            assert same(outcome(rcl._reindex, p), outcome(ref_rcl_reindex, p)), (form, p)
            assert same(outcome(rcl._ground, p), outcome(ref_ground, p)), (form, p)


def test_rcl_cores_match_the_reference_on_the_empty_problem():
    for n_predicates, n_constants in ((2, 1), (5, 3)):
        p = _IntProblem(n_predicates, n_constants, [], [])
        assert same(outcome(rcl._reindex, p), outcome(ref_rcl_reindex, p))
        assert same(outcome(rcl._ground, p), outcome(ref_ground, p))


def test_reindex_problem_refuses_with_the_reference_text():
    rng = random.Random("rcl-refusal")
    refused = set()
    for n_predicates in range(2, 26):
        for _ in range(8):
            n_constants = rng.randrange(1, 5)
            universals, grounds = rcl_problem(
                rng, n_predicates, n_constants,
                rng.randrange(0, n_predicates), rng.randrange(1, 2 * n_constants + 1),
            )
            int_problem = _IntProblem(n_predicates, n_constants, universals, grounds)
            want = outcome(ref_rcl_reindex, int_problem)
            p = RclProblem(
                n_predicates, n_constants,
                [rcl._as_clause(cl) for cl in universals],
                [(cid, rcl._as_clause(cl)) for cid, cl in grounds],
            )
            got = outcome(reindex_problem, p)
            if isinstance(want, tuple) and want[0] is FragmentError:
                refused.add(want[1].split(" never")[0])
                assert got == want
            else:
                assert got[0] == rcl._as_problem(want[0])
                assert [list(m.items()) for m in got[1:]] == [list(m.items()) for m in want[1:]]
    assert refused == {"predicates", "constants"}


# ---------------------------------------------------------------- table budget


def test_tables_kept_per_process_hold_what_the_cnf_docstring_states():
    # "Tables kept per process" in the cnf module docstring: each table is
    # built at most up to 21 variables and holds the stated entry count
    # there; nothing is built at 22
    cap = 21
    caches = (_dimacs_lines, _clause_entries, _clause_tables)
    for cache in caches:
        cache.cache_clear()
    rng = random.Random("budget")

    def use_every_table(n):
        _dimacs(_IntCnf(n, [(1, -2, n)]))
        _dpll(n, [(1, -2, n)], 10)
        for p_int in (0.0, 1.0):
            next(_clause_stream(SampleSpec(n, p_int, 0.5), rng))

    use_every_table(cap + 1)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]
    use_every_table(cap)
    assert [cache.cache_info().currsize for cache in caches] == [1, 1, 2]
    stated = {
        "_dimacs_lines": comb(cap, 3) * 8,
        "_clause_entries": comb(cap, 3) * 8,
        "order, width 3": perm(cap, 3),
        "signed, width 3": comb(cap, 3) * 8,
        "order, width 2": perm(cap, 2),
        "signed, width 2": comb(cap, 2) * 4,
    }
    order3, signed3 = _clause_tables(cap, 3)
    order2, signed2 = _clause_tables(cap, 2)
    held = {
        "_dimacs_lines": len(_dimacs_lines(cap)),
        "_clause_entries": len(_clause_entries(cap)),
        "order, width 3": len(order3),
        "signed, width 3": len(signed3),
        "order, width 2": len(order2),
        "signed, width 2": len(signed2),
    }
    assert held == stated
    assert _clause_entries(cap).keys() == _dimacs_lines(cap).keys()
    for count in stated.values():
        assert f"{count:,}" in cnf.__doc__
    for name in ("sampler._clause_tables", "_dimacs_lines", "solver._clause_entries"):
        assert name in cnf.__doc__
