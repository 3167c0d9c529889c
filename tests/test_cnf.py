"""Clause/formula data model: construction, normalization, alpha, DIMACS."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from nlsatgen.cnf import (
    Clause,
    CnfFormula,
    DimacsError,
    Literal,
    alpha,
    evaluate,
    from_dimacs,
    _check_int_clause,
    _dimacs,
    _IntCnf,
    _normalize_ints,
    to_dimacs,
)


# ---------------------------------------------------------------- literals


def test_literal_int_encoding_round_trip():
    assert Literal(3).to_int() == 3
    assert Literal(3, True).to_int() == -3
    assert Literal.from_int(-7) == Literal(7, True)
    assert Literal.from_int(7) == Literal(7, False)
    for i in [1, -1, 5, -12, 100]:
        assert Literal.from_int(i).to_int() == i


def test_literal_negate_is_an_involution():
    lit = Literal(4, True)
    assert lit.negate() == Literal(4, False)
    assert lit.negate().negate() == lit


def test_literal_rejects_zero_and_bad_vars():
    with pytest.raises(ValueError):
        Literal.from_int(0)
    # bad variable ids are caught at clause construction
    with pytest.raises(ValueError):
        Clause((Literal(0),))
    with pytest.raises(ValueError):
        Clause((Literal(-2),))


# ---------------------------------------------------------------- clauses


def test_from_ints_sorts_literals_by_variable():
    assert Clause.from_ints(2, 1).to_ints() == (1, 2)
    assert Clause.from_ints(-3, 2, -1).to_ints() == (-1, 2, -3)


def test_canonical_constructor_rejects_unsorted_duplicate_tautological():
    with pytest.raises(ValueError):
        Clause((Literal(2), Literal(1)))
    with pytest.raises(ValueError):
        Clause.from_ints(1, 1)
    with pytest.raises(ValueError):
        Clause.from_ints(1, -1)


def test_clause_width_limits():
    with pytest.raises(ValueError):
        Clause.from_ints()
    with pytest.raises(ValueError):
        Clause.from_ints(1, 2, 3, 4)
    assert Clause.from_ints(5).width == 1
    assert Clause.from_ints(1, 2, 3).width == 3


def test_max_var():
    assert Clause.from_ints(-2, 9).max_var() == 9
    assert Clause.from_ints(3).max_var() == 3


def test_max_var_of_every_canonical_clause_over_five_variables():
    n = 5
    for width in (1, 2, 3):
        for variables in combinations(range(1, n + 1), width):
            for signs in product((1, -1), repeat=width):
                clause = Clause.from_ints(*(s * v for s, v in zip(signs, variables)))
                assert clause.max_var() == max(variables)
                CnfFormula(max(variables), (clause,))
                if max(variables) == n:
                    with pytest.raises(ValueError, match=f"literal {n} exceeds n={n - 1}"):
                        CnfFormula(n - 1, (clause,))
                else:
                    CnfFormula(n - 1, (clause,))


# ---------------------------------------------------------------- normalize
# with-replacement draws stay signed ints; _normalize_ints collapses them


def test_normalize_collapses_triple_repeat_to_unit():
    assert _normalize_ints((-5, -5, -5)) == (-5,)
    assert _normalize_ints((1, 1, 1)) == (1,)


def test_normalize_collapses_double_repeat_to_two_clause():
    two = _normalize_ints((-1, -1, 3))
    assert two == (-1, 3)
    assert Clause.from_ints(*two).to_ints() == two


def test_normalize_returns_none_for_tautology():
    assert _normalize_ints((1, -1, 2)) is None
    assert _normalize_ints((4, -4)) is None


def test_normalize_is_idempotent_on_random_raw_clauses():
    rng = random.Random(7)
    for _ in range(500):
        width = rng.choice([1, 2, 3])
        ints = [rng.choice([-1, 1]) * rng.randint(1, 4) for _ in range(width)]
        once = _normalize_ints(ints)
        if once is None:
            continue
        assert _normalize_ints(once) == once
        # canonical: strictly increasing variables, no complements
        variables = [abs(v) for v in once]
        assert variables == sorted(set(variables))
        assert Clause.from_ints(*once).to_ints() == once


def test_normalize_passes_canonical_clauses_through():
    assert _normalize_ints((-1, 2, -3)) == (-1, 2, -3)


# ---------------------------------------------------------------- formulas


def test_formula_construction_and_m():
    f = CnfFormula.from_ints(3, [(1, 2), (-3,)])
    assert f.n_vars == 3
    assert f.m == 2
    assert f.to_int_clauses() == [[1, 2], [-3]]


def test_formula_rejects_variables_beyond_n():
    with pytest.raises(ValueError):
        CnfFormula.from_ints(2, [(1, 3)])


@pytest.mark.parametrize("n_vars", [2.5, True, 2.0, "2"])
def test_formula_refuses_a_variable_count_that_is_not_an_int(n_vars):
    # to_dimacs would write the count into a header from_dimacs refuses
    with pytest.raises(ValueError, match="n_vars must be an int, got "):
        CnfFormula(n_vars, (Clause.from_ints(1, -2),))


def test_empty_formula_is_allowed():
    f = CnfFormula(0, ())
    assert f.m == 0
    assert f.n_vars == 0


# ---------------------------------------------------------------- alpha


def test_alpha_exact_fractions():
    assert alpha(CnfFormula.from_ints(12, [(1, 2, 3)] * 51)) == Fraction(17, 4)
    assert alpha(CnfFormula.from_ints(10, [])) == Fraction(0)
    assert alpha(CnfFormula.from_ints(5, [(1, 2)] * 22)) == Fraction(22, 5)


def test_alpha_is_exact_not_float():
    a = alpha(CnfFormula.from_ints(3, [(1,)] * 1))
    assert isinstance(a, Fraction)
    assert a == Fraction(1, 3)


def test_alpha_undefined_without_variables():
    with pytest.raises(ValueError):
        alpha(CnfFormula(0, ()))


# ---------------------------------------------------------------- evaluate


def test_evaluate_empty_formula_is_true():
    assert evaluate(CnfFormula(0, ()), {}) is True
    assert evaluate(CnfFormula(2, ()), {1: False, 2: False}) is True


def test_evaluate_single_unit():
    f = CnfFormula.from_ints(1, [(1,)])
    assert evaluate(f, {1: True}) is True
    assert evaluate(f, {1: False}) is False


def test_evaluate_requires_total_assignment_and_names_missing_vars():
    f = CnfFormula.from_ints(3, [(1, 2, 3)])
    with pytest.raises(ValueError) as exc:
        evaluate(f, {1: True})
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_evaluate_agrees_with_direct_semantics():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.randint(0, 8)
        clauses = []
        while len(clauses) < m:
            width = rng.randint(1, min(3, n))
            variables = rng.sample(range(1, n + 1), width)
            ints = sorted(
                (v if rng.random() < 0.5 else -v for v in variables),
                key=abs,
            )
            clauses.append(tuple(ints))
        f = CnfFormula.from_ints(n, clauses)
        assignment = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        expected = all(
            any(assignment[abs(i)] == (i > 0) for i in cl) for cl in clauses
        )
        assert evaluate(f, assignment) == expected


# ---------------------------------------------------------------- DIMACS


def test_to_dimacs_exact_text():
    f = CnfFormula.from_ints(2, [(1, -2)])
    assert to_dimacs(f) == "p cnf 2 1\n1 -2 0\n"


def test_to_dimacs_empty_formula():
    assert to_dimacs(CnfFormula(3, ())) == "p cnf 3 0\n"


def test_dimacs_core_writes_canonical_int_clauses():
    assert _dimacs(_IntCnf(3, [(1, -2, 3), (-3,)])) == "p cnf 3 2\n1 -2 3 0\n-3 0\n"


@pytest.mark.parametrize(
    "clause",
    [(), (1, 2, 3, -4), (2, 1), (1, -1), (-2, -2), (0, 1), (1, 4), (-4,)],
)
def test_dimacs_core_refuses_non_canonical_int_clauses(clause):
    # the generators hand the core clauses no constructor has checked
    with pytest.raises(ValueError, match="width|not canonical"):
        _dimacs(_IntCnf(3, [(1, 2), clause]))


@pytest.mark.parametrize(
    "clause, message",
    [
        ((), "clause width must be 1..3, got 0"),
        ((1, 2, 3, -4), "clause width must be 1..3, got 4"),
        ((0, 1, 2), "clause (0, 1, 2) is not canonical over 1..3"),
        ((1, 0, 2), "clause (1, 0, 2) is not canonical over 1..3"),
        ((1, 2, 0), "clause (1, 2, 0) is not canonical over 1..3"),
        ((0,), "clause (0,) is not canonical over 1..3"),
        ((1, -1, 2), "clause (1, -1, 2) is not canonical over 1..3"),
        ((1, 2, -2), "clause (1, 2, -2) is not canonical over 1..3"),
        ((-3, 2, 3), "clause (-3, 2, 3) is not canonical over 1..3"),
        ((2, 2), "clause (2, 2) is not canonical over 1..3"),
        ((2, 1, 3), "clause (2, 1, 3) is not canonical over 1..3"),
        ((1, 3, 2), "clause (1, 3, 2) is not canonical over 1..3"),
        ((3, -2, 1), "clause (3, -2, 1) is not canonical over 1..3"),
        ((2, -1), "clause (2, -1) is not canonical over 1..3"),
        ((1, 2, 4), "clause (1, 2, 4) is not canonical over 1..3"),
        ((-4, 5, 6), "clause (-4, 5, 6) is not canonical over 1..3"),
        ((-4,), "clause (-4,) is not canonical over 1..3"),
    ],
)
def test_dimacs_core_refusals_name_the_clause(clause, message):
    # three-literal clauses take a shorter path than the others; both
    # refuse with the same words, whether a clause is a tuple or a list
    for shaped in (clause, list(clause)):
        with pytest.raises(ValueError) as exc:
            _dimacs(_IntCnf(3, [(1, 2, 3), shaped]))
        assert str(exc.value) == message


def test_dimacs_core_bytes_are_pinned():
    # 10,000 seeded canonical clauses of widths 1..3 over n = 3..40, in
    # 100 formulas, written from tuples and from lists
    rng = random.Random(2023)
    texts = []
    for _ in range(100):
        n = rng.randint(3, 40)
        clauses = []
        for _ in range(100):
            variables = sorted(rng.sample(range(1, n + 1), rng.randint(1, 3)))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        text = _dimacs(_IntCnf(n, clauses))
        assert _dimacs(_IntCnf(n, [list(cl) for cl in clauses])) == text
        assert from_dimacs(text).to_int_clauses() == [list(cl) for cl in clauses]
        texts.append(text)
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "6b5d0b7582a29f48dcf06d3f7695054c75266ffc43d344500b59ea7363964281"


def test_dimacs_core_above_the_table_writes_the_reference_join():
    # above 21 variables no table is built; canonical three-literal tuples
    # are checked in place and must give the bytes of the plain join
    rng = random.Random(52)
    for n in (22, 30, 60):
        for _ in range(20):
            clauses = []
            for _ in range(round(4.3 * n)):
                variables = sorted(rng.sample(range(1, n + 1), rng.choice((1, 2, 3, 3, 3))))
                clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
            expected = f"p cnf {n} {len(clauses)}\n" + "".join(
                " ".join(map(str, cl)) + " 0\n" for cl in clauses
            )
            assert _dimacs(_IntCnf(n, clauses)) == expected


@pytest.mark.parametrize(
    "clause",
    [(0, 1, 2), (1, 0, 2), (1, -1, 2), (2, 1, 23), (1, 23, 22), (1, 2, 2),
     (-3, 2, 23), (1, 2, 23), (1, 2, -24), (0, 0, 0)],
)
def test_dimacs_core_above_the_table_refuses_as_the_check_does(clause):
    with pytest.raises(ValueError) as exc:
        _check_int_clause(clause, 22)
    for shaped in (clause, list(clause)):
        with pytest.raises(ValueError) as refused:
            _dimacs(_IntCnf(22, [(1, 2, 22), shaped]))
        assert str(refused.value) == str(exc.value)


def test_from_dimacs_reads_what_to_dimacs_writes():
    f = from_dimacs("p cnf 2 1\n1 -2 0\n")
    assert f.n_vars == 2
    assert f.to_int_clauses() == [[1, -2]]


def test_from_dimacs_literal_bounds_error_carries_line_number():
    with pytest.raises(DimacsError) as exc:
        from_dimacs("p cnf 2 1\n3 0\n")
    assert "literal 3 exceeds n=2" in str(exc.value)
    assert exc.value.line_no == 2


def test_from_dimacs_ignores_comment_lines():
    f = from_dimacs("c a comment\np cnf 1 1\nc another\n1 0\n")
    assert f.to_int_clauses() == [[1]]


def test_from_dimacs_error_cases():
    bad = [
        "p cnf 2 1\n1 0\np cnf 2 1\n1 0\n",  # duplicate header
        "p cnf x 1\n1 0\n",                  # malformed header
        "p cnf -2 1\n1 0\n",                 # negative count
        "1 0\np cnf 2 1\n",                  # clause before header
        "p cnf 2 1\n1 q 0\n",                # non-integer token
        "p cnf 2 1\n1 2\n",                  # missing terminator
        "p cnf 2 1\n1 0 2 0\n",              # zero before line end
        "p cnf 2 1\n0\n",                    # empty clause
        "p cnf 5 1\n1 2 3 4 0\n",            # width > 3
        "p cnf 2 1\n1 -1 0\n",               # tautological
        "p cnf 2 1\n1 1 0\n",                # duplicate literal
        "1 0\n",                             # missing header
        "p cnf 2 2\n1 0\n",                  # clause count mismatch
    ]
    for text in bad:
        with pytest.raises(DimacsError):
            from_dimacs(text)


def test_from_dimacs_sorts_clause_literals():
    f = from_dimacs("p cnf 3 1\n2 1 0\n")
    assert f.to_int_clauses() == [[1, 2]]


def _random_canonical_formula(rng):
    n = rng.randint(1, 12)
    m = rng.randint(0, 20)
    clauses = []
    while len(clauses) < m:
        width = rng.randint(1, min(3, n))
        variables = sorted(rng.sample(range(1, n + 1), width))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula.from_ints(n, clauses)


def test_dimacs_round_trip_identities():
    rng = random.Random(23)
    for _ in range(400):
        f = _random_canonical_formula(rng)
        text = to_dimacs(f)
        assert from_dimacs(text) == f
        assert to_dimacs(from_dimacs(text)) == text
