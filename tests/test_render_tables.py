"""The renderers' literal-indexed tables and the DIMACS line table against
the per-sentence and per-clause code they replaced, kept here as oracles.

Each renderer and ``cnf._dimacs`` must give the oracle's output, or raise
the oracle's exception with the same text, on every enumerated clause:
canonical or not, bound or not, of every width the tables cover and a
few they do not, under every token budget from 0 past the longest
sentence.
"""

import random
from itertools import product

import pytest

from nlsatgen import grl, rcl, ruletaker
from nlsatgen.cnf import _check_int_clause, _dimacs, _dimacs_lines, _IntCnf
from nlsatgen.fragments import FragmentError, VarBinding, check_token_budget
from nlsatgen.lexicon import default_occupation_lexicon

# ------------------------------------------------------------------ oracles


def grl_sentence(cl, words):
    if len(cl) < 2:
        raise FragmentError("unit clauses have no rendering in this fragment")
    if len(cl) > 3:
        raise FragmentError(f"rule sentences need width-2 or width-3 clauses, got width {len(cl)}")
    *antecedents, consequent = cl
    ante = " and ".join([words[-v] if v < 0 else f"no {words[v]}" for v in antecedents])
    cons = f"not {words[-consequent]}" if consequent < 0 else words[consequent]
    return f"If {ante} then {cons}."


def grl_render(clauses, binding, token_budget):
    words = binding.variables
    sentences = []
    for cl in clauses:
        s = grl_sentence(cl, words)
        check_token_budget(s, token_budget)
        sentences.append(s)
    return sentences


def rcl_restrictor_index(cl):
    for i, v in enumerate(cl):
        if v < 0:
            return i
    return -1


def rcl_atom_text(v, words, lexicon):
    noun = words[abs(v)]
    art = lexicon.article(noun)
    return ("not " if v < 0 else "") + f"{art} {noun}"


def rcl_universal_sentence(cl, words, lexicon, rng, no_rewrite_prob):
    if len(cl) != 3:
        raise FragmentError(
            f"universal sentences need width-3 clauses, got width {len(cl)}"
        )
    r = rcl_restrictor_index(cl)
    if r < 0:
        a1, a2, cons = cl
        return (
            f"Everyone who is not {rcl_atom_text(a1, words, lexicon)}"
            f" and not {rcl_atom_text(a2, words, lexicon)}"
            f" is {rcl_atom_text(cons, words, lexicon)}."
        )
    restrictor = cl[r]
    rest = [v for i, v in enumerate(cl) if i != r]
    who, cons = -rest[0], rest[1]
    x_noun = words[-restrictor]
    who_txt = rcl_atom_text(who, words, lexicon)
    if cons < 0 and rng is not None and rng.random() < no_rewrite_prob:
        return f"No {x_noun} who is {who_txt} is {rcl_atom_text(-cons, words, lexicon)}."
    return f"Every {x_noun} who is {who_txt} is {rcl_atom_text(cons, words, lexicon)}."


def rcl_ground_sentence(name, cl, words, lexicon):
    if len(cl) != 3:
        raise FragmentError(
            f"ground sentences need width-3 clauses, got width {len(cl)}"
        )
    atoms = " or ".join([rcl_atom_text(v, words, lexicon) for v in cl])
    return f"{name} is {atoms}."


def rcl_render(p, binding, lexicon, rng, no_rewrite_prob, token_budget):
    words, names = binding.variables, binding.constants
    sentences = []
    for cl in p.universal_clauses:
        sentences.append(rcl_universal_sentence(cl, words, lexicon, rng, no_rewrite_prob))
        check_token_budget(sentences[-1], token_budget)
    for cid, cl in p.ground_clauses:
        sentences.append(rcl_ground_sentence(names[cid], cl, words, lexicon))
        check_token_budget(sentences[-1], token_budget)
    return sentences


def rt_atom(v, entity, words):
    if v < 0:
        return f"the {entity} is not {words[-v]}"
    return f"the {entity} is {words[v]}"


def rt_fact_sentence(v, entity, words):
    return "The" + rt_atom(v, entity, words)[3:] + "."


def rt_rule_sentence(cl, entity, words):
    *antecedents, consequent = cl
    ante = " and ".join([rt_atom(-v, entity, words) for v in antecedents])
    return f"If {ante} then {rt_atom(consequent, entity, words)}."


def rt_render(t, binding, token_budget):
    entity, words = binding.constant_word(1), binding.variables
    sentences = []
    for cl in t.clauses:
        if not 1 <= len(cl) <= 3:
            raise FragmentError(f"sentences need clauses of width 1 to 3, got width {len(cl)}")
        if len(cl) > 1:
            sentences.append(rt_rule_sentence(cl, entity, words))
        else:
            sentences.append(rt_fact_sentence(cl[0], entity, words))
        check_token_budget(sentences[-1], token_budget)
    return sentences


def dimacs(f):
    n_vars = f.n_vars
    lines = [f"p cnf {n_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        if len(cl) == 3:
            a, b, c = cl
            if 0 < abs(a) < abs(b) < abs(c) <= n_vars:
                lines.append(f"{a} {b} {c} 0")
                continue
        _check_int_clause(cl, n_vars)
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    """What ``fn`` returns, or its exception's type and text."""
    try:
        return fn(*args)
    except Exception as exc:  # the exception is part of what must agree
        return type(exc), str(exc)


# ------------------------------------------------------------------ clauses


def signed_clauses(variables, widths):
    """Every clause of the given widths over ``variables``, in every
    order and sign pattern, repeats included."""
    for width in widths:
        for picked in product(variables, repeat=width):
            for signs in product((1, -1), repeat=width):
                yield tuple(s * v for s, v in zip(signs, picked))


# variable 4 is never bound, so its clauses take the unbound-literal path
CLAUSES = list(signed_clauses((1, 2, 3, 4), (0, 1, 2, 3)))
WIDE = [(1, -2, 3, -4), (-1, 2, -3, 4, 3)]

# hand-built bindings may hold words of several tokens, words with
# whitespace around them and empty words, which no lexicon does
GRL_WORDS = [
    {1: "carrot", 2: "steak", 3: "apple"},
    {1: "ice cream", 2: " hot  dog ", 3: "pie"},
    {1: "ice cream", 2: "steak", 3: ""},
]
BINDING_IDS = ["one-token", "spaced", "empty"]

# the longest sentence's tokens in each fragment, as its renderer counts them
GRL_LONGEST, RCL_LONGEST, RT_LONGEST = 9, 13, 18


@pytest.mark.parametrize("words", GRL_WORDS, ids=BINDING_IDS)
def test_grl_tables_give_the_oracle_outcome(words):
    binding = VarBinding(words)
    for budget in range(GRL_LONGEST + 2):
        for cl in CLAUSES + WIDE:
            expected = outcome(grl_render, [cl], binding, budget)
            assert outcome(grl._render, [cl], binding, budget) == expected, (cl, budget)
        clauses = [cl for cl in CLAUSES if len(set(map(abs, cl))) == len(cl) >= 2]
        expected = outcome(grl_render, clauses, binding, budget)
        assert outcome(grl._render, clauses, binding, budget) == expected


LEX = default_occupation_lexicon()
RCL_BINDINGS = [
    VarBinding({1: "architect", 2: "baker", 3: "unicyclist"}, {1: "Quinn"}),
    VarBinding({1: "ice cream", 2: " hot  dog ", 3: "baker"}, {1: "Mary Ann"}),
    VarBinding({1: "ice cream", 2: "baker", 3: ""}, {1: "Quinn "}),
]


@pytest.mark.parametrize("binding", RCL_BINDINGS, ids=BINDING_IDS)
def test_rcl_tables_give_the_oracle_outcome_and_rng_state(binding):
    problems = []
    for cl in CLAUSES + WIDE:
        problems.append(rcl._IntProblem(4, 2, [cl], []))
        problems.append(rcl._IntProblem(4, 2, [], [(1, cl)]))
    problems.append(rcl._IntProblem(4, 2, [], [(2, (1, 2, 3))]))  # an unbound constant
    width3 = [cl for cl in CLAUSES if len(set(map(abs, cl))) == len(cl) == 3]
    problems.append(rcl._IntProblem(4, 2, width3, [(1, cl) for cl in width3]))
    for budget in range(RCL_LONGEST + 2):
        for seed, p in enumerate(problems):
            for prob in (0.0, 0.5, 1.0):
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                expected = outcome(rcl_render, p, binding, LEX, oracle_rng, prob, budget)
                assert outcome(rcl._render, p, binding, LEX, rng, prob, budget) == expected
                # the same draws were made: the next one agrees
                assert rng.random() == oracle_rng.random()
            expected = outcome(rcl_render, p, binding, LEX, None, 0.5, budget)
            assert outcome(rcl._render, p, binding, LEX, None, 0.5, budget) == expected


RT_BINDINGS = [
    VarBinding({1: "big", 2: "blue", 3: "clever"}, {1: "bear"}),
    VarBinding({1: "very big", 2: " blue ", 3: "clever"}, {1: "polar bear"}),
    VarBinding({1: "big", 2: "blue", 3: ""}, {1: "bear"}),
]


@pytest.mark.parametrize("binding", RT_BINDINGS, ids=BINDING_IDS)
def test_ruletaker_tables_give_the_oracle_outcome(binding):
    for budget in range(RT_LONGEST + 2):
        for cl in CLAUSES + WIDE:
            t = _IntCnf(4, [cl])
            assert outcome(ruletaker._render, t, binding, budget) == outcome(
                rt_render, t, binding, budget
            ), (cl, budget)
        t = _IntCnf(3, [cl for cl in CLAUSES if len(set(map(abs, cl))) == len(cl) >= 1])
        assert outcome(ruletaker._render, t, binding, budget) == outcome(
            rt_render, t, binding, budget
        )


def test_ruletaker_tables_refuse_an_unbound_entity_as_the_oracle_does():
    t = _IntCnf(1, [(1,)])
    binding = VarBinding({1: "big"})
    assert outcome(ruletaker._render, t, binding, 30) == outcome(rt_render, t, binding, 30)


def test_dimacs_table_gives_the_oracle_outcome():
    # every clause of widths 0-3 over literals -4..4 (0 included), then
    # wider ones, as tuples and as lists, above and below the variables
    # the table covers; one formula at a time and all valid ones at once
    literals = range(-4, 5)
    clauses = [()]
    for width in (1, 2, 3):
        clauses += product(literals, repeat=width)
    clauses += [(1, 2, 3, 4), (-1, 2, -3, 4), (1, -2, 3, 4, 5)]
    for n_vars in (0, 1, 2, 3, 4, 5, 21, 22):
        for cl in clauses:
            for form in (tuple(cl), list(cl)):
                f = _IntCnf(n_vars, [form])
                assert outcome(_dimacs, f) == outcome(dimacs, f), (n_vars, form)
        valid = [cl for cl in clauses if outcome(_check_int_clause, cl, n_vars) is None]
        for form in (tuple, list):
            f = _IntCnf(n_vars, [form(cl) for cl in valid])
            assert _dimacs(f) == dimacs(f)


def test_dimacs_table_holds_only_canonical_three_literal_clauses():
    lines = _dimacs_lines(5)
    assert len(lines) == 10 * 8
    for cl, line in lines.items():
        assert 0 < abs(cl[0]) < abs(cl[1]) < abs(cl[2]) <= 5
        assert line == " ".join(map(str, cl)) + " 0"
    # a table is built for 21 variables and none above
    _dimacs_lines.cache_clear()
    assert _dimacs(_IntCnf(22, [(1, -2, 22)])) == "p cnf 22 1\n1 -2 22 0\n"
    assert _dimacs_lines.cache_info().currsize == 0
    assert _dimacs(_IntCnf(21, [(1, -2, 21)])) == "p cnf 21 1\n1 -2 21 0\n"
    assert _dimacs_lines.cache_info().currsize == 1
