"""Clause building shared by the parsers: repeated variables and literal order."""

from itertools import permutations, product

import pytest

from nlsatgen.fragments import ParseError, _clause_of, _remap
from nlsatgen.grl import parse_grl
from nlsatgen.lexicon import Lexicon, default_occupation_lexicon
from nlsatgen.rcl import parse_rcl
from nlsatgen.ruletaker import RetrofitVocab, parse_ruletaker

GRL_LEX = Lexicon(("carrot", "steak", "apples"))
RCL_LEX = default_occupation_lexicon()
RT_VOCAB = RetrofitVocab(("red", "round", "green"), ("lion",))
NOUN_REPEATS = "a noun repeats within the sentence"
ATTRIBUTE_REPEATS = "an attribute repeats within the rule"

# Where the two mentions of the repeated word sit among a three-literal
# sentence's slots; the other slot holds the third word, whose variable
# is below the repeated one ("below") or above it ("above").
REPEAT_SLOTS = ((0, 1), (0, 2), (1, 2))


def _slot_words(low: str, high: str):
    """Every (words, relation) that repeats one of low < high in two slots."""
    for pair in REPEAT_SLOTS:
        for repeated, other, relation in ((high, low, "below"), (low, high, "above")):
            words = [other] * 3
            for slot in pair:
                words[slot] = repeated
            yield words, relation
    for word in (low, high):
        yield [word] * 3, "all three"


def _grl_cases():
    # "If carrot then steak." numbers carrot 1 and steak 2 before the
    # tested sentence; without it they are numbered within the sentence
    for prefix in ((), ("If carrot then steak.",)):
        for words, relation in _slot_words("carrot", "steak"):
            for no1, no2, not3 in product(("", "no "), ("", "no "), ("", "not ")):
                s = f"If {no1}{words[0]} and {no2}{words[1]} then {not3}{words[2]}."
                for strict in (True, False):
                    yield (
                        lambda sentences, strict=strict: parse_grl(sentences, GRL_LEX, strict),
                        prefix + (s,), NOUN_REPEATS, relation,
                    )


def _rcl_atom(negated: bool, noun: str) -> str:
    return f"{'not ' if negated else ''}{RCL_LEX.article(noun)} {noun}"


def _rcl_cases():
    low, high, third = RCL_LEX.count_nouns[:3]
    name = RCL_LEX.proper_nouns[0]
    parse = lambda sentences: parse_rcl(sentences, RCL_LEX)
    prefix = (f"Every {low} who is {_rcl_atom(False, high)} is {_rcl_atom(False, third)}.",)
    for words, relation in _slot_words(low, high):
        x, y, z = words
        for neg_y, neg_z in product((False, True), repeat=2):
            s = f"Every {x} who is {_rcl_atom(neg_y, y)} is {_rcl_atom(neg_z, z)}."
            yield parse, prefix + (s,), NOUN_REPEATS, relation
        for neg_y in (False, True):
            s = f"No {x} who is {_rcl_atom(neg_y, y)} is {_rcl_atom(False, z)}."
            yield parse, prefix + (s,), NOUN_REPEATS, relation
        s = (
            f"Everyone who is {_rcl_atom(True, x)} and {_rcl_atom(True, y)}"
            f" is {_rcl_atom(False, z)}."
        )
        yield parse, prefix + (s,), NOUN_REPEATS, relation
        for signs in product((False, True), repeat=3):
            atoms = " or ".join(_rcl_atom(neg, w) for neg, w in zip(signs, words))
            yield parse, prefix + (f"{name} is {atoms}.",), NOUN_REPEATS, relation


def _ruletaker_cases():
    parse = lambda sentences: parse_ruletaker(sentences, RT_VOCAB)
    prefix = ("If the lion is red then the lion is round.",)
    for words, relation in _slot_words("red", "round"):
        for signs in product(("", "not "), repeat=3):
            a, b, c = (f"the lion is {sign}{word}" for sign, word in zip(signs, words))
            yield parse, prefix + (f"If {a} and {b} then {c}.",), ATTRIBUTE_REPEATS, relation


@pytest.mark.parametrize("cases", [_grl_cases, _rcl_cases, _ruletaker_cases])
def test_repeated_word_in_any_slot_is_refused(cases):
    # every placement of a repeated word among a sentence's three
    # literals, with the third word's variable below or above it, is
    # refused with the same error; none of them parses to a clause
    seen = set()
    for parse, sentences, message, relation in cases():
        with pytest.raises(ParseError) as exc:
            parse(sentences)
        assert str(exc.value) == f"sentence {len(sentences)}: {message}", sentences
        assert exc.value.span is None
        seen.add(relation)
    assert seen == {"below", "above", "all three"}


@pytest.mark.parametrize("signs", list(product((1, -1), repeat=3)))
def test_clause_of_orders_three_literals_by_variable(signs):
    for order in permutations((1, 2, 3)):
        literals = [s * v for s, v in zip(signs, order)]
        expected = tuple(signs[order.index(v)] * v for v in (1, 2, 3))
        assert _clause_of(literals, 1) == expected
    for a, b, c in product((1, 2), repeat=3):
        with pytest.raises(ParseError, match=f"^sentence 4: {NOUN_REPEATS}$"):
            _clause_of([signs[0] * a, signs[1] * b, signs[2] * c], 4)


@pytest.mark.parametrize("signs", list(product((1, -1), repeat=3)))
def test_remap_orders_each_renumbering(signs):
    # a canonical clause over 1, 2, 3 renumbered by each permutation
    # keeps each variable's sign and lists the new variables in order
    clause = tuple(s * v for s, v in zip(signs, (1, 2, 3)))
    for image in permutations((4, 7, 9)):
        mapping = dict(zip((1, 2, 3), image))
        sign_of = {mapping[v]: s for s, v in zip(signs, (1, 2, 3))}
        expected = tuple(sign_of[w] * w for w in (4, 7, 9))
        assert _remap(clause, mapping) == expected
        assert _remap(list(clause), mapping) == expected


def test_remap_keeps_the_order_of_merged_variables():
    # a map that sends two variables to one number keeps their order
    assert _remap((1, -2, 3), {1: 5, 2: 5, 3: 1}) == (1, 5, -5)
    assert _remap((-1, 2, 3), {1: 2, 2: 1, 3: 2}) == (1, -2, 2)
    assert _remap((1, 2, -3), {1: 3, 2: 3, 3: 3}) == (3, 3, -3)
    assert _remap((2, -3), {2: 4, 3: 1}) == (-1, 4)
    assert _remap((-3,), {3: 6}) == (-6,)
