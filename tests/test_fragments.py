"""What the parsers share: clause building (repeated variables and
literal order) and the one reader behind ``parse_theory`` and
``_parse_formula``."""

import gc
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from nlsatgen import grl, rcl, ruletaker
from nlsatgen.fragments import (
    FRAGMENTS,
    GRL,
    RCL,
    RULETAKER,
    ParseError,
    _clause_of,
    _packaged_vocab,
    _parse_formula,
    _remap,
    parse_theory,
    split_sentences,
)
from nlsatgen.grl import parse_grl
from nlsatgen.lexicon import Lexicon, default_occupation_lexicon
from nlsatgen.pipeline import DatasetConfig, generate_records
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


# ---------------------------------------------------------------- the shared reader

READERS = {"parse_theory": parse_theory, "_parse_formula": _parse_formula}
LEXICONS = {GRL: GRL_LEX, RCL: RCL_LEX, RULETAKER: RT_VOCAB}
TWO_SENTENCES = {
    GRL: "If carrot then steak. If steak then apples.",
    RCL: "Every baker who is an actor is an archer. Alice is a baker or an actor or an archer.",
    RULETAKER: "If the lion is red then the lion is round. The lion is green.",
}


@pytest.mark.parametrize("read", READERS.values(), ids=list(READERS))
@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_a_sentence_list_is_never_joined_and_scanned(read, fragment):
    # the text reads as two sentences, but a list item is one sentence
    text, lexicon = TWO_SENTENCES[fragment], LEXICONS[fragment]
    read(text, fragment, lexicon)
    with pytest.raises(ParseError) as exc:
        read([text], fragment, lexicon)
    assert str(exc.value) == "sentence 1: sentence must end with its only period"


@pytest.mark.parametrize("read", READERS.values(), ids=list(READERS))
@pytest.mark.parametrize("text, error, message", [
    ("", ParseError, "sentence 1: text must be sentences ending with periods"),
    ("x.", ValueError, "unknown fragment 'foo'"),
])
def test_the_text_is_split_before_the_fragment_is_checked(read, text, error, message):
    with pytest.raises(ValueError) as exc:
        read(text, "foo")
    assert type(exc.value) is error
    assert str(exc.value) == message


# the generator's sizes per fragment, and the characters an edit writes
RENDERED_SIZES = {GRL: (5, 8), RCL: (10, 12), RULETAKER: (5, 7)}
EDIT_CHARS = " .aInotTheyx"
MODULES = {GRL: grl, RCL: rcl, RULETAKER: ruletaker}
PUBLIC_PARSERS = {GRL: parse_grl, RCL: parse_rcl, RULETAKER: parse_ruletaker}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    fragment=st.sampled_from(FRAGMENTS),
    size_at=st.integers(0, 1),
    seed=st.integers(0, 2**32),
    data=st.data(),
)
def test_scan_core_and_parse_theory_agree(fragment, size_at, seed, data):
    # a generated text reads the same through the scan, the core on its
    # sentences and parse_theory; after any one-character edit the scan
    # reads it as the core does, or not at all
    config = DatasetConfig(
        fragment=fragment, sizes=(RENDERED_SIZES[fragment][size_at],),
        count_per_size=2, seed=seed, strategy="naive",
    )
    text = generate_records(config)[0]["text"]
    module, vocab = MODULES[fragment], _packaged_vocab(fragment)
    assert module._scan(text, vocab) == module._parse(split_sentences(text), vocab, True)
    expected = PUBLIC_PARSERS[fragment](split_sentences(text), vocab)
    assert parse_theory(text, fragment, vocab) == expected
    for _ in range(20):
        at = data.draw(st.integers(0, len(text) - 1))
        char = data.draw(st.sampled_from(EDIT_CHARS))
        edit = data.draw(st.sampled_from((0, 1, 2)))  # replace, insert, delete
        edited = text[:at] + (char if edit < 2 else "") + text[at + (edit != 1):]
        got = module._scan(edited, vocab)
        if got is not None:
            assert got == module._parse(split_sentences(edited), vocab, True)


@pytest.mark.parametrize("fragment", FRAGMENTS)
def test_a_strict_read_leaves_no_reference_cycle(fragment):
    # a scan's ids, atoms and clauses are freed by reference counting as
    # soon as the read returns, so verify's per-text garbage never waits
    # for the cyclic collector
    config = DatasetConfig(
        fragment=fragment, sizes=RENDERED_SIZES[fragment],
        count_per_size=4, seed=108, strategy="naive",
    )
    texts = [rec["text"] for rec in generate_records(config)]
    vocab = _packaged_vocab(fragment)
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            _parse_formula(text, fragment, vocab)
        assert gc.collect() == 0
    finally:
        gc.enable()
