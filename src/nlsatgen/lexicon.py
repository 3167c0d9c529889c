"""Word lists used to verbalize propositional variables.

Lexicon files hold one entry per line: the word, optionally followed
by ``|a`` or ``|an`` to override the default indefinite article.
Blank lines and ``#`` comments are ignored; files are UTF-8.

The default article rule is purely orthographic (an before a vowel
letter); overrides exist for words whose pronunciation disagrees, like
"a unicyclist".  Plurals are never generated, but the parser accepts
them, so each lexicon carries a derived map from every noun and
plural to its noun, which resolves a parsed word in one lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .fileio import _read_text

# Template words; letting these double as nouns would make sentences ambiguous.
RESERVED_WORDS = frozenset(
    "if then and or no not is a an the every everyone everything who that".split()
)

_VOWELS = "aeiou"


def pluralize(noun: str) -> str:
    """Regular English plural, good enough for parser leniency."""
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    if noun.endswith("y") and len(noun) > 1 and noun[-2] not in _VOWELS:
        return noun[:-1] + "ies"
    return noun + "s"


@dataclass(frozen=True)
class Lexicon:
    """An ordered set of count nouns plus optional proper nouns."""

    count_nouns: tuple
    proper_nouns: tuple = ()
    article_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "count_nouns", tuple(self.count_nouns))
        object.__setattr__(self, "proper_nouns", tuple(self.proper_nouns))
        seen = set()
        for noun in self.count_nouns:
            if not noun or not noun.isalpha() or noun != noun.lower():
                raise ValueError(f"count noun must be lowercase alphabetic: {noun!r}")
            if noun in RESERVED_WORDS:
                raise ValueError(f"count noun collides with a template word: {noun!r}")
            if noun in seen:
                raise ValueError(f"duplicate count noun {noun!r}")
            seen.add(noun)
        seen = set()
        for name in self.proper_nouns:
            if not name or not name.isalpha() or not name[0].isupper():
                raise ValueError(f"proper noun must be capitalized alphabetic: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate proper noun {name!r}")
            seen.add(name)
        for word, art in self.article_overrides.items():
            if art not in ("a", "an"):
                raise ValueError(f"article override must be 'a' or 'an', got {art!r}")
            if word not in self.count_nouns:
                raise ValueError(f"override for unknown noun {word!r}")
        # a noun that is also another noun's plural stays itself
        singular = {pluralize(noun): noun for noun in self.count_nouns}
        singular.update((noun, noun) for noun in self.count_nouns)
        object.__setattr__(self, "_singular", singular)

    def article(self, noun: str) -> str:
        got = self.article_overrides.get(noun)
        if got:
            return got
        return "an" if noun[0] in _VOWELS else "a"

    def singular_of(self, word: str) -> Optional[str]:
        """Resolve a possibly plural surface form to a lexicon noun."""
        return self._singular.get(word)


def _read_entries(path) -> list:
    entries = []
    for raw in _read_text(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append(line)
    return entries


def load_lexicon(nouns_path, names_path=None) -> Lexicon:
    """Load count nouns (with article overrides) and optional proper nouns."""
    nouns = []
    overrides = {}
    for entry in _read_entries(nouns_path):
        if "|" in entry:
            word, art = (part.strip() for part in entry.split("|", 1))
            overrides[word] = art
        else:
            word = entry
        nouns.append(word)
    names = tuple(_read_entries(names_path)) if names_path else ()
    return Lexicon(tuple(nouns), names, overrides)


def load_wordlist(path) -> tuple:
    """Load a plain word list (no override syntax)."""
    words = []
    for entry in _read_entries(path):
        if "|" in entry:
            raise ValueError(f"{path}: article overrides not allowed here: {entry!r}")
        words.append(entry)
    return tuple(words)


class _ReadOnlyDict(dict):
    """A dict that refuses every change, for word lists shared within a
    process; it pickles as a new one with the same items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("shared word lists are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


def _read_only(lexicon: Lexicon) -> Lexicon:
    """An equal lexicon whose dicts refuse changes, so that it can be shared."""
    shared = Lexicon(
        lexicon.count_nouns, lexicon.proper_nouns, _ReadOnlyDict(lexicon.article_overrides)
    )
    object.__setattr__(shared, "_singular", _ReadOnlyDict(shared._singular))
    return shared


def _data_path(name: str):
    return resources.files("nlsatgen").joinpath("data").joinpath(name)


def default_food_lexicon() -> Lexicon:
    """Food nouns for the propositional rule fragment."""
    return load_lexicon(_data_path("food.txt"))


def default_occupation_lexicon() -> Lexicon:
    """Occupation nouns plus person names for the quantified fragment."""
    return load_lexicon(_data_path("occupations.txt"), _data_path("names.txt"))


def default_attributes() -> tuple:
    return load_wordlist(_data_path("attributes.txt"))


def default_entities() -> tuple:
    return load_wordlist(_data_path("entities.txt"))
