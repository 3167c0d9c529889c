"""Deterministic seed derivation for independent random streams."""

import random

from nlsatgen.rng import _seed_maker, derive_rng, derive_seed


def test_same_parts_same_seed():
    assert derive_seed("a", 1, 2.5) == derive_seed("a", 1, 2.5)


def test_different_parts_different_seed():
    seen = {
        derive_seed("a"),
        derive_seed("b"),
        derive_seed("a", 0),
        derive_seed("a", 1),
        derive_seed(0, "a"),
        derive_seed("calibrate", 7),
        derive_seed("generate", 7),
    }
    assert len(seen) == 7


def test_seed_is_type_sensitive():
    assert derive_seed(1) != derive_seed("1")
    assert derive_seed(1.0) != derive_seed(1)
    assert derive_seed(True) != derive_seed(1)


def test_derive_rng_reproducible_streams():
    a = derive_rng("stream", 42)
    b = derive_rng("stream", 42)
    assert isinstance(a, random.Random)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_derive_rng_independent_streams():
    a = derive_rng("stream", 1)
    b = derive_rng("stream", 2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_seed_fits_in_128_bits():
    s = derive_seed("x", 123456789, "y")
    assert 0 <= s < 2 ** 128


def test_seed_maker_gives_derive_seeds_in_any_call_order():
    # keys whose parts are equal but format differently (1, 1.0, True;
    # 0.0, -0.0; (1,), (True,)) must never share a seed or a maker
    parts = [1, 1.0, True, 0.0, -0.0, "1", "", "a\x1fb", (1,), (True,), (1.0, "x"), ()]
    prefixes = [(), (1,), (1.0,), (True,), (0.0,), (-0.0,), ("1",), ((1,), -0.0),
                (108, "ruletaker", 8), (108, "ruletaker", 8.0), ("threshold", 0, 10, 1.0, 0.5, 120)]
    makers = [(prefix, _seed_maker(*prefix)) for prefix in prefixes]
    calls = [(prefix, seed, last) for prefix, seed in makers for last in parts]
    random.Random(26).shuffle(calls)
    seen = {}
    for prefix, seed, last in calls:
        expected = derive_seed(*prefix, last)
        assert seed(last) == expected, (prefix, last)
        seen[expected] = (prefix, last)
    assert len(seen) == len(calls)


def test_seed_maker_streams_are_derive_rngs():
    seed = _seed_maker("stream", 42)
    for last in (0, 1, 2, 7.5, "x"):
        a, b = random.Random(seed(last)), derive_rng("stream", 42, last)
        assert a.getstate() == b.getstate()
