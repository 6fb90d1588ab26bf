import random

import numpy as np
import pytest

from rs3127 import (GENERATOR_POLY, K_SYMBOLS, N_SYMBOLS, build_generator_poly,
                    compute_syndromes, decode, encode_reference, gf_mul, gf_pow, is_codeword,
                    lfsr_encode)
from rs3127.serial_encoder import LfsrEncoder

from oracles import alpha_power, expand_generator


def random_message(rnd):
    return [rnd.randrange(32) for _ in range(K_SYMBOLS)]


def test_generator_poly_is_monic_degree_4():
    assert len(GENERATOR_POLY) == 5
    assert GENERATOR_POLY[4] == 1


def test_generator_poly_matches_symbolic_expansion_oracle():
    roots = [alpha_power(i) for i in range(1, 5)]
    assert build_generator_poly() == expand_generator(roots)
    # frozen value for the x^5 + x^2 + 1 field, ascending coefficients
    assert GENERATOR_POLY == [17, 9, 6, 30, 1]


def test_generator_poly_roots_are_alpha_1_to_4_only():
    def g_at(x):
        acc = 0
        for c in reversed(GENERATOR_POLY):
            acc = gf_mul(acc, x) ^ c
        return acc

    for i in range(31):
        val = g_at(gf_pow(2, i))
        if 1 <= i <= 4:
            assert val == 0
        else:
            assert val != 0


def test_encode_zero_message():
    assert encode_reference([0] * K_SYMBOLS) == [0] * N_SYMBOLS


def test_encode_unit_message_parity_is_x4_mod_g():
    # m(x) = 1 so parity is x^4 mod g(x) = g(x) - x^4; codeword positions
    # 27..30 hold the x^3..x^0 coefficients.
    msg = [0] * 26 + [1]
    cw = encode_reference(msg)
    assert cw[:27] == msg
    assert cw[27:] == [GENERATOR_POLY[3], GENERATOR_POLY[2],
                       GENERATOR_POLY[1], GENERATOR_POLY[0]]
    assert cw[27:] == [30, 6, 9, 17]


def test_encoded_words_are_systematic_codewords():
    rnd = random.Random(1001)
    for _ in range(1000):
        msg = random_message(rnd)
        cw = encode_reference(msg)
        assert cw[:K_SYMBOLS] == msg
        assert is_codeword(cw)


def test_encoding_is_linear():
    rnd = random.Random(1002)
    for _ in range(200):
        m1 = random_message(rnd)
        m2 = random_message(rnd)
        both = [a ^ b for a, b in zip(m1, m2)]
        cw = [a ^ b for a, b in zip(encode_reference(m1), encode_reference(m2))]
        assert encode_reference(both) == cw


def test_is_codeword_zero_word():
    assert is_codeword([0] * N_SYMBOLS)


def test_single_symbol_alteration_never_passes():
    rnd = random.Random(1003)
    for _ in range(5):
        cw = encode_reference(random_message(rnd))
        for pos in range(N_SYMBOLS):
            for delta in range(1, 32):
                bad = list(cw)
                bad[pos] ^= delta
                assert not is_codeword(bad)


def test_minimum_distance_spot_check():
    rnd = random.Random(1004)
    for _ in range(100):
        c1 = encode_reference(random_message(rnd))
        c2 = encode_reference(random_message(rnd))
        if c1 == c2:
            continue
        assert sum(a != b for a, b in zip(c1, c2)) >= 5


def test_length_contracts():
    with pytest.raises(ValueError):
        encode_reference([0] * 26)
    with pytest.raises(ValueError):
        is_codeword([0] * 30)


# Each scalar entry point that takes a word of symbols, with its length.
SCALAR_WORD_CALLS = {
    "encode_reference": (encode_reference, K_SYMBOLS),
    "lfsr_encode": (lfsr_encode, K_SYMBOLS),
    "LfsrEncoder.encode": (lambda word: LfsrEncoder().encode(word), K_SYMBOLS),
    "compute_syndromes": (compute_syndromes, N_SYMBOLS),
    "is_codeword": (is_codeword, N_SYMBOLS),
    "decode": (decode, N_SYMBOLS),
}


@pytest.mark.parametrize("symbol", [-1, 32])
@pytest.mark.parametrize("call", sorted(SCALAR_WORD_CALLS))
def test_a_symbol_outside_0_to_31_raises_value_error(call, symbol):
    """At the first and at the last symbol. Unchecked, -1 would pass into a
    codeword with the parity of 31, or decode as an error to correct, and
    32 would index past a GF(32) table."""
    function, size = SCALAR_WORD_CALLS[call]
    for place in (0, size - 1):
        word = [0] * size
        word[place] = symbol
        with pytest.raises(ValueError, match=r"symbols must be in 0\.\.31"):
            function(word)


@pytest.mark.parametrize("symbol", [1.0, 0.0, np.float64(3.0)], ids=["1.0", "0.0", "float64-3.0"])
@pytest.mark.parametrize("call", sorted(SCALAR_WORD_CALLS))
def test_a_float_symbol_raises_value_error(call, symbol):
    """A float equal to a symbol is refused like one outside 0..31, at the
    first and at the last symbol; the same value as an int, a numpy int
    or (for 0 and 1) a bool passes. Unchecked, 1.0 == 1 let it through:
    decode then indexed a table with it (TypeError), the encoders and
    syndromes XORed it (TypeError), and encode_reference returned a
    codeword holding 0.0."""
    function, size = SCALAR_WORD_CALLS[call]
    for place in (0, size - 1):
        word = [0] * size
        word[place] = symbol
        with pytest.raises(ValueError, match=r"symbols must be in 0\.\.31"):
            function(word)
        for same in (int(symbol), np.int64(symbol), np.uint8(symbol)) + (
                (bool(symbol),) if symbol in (0, 1) else ()):
            word[place] = same
            function(word)
