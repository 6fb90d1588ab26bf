import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rs3127 import (bits_to_message, build_xor3_network, derive_parity_matrix,
                    encode_parallel, encode_reference, message_to_bits, parity_bits)

MATRIX = derive_parity_matrix()
NETWORK = build_xor3_network(MATRIX)

symbols = st.lists(st.integers(0, 31), min_size=27, max_size=27)


@given(symbols)
def test_message_bits_round_trip(msg):
    assert bits_to_message(message_to_bits(msg)) == msg


def test_bit_index_convention():
    msg = [0] * 27
    msg[0] = 1
    bits = message_to_bits(msg)
    assert bits[0] == 1 and sum(bits) == 1
    msg = [0] * 27
    msg[2] = 16
    bits = message_to_bits(msg)
    assert bits[14] == 1 and sum(bits) == 1  # 5*2 + 4


def test_zero_input_encodes_to_zero():
    zero = [0] * 135
    assert encode_parallel(zero, MATRIX) == [0] * 31
    assert encode_parallel(zero, NETWORK) == [0] * 31


def test_unit_bit_input_reads_out_a_matrix_column():
    for c in range(0, 135, 7):
        info = [0] * 135
        info[c] = 1
        assert parity_bits(info, MATRIX) == \
            [mask >> c & 1 for mask in MATRIX.bitmasks]


def test_matches_reference_encoder_on_random_messages():
    rnd = random.Random(4001)
    for _ in range(2000):
        msg = [rnd.randrange(32) for _ in range(27)]
        info = message_to_bits(msg)
        expected = encode_reference(msg)
        assert encode_parallel(info, MATRIX) == expected
        assert encode_parallel(info, NETWORK) == expected


@given(st.lists(st.integers(0, 1), min_size=135, max_size=135),
       st.lists(st.integers(0, 1), min_size=135, max_size=135))
def test_parallel_encoding_is_gf2_linear(a, b):
    both = [x ^ y for x, y in zip(a, b)]
    pa, pb = parity_bits(a, MATRIX), parity_bits(b, MATRIX)
    assert parity_bits(both, MATRIX) == [x ^ y for x, y in zip(pa, pb)]


def test_network_evaluation_matches_matrix_path():
    rnd = random.Random(4002)
    for _ in range(2000):
        info = [rnd.getrandbits(1) for _ in range(135)]
        assert encode_parallel(info, NETWORK) == encode_parallel(info, MATRIX)


def test_bits_to_message_rejects_a_value_other_than_0_or_1():
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        bits_to_message([2] + [0] * 134)


def test_length_contracts():
    with pytest.raises(ValueError):
        message_to_bits([0] * 26)
    with pytest.raises(ValueError):
        bits_to_message([0] * 134)
    with pytest.raises(ValueError):
        parity_bits([0] * 100, MATRIX)
    with pytest.raises(ValueError):
        parity_bits([0] * 136, NETWORK)
