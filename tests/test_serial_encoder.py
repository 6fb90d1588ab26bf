import random

import pytest

from rs3127 import GENERATOR_POLY, K_SYMBOLS, N_SYMBOLS, encode_reference, lfsr_encode
from rs3127.serial_encoder import SHIFT_IN, SHIFT_OUT, LfsrEncoder


def random_message(rnd):
    return [rnd.randrange(32) for _ in range(K_SYMBOLS)]


def test_reset_clears_registers_and_is_idempotent():
    enc = LfsrEncoder()
    enc.encode([1] * K_SYMBOLS)
    enc.reset()
    assert enc.regs == [0, 0, 0, 0] and enc.phase == 0
    enc.reset()
    assert enc.regs == [0, 0, 0, 0] and enc.phase == 0


def test_zero_message_stays_zero_for_31_cycles():
    enc = LfsrEncoder()
    assert enc.encode([0] * K_SYMBOLS) == [0] * N_SYMBOLS
    assert enc.phase == N_SYMBOLS


def test_zero_state_zero_input_single_cycle():
    enc = LfsrEncoder()
    assert enc.cycle(0) == 0
    assert enc.regs == [0, 0, 0, 0]


def test_single_division_step_loads_generator_coefficients():
    enc = LfsrEncoder()
    out = enc.cycle(1)
    assert out == 1
    assert enc.regs == GENERATOR_POLY[:4]


def test_shift_in_passes_input_through():
    rnd = random.Random(2001)
    enc = LfsrEncoder()
    for _ in range(K_SYMBOLS):
        sym = rnd.randrange(32)
        assert enc.mode == SHIFT_IN
        assert enc.cycle(sym) == sym
    assert enc.mode == SHIFT_OUT


def test_matches_reference_on_random_messages():
    rnd = random.Random(2002)
    for _ in range(2000):
        msg = random_message(rnd)
        assert lfsr_encode(msg) == encode_reference(msg)


def test_matches_reference_on_all_unit_bit_messages():
    for j in range(K_SYMBOLS):
        for i in range(5):
            msg = [0] * K_SYMBOLS
            msg[j] = 1 << i
            assert lfsr_encode(msg) == encode_reference(msg)


def test_cycle_count_is_exactly_31():
    enc = LfsrEncoder()
    enc.encode([3] * K_SYMBOLS)
    assert enc.phase == 31


def test_cycling_past_phase_31_raises():
    enc = LfsrEncoder()
    enc.encode([0] * K_SYMBOLS)
    with pytest.raises(RuntimeError):
        enc.cycle(0)


@pytest.mark.parametrize("symbol", [-1, 32])
def test_a_symbol_outside_0_to_31_leaves_a_fresh_encoder_as_it_was(symbol):
    """Unchecked, -1 would index MUL's row of 31 and load the registers."""
    enc = LfsrEncoder()
    with pytest.raises(ValueError, match=r"input symbol must be in 0\.\.31"):
        enc.cycle(symbol)
    assert (enc.regs, enc.phase) == ([0, 0, 0, 0], 0)


def test_state_is_linear_in_the_message():
    rnd = random.Random(2003)
    for _ in range(50):
        m1 = random_message(rnd)
        m2 = random_message(rnd)
        m3 = [a ^ b for a, b in zip(m1, m2)]
        e1, e2, e3 = LfsrEncoder(), LfsrEncoder(), LfsrEncoder()
        for cyc in range(K_SYMBOLS):
            e1.cycle(m1[cyc])
            e2.cycle(m2[cyc])
            e3.cycle(m3[cyc])
            if cyc % 5 == 0 or cyc == K_SYMBOLS - 1:
                assert e3.regs == [a ^ b for a, b in zip(e1.regs, e2.regs)]


def test_length_contract():
    with pytest.raises(ValueError):
        lfsr_encode([0] * 31)
