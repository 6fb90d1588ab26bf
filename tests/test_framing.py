import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rs3127 import (CORRECTED, OK, UNCORRECTABLE, DEFAULT_SYNC_HEADER, build_frame,
                    bytes_to_frame, default_parity_matrix, deinterleave, descramble,
                    encode_parallel, encode_reference, frame_to_bytes, interleave,
                    message_to_bits, scramble, unframe)
from rs3127.framing import HEADER_BITS, PAYLOAD_BITS
from rs3127.parallel_gen import symbols_to_bits

from oracles import frame_reference, interleave_reference, prbs_reference
from packing import decode_bit_frames
from test_cli import _CODEWORD_STATES, _error_symbols

bit_lists_270 = st.lists(st.integers(0, 1), min_size=270, max_size=270)
codewords = st.lists(st.integers(0, 31), min_size=31, max_size=31)


# --- scrambler ---------------------------------------------------------------

@given(bit_lists_270)
def test_scramble_is_an_involution(bits):
    assert descramble(scramble(bits)) == bits


def test_scrambling_zeros_reveals_the_prbs():
    seq = scramble([0] * 270)
    assert seq == prbs_reference(270)
    assert seq[0] == 1  # all-ones seed, MSB out
    assert 0.4 <= sum(seq) / 270 <= 0.6


def test_scrambler_state_never_reaches_zero():
    # the register always holds the next seven output bits
    seq = scramble([0] * 270)
    assert all(any(seq[n:n + 7]) for n in range(270 - 6))


def test_scramble_length_contract():
    with pytest.raises(ValueError):
        scramble([0] * 269)


@given(bit_lists_270)
def test_scramble_takes_any_sequence_of_bits_and_returns_a_list(bits):
    want = [b ^ p for b, p in zip(bits, prbs_reference(270))]
    for form in (bits, tuple(bits), [bool(b) for b in bits],
                 np.array(bits, np.uint8), np.array(bits, bool), np.array(bits)):
        got = scramble(form)
        assert type(got) is list and got == want


def test_scramble_rejects_a_value_other_than_0_or_1():
    for value, at in itertools.product([2, 3, 255, 256, -1], [0, 137, 269]):
        bits = [1] * 270
        bits[at] = value
        for form in (bits, tuple(bits)):
            with pytest.raises(ValueError):
                scramble(form)


# --- interleaver -------------------------------------------------------------

@given(codewords, codewords)
def test_interleave_round_trip(a, b):
    assert deinterleave(interleave(a, b)) == (a, b)


def test_interleave_layout():
    a = [0] * 31
    b = [0] * 31
    a[0] = 0b10110
    b[0] = 0b00111
    out = interleave(a, b)
    assert out[0:5] == [1, 0, 1, 1, 0]  # symbol 0 of A, MSB first
    assert out[5:10] == [0, 0, 1, 1, 1]
    assert all(bit == 0 for bit in out[10:])


@given(codewords, codewords)
def test_interleave_equals_the_layout_oracle(a, b):
    assert interleave(a, b) == interleave_reference(a, b)


def test_20_bit_burst_at_offset_zero_hits_two_symbols_per_codeword():
    rnd = random.Random(6001)
    a = encode_reference([rnd.randrange(32) for _ in range(27)])
    b = encode_reference([rnd.randrange(32) for _ in range(27)])
    wire = interleave(a, b)
    for i in range(20):
        wire[i] ^= 1
    ra, rb = deinterleave(wire)
    assert [s for s in range(31) if ra[s] != a[s]] == [0, 1]
    assert [s for s in range(31) if rb[s] != b[s]] == [0, 1]


def test_interleave_length_contracts():
    with pytest.raises(ValueError):
        interleave([0] * 30, [0] * 31)
    with pytest.raises(ValueError):
        deinterleave([0] * 309)


def test_deinterleave_rejects_a_value_other_than_0_or_1():
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        deinterleave([2] + [0] * 309)


OUTSIDE_THE_FIELD = r"symbols must be in 0\.\.31"


@pytest.mark.parametrize("symbol", [-1, 32])
@pytest.mark.parametrize("place", [0, 26])
def test_a_symbol_outside_0_to_31_raises_at_either_end(symbol, place):
    """A symbol just below or just above the field raises ValueError through
    each converter, where a table indexed by it would wrap -1 to 31."""
    word = [0] * 31
    word[place] = symbol
    with pytest.raises(ValueError, match=OUTSIDE_THE_FIELD):
        symbols_to_bits(word)
    with pytest.raises(ValueError, match=OUTSIDE_THE_FIELD):
        message_to_bits(word[:27])
    with pytest.raises(ValueError, match=OUTSIDE_THE_FIELD):
        interleave(word, [0] * 31)
    with pytest.raises(ValueError, match=OUTSIDE_THE_FIELD):
        interleave([0] * 31, word)


# --- frame build / unframe ---------------------------------------------------

def random_payload(rnd):
    return [rnd.getrandbits(1) for _ in range(270)]


# The header's 10 bits, MSB first.
SYNC_BITS = [DEFAULT_SYNC_HEADER >> (HEADER_BITS - 1 - i) & 1 for i in range(HEADER_BITS)]


def test_frame_is_320_bits_with_the_sync_header():
    rnd = random.Random(6002)
    frame = build_frame(random_payload(rnd))
    assert len(frame) == 320
    assert frame[:HEADER_BITS] == SYNC_BITS


@given(bit_lists_270)
@example([0] * 270)
@example([1] * 270)
def test_build_frame_equals_the_symbol_composition(info):
    """The wire gather gives the frame that encoding each half to symbols
    and interleaving them gave."""
    scrambled = scramble(info)
    matrix = default_parity_matrix()
    want = SYNC_BITS + interleave(encode_parallel(scrambled[:135], matrix),
                                   encode_parallel(scrambled[135:], matrix))
    assert build_frame(info) == want


def test_unframe_info_from_the_frame_and_from_corrected_messages():
    """One frame for each of the 16 (state A, state B) of test_cli's
    _CODEWORD_STATES, with its symbol errors placed by `interleave`.
    unframe gathers the info off the frame unless a codeword was corrected,
    and converts decode's messages if one was: either way the info is the
    descrambled messages, and decode_frames's row."""
    rng = np.random.default_rng(18)
    combos = list(itertools.product(range(4), repeat=2))
    frames = []
    for state_a, state_b in combos:
        frame = build_frame(rng.integers(0, 2, 270).tolist())
        flips = [0] * HEADER_BITS + interleave(_error_symbols(rng, state_a),
                                               _error_symbols(rng, state_b))
        frames.append([b ^ f for b, f in zip(frame, flips)])
    rows = decode_bit_frames(np.array(frames, np.uint8))[0].tolist()
    for frame, row, (state_a, state_b) in zip(frames, rows, combos):
        res = unframe(frame)
        a, b = res.result_a, res.result_b
        assert ((a.status, a.corrected_symbols), (b.status, b.corrected_symbols)) == (
            _CODEWORD_STATES[state_a], _CODEWORD_STATES[state_b])
        assert res.info == descramble(message_to_bits(a.message) + message_to_bits(b.message))
        assert res.info == row


def test_frame_build_is_stateless():
    rnd = random.Random(6003)
    payload = random_payload(rnd)
    assert build_frame(payload) == build_frame(payload)


def test_clean_round_trip():
    rnd = random.Random(6005)
    for _ in range(2000):
        payload = random_payload(rnd)
        res = unframe(build_frame(payload))
        assert res.info == payload
        assert res.result_a.status == OK and res.result_b.status == OK
        assert res.header_ok


def test_header_corruption_is_flagged_but_payload_still_decodes():
    rnd = random.Random(6006)
    payload = random_payload(rnd)
    frame = build_frame(payload)
    frame[3] ^= 1
    res = unframe(frame)
    assert not res.header_ok
    assert res.info == payload


def test_unframe_reads_a_list_a_tuple_and_an_array_alike():
    """header_ok is a plain bool, True for the sync header and False with
    any one header bit flipped, and the info is the payload, whether the
    frame is a list, a tuple or a uint8 array."""
    payload = random_payload(random.Random(6007))
    for flip in (None, *range(HEADER_BITS)):
        frame = build_frame(payload)
        if flip is not None:
            frame[flip] ^= 1
        for form in (frame, tuple(frame), np.array(frame, np.uint8)):
            res = unframe(form)
            assert res.header_ok is (flip is None)
            assert res.info == payload


@pytest.mark.parametrize("value", [2, -1, 255])
@pytest.mark.parametrize("at", [0, HEADER_BITS, HEADER_BITS + 5],
                         ids=["header", "codeword-A", "codeword-B"])
def test_unframe_rejects_a_value_other_than_0_or_1(at, value):
    """In the header, in codeword A's or in codeword B's first symbol, in a
    list, a tuple or a uint8 array frame (where -1 wraps to 255), as
    scramble rejects one; bools still count as bits."""
    frame = build_frame(random_payload(random.Random(6008)))
    assert unframe([bool(bit) for bit in frame]).info == unframe(frame).info
    frame[at] = value
    for form in (frame, tuple(frame), np.array(frame).astype(np.uint8)):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            unframe(form)


def burst_recovery(payload, offset, length):
    frame = build_frame(payload)
    for i in range(HEADER_BITS + offset, HEADER_BITS + offset + length):
        frame[i] ^= 1
    return unframe(frame).info == payload


def test_sampled_bursts_up_to_16_bits_always_recover():
    rnd = random.Random(6008)
    payload = random_payload(rnd)
    for length in (1, 5, 11, 16):
        for offset in range(0, PAYLOAD_BITS - length + 1, 7):
            assert burst_recovery(payload, offset, length)


def test_burst_geometry_theorem_for_all_offsets_up_to_24_bits():
    """A burst of length L at payload offset p touches
    floor((p+L-1)/5) - floor(p/5) + 1 symbol slots, alternating between
    the codewords. With an all-flip pattern every touched symbol is
    corrupted, so recovery is guaranteed when each codeword is hit in at
    most 2 symbols — and impossible when 3 or more hits land in either
    codeword's message region (two corrections can never fix three wrong
    message symbols; an undetected pass-through leaves them wrong too)."""
    rnd = random.Random(6009)
    payload = random_payload(rnd)
    for length in range(1, 25):
        for offset in range(0, PAYLOAD_BITS - length + 1):
            first_slot = offset // 5
            last_slot = (offset + length - 1) // 5
            slots = list(range(first_slot, last_slot + 1))
            assert len(slots) == last_slot - first_slot + 1
            hits_a = sum(1 for s in slots if s % 2 == 0)
            hits_b = len(slots) - hits_a
            # even slot 2m is symbol m of A, odd slot 2m+1 symbol m of B;
            # symbols 27..30 are parity
            msg_hits_a = sum(1 for s in slots if s % 2 == 0 and s // 2 < 27)
            msg_hits_b = sum(1 for s in slots if s % 2 == 1 and s // 2 < 27)
            if hits_a <= 2 and hits_b <= 2:
                assert burst_recovery(payload, offset, length)
            elif msg_hits_a >= 3 or msg_hits_b >= 3:
                assert not burst_recovery(payload, offset, length)
            # remaining cases (>= 3 hits but excess only in parity) may
            # legitimately go either way: an uncorrectable decode passes
            # an untouched message region straight through


def test_dc_balance_of_scrambled_payloads():
    rnd = random.Random(6010)
    ones = total = 0
    for _ in range(10000):
        frame = build_frame(random_payload(rnd))
        ones += sum(frame[HEADER_BITS:])
        total += PAYLOAD_BITS
    assert 0.45 <= ones / total <= 0.55


def test_frame_length_contracts():
    with pytest.raises(ValueError):
        build_frame([0] * 269)
    with pytest.raises(ValueError):
        unframe([0] * 319)


# --- byte serialization --------------------------------------------------------

def test_byte_packing_is_big_endian():
    frame = [0] * 320
    frame[0] = 1   # MSB of byte 0
    frame[15] = 1  # LSB of byte 1
    data = frame_to_bytes(frame)
    assert len(data) == 40
    assert data[0] == 0x80 and data[1] == 0x01


@given(st.lists(st.integers(0, 1), min_size=320, max_size=320))
def test_byte_round_trip(frame):
    assert bytes_to_frame(frame_to_bytes(frame)) == frame


@given(bit_lists_270)
def test_frame_and_bytes_match_the_layout_oracle(info):
    want = frame_reference(info)
    want_bytes = bytes(sum(want[8 * k + j] << (7 - j) for j in range(8))
                       for k in range(40))
    assert build_frame(info) == want
    assert frame_to_bytes(want) == want_bytes
    assert bytes_to_frame(want_bytes) == want
    assert unframe(want).info == info


def _frame_int(bits):
    return int("".join(map(str, bits)), 2)


def test_build_frame_equals_the_layout_oracle_at_every_table_entry():
    """On the zero payload and on each of the 270 unit payloads; and, as
    the oracle is affine in the payload, on every payload whose scrambled
    info is a value v in byte j and 0 elsewhere, which reads entry [j][v]
    of the frame table (the last byte holds info bits 264..269 only)."""
    zero = frame_reference([0] * 270)
    assert build_frame([0] * 270) == zero
    columns = []
    for k in range(270):
        unit = [0] * 270
        unit[k] = 1
        want = frame_reference(unit)
        assert build_frame(unit) == want
        columns.append(_frame_int(want) ^ _frame_int(zero))
    prbs = prbs_reference(270)
    base = _frame_int(frame_reference(prbs))  # scrambled info all 0
    for j in range(34):
        for v in range(256):
            scrambled = [0] * 272
            scrambled[8 * j:8 * j + 8] = [v >> (7 - i) & 1 for i in range(8)]
            if any(scrambled[270:]):
                continue
            want = base
            for k in np.flatnonzero(scrambled).tolist():
                want ^= columns[k]
            got = build_frame([s ^ p for s, p in zip(scrambled, prbs)])
            assert _frame_int(got) == want, (j, v)


@given(bit_lists_270, st.sets(st.integers(0, 319), max_size=8))
@example([1] * 270, set(range(HEADER_BITS, HEADER_BITS + 40, 5)))
def test_unframe_equals_decode_frames_on_a_list_a_tuple_and_an_array(info, flips):
    """info, ok, nu and header_ok of a frame with 0 to 8 flipped bits."""
    frame = build_frame(info)
    for at in flips:
        frame[at] ^= 1
    want_info, ok, nu, header_ok = decode_bit_frames(np.array([frame], np.uint8))
    for form in (frame, tuple(frame), np.array(frame, np.uint8)):
        res = unframe(form)
        results = (res.result_a, res.result_b)
        assert res.info == want_info[0].tolist()
        assert [r.status != UNCORRECTABLE for r in results] == ok.tolist()
        assert [r.corrected_symbols for r in results] == nu.tolist()
        assert [r.status == CORRECTED for r in results] == (nu > 0).tolist()
        assert res.header_ok is bool(header_ok[0])


# What scramble, unframe and frame_to_bytes do with one value that is not a
# bit, in a list or a tuple: the exception, with the message where rs3127
# writes it, or None where the value is taken as a bit. 48 and 49 are the
# bytes of the digits "0" and "1", which unframe must not read as bits.
NOT_A_BIT = "bits must be 0 or 1"
NON_BITS = {
    -1: ((ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT)),
    2: ((ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT), None),
    48: ((ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT), None),
    49: ((ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT), None),
    256: ((ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT)),
    True: (None, None, None),
    0.5: ((ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT), (ValueError, NOT_A_BIT)),
}


@pytest.mark.parametrize("value", list(NON_BITS), ids=repr)
@pytest.mark.parametrize("at", [3, 150], ids=["header", "payload"])
def test_a_value_other_than_0_or_1_raises_at_a_header_and_a_payload_bit(value, at):
    """The position is a frame bit, and the same index into scramble's
    270 bits. True counts as 1 everywhere, and a nonzero byte packs as 1."""
    frame = build_frame(random_payload(random.Random(6009)))
    calls = ((scramble, frame[HEADER_BITS:][:270]), (unframe, frame), (frame_to_bytes, frame))
    for (call, bits), outcome in zip(calls, NON_BITS[value]):
        for form in (list, tuple):
            given = list(bits)
            given[at] = value
            if outcome is None:
                as_bit = list(bits)
                as_bit[at] = 1
                assert call(form(given)) == call(form(as_bit))
                continue
            error, message = outcome
            with pytest.raises(error) as raised:
                call(form(given))
            assert type(raised.value) is error
            if message:
                assert str(raised.value) == message


def test_byte_packing_of_every_value_at_every_position():
    """A nonzero value packs as 1, as numpy packs a uint8 array: frame v
    holds value (v + k) % 256 at bit k, so the 256 frames put every value
    0..255 at every position."""
    for v in range(256):
        frame = [(v + k) % 256 for k in range(320)]
        assert frame_to_bytes(frame) == np.packbits(np.array(frame, np.uint8)).tobytes()


def test_frame_to_bytes_rejects_a_value_outside_a_byte():
    for value in (256, -1):
        frame = [0] * 320
        frame[100] = value
        with pytest.raises(ValueError):
            frame_to_bytes(frame)


def test_byte_length_contracts():
    with pytest.raises(ValueError):
        frame_to_bytes([0] * 319)
    with pytest.raises(ValueError):
        bytes_to_frame(bytes(39))
