"""The batch frame kernels against the scalar frame chain, and the GF(2)
parity map they evaluate as a matrix product."""

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rs3127 import (CORRECTED, OK, UNCORRECTABLE, build_frame, default_parity_matrix,
                    parity_bits, unframe)
from rs3127.framing import HEADER_BITS, decode_frames, encode_frames, interleave

from oracles import frame_reference

ENCODERS = ("parallel", "reference", "lfsr")
bit_lists_270 = st.lists(st.integers(0, 1), min_size=270, max_size=270)


def _as_block(rows, width):
    return np.array(rows, np.uint8).reshape(len(rows), width)


# --- encode_frames -----------------------------------------------------------

@given(st.lists(bit_lists_270, max_size=4))
@example([])
@example([[1] * 270])
def test_encode_frames_equals_build_frame_and_the_layout_oracle(rows):
    want = [frame_reference(info) for info in rows]
    for encoder in ENCODERS:
        frames = encode_frames(_as_block(rows, 270), encoder=encoder)
        assert frames.dtype == np.uint8 and frames.shape == (len(rows), 320)
        assert frames.tolist() == [build_frame(info, encoder=encoder) for info in rows]
        assert frames.tolist() == want


def test_kernel_contracts():
    with pytest.raises(ValueError):
        encode_frames(np.zeros((2, 269), np.uint8))
    with pytest.raises(ValueError):
        encode_frames(np.zeros(270, np.uint8))
    with pytest.raises(ValueError):
        encode_frames(np.zeros((1, 270), np.uint8), encoder="bogus")
    with pytest.raises(ValueError):
        decode_frames(np.zeros((1, 319), np.uint8))


# --- decode_frames -----------------------------------------------------------

def _assert_matches_unframe(frames):
    info, results, header_ok = decode_frames(frames)
    assert info.dtype == np.uint8 and info.shape == (len(frames), 270)
    assert len(results) == 2 * len(frames) and header_ok.shape == (len(frames),)
    for k, frame in enumerate(frames.tolist()):
        want = unframe(frame)
        assert info[k].tolist() == want.info
        assert results[2 * k] == want.result_a and results[2 * k + 1] == want.result_b
        assert bool(header_ok[k]) == want.header_ok
    return results, header_ok


@given(st.lists(st.tuples(bit_lists_270, st.lists(st.integers(0, 319), max_size=12)),
                max_size=4))
@example([])
def test_decode_frames_equals_unframe_on_noisy_frames(cases):
    frames = _as_block([build_frame(info) for info, _ in cases], 320)
    for k, (_, flips) in enumerate(cases):
        for pos in flips:
            frames[k, pos] ^= 1
    _assert_matches_unframe(frames)


def test_decode_frames_covers_header_hits_and_heavy_errors():
    rnd = random.Random(7)
    frames = encode_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
                                     for _ in range(6)], np.uint8))
    frames[0, 3] ^= 1                                   # header bit
    frames[1, HEADER_BITS] ^= 1                         # A0: one symbol
    frames[2, HEADER_BITS + np.array([0, 10, 20, 25])] ^= 1  # A0, A1, A2, B2: weight 3 in A
    for slot in range(0, 14, 2):                        # A0..A6: weight 7
        frames[3, HEADER_BITS + 5 * slot + 2] ^= 1
    frames[4, HEADER_BITS:HEADER_BITS + 20] ^= 1        # 20-bit burst: 2 + 2 symbols
    results, header_ok = _assert_matches_unframe(frames)
    statuses = [r.status for r in results]
    assert header_ok.tolist() == [False, True, True, True, True, True]
    assert statuses[2] == CORRECTED
    assert statuses[8:] == [CORRECTED, CORRECTED, OK, OK]
    assert UNCORRECTABLE in statuses[4:8]


def test_decode_frames_corrects_every_single_symbol_error():
    """All 961 one-symbol error patterns in codeword A, mirrored into B, so
    no error word passes the parity check as clean."""
    rnd = random.Random(5)
    info = [rnd.getrandbits(1) for _ in range(270)]
    errors = []
    for pos in range(31):
        for value in range(1, 32):
            err = [0] * 31
            err[pos] = value
            errors.append([0] * HEADER_BITS + interleave(err, err[::-1]))
    frames = np.array(build_frame(info), np.uint8) ^ np.array(errors, np.uint8)
    got, results, header_ok = decode_frames(frames)
    assert (got == np.array(info, np.uint8)).all() and header_ok.all()
    assert {r.status for r in results} == {CORRECTED}


# --- the parity map ------------------------------------------------------------

def test_parity_array_equals_the_rows_and_parity_bits():
    matrix = default_parity_matrix()
    array = matrix.array
    assert array.dtype == np.float32 and array.shape == (135, 20)
    assert set(np.unique(array).tolist()) == {0.0, 1.0}
    assert tuple(frozenset(np.flatnonzero(array[:, r]).tolist()) for r in range(20)) \
        == matrix.rows
    for c in range(135):
        unit = [0] * 135
        unit[c] = 1
        assert array[c].astype(int).tolist() == parity_bits(unit, matrix)
