"""The batch frame kernels against the scalar frame chain, the batch t = 2
corrector against the reference decoder on every syndrome, and the GF(2)
parity map the `parallel` kernel evaluates as a table per symbol."""

import hashlib
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rs3127 import (CORRECTED, OK, UNCORRECTABLE, build_frame, chien_search,
                    compute_syndromes, decode, default_parity_matrix, encode_parallel,
                    encode_reference, forney, is_codeword, lfsr_encode, parity_bits,
                    solve_locator, unframe)
from rs3127 import decoder, framing, parallel_gen, rs_core, serial_encoder
from rs3127.decoder import block_fixes
from rs3127.framing import (HEADER_BITS, PAYLOAD_BITS, decode_frames, encode_frames,
                            interleave, xor_block)
from rs3127.parallel_gen import (LinearMap, _gf2_rank, bits_to_symbols, build_xor3_network,
                                 expected_depth, symbols_to_bits)
from rs3127.serial_encoder import LfsrEncoder, shift_in_block

from oracles import (clean_info_reference, decode_reference, frame_reference,
                     frame_words_reference, interleave_reference, packed_syndromes,
                     parity_region_syndromes, probe_matrix_from_reference_encoder,
                     rs_encode_reference, syndrome_map, word_symbols)
from packing import decode_bit_frames, encode_bit_frames

ENCODERS = ("parallel", "reference", "lfsr")
bit_lists_270 = st.lists(st.integers(0, 1), min_size=270, max_size=270)


def _as_block(rows, width):
    return np.array(rows, np.uint8).reshape(len(rows), width)


# --- encode_frames -----------------------------------------------------------

@settings(deadline=None)  # the 271-row example takes about 0.3 s
@given(st.lists(bit_lists_270, max_size=4))
@example([])
@example([[1] * 270])
@example(np.eye(271, 270, -1, np.uint8).tolist())
def test_encode_frames_equals_build_frame_and_the_layout_oracle(rows):
    """Every encoder's wire bytes are the packed frames of build_frame and
    of the layout oracle, and decode_frames gives the info bytes back.
    The zero info and the 270 unit-bit infos (an example) decide every
    input: each encoder is GF(2)-linear (the linearity tests below), so
    encode_frames is affine."""
    want = [frame_reference(info) for info in rows]
    info = np.packbits(_as_block(rows, 270), axis=1)
    for encoder in ENCODERS:
        frames = encode_frames(info, encoder=encoder)
        assert frames.dtype == np.uint8 and frames.shape == (len(rows), 40)
        bits = np.unpackbits(frames, axis=1).tolist()
        assert bits == [build_frame(row) for row in rows]
        assert bits == want
        got, ok, nu, header_ok = decode_frames(frames)
        assert np.array_equal(got, info)
        assert ok.all() and not nu.any() and header_ok.all()


# --- the three block encoders ---------------------------------------------------

BATCH_ENCODERS = {"reference": (rs_core.divide_block, encode_reference),
                  "lfsr": (shift_in_block, lfsr_encode),
                  "parallel": (xor_block, lambda msg: encode_parallel(
                      symbols_to_bits(msg), default_parity_matrix()))}
messages = st.lists(st.integers(0, 31), min_size=27, max_size=27)


def _single_symbol_messages():
    """The zero message and every message with one nonzero symbol. The 135
    whose symbol is a power of two are the unit-bit messages, a basis."""
    rows = [[0] * 27]
    for j in range(27):
        for value in range(1, 32):
            rows.append([0] * j + [value] + [0] * (26 - j))
    return rows


@pytest.mark.parametrize("encoder", sorted(BATCH_ENCODERS))
def test_batch_encoder_equals_its_scalar_encoder_on_every_single_symbol(encoder):
    """With linearity (below) agreement on the unit-bit messages decides
    all 2^135 messages."""
    batch, scalar = BATCH_ENCODERS[encoder]
    rows = _single_symbol_messages()
    assert len(rows) == 1 + 27 * 31
    got = batch(np.array(rows, np.uint8))
    assert got.dtype == np.uint8 and got.shape == (len(rows), 31)
    assert got.tolist() == [scalar(msg) for msg in rows]


@given(messages, messages)
def test_batch_encoders_are_gf2_linear(a, b):
    pair = np.array([a, b], np.uint8)
    for batch, _ in BATCH_ENCODERS.values():
        x, y = batch(pair)
        assert (batch(pair[:1] ^ pair[1:])[0] == x ^ y).all()


@given(st.lists(messages, max_size=5))
@example([])
@example([[31] * 27])
def test_batch_encoders_equal_the_scalar_encoders_on_any_block(rows):
    block = np.array(rows, np.uint8).reshape(len(rows), 27)
    for batch, scalar in BATCH_ENCODERS.values():
        got = batch(block)
        assert got.dtype == np.uint8 and got.shape == (len(rows), 31)
        assert got.tolist() == [scalar(msg) for msg in rows]


def test_batch_encoders_equal_the_scalar_encoders_on_a_full_block():
    """One block of 2 * BLOCK_FRAMES random messages, as encode_frames
    sees it, with an all-31 and an all-zero row, then every other row of
    it as a non-contiguous view and the block in Fortran order: a slip in
    a packed register's shift or mask shows on some row."""
    rnd = np.random.default_rng(23)
    block = rnd.integers(0, 32, (2 * framing.BLOCK_FRAMES, 27), dtype=np.uint8)
    block[0], block[-1] = 31, 0
    for rows in (block, block[::2], np.asfortranarray(block)):
        for batch, scalar in BATCH_ENCODERS.values():
            got = batch(rows)
            assert got.dtype == np.uint8 and got.shape == (len(rows), 31)
            assert got.tolist() == [scalar(msg) for msg in rows.tolist()]


@pytest.mark.parametrize("kernel", [rs_core.divide_block, shift_in_block],
                         ids=["divide_block", "shift_in_block"])
def test_sequential_kernels_read_a_strided_view_as_its_copy(kernel):
    """The two kernels that step through the symbols give the same
    codewords on a view with any strides as on its contiguous copy: every
    third row, the column of a 3-D block (as `LinearMap.probe_symbols`
    passes `symbols[:, :, 0]`), and the block in Fortran order. The
    parity matrix probed through either, as `derive_parity_matrix` probes
    `shift_in_block`, is the one read off the scalar long division. An
    empty block gives uint8[0, 31]."""
    rnd = np.random.default_rng(29)
    wide = rnd.integers(0, 32, (2 * framing.BLOCK_FRAMES, 27, 3), dtype=np.uint8)
    for view in (wide[::3, :, 0], wide[:, :, 1], np.asfortranarray(wide[:, :, 2])):
        got = kernel(view)
        assert got.dtype == np.uint8 and got.shape == (len(view), 31)
        assert np.array_equal(got, kernel(np.ascontiguousarray(view)))
    for empty in (np.zeros((0, 27), np.uint8), wide[:0, :, 0]):
        got = kernel(empty)
        assert got.dtype == np.uint8 and got.shape == (0, 31)
    probed = LinearMap.probe_symbols(lambda msg: kernel(msg)[:, 27:], 27)
    assert probed.bitmasks == probe_matrix_from_reference_encoder()


@pytest.mark.parametrize("packed, table", [
    (serial_encoder._TAPS32, serial_encoder._TAPS)], ids=["lfsr-taps"])
def test_packed_tables_hold_byte_d_in_bits_8d(packed, table):
    """Byte d of each packed row, read back by shifts, is column d of the
    uint8 table it packs, and the bytes above the table are zero, on a
    host of either byte order."""
    width = packed.dtype.itemsize
    values = packed.astype(np.uint64)
    got = np.stack([values >> np.uint64(8 * d) & np.uint64(0xFF) for d in range(width)], axis=1)
    assert got[:, :table.shape[1]].tolist() == table.tolist()
    assert not got[:, table.shape[1]:].any()


@pytest.fixture
def fresh_parallel_tables():
    """`parallel`'s probe and its table are built again on first use in
    the test, and again after it."""
    caches = (framing._unit_frames, framing._wire_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_each_encoder_runs_its_own_algorithm(monkeypatch, fresh_parallel_tables):
    """The three encoders give the same frames but stay three
    architectures: none is an alias of another's kernel. `parallel`
    probes its table through `xor_block` on its first block alone; every
    later block is a gather of that table and calls no encoder kernel."""
    ran = []
    for kernel in ("xor_block", "divide_block", "shift_in_block"):
        original = getattr(framing, kernel)
        monkeypatch.setattr(framing, kernel,
                            lambda x, kernel=kernel, original=original:
                            ran.append(kernel) or original(x))
    info = np.zeros((2, 34), np.uint8)
    encode_frames(info, encoder="parallel")
    assert ran == ["xor_block"]
    for encoder, kernels in (("parallel", []), ("reference", ["divide_block"]),
                             ("lfsr", ["shift_in_block"]), ("parallel", [])):
        ran.clear()
        encode_frames(info, encoder=encoder)
        assert ran == kernels


def test_a_flipped_parity_tap_changes_the_parallel_frames_alone(monkeypatch,
                                                                fresh_parallel_tables):
    """`parallel`'s table is probed through the parity matrix, so a matrix
    with one tap flipped gives other `parallel` frames; `reference` and
    `lfsr` read no matrix and give the same frames as before."""
    rng = np.random.default_rng(23)
    info = rng.integers(0, 256, (16, 34), dtype=np.uint8)
    info[:, -1] &= 0xFC
    want = {encoder: encode_frames(info, encoder=encoder) for encoder in ENCODERS}
    matrix = default_parity_matrix()
    broken = LinearMap((matrix.bitmasks[0] ^ 1, *matrix.bitmasks[1:]), matrix.n_in)
    monkeypatch.setattr(framing, "default_parity_matrix", lambda: broken)
    framing._unit_frames.cache_clear()
    framing._wire_table.cache_clear()
    got = {encoder: encode_frames(info, encoder=encoder) for encoder in ENCODERS}
    assert not np.array_equal(got["parallel"], want["parallel"])
    assert np.array_equal(got["reference"], want["reference"])
    assert np.array_equal(got["lfsr"], want["lfsr"])
    assert np.array_equal(want["parallel"], want["reference"])


def test_encode_frames_never_calls_a_scalar_encoder(monkeypatch):
    rnd = random.Random(17)
    info = np.array([[rnd.getrandbits(1) for _ in range(270)] for _ in range(8)], np.uint8)
    want = [build_frame(row) for row in info.tolist()]

    def refuse(*args):
        raise AssertionError("encode_frames called a scalar encoder")

    scalar = (encode_reference, lfsr_encode, encode_parallel, parity_bits)
    for module in [m for name, m in sys.modules.items() if name.startswith("rs3127")]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in scalar):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(LfsrEncoder, "cycle", refuse)
    for encoder in ENCODERS:
        assert encode_bit_frames(info, encoder=encoder).tolist() == want


def test_kernel_contracts():
    with pytest.raises(ValueError, match="shape"):
        encode_frames(np.zeros((2, 33), np.uint8))
    with pytest.raises(ValueError, match="shape"):
        encode_frames(np.zeros(34, np.uint8))
    with pytest.raises(ValueError, match="shape"):
        encode_frames(np.zeros((2, 270), np.uint8))
    with pytest.raises(ValueError, match="unknown encoder"):
        encode_frames(np.zeros((1, 34), np.uint8), encoder="bogus")
    for last in (0b10, 0b01):  # info bit 270, then 271, of the second row
        info = np.zeros((3, 34), np.uint8)
        info[1, 33] = 0xFC | last
        with pytest.raises(ValueError, match="info bits 270..271 must be 0"):
            encode_frames(info)
    with pytest.raises(ValueError):
        decode_frames(np.zeros((1, 39), np.uint8))
    with pytest.raises(ValueError):
        decode_frames(np.zeros(40, np.uint8))
    # a float, a bool, bytes or a value outside 0..255 is refused, not cast
    for kernel, width in ((encode_frames, 34), (decode_frames, 40)):
        for first in (0.5, -1, 256, 300):
            with pytest.raises(ValueError):
                kernel([[first] + [0] * (width - 1)])
        with pytest.raises(ValueError, match="dtype float64"):
            kernel(np.zeros((1, width)))
        with pytest.raises(ValueError, match="dtype bool"):
            kernel(np.zeros((1, width), bool))
        with pytest.raises(ValueError):
            kernel([bytes(width)])
    # any integer dtype holding bytes is taken as it is
    info = np.full((2, 34), 12, np.uint8)
    frames = encode_frames(info)
    for dtype in (np.int64, np.uint16):
        assert np.array_equal(encode_frames(info.astype(dtype)), frames)
        assert np.array_equal(decode_frames(frames.astype(dtype))[0], info)


def test_wire_gather_puts_every_source_bit_where_the_layout_oracle_does():
    """Each of the 310 unit vectors of [codeword A | codeword B] (info/parity
    bit order) lands on the wire bit interleave_reference puts it on;
    _FROM_WIRE inverts _TO_WIRE."""
    for j, unit in enumerate(np.eye(310, dtype=np.uint8)):
        symbols = bits_to_symbols(unit.tolist())
        want = interleave_reference(symbols[:31], symbols[31:])
        assert unit[framing._TO_WIRE].tolist() == want
        assert framing._FROM_WIRE[j] == want.index(1)
    assert sorted(framing._TO_WIRE.tolist()) == list(range(310))
    assert framing._TO_WIRE[framing._FROM_WIRE].tolist() == list(range(310))


@pytest.mark.parametrize("n_bytes, count", [(40, 64), (34, 54)], ids=["frame", "record"])
def test_field_reader_and_writer_invert_each_other(n_bytes, count):
    """On random blocks of N records, given byte-major as encode_frames
    gives them (a transposed view), field f is bits 5f..5f+4 of each
    record, MSB first, as unpackbits reads them; writing the fields gives
    the bytes back, the bits after the last field cleared; and reading
    random fields back after writing them gives them unchanged."""
    rng = np.random.default_rng(37)
    for n in (0, 1, 7, 128):
        records = rng.integers(0, 256, (n, n_bytes), dtype=np.uint8)
        bits = np.unpackbits(records, axis=1)[:, :5 * count]
        fields = framing._read_fields(records.T, count)
        want = (bits.reshape(n, count, 5) << np.arange(4, -1, -1)).sum(axis=2).T
        assert fields.dtype == np.uint8 and fields.shape == (count, n)
        assert np.array_equal(fields, want)
        written = framing._write_fields(fields)
        assert written.dtype == np.uint8
        assert np.array_equal(written, np.packbits(bits, axis=1).T)
        values = rng.integers(0, 32, (count, n), dtype=np.uint8)
        assert np.array_equal(framing._read_fields(framing._write_fields(values), count), values)


# --- decode_frames -----------------------------------------------------------

def _assert_matches_unframe(frames):
    """decode_frames against unframe row for row. Equal info means equal
    messages, and (ok, nu) pins decode's status: uncorrectable exactly
    when not ok, corrected exactly when nu > 0. Returns unframe's
    DecodeResults of A and B of each frame in turn, and header_ok."""
    info, ok, nu, header_ok = decode_bit_frames(frames)
    assert info.dtype == np.uint8 and info.shape == (len(frames), 270)
    assert ok.dtype == bool and ok.shape == nu.shape == (2 * len(frames),)
    assert header_ok.shape == (len(frames),)
    results = []
    for k, frame in enumerate(frames.tolist()):
        want = unframe(frame)
        assert info[k].tolist() == want.info
        assert bool(header_ok[k]) == want.header_ok
        results += [want.result_a, want.result_b]
    assert [(bool(good), int(count)) for good, count in zip(ok, nu)] == [
        (r.status != UNCORRECTABLE, r.corrected_symbols) for r in results]
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
    frames = encode_bit_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
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


# Error symbols of one codeword: position -> nonzero value, 0 to 8 of them,
# so each codeword gets 0, 1-2 (correctable) or >= 3 errors.
codeword_errors = st.dictionaries(st.integers(0, 30), st.integers(1, 31), max_size=8)


def _error_frame(header, errors_a, errors_b):
    """320 flip bits: header bits as given, then both codewords' error
    symbols in wire order."""
    return header + interleave(*([errors.get(s, 0) for s in range(31)]
                                 for errors in (errors_a, errors_b)))


@given(st.lists(st.tuples(bit_lists_270, st.lists(st.integers(0, 1), min_size=10, max_size=10),
                          codeword_errors, codeword_errors), min_size=1, max_size=4))
@example([([1] * 270, [1] * 10, {0: 1, 9: 31, 30: 7}, {4: 2})])
@example([([0, 1] * 135, [0] * 10, {}, {s: s + 1 for s in range(8)})])
def test_decoding_depends_on_the_error_pattern_alone(cases):
    """The fact the simulator rests on: decoding the frame of payload p
    with flips e gives the ok and nu of decoding Z ^ e, Z the frame of
    the all-zero payload, and info that differs from Z ^ e's by p; and
    decoding e itself as a frame, as the simulator decodes the flips,
    gives the same ok and nu, and those wrong info bits XOR the PRBS."""
    payload = _as_block([info for info, *_ in cases], 270)
    errors = _as_block([_error_frame(*case[1:]) for case in cases], 320)
    zero = encode_bit_frames(np.zeros((1, 270), np.uint8))
    info, ok, nu, _ = decode_bit_frames(encode_bit_frames(payload) ^ errors)
    wrong, ok_zero, nu_zero, _ = decode_bit_frames(zero ^ errors)
    assert np.array_equal(info ^ payload, wrong)
    assert np.array_equal(ok, ok_zero) and np.array_equal(nu, nu_zero)
    bare, ok_bare, nu_bare, _ = decode_frames(np.packbits(errors, axis=1))
    assert np.array_equal(bare ^ framing.PRBS_BYTES, np.packbits(info ^ payload, axis=1))
    assert np.array_equal(ok_bare, ok) and np.array_equal(nu_bare, nu)


def test_burst_profile_holds_for_every_payload():
    """Every payload burst of 1 to 20 bits at every offset, in one decode
    against the frame of the all-zero payload: by the test above, each
    outcome is that burst's outcome on every payload. A burst is aligned
    when it starts on a symbol boundary; a frame is miscorrected when a
    codeword reports ok (clean or corrected) with wrong info."""
    bursts = [(length, offset) for length in range(1, 21)
              for offset in range(PAYLOAD_BITS - length + 1)]
    errors = np.zeros((len(bursts), 320), np.uint8)
    for row, (length, offset) in enumerate(bursts):
        errors[row, HEADER_BITS + offset:HEADER_BITS + offset + length] = 1
    info, ok, _, _ = decode_bit_frames(encode_bit_frames(np.zeros((1, 270), np.uint8)) ^ errors)
    wrong = info.reshape(-1, 2, 135).any(axis=2)
    ok = ok.reshape(-1, 2)
    recovered = ~wrong.any(axis=1)
    miscorrected = (ok & wrong).any(axis=1)
    assert not (recovered & miscorrected).any()
    assert (~ok)[~recovered & ~miscorrected].any(axis=1).all()

    lengths = np.array([length for length, _ in bursts])
    aligned = np.array([offset % 5 == 0 for _, offset in bursts])
    assert recovered[lengths <= 16].all()
    assert recovered[(lengths > 16) & aligned].all()
    misaligned = {}
    for length in range(17, 21):
        rows = (lengths == length) & ~aligned
        misaligned[length] = (int(recovered[rows].sum()), int(rows.sum()),
                              int(miscorrected[rows].sum()))
    assert misaligned == {17: (181, 235, 0), 18: (126, 234, 0),
                          19: (67, 233, 58), 20: (4, 232, 174)}
    last = np.flatnonzero(lengths == 20)
    outcomes = (int(recovered[last].sum()), int(miscorrected[last].sum()))
    assert (len(last), *outcomes, len(last) - sum(outcomes)) == (291, 63, 174, 54)

    rnd = random.Random(21)
    payload = [rnd.getrandbits(1) for _ in range(270)]
    frame = build_frame(payload)
    sample = rnd.sample(range(len(bursts)), 40) + rnd.sample(last.tolist(), 20)
    sample += np.flatnonzero(miscorrected)[:5].tolist()
    for row in sample:
        length, offset = bursts[row]
        received = list(frame)
        for i in range(HEADER_BITS + offset, HEADER_BITS + offset + length):
            received[i] ^= 1
        out = unframe(received)
        assert [a ^ b for a, b in zip(out.info, payload)] == info[row].tolist(), bursts[row]
        assert [out.result_a.status != UNCORRECTABLE,
                out.result_b.status != UNCORRECTABLE] == ok[row].tolist(), bursts[row]


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
    got, ok, nu, header_ok = decode_bit_frames(frames)
    assert (got == np.array(info, np.uint8)).all() and header_ok.all()
    assert ok.all() and (nu == 1).all()


# --- the byte tables of decode_frames ---------------------------------------------

def test_the_syndrome_table_on_every_one_byte_frame():
    """Word 5 of entry 256b + v is header << 40 | A's packed syndromes
    << 20 | B's of the frame whose byte b is v and every other byte 0: all
    40 x 256 of them, against compute_syndromes of the frame's codewords
    (the `packed_syndromes` oracle)."""
    frames = np.zeros((40, 256, 40), np.uint8)
    frames[np.arange(40), :, np.arange(40)] = np.arange(256, dtype=np.uint8)
    bits = np.unpackbits(frames.reshape(-1, 40), axis=1)
    synd = packed_syndromes(frame_words_reference(bits)).reshape(-1, 2)
    header = bits[:, :HEADER_BITS] @ (1 << np.arange(HEADER_BITS)[::-1])
    want = header << 40 | synd[:, 0] << 20 | synd[:, 1]
    table, base = framing._decode_table()
    assert np.array_equal(table[:, 5], want.astype(np.uint64)) and base[5] == 0


def test_the_info_table_on_the_zero_frame_and_every_unit_frame():
    """The info read as if no codeword had an error is affine in the frame
    bits, so the zero frame and the 320 unit frames pin it: words 0-4 of
    the gather, bytes 34-39 zero, against clean_info_reference, written
    bit by bit from the layout."""
    bits = np.vstack([np.zeros((1, 320), np.uint8), np.eye(320, dtype=np.uint8)])
    words = framing._affine(*framing._decode_table(), np.packbits(bits, axis=1))
    got = words[:, :5].view(np.uint8)
    want = [clean_info_reference(frame) + [0] * 50 for frame in bits.tolist()]
    assert words.dtype == np.uint64 and words.shape == (321, 6)
    assert np.array_equal(got, np.packbits(np.array(want, np.uint8), axis=1))


def _single_symbol_errors():
    """(codeword, position, value) of all 2 x 31 x 31 single-symbol errors,
    and their 320 flip bits: header clear, the value at that position of
    that codeword, placed by `interleave`."""
    hits, flips = [], []
    for half in range(2):
        for pos in range(31):
            for value in range(1, 32):
                words = [[0] * 31, [0] * 31]
                words[half][pos] = value
                hits.append((half, pos, value))
                flips.append([0] * HEADER_BITS + interleave(*words))
    return hits, np.array(flips, np.uint8)


def test_every_fix_mask_on_every_single_symbol_error():
    """Mask [c, j, y] is the info bits that value y at symbol j of codeword
    c flips, in record bytes: y's bits at info bits 135c + 5j.. for a
    message symbol, none for a parity symbol or y = 0. And decoding each
    of the 1,922 errors on a random frame corrects it with that mask: the
    info comes back, with nu 1 on the hit codeword and 0 on the other."""
    masks = framing._fix_masks().reshape(2, 31, 32, 34)
    assert not masks[:, :, 0].any()
    hits, flips = _single_symbol_errors()
    for (half, pos, value) in hits:
        info = [0] * 272
        if pos < 27:
            for i in range(5):
                info[135 * half + 5 * pos + i] = value >> i & 1
        assert np.packbits(info).tolist() == masks[half, pos, value].tolist()
    rnd = random.Random(41)
    payload = [rnd.getrandbits(1) for _ in range(270)]
    frames = np.packbits(np.array(build_frame(payload), np.uint8) ^ flips, axis=1)
    info, ok, nu, header_ok = decode_frames(frames)
    assert np.array_equal(info, np.tile(np.packbits(payload + [0, 0]), (len(hits), 1)))
    assert ok.all() and header_ok.all()
    assert nu.reshape(-1, 2).tolist() == [[half == 0, half == 1] for half, _, _ in hits]


def test_decode_frames_runs_no_bit_kernel_once_its_tables_are_built(monkeypatch):
    """Once `_decode_table` is built, decoding a noisy block unpacks and
    packs no bits: numpy's `unpackbits` and `packbits` are refused, and
    the outputs do not change."""
    rnd = random.Random(43)
    frames = encode_bit_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
                                     for _ in range(16)], np.uint8))
    for row in range(16):
        for pos in rnd.sample(range(320), row % 8):
            frames[row, pos] ^= 1
    wire = np.packbits(frames, axis=1)
    want = decode_frames(wire)
    assert not want[1].all() and (want[2] > 0).any() and not want[3].all()

    def refuse(*args, **kwargs):
        raise AssertionError("decode_frames ran a bit kernel")

    monkeypatch.setattr(np, "unpackbits", refuse)
    monkeypatch.setattr(np, "packbits", refuse)
    got = decode_frames(wire)
    assert all(np.array_equal(g, w) and g.dtype == w.dtype for g, w in zip(got, want))


# --- the t = 2 corrector -------------------------------------------------------
#
# A word whose message symbols are zero has syndromes set by its 20 parity
# bits alone, and the map is one to one, so the 2^20 parity-region words
# (word k carries the bits of k in its parity region) reach every syndrome
# exactly once.

SYNDROMES = 1 << 20


def _parity_region_symbols(ks):
    """uint8[len(ks), 31]: word k, its message 0 and parity symbol 27 + s
    k >> 5*s & 31, as `parity_region_syndromes` orders them."""
    symbols = np.zeros((len(ks), 31), np.uint8)
    symbols[:, 27:] = ks[:, None] >> 5 * np.arange(4) & 31
    return symbols


def _parity_region_index(symbols):
    return sum(int(v) << 5 * s for s, v in enumerate(symbols[27:]))


def _coset_leaders():
    """(nu int8[2^20], key int64[2^20]) over parity-region words: nu is the
    weight of the one error pattern of weight <= 2 with that word's
    syndrome (-1 if there is none), key encodes the pattern as
    (j*32 + value) of its lower position | that of its upper one << 10.
    An error of value v at position j has the syndromes of the
    parity-region word e + c, c the codeword of e's message part, and this
    map is GF(2)-linear, so a weight-2 pattern's word is the XOR of two
    weight-1 words."""
    single = np.zeros((31, 32), np.int64)
    for j in range(31):
        for v in range(1, 32):
            err = [0] * 31
            err[j] = v
            code = rs_encode_reference(err[:27])
            single[j, v] = _parity_region_index([a ^ b for a, b in zip(err, code)])
    unit = np.arange(31)[:, None] * 32 + np.arange(32)
    nu = np.full(SYNDROMES, -1, np.int8)
    key = np.zeros(SYNDROMES, np.int64)
    nu[0] = 0
    index, code = single[:, 1:].ravel(), unit[:, 1:].ravel()
    assert len(np.unique(index)) == 961 and (nu[index] == -1).all()
    nu[index], key[index] = 1, code
    for j1 in range(31):
        for j2 in range(j1 + 1, 31):
            index = (single[j1, 1:, None] ^ single[j2, None, 1:]).ravel()
            assert (nu[index] == -1).all() and len(np.unique(index)) == 961
            nu[index] = 2
            key[index] = (unit[j1, 1:, None] | unit[j2, None, 1:] << 10).ravel()
    return nu, key


def _error_keys(received, symbols):
    err = received ^ symbols
    nonzero = err != 0
    rows = np.arange(len(err))
    lo = nonzero.argmax(axis=1)
    hi = 30 - nonzero[:, ::-1].argmax(axis=1)
    low = np.where(nonzero.any(axis=1), lo * 32 + err[rows, lo], 0)
    high = np.where(nonzero.sum(axis=1) == 2, hi * 32 + err[rows, hi], 0)
    return nonzero.sum(axis=1), low | high << 10


def test_corrector_on_every_syndrome():
    """block_fixes, given the packed syndromes of the parity-region words
    (from compute_syndromes), corrects exactly the 961 + 446,865 syndromes
    of weight-1 and weight-2 error patterns, each with its own pattern and
    count, and flags all the others; the reference decoder agrees on every
    97th syndrome (a full sweep of it agrees too, but its 2^20 decode calls
    took 43 s on a 2-core Xeon)."""
    want_nu, want_key = _coset_leaders()
    assert (want_nu == 1).sum() == 961 and (want_nu == 2).sum() == 446_865
    synd = parity_region_syndromes()
    chunk = 1 << 14
    for lo in range(0, SYNDROMES, chunk):
        ks = np.arange(lo, lo + chunk)
        ok, nu, rows, first, y1, last, y2 = block_fixes(synd[ks])
        received = _parity_region_symbols(ks)
        symbols = received.copy()
        symbols[rows, first] ^= y1
        symbols[rows, last] ^= y2
        count, key = _error_keys(received, symbols)
        assert (ok == (want_nu[ks] >= 0)).all()
        assert (nu == np.maximum(want_nu[ks], 0)).all() and (count == nu).all()
        assert (key == np.where(nu > 0, want_key[ks], 0)).all()
        for r in range(-lo % 97, chunk, 97):
            res = decode_reference(received[r].tolist())
            status = (CORRECTED if nu[r] else OK) if ok[r] else UNCORRECTABLE
            assert (res.status, res.corrected_symbols, res.message) == (
                status, nu[r], symbols[r, :27].tolist())


def test_lookup_lists_equals_the_array_lookup_on_every_syndrome():
    """The scalar lookup (scalar `decode`, the simulator's sparse blocks)
    gives the fix the array lookup (`block_fixes`) gives, row for row, on
    all 2^20 - 1 nonzero packed syndromes."""
    packed = np.arange(1, SYNDROMES)
    want = np.stack(decoder._lookup_arrays(packed), axis=1)
    assert np.array_equal(np.array(decoder.lookup_lists(packed.tolist())), want)


def test_the_correction_table_is_pinned():
    """Any change to the class table is a declared decision: its shape,
    dtype and bytes are pinned."""
    table = decoder._correction_table()
    assert table.shape == (1 << 16, 4) and table.dtype == np.uint8
    assert hashlib.sha256(table.tobytes()).hexdigest() == (
        "1423c43862a56d97e7a42258065fdd567b376687a0001b24823f39226dfa85b5")


def _scalar_exit(word):
    """Which of the reference decoder's checks settles a dirty word, step by step."""
    loc = solve_locator(compute_syndromes(word))
    lam, omega = loc.lam, loc.omega
    nu = len(np.trim_zeros(np.array(lam), "b")) - 1
    positions = chien_search(lam)
    if nu > 2:
        return "degree"
    if len(positions) != nu:
        return "roots"
    fixed = list(word)
    for j in positions:
        fixed[j] ^= forney(lam, omega, j)
    return "corrected" if is_codeword(fixed) else "recheck"


def test_each_uncorrectable_exit_passes_the_message_through():
    """One syndrome for each exit of the reference decoder (locator degree
    > t, root-count mismatch, post-correction re-check), moved into
    codeword A of a frame with a random message part so the passed-through
    message differs from the sent one."""
    found = {}
    for k in range(1, SYNDROMES):
        word = _parity_region_symbols(np.array([k]))[0].tolist()
        found.setdefault(_scalar_exit(word), word)
        if {"degree", "roots", "recheck"} <= found.keys():
            break
    rnd = random.Random(11)
    info = [[rnd.getrandbits(1) for _ in range(270)] for _ in range(3)]
    frames = _as_block([build_frame(row) for row in info], 320)
    for row, exit in enumerate(("degree", "roots", "recheck")):
        code = rs_encode_reference([rnd.randrange(32) for _ in range(27)])
        error = [a ^ b for a, b in zip(found[exit], code)]
        assert _scalar_exit(error) == exit
        frames[row, HEADER_BITS:] ^= np.array(interleave(error, [0] * 31), np.uint8)
    results, _ = _assert_matches_unframe(frames)
    info_got = decode_bit_frames(frames)[0]
    for row in range(3):
        res = results[2 * row]
        word_a = framing.deinterleave(frames[row, HEADER_BITS:].tolist())[0]
        assert (res.status, res.corrected_symbols, res.message) == (UNCORRECTABLE, 0, word_a[:27])
        assert info_got[row].tolist() != info[row]
        assert results[2 * row + 1].status == OK


def _dirty_block(n_dirty, seed, n_frames=None):
    """Frames of random info: codeword A of n_dirty frames has 1 to 3 symbol
    errors, so a nonzero syndrome (weight < 5), and the others are clean.
    By default these are the first n_dirty of n_dirty + 2 frames; given
    n_frames, n_dirty frames drawn at random among n_frames."""
    rnd = random.Random(seed)
    frames = encode_bit_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
                                     for _ in range(n_frames or n_dirty + 2)], np.uint8))
    dirty = range(n_dirty) if n_frames is None else rnd.sample(range(n_frames), n_dirty)
    for row in dirty:
        err = [0] * 31
        for pos in rnd.sample(range(31), rnd.randint(1, 3)):
            err[pos] = rnd.randrange(1, 32)
        frames[row, HEADER_BITS:] ^= np.array(interleave(err, [0] * 31), np.uint8)
    return frames


@pytest.mark.parametrize("n_dirty, n_frames", [
    (1, framing.BLOCK_FRAMES), (12, framing.BLOCK_FRAMES), (13, framing.BLOCK_FRAMES), (13, None),
], ids=["1", "12", "13", "13-of-15"])
def test_scattered_dirty_rows_reach_the_array_lookup(monkeypatch, n_dirty, n_frames):
    """In a full block of BLOCK_FRAMES frames most rows are clean and the
    dirty ones are scattered, so both picking them out and writing their
    corrections (and, from 12 dirty rows on, failures) back to the right
    rows are checked; in a block of 15 frames the first 13 are dirty.
    `_lookup_arrays` is given the packed syndromes of the dirty rows only."""
    frames = _dirty_block(n_dirty, 19 + n_dirty, n_frames)
    solve, given = decoder._lookup_arrays, []
    monkeypatch.setattr(decoder, "_lookup_arrays",
                        lambda synd: given.append(synd) or solve(synd))
    results, _ = _assert_matches_unframe(frames)
    given = np.concatenate(given)
    synd = packed_syndromes(frame_words_reference(frames))
    assert len(given) == n_dirty and given.all() and np.array_equal(given, synd[synd != 0])
    statuses = [r.status for r in results]
    assert len(statuses) - statuses.count(OK) == n_dirty
    assert CORRECTED in statuses and (UNCORRECTABLE in statuses or n_dirty == 1)


@pytest.mark.parametrize("n_dirty, n_frames", [(0, 0), (0, 2), (1, 1), (3, 5)],
                         ids=["empty", "clean", "one-dirty-frame", "3-dirty"])
def test_both_forms_give_identical_arrays(n_dirty, n_frames):
    """Empty blocks, clean blocks and blocks with a few dirty codewords give
    the values of the scalar form (`unframe`, `decode`) from the batch form
    (`decode_frames`, `block_fixes`), in arrays of fixed shapes and
    dtypes."""
    frames = _dirty_block(n_dirty, 23)[:n_frames]
    _assert_matches_unframe(frames)
    info, ok, nu, header_ok = decode_bit_frames(frames)
    assert info.shape == (n_frames, 270) and ok.shape == nu.shape == (2 * n_frames,)
    assert (info.dtype, ok.dtype, nu.dtype, header_ok.dtype) == (np.uint8, bool, int, bool)


def _decode_rows_one_by_one(wire):
    """decode_frames on each frame as a block of one, stacked back."""
    return [np.concatenate(arrays) for arrays in
            zip(*(decode_frames(wire[r:r + 1]) for r in range(len(wire))))]


@pytest.mark.parametrize("corrector", [decode_frames, _decode_rows_one_by_one],
                         ids=["array", "per-row"])
def test_the_corrector_never_writes_into_its_input(corrector):
    """decode_frames, given the whole block or each frame as a block of its
    own, gives the same arrays and leaves the caller's wire bytes as they
    were, and block_fixes leaves the syndromes it is given as they were."""
    frames = _dirty_block(6, 29)
    wire = np.packbits(frames, axis=1)
    wire_before = wire.copy()
    got = corrector(wire)
    assert np.array_equal(wire, wire_before)
    assert not got[1].all() and (got[2] > 0).any()
    info, *arrays = decode_bit_frames(frames)
    assert np.array_equal(np.unpackbits(got[0], axis=1)[:, :270], info)
    assert all(np.array_equal(g, w) for g, w in zip(got[1:], arrays))
    synd = packed_syndromes(frame_words_reference(frames))
    synd_before = synd.copy()
    block_fixes(synd)
    assert np.array_equal(synd, synd_before)


def test_decode_frames_never_calls_the_scalar_decoder(monkeypatch):
    rnd = random.Random(13)
    frames = encode_bit_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
                                     for _ in range(8)], np.uint8))
    for row in range(8):
        for pos in rnd.sample(range(HEADER_BITS, 320), 2 * row):
            frames[row, pos] ^= 1
    results, _ = _assert_matches_unframe(frames)
    assert {r.status for r in results} == {OK, CORRECTED, UNCORRECTABLE}
    want = decode_bit_frames(frames)

    def refuse(word):
        raise AssertionError("decode_frames called the scalar decode")

    for module in [m for name, m in sys.modules.items() if name.startswith("rs3127")]:
        for name, value in list(vars(module).items()):
            if value is decode:
                monkeypatch.setattr(module, name, refuse)
    got = decode_bit_frames(frames)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_only_a_dirty_block_builds_the_correction_table():
    """Encoding with each encoder, the scalar frame chain and decoding clean
    blocks never build _correction_table, so a clean stream and the first
    frame of a fresh interpreter do not pay for it; the first block with a
    dirty codeword builds it."""
    decoder._correction_table.cache_clear()
    rnd = random.Random(31)
    info = np.array([[rnd.getrandbits(1) for _ in range(270)] for _ in range(4)], np.uint8)
    for encoder in ENCODERS:
        frames = encode_bit_frames(info, encoder)
    assert unframe(build_frame(info[0].tolist())).info == info[0].tolist()
    assert np.array_equal(decode_bit_frames(frames)[0], info)
    assert decoder._correction_table.cache_info().currsize == 0
    frames[0, HEADER_BITS] ^= 1
    assert decode_bit_frames(frames)[2].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert decoder._correction_table.cache_info().currsize == 1


# --- the parity map ------------------------------------------------------------

def test_parity_array_equals_the_rows_and_parity_bits():
    """The symbol table holds, at [j, v], the packed parity bits of the
    message whose only nonzero symbol is v at j: on all 27 x 32 of them,
    against parity_bits; and its unit-bit entries are the matrix rows'
    columns."""
    matrix = default_parity_matrix()
    table = matrix.symbol_table
    assert table.dtype == np.uint32 and table.shape == (27, 32)
    for j in range(27):
        for v in range(32):
            msg = [0] * 27
            msg[j] = v
            bits = parity_bits(symbols_to_bits(msg), matrix)
            assert int(table[j, v]) == sum(bit << r for r, bit in enumerate(bits))
    columns = table[:, 1 << np.arange(5)].ravel()  # input bit 5j + i
    assert tuple(sum((int(col) >> r & 1) << c for c, col in enumerate(columns))
                 for r in range(20)) == matrix.bitmasks


# The tests' syndrome map puts S1 in output symbol 0, the package's (the
# decoder's packing) in output symbol 3: each with the order of its outputs.
SYNDROME_MAPS = ((syndrome_map, slice(None)), (parallel_gen.syndrome_map, slice(None, None, -1)))


def test_syndrome_map_is_a_rank_20_linear_map_over_155_bits():
    """For the tests' map and the package's: the constructor checks rank
    20; every row of a random block maps, through the XOR of one symbol
    table entry per symbol, to the syndromes compute_syndromes gives its
    symbols."""
    words = word_symbols(np.random.default_rng(3003).integers(0, 2, (300, 155), dtype=np.uint8))
    want = [compute_syndromes(w) for w in words.tolist()]
    for make, order in SYNDROME_MAPS:
        synd = make()
        assert isinstance(synd, LinearMap)
        assert (synd.n_in, len(synd.bitmasks)) == (155, 20)
        assert _gf2_rank(synd.bitmasks) == 20
        packed = np.bitwise_xor.reduce(synd.symbol_table[np.arange(31), words], axis=1)
        assert (packed[:, None] >> 5 * np.arange(4) & 31)[:, order].tolist() == want


def test_the_package_syndrome_map_is_the_oracle_with_its_syndromes_reversed():
    """Output 5s + b of the package's map is bit b of S(4-s), the oracle's
    output 5(3 - s) + b; and the decoder's columns are its symbol table."""
    oracle = syndrome_map().bitmasks
    synd = parallel_gen.syndrome_map()
    assert synd.bitmasks == tuple(oracle[5 * (3 - s) + b] for s in range(4) for b in range(5))
    assert decoder._syndrome_columns() == synd.symbol_table.tolist()


def test_xor3_trees_of_the_syndrome_map_give_back_its_masks():
    """For the tests' map and the package's: a network over 155 inputs
    reads each input's mask off its index. Every syndrome row has fan-in
    80, so every tree has depth 4."""
    assert expected_depth(80) == 4
    for make, _ in SYNDROME_MAPS:
        synd = make()
        net = build_xor3_network(synd)
        assert net.bitmasks == synd.bitmasks
        assert {mask.bit_count() for mask in synd.bitmasks} == {80}
        assert net.depths == (4,) * 20
