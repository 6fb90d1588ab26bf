"""The batch frame kernels against the scalar frame chain, the batch t = 2
corrector against the scalar decoder on every syndrome, and the GF(2)
parity map the kernels evaluate as a matrix product."""

import hashlib
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rs3127 import (CORRECTED, OK, UNCORRECTABLE, build_frame, chien_search,
                    compute_syndromes, decode, default_parity_matrix, encode_reference,
                    forney, is_codeword, lfsr_encode, parity_bits, solve_locator, unframe)
from rs3127 import decoder, framing, rs_core, serial_encoder
from rs3127.decoder import decode_words
from rs3127.framing import (HEADER_BITS, PAYLOAD_BITS, decode_frames, encode_frames,
                            frame_words, interleave)
from rs3127.parallel_gen import (LinearMap, _gf2_rank, bits_to_symbol_array,
                                 build_xor3_network, expected_depth)
from rs3127.serial_encoder import LfsrEncoder, shift_in_block

from oracles import frame_reference, interleave_reference, rs_encode_reference

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
        assert frames.tolist() == [build_frame(info) for info in rows]
        assert frames.tolist() == want


# --- the batch long-division and LFSR encoders ---------------------------------

BATCH_ENCODERS = {"reference": (rs_core.divide_block, encode_reference),
                  "lfsr": (shift_in_block, lfsr_encode)}
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


@pytest.mark.parametrize("packed, table", [
    (serial_encoder._TAPS32, serial_encoder._TAPS),
    (rs_core._DIVISION_TAPS64, rs_core._DIVISION_TAPS)],
    ids=["lfsr-taps", "division-taps"])
def test_packed_tables_hold_byte_d_in_bits_8d(packed, table):
    """Byte d of each packed row, read back by shifts, is column d of the
    uint8 table it packs, and the bytes above the table are zero, on a
    host of either byte order."""
    width = packed.dtype.itemsize
    values = packed.astype(np.uint64)
    got = np.stack([values >> np.uint64(8 * d) & np.uint64(0xFF) for d in range(width)], axis=1)
    assert got[:, :table.shape[1]].tolist() == table.tolist()
    assert not got[:, table.shape[1]:].any()


def test_each_encoder_runs_its_own_algorithm(monkeypatch):
    """The three encoders give the same frames but stay three
    architectures: none is an alias of another's kernel."""
    ran = []
    for kernel in ("_parity", "divide_block", "shift_in_block"):
        original = getattr(framing, kernel)
        monkeypatch.setattr(framing, kernel,
                            lambda x, kernel=kernel, original=original:
                            ran.append(kernel) or original(x))
    info = np.zeros((2, 270), np.uint8)
    for encoder, kernel in (("parallel", "_parity"), ("reference", "divide_block"),
                            ("lfsr", "shift_in_block")):
        ran.clear()
        encode_frames(info, encoder=encoder)
        assert ran == [kernel]


def test_encode_frames_never_calls_a_scalar_encoder(monkeypatch):
    rnd = random.Random(17)
    info = np.array([[rnd.getrandbits(1) for _ in range(270)] for _ in range(8)], np.uint8)
    want = [build_frame(row) for row in info.tolist()]

    def refuse(*args):
        raise AssertionError("encode_frames called a scalar encoder")

    for module in [m for name, m in sys.modules.items() if name.startswith("rs3127")]:
        for name, value in list(vars(module).items()):
            if value is encode_reference or value is lfsr_encode:
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(LfsrEncoder, "cycle", refuse)
    for encoder in ("reference", "lfsr"):
        assert encode_frames(info, encoder=encoder).tolist() == want


def test_kernel_contracts():
    with pytest.raises(ValueError):
        encode_frames(np.zeros((2, 269), np.uint8))
    with pytest.raises(ValueError):
        encode_frames(np.zeros(270, np.uint8))
    with pytest.raises(ValueError):
        encode_frames(np.zeros((1, 270), np.uint8), encoder="bogus")
    with pytest.raises(ValueError):
        decode_frames(np.zeros((1, 319), np.uint8))


def test_wire_gather_puts_every_source_bit_where_the_layout_oracle_does():
    """Each of the 310 unit vectors of [codeword A | codeword B] (info/parity
    bit order) lands on the wire bit interleave_reference puts it on;
    _FROM_WIRE inverts _TO_WIRE."""
    for j, unit in enumerate(np.eye(310, dtype=np.uint8)):
        symbols = bits_to_symbol_array(unit).tolist()
        want = interleave_reference(symbols[:31], symbols[31:])
        assert unit[framing._TO_WIRE].tolist() == want
        assert framing._FROM_WIRE[j] == want.index(1)
    assert sorted(framing._TO_WIRE.tolist()) == list(range(310))
    assert framing._TO_WIRE[framing._FROM_WIRE].tolist() == list(range(310))


# --- decode_frames -----------------------------------------------------------

def _assert_matches_unframe(frames):
    """decode_frames against unframe row for row. Equal info means equal
    messages, and (ok, nu) pins decode's status: uncorrectable exactly
    when not ok, corrected exactly when nu > 0. Returns unframe's
    DecodeResults of A and B of each frame in turn, and header_ok."""
    info, ok, nu, header_ok = decode_frames(frames)
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
    decode_words on e's bare error words, as the simulator decodes them,
    gives the same ok and nu, and those wrong info bits as messages."""
    payload = _as_block([info for info, *_ in cases], 270)
    errors = _as_block([_error_frame(*case[1:]) for case in cases], 320)
    zero = encode_frames(np.zeros((1, 270), np.uint8))
    info, ok, nu, _ = decode_frames(encode_frames(payload) ^ errors)
    wrong, ok_zero, nu_zero, _ = decode_frames(zero ^ errors)
    assert np.array_equal(info ^ payload, wrong)
    assert np.array_equal(ok, ok_zero) and np.array_equal(nu, nu_zero)
    ok_bare, bits, nu_bare = decode_words(frame_words(errors))
    assert np.array_equal(bits[:, :27].reshape(len(cases), 270), info ^ payload)
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
    info, ok, _, _ = decode_frames(encode_frames(np.zeros((1, 270), np.uint8)) ^ errors)
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
    got, ok, nu, header_ok = decode_frames(frames)
    assert (got == np.array(info, np.uint8)).all() and header_ok.all()
    assert ok.all() and (nu == 1).all()


# --- the t = 2 corrector -------------------------------------------------------
#
# A word whose message symbols are zero has syndromes set by its 20 parity
# bits alone, and the map is one to one, so the 2^20 parity-region words
# (word k carries the bits of k in its parity region) reach every syndrome
# exactly once.

SYNDROMES = 1 << 20


def _parity_region_words(ks):
    words = np.zeros((len(ks), 155), np.uint8)
    words[:, 135:] = (ks[:, None] >> np.arange(20)) & 1
    return words


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
    """decode_words corrects exactly the 961 + 446,865 syndromes of weight-1 and
    weight-2 error patterns, each with its own pattern and count, and flags
    all the others; the scalar decoder agrees on every 97th syndrome (a
    full scalar sweep agrees too, but its 2^20 decode calls took 43 s on a
    2-core Xeon)."""
    want_nu, want_key = _coset_leaders()
    assert (want_nu == 1).sum() == 961 and (want_nu == 2).sum() == 446_865
    chunk = 1 << 14
    for lo in range(0, SYNDROMES, chunk):
        ks = np.arange(lo, lo + chunk)
        words = _parity_region_words(ks)
        ok, bits, nu = decode_words(words)
        symbols = bits_to_symbol_array(bits.reshape(-1, 155))
        count, key = _error_keys(bits_to_symbol_array(words), symbols)
        assert symbols.shape == (chunk, 31)
        assert (ok == (want_nu[ks] >= 0)).all()
        assert (nu == np.maximum(want_nu[ks], 0)).all() and (count == nu).all()
        assert (key == np.where(nu > 0, want_key[ks], 0)).all()
        for r in range(-lo % 97, chunk, 97):
            res = decode(bits_to_symbol_array(words[r]).tolist())
            status = (CORRECTED if nu[r] else OK) if ok[r] else UNCORRECTABLE
            assert (res.status, res.corrected_symbols, res.message) == (
                status, nu[r], symbols[r, :27].tolist())


def test_lookup_lists_equals_the_array_lookup_on_every_syndrome():
    """The simulator's lookup gives the fix decode_words' lookup gives, row
    for row, on all 2^20 - 1 nonzero packed syndromes."""
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
    """Which of decode's checks settles a dirty word, step by step."""
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
    """One syndrome for each exit of decode (locator degree > t, root-count
    mismatch, post-correction re-check), moved into codeword A of a frame
    with a random message part so the passed-through message differs from
    the sent one."""
    found = {}
    for k in range(1, SYNDROMES):
        word = bits_to_symbol_array(_parity_region_words(np.array([k])))[0].tolist()
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
    info_got = decode_frames(frames)[0]
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
    frames = encode_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
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
    synd = decoder.packed_syndromes(frame_words(frames))
    assert len(given) == n_dirty and given.all() and np.array_equal(given, synd[synd != 0])
    statuses = [r.status for r in results]
    assert len(statuses) - statuses.count(OK) == n_dirty
    assert CORRECTED in statuses and (UNCORRECTABLE in statuses or n_dirty == 1)


@pytest.mark.parametrize("n_dirty, n_frames", [(0, 0), (0, 2), (1, 1), (3, 5)],
                         ids=["empty", "clean", "one-dirty-frame", "3-dirty"])
def test_both_forms_give_identical_arrays(n_dirty, n_frames):
    """Empty blocks, clean blocks and blocks with a few dirty codewords give
    the values of the scalar form (`unframe`, `decode`) from the batch form
    (`decode_frames`, `decode_words`), in arrays of fixed shapes and
    dtypes."""
    frames = _dirty_block(n_dirty, 23)[:n_frames]
    _assert_matches_unframe(frames)
    info, ok, nu, header_ok = decode_frames(frames)
    assert info.shape == (n_frames, 270) and ok.shape == nu.shape == (2 * n_frames,)
    assert (info.dtype, ok.dtype, nu.dtype, header_ok.dtype) == (np.uint8, bool, int, bool)


def _decode_rows_one_by_one(words):
    """decode_words on each row as a block of one, stacked back."""
    ok, bits, nu = zip(*(decode_words(words[r:r + 1]) for r in range(len(words))))
    return np.concatenate(ok), np.concatenate(bits), np.concatenate(nu)


@pytest.mark.parametrize("corrector", [decode_words, _decode_rows_one_by_one],
                         ids=["array", "per-row"])
def test_the_corrector_never_writes_into_its_input(corrector):
    """decode_words, given the whole block or each row as a block of its
    own, corrects a copy, in which exactly nu 5-bit groups of a row differ
    from the received word, and decode_frames leaves the caller's frames as
    they were."""
    frames = _dirty_block(6, 29)
    words = frame_words(frames)
    frames_before, words_before = frames.copy(), words.copy()
    ok, bits, nu = corrector(words)
    assert np.array_equal(words, words_before) and (nu > 0).any()
    changed = (bits != words.reshape(-1, 31, 5)).any(axis=2).sum(axis=1)
    assert (changed == nu).all()
    decode_frames(frames)
    assert np.array_equal(frames, frames_before)


def test_decode_frames_never_calls_the_scalar_decoder(monkeypatch):
    rnd = random.Random(13)
    frames = encode_frames(np.array([[rnd.getrandbits(1) for _ in range(270)]
                                     for _ in range(8)], np.uint8))
    for row in range(8):
        for pos in rnd.sample(range(HEADER_BITS, 320), 2 * row):
            frames[row, pos] ^= 1
    results, _ = _assert_matches_unframe(frames)
    assert {r.status for r in results} == {OK, CORRECTED, UNCORRECTABLE}
    want = decode_frames(frames)

    def refuse(word):
        raise AssertionError("decode_frames called the scalar decode")

    for module in [m for name, m in sys.modules.items() if name.startswith("rs3127")]:
        for name, value in list(vars(module).items()):
            if value is decode:
                monkeypatch.setattr(module, name, refuse)
    got = decode_frames(frames)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_only_a_dirty_block_builds_the_correction_table():
    """Encoding with each encoder, the scalar frame chain and decoding clean
    blocks never build _correction_table, so a clean stream and the first
    frame of a fresh interpreter do not pay for it; the first block with a
    dirty codeword builds it."""
    decoder._correction_table.cache_clear()
    rnd = random.Random(31)
    info = np.array([[rnd.getrandbits(1) for _ in range(270)] for _ in range(4)], np.uint8)
    for encoder in ("parallel", "reference", "lfsr"):
        frames = encode_frames(info, encoder)
    assert unframe(build_frame(info[0].tolist())).info == info[0].tolist()
    assert np.array_equal(decode_frames(frames)[0], info)
    assert decoder._correction_table.cache_info().currsize == 0
    frames[0, HEADER_BITS] ^= 1
    assert decode_frames(frames)[2].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert decoder._correction_table.cache_info().currsize == 1


# --- the parity map ------------------------------------------------------------

def test_parity_array_equals_the_rows_and_parity_bits():
    matrix = default_parity_matrix()
    array = matrix.array
    assert array.dtype == np.float32 and array.shape == (135, 20)
    assert set(np.unique(array).tolist()) == {0.0, 1.0}
    assert tuple(sum(1 << c for c in np.flatnonzero(array[:, r]).tolist())
                 for r in range(20)) == matrix.bitmasks
    for c in range(135):
        unit = [0] * 135
        unit[c] = 1
        assert array[c].astype(int).tolist() == parity_bits(unit, matrix)


def test_syndrome_map_is_a_rank_20_linear_map_over_155_bits():
    """The constructor checks rank 20; every row of a random block maps to
    the syndromes compute_syndromes gives its symbols, which
    packed_syndromes packs S1 << 15 | S2 << 10 | S3 << 5 | S4."""
    synd = decoder._syndrome_map()
    assert isinstance(synd, LinearMap)
    assert (synd.n_in, len(synd.bitmasks)) == (155, 20)
    assert _gf2_rank(synd.bitmasks) == 20
    words = np.random.default_rng(3003).integers(0, 2, (300, 155), dtype=np.uint8)
    got = bits_to_symbol_array(synd.products(words)).tolist()
    assert got == [compute_syndromes(w) for w in bits_to_symbol_array(words).tolist()]
    assert decoder.packed_syndromes(words).tolist() == [
        s1 << 15 | s2 << 10 | s3 << 5 | s4 for s1, s2, s3, s4 in got]


def test_xor3_trees_of_the_syndrome_map_give_back_its_masks():
    """A network over 155 inputs reads each input's mask off its index.
    Every syndrome row has fan-in 80, so every tree has depth 4."""
    synd = decoder._syndrome_map()
    net = build_xor3_network(synd)
    assert net.bitmasks == synd.bitmasks
    assert {mask.bit_count() for mask in synd.bitmasks} == {80}
    assert expected_depth(80) == 4 and net.depths == (4,) * 20
