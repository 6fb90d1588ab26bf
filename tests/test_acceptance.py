"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them, plus the informational reports)."""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from rs3127 import (CORRECTED, build_frame, build_xor3_network, decode,
                    derive_parity_matrix, encode_parallel, encode_reference,
                    expected_depth, frame_to_bytes, lfsr_encode, message_to_bits,
                    unframe)
from rs3127.cli import main
from rs3127.framing import HEADER_BITS, PAYLOAD_BITS
from rs3127.serial_encoder import LfsrEncoder

from oracles import binom_tail


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({name}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {num:2d} ({name}): PASS", flush=True)


def unit_bit_messages():
    for c in range(135):
        msg = [0] * 27
        msg[c // 5] = 1 << (c % 5)
        yield msg


def test_criterion_1_encoder_quadruple_equivalence():
    with criterion(1, "encoder equivalence, basis + 1e5 random, <60s"):
        matrix = derive_parity_matrix()
        net = build_xor3_network(matrix)
        start = time.perf_counter()

        def check(msg):
            ref = encode_reference(msg)
            info = message_to_bits(msg)
            assert lfsr_encode(msg) == ref
            assert encode_parallel(info, matrix) == ref
            assert encode_parallel(info, net) == ref

        for msg in unit_bit_messages():
            check(msg)
        rng = np.random.default_rng(101)
        for msg in rng.integers(0, 32, size=(100_000, 27)).tolist():
            check(msg)
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion 1 runtime: {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_2_serial_cycle_count():
    with criterion(2, "serial encoder takes exactly 31 cycles"):
        rng = np.random.default_rng(102)
        enc = LfsrEncoder()
        for msg in rng.integers(0, 32, size=(500, 27)).tolist():
            enc.encode(msg)
            assert enc.phase == 31
        try:
            enc.cycle(0)
        except RuntimeError:
            pass
        else:
            raise AssertionError("cycle 32 without reset must fail")


def test_criterion_3_parity_matrix_vs_basis_probing_oracle():
    with criterion(3, "parity matrix equals unit-bit probes, rank 20"):
        matrix = derive_parity_matrix()
        probed = [set() for _ in range(20)]
        for c, msg in enumerate(unit_bit_messages()):
            parity = encode_reference(msg)[27:]
            for jp in range(4):
                for i in range(5):
                    if (parity[jp] >> i) & 1:
                        probed[5 * jp + i].add(c)
        assert matrix.bitmasks == tuple(sum(1 << c for c in r) for r in probed)
        # rank 20 is enforced by the LinearMap constructor; re-derive
        # to exercise it on the acceptance path
        assert derive_parity_matrix() == matrix


def test_criterion_4_xor3_tree_depth_law():
    with criterion(4, "XOR3 depth law, max depth 4 for fan-in <= 81"):
        matrix = derive_parity_matrix()
        net = build_xor3_network(matrix)
        for mask, depth in zip(matrix.bitmasks, net.depths):
            assert depth == expected_depth(mask.bit_count())
        assert matrix.max_fanin <= 81
        assert net.max_depth <= 4
        print(f"[acceptance] criterion 4 report: max fan-in {matrix.max_fanin} "
              f"(reference design: 70), max depth {net.max_depth} "
              "(reference design: 4)")


def test_criterion_5_exhaustive_correction_within_design_distance():
    with criterion(5, "all 961 single + 446865 double patterns, <5min"):
        rnd = random.Random(105)
        cw = encode_reference([rnd.randrange(32) for _ in range(27)])
        msg = cw[:27]
        start = time.perf_counter()
        for j in range(31):
            for e in range(1, 32):
                word = list(cw)
                word[j] ^= e
                res = decode(word)
                assert res.status == CORRECTED
                assert res.corrected_symbols == 1
                assert res.message == msg
        count = 0
        for j1, j2 in itertools.combinations(range(31), 2):
            for e1 in range(1, 32):
                for e2 in range(1, 32):
                    word = list(cw)
                    word[j1] ^= e1
                    word[j2] ^= e2
                    res = decode(word)
                    assert res.status == CORRECTED
                    assert res.corrected_symbols == 2
                    assert res.message == msg
                    count += 1
        assert count == 465 * 961
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion 5 runtime: {elapsed:.1f}s")
        assert elapsed < 300.0


def _burst_recovers(frame, payload, offset, length):
    received = list(frame)
    for i in range(HEADER_BITS + offset, HEADER_BITS + offset + length):
        received[i] ^= 1
    return unframe(received).info == payload


def test_criterion_6_burst_geometry():
    with criterion(6, "bursts <=16 anywhere, 20 aligned; 17-20 measured"):
        rnd = random.Random(106)
        payload = [rnd.getrandbits(1) for _ in range(270)]
        frame = build_frame(payload)
        for length in range(1, 17):
            for offset in range(PAYLOAD_BITS - length + 1):
                assert _burst_recovers(frame, payload, offset, length)
        for offset in range(0, PAYLOAD_BITS - 20 + 1, 5):
            assert _burst_recovers(frame, payload, offset, 20)
        for length in range(17, 21):
            offsets = [p for p in range(PAYLOAD_BITS - length + 1) if p % 5]
            hits = sum(_burst_recovers(frame, payload, p, length) for p in offsets)
            print(f"[acceptance] criterion 6 report: misaligned {length}-bit "
                  f"bursts recovered {hits}/{len(offsets)} "
                  f"({hits / len(offsets):.1%})")


def test_criterion_7_frame_format_and_round_trip():
    with criterion(7, "320-bit/40-byte frames, 1e5 round trips"):
        rng = np.random.default_rng(107)
        for payload in rng.integers(0, 2, size=(100_000, 270)).tolist():
            frame = build_frame(payload)
            assert len(frame) == 320
            assert len(frame_to_bytes(frame)) == 40
            assert unframe(frame).info == payload


def _codeword_bits(cw):
    bits = []
    for sym in cw:
        bits.extend((sym >> i) & 1 for i in range(5))
    return bits


def _bits_codeword(bits):
    return [sum(bits[5 * j + i] << i for i in range(5)) for j in range(31)]


def test_criterion_8_correction_gain_at_ber_1e_minus_3():
    with criterion(8, "1e6 codewords at BER 1e-3: post <= pre/20"):
        ber = 1e-3
        trials = 1_000_000
        # binomial model oracle, computed before measuring
        p_sym = 1 - (1 - ber) ** 5
        model_pre = 1 - (1 - p_sym) ** 31
        model_post = binom_tail(31, p_sym, 3)
        print(f"[acceptance] criterion 8 model: pre {model_pre:.6f}, "
              f"post {model_post:.6f}, ratio {model_post / model_pre:.5f}")

        rng = np.random.default_rng(108)
        # one Binomial(155, ber) draw per codeword; only trials with k >= 1
        # flips need simulating — k = 0 words are unchanged and the decoder
        # provably never touches zero-syndrome words (see decoder tests)
        flip_counts = rng.binomial(155, ber, size=trials)
        pre_err = int(np.count_nonzero(flip_counts))
        post_err = 0
        for k in flip_counts[flip_counts > 0]:
            msg = rng.integers(0, 32, size=27).tolist()
            bits = _codeword_bits(encode_reference(msg))
            for pos in rng.choice(155, size=int(k), replace=False):
                bits[pos] ^= 1
            if decode(_bits_codeword(bits)).message != msg:
                post_err += 1

        pre_rate = pre_err / trials
        post_rate = post_err / trials
        print(f"[acceptance] criterion 8 measured: pre {pre_rate:.6f}, "
              f"post {post_rate:.6f}, ratio {post_rate / pre_rate:.5f}")
        # model cross-check: pre within 5 sigma; post within a 30% band
        # (~6.7 sigma, also covering the tiny parity-only-error deficit)
        assert abs(pre_rate - model_pre) < 0.002
        assert 0.7 * model_post <= post_rate <= 1.3 * model_post
        # the criterion itself
        assert post_err * 20 <= pre_err


def test_criterion_9_miscorrection_exists_for_weight_3():
    with criterion(9, "weight-3 errors: >=1 miscorrection in 1e4 trials"):
        rnd = random.Random(109)
        events = 0
        for _ in range(10_000):
            msg = [rnd.randrange(32) for _ in range(27)]
            cw = encode_reference(msg)
            word = list(cw)
            for j in rnd.sample(range(31), 3):
                word[j] ^= rnd.randrange(1, 32)
            res = decode(word)
            if res.status == CORRECTED and res.message != msg:
                events += 1
        print(f"[acceptance] criterion 9 report: {events} miscorrections "
              f"in 10000 weight-3 trials")
        assert events >= 1


def test_criterion_10_simulation_determinism(capsys):
    with criterion(10, "simulate/sweep replay byte-identical, any --jobs"):
        sim = ["simulate", "--ber", "0.002", "--burst-len", "6",
               "--burst-rate", "0.1", "--frames", "400", "--seed", "42"]
        outputs = []
        for extra in ([], [], ["--jobs", "2"], ["--jobs", "4"]):
            assert main(sim + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

        sweep = ["sweep", "--ber-list", "0.0005,0.002,0.008",
                 "--frames", "150", "--seed", "7"]
        assert main(sweep) == 0
        first = capsys.readouterr().out
        assert main(sweep + ["--jobs", "3"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.splitlines()) == 3
