import concurrent.futures
import itertools
import math
import os
import random
import re
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rs3127
from rs3127 import (UNCORRECTABLE, ChannelConfig, TrialStats, apply_channel,
                    build_frame, emit_stats, frame_rng, run_simulation, run_sweep,
                    unframe)
from rs3127 import framing, harness
from rs3127.framing import BLOCK_FRAMES, frame_blocks
from rs3127.harness import _draw_block, channel_flips

from oracles import frame_words_reference, interleave_reference
from packing import encode_bit_frames


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(ber=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(burst_len=-1)
    with pytest.raises(ValueError):
        ChannelConfig(frames=-5)
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"burst_rate must be finite, got {rate}"):
            ChannelConfig(burst_len=6, burst_rate=rate)
    assert ChannelConfig(burst_len=6, burst_rate=320).burst_rate == 320
    for rate in (320.5, 1e9):
        with pytest.raises(ValueError, match=f"burst_rate must be at most 320, got {rate}"):
            ChannelConfig(burst_len=6, burst_rate=rate)


@pytest.mark.parametrize("field", ["seed", "burst_len", "frames"])
def test_integer_fields_reject_other_values(field):
    """A float seed used to run the stream of its integer part while the
    record printed the float; a float burst_len or frames failed inside
    the draw with TypeError."""
    for value in (1.5, 2.0, "3", True, None):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            ChannelConfig(**{field: value})
    cfg = ChannelConfig(ber=1e-2, burst_len=6, burst_rate=0.5, seed=3, frames=20)
    as_numpy = ChannelConfig(ber=1e-2, burst_len=np.int64(6), burst_rate=0.5,
                             seed=np.uint64(3), frames=np.int32(20))
    assert emit_stats([(as_numpy, run_simulation(as_numpy))]) == emit_stats(
        [(cfg, run_simulation(cfg))])


@pytest.mark.parametrize("field", ["ber", "burst_rate"])
def test_float_fields_hold_plain_floats(field):
    """A numpy float used to print as np.float64(...) in the record and an
    int as 0 where the CLI prints 0.0; True was accepted, a string raised
    TypeError, and an int too large for a float OverflowError. Any real
    number a float can hold is stored as a float, and anything else raises
    ValueError."""
    for value in ("0.1", True, np.True_, None, 1j, 10**400):
        with pytest.raises(ValueError,
                           match=re.escape(f"{field} must be a number, got {value!r}")):
            ChannelConfig(**{field: value})
    base = {"ber": 1e-2, "burst_len": 6, "burst_rate": 0.5, "seed": 3, "frames": 20}
    for value, plain in ((np.float64(0.001), 0.001), (0, 0.0), (1, 1.0), (np.float32(0.5), 0.5)):
        cfg = ChannelConfig(**{**base, field: value})
        assert type(getattr(cfg, field)) is float and getattr(cfg, field) == plain
        record = emit_stats([(cfg, run_simulation(cfg))])
        assert f" {field}={plain!r} " in f" {record}"
        assert record == emit_stats([(ChannelConfig(**{**base, field: plain}),
                                      run_simulation(cfg))])


def test_quiet_channel_is_identity():
    frame = build_frame([0] * 270)
    cfg = ChannelConfig(ber=0.0, seed=1, frames=1)
    assert apply_channel(frame, cfg, frame_rng(1, 0)) == frame


def test_ber_one_flips_every_bit():
    frame = build_frame([1, 0] * 135)
    cfg = ChannelConfig(ber=1.0, seed=1, frames=1)
    out = apply_channel(frame, cfg, frame_rng(1, 0))
    assert out == [b ^ 1 for b in frame]


def test_fixed_seed_replays_identical_corruption():
    frame = build_frame([0] * 270)
    cfg = ChannelConfig(ber=0.01, burst_len=6, burst_rate=0.5, seed=9, frames=1)
    first = apply_channel(frame, cfg, frame_rng(9, 4))
    second = apply_channel(frame, cfg, frame_rng(9, 4))
    assert first == second


def test_bursts_flip_runs_inside_the_frame():
    frame = [0] * 320
    cfg = ChannelConfig(burst_len=7, burst_rate=3.0, seed=3, frames=1)
    out = apply_channel(frame, cfg, frame_rng(3, 0))
    flipped = [i for i, b in enumerate(out) if b]
    assert flipped  # Poisson(3) draw at this seed produced at least one burst
    assert all(0 <= i < 320 for i in flipped)


def test_zero_ber_sweep_has_zero_error_counters():
    cfg = ChannelConfig(ber=0.0, seed=5, frames=200)
    stats = run_sweep([cfg])[0]
    assert stats.frames_total == 200
    assert stats.frames_err_pre == 0
    assert stats.frames_err_post == 0
    assert stats.bit_err_pre == 0 and stats.bit_err_post == 0


def test_replay_determinism_and_jobs_independence():
    cfg = ChannelConfig(ber=3e-3, burst_len=4, burst_rate=0.2, seed=11, frames=400)
    serial = run_simulation(cfg)
    assert serial == run_simulation(cfg)
    assert serial == run_simulation(cfg, jobs=2)
    assert serial == run_simulation(cfg, jobs=5)
    text = emit_stats([(cfg, serial)])
    assert text == emit_stats([(cfg, run_simulation(cfg, jobs=3))])


class _SerialPool:
    """Stands in for ProcessPoolExecutor, which run_simulation imports from
    concurrent.futures when it starts a pool: records max_workers and maps in
    this process, so no worker is ever started."""

    max_workers: list = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, jobs, frames, pools", [
    (4, 100_000, 100, [4]),  # at most one worker per CPU
    (8, 3, 100, [3]),
    (8, 100_000, 5, [5]),    # at most one worker per frame
    (None, 100_000, 100, []),  # CPU count unknown: one process, no pool
    (1, 2, 100, []),
], ids=["per-cpu", "as-asked", "per-frame", "cpus-unknown", "one-cpu"])
def test_worker_count_is_capped_by_cpus_and_frames(monkeypatch, cpus, jobs, frames, pools):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "max_workers", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    cfg = ChannelConfig(ber=3e-3, burst_len=4, burst_rate=0.2, seed=12, frames=frames)
    stats = run_simulation(cfg, jobs=jobs)
    assert _SerialPool.max_workers == pools
    assert stats == harness._run_frames(cfg, 0, frames)


def _fresh_process_record(cfg):
    """emit_stats of cfg from `python -m rs3127 simulate` in a new interpreter."""
    argv = ["simulate", "--ber", repr(cfg.ber), "--burst-len", str(cfg.burst_len),
            "--burst-rate", repr(cfg.burst_rate), "--frames", str(cfg.frames),
            "--seed", str(cfg.seed)]
    env = dict(os.environ, PYTHONPATH=str(Path(rs3127.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "rs3127", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_generator_state_carries_over_from_an_earlier_call():
    """The thread's generator is reused from call to call. A bursty config
    leaves it holding half of a raw word (has_uint32), from its last
    `integers` draw; a burst-free config and another bursty one run after
    it still give the records of a fresh process."""
    run_simulation(ChannelConfig(ber=1e-3, burst_len=6, burst_rate=3.0, seed=2, frames=40))
    assert harness._thread_generator().bit_generator.state["has_uint32"] == 1
    for cfg in (ChannelConfig(ber=2e-2, seed=6, frames=40),
                ChannelConfig(ber=1e-3, burst_len=6, burst_rate=3.0, seed=7, frames=40)):
        assert emit_stats([(cfg, run_simulation(cfg))]) == _fresh_process_record(cfg)


def test_threads_simulating_at_once_get_their_serial_counters():
    """Four threads, more than the cores of a small host, run four
    configs (three bursty) at the same time, ten times each, with the interpreter
    switching threads as often as it can: each thread re-keys its own
    generator, so every run gives the serial counters. With one generator
    shared by all threads, runs interleave their re-keying and this fails."""
    cfgs = [ChannelConfig(ber=ber, burst_len=burst_len, burst_rate=rate, seed=21 + k, frames=40)
            for k, (ber, burst_len, rate) in enumerate(
                [(1e-2, 6, 0.5), (2e-3, 20, 1.0), (5e-3, 0, 0.0), (1e-3, 6, 3.0)])]
    want = [run_simulation(cfg) for cfg in cfgs]
    got = [[] for _ in cfgs]
    start = threading.Barrier(len(cfgs))

    def simulate(k):
        start.wait(timeout=60)
        for _ in range(10):
            got[k].append(run_simulation(cfgs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=simulate, args=(k,)) for k in range(len(cfgs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[stats] * 10 for stats in want]


def test_accounting_identity():
    # every post-error frame had a pre-error payload, so
    # pre = recovered + post holds exactly
    cfg = ChannelConfig(ber=5e-3, seed=13, frames=1500)
    stats = run_simulation(cfg)
    assert stats.frames_err_pre == stats.frames_recovered + stats.frames_err_post
    assert stats.frames_err_pre > 0


def test_correction_pushes_post_errors_below_pre_errors():
    cfg = ChannelConfig(ber=2e-3, seed=17, frames=2000)
    stats = run_simulation(cfg)
    assert stats.frames_err_pre > 100
    assert stats.frames_err_post < stats.frames_err_pre
    assert stats.frames_recovered > 0
    assert stats.bit_err_post < stats.bit_err_pre


def test_pre_error_rate_is_monotone_in_ber():
    cfgs = [ChannelConfig(ber=b, seed=19, frames=800)
            for b in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)]
    rates = [s.frames_err_pre for s in run_sweep(cfgs)]
    assert rates == sorted(rates)


def test_emit_stats_formats():
    cfgs = [ChannelConfig(ber=b, seed=23, frames=50) for b in (0.0, 1e-3)]
    stats = run_sweep(cfgs)
    text = emit_stats(zip(cfgs, stats))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("ber=0.0 burst_len=0 burst_rate=0.0 seed=23 frames=50 ")
    assert "frames_total=50" in lines[0]

    csv = emit_stats(zip(cfgs, stats), csv=True).splitlines()
    assert csv[0] == ("ber,burst_len,burst_rate,seed,frames,frames_total,"
                      "frames_err_pre,frames_err_post,frames_recovered,"
                      "miscorrections,detected_uncorrectable,bit_err_pre,bit_err_post")
    assert len(csv) == 3


def test_stats_merge_adds_counters():
    a = TrialStats(frames_total=3, frames_err_pre=1, bit_err_pre=4)
    b = TrialStats(frames_total=2, frames_err_pre=2, bit_err_pre=1, miscorrections=1)
    a.merge(b)
    assert a == TrialStats(frames_total=5, frames_err_pre=3, bit_err_pre=5,
                           miscorrections=1)


def _channel_reference(frame, cfg, rng):
    """The per-bit channel loop the simulator's random stream was pinned with."""
    bits = list(frame)
    if cfg.ber > 0:
        mask = rng.random(320) < cfg.ber
        bits = [b ^ int(m) for b, m in zip(bits, mask)]
    if cfg.burst_rate > 0 and cfg.burst_len > 0:
        span = min(cfg.burst_len, 320)
        for _ in range(rng.poisson(cfg.burst_rate)):
            off = int(rng.integers(0, 320 - span + 1))
            for i in range(off, off + span):
                bits[i] ^= 1
    return bits


def test_apply_channel_is_the_frame_xor_the_channel_flips():
    frame = build_frame([1, 0] * 135)
    cfg = ChannelConfig(ber=0.02, burst_len=6, burst_rate=1.5, seed=9, frames=1)
    no_bursts = ChannelConfig(ber=0.02, seed=9, frames=1)
    bursty = 0
    for i in range(40):
        flips = channel_flips(cfg, frame_rng(9, i))
        assert flips.dtype == np.uint8 and flips.shape == (320,)
        want = (np.array(frame, np.uint8) ^ flips).tolist()
        assert apply_channel(frame, cfg, frame_rng(9, i)) == want
        assert _channel_reference(frame, cfg, frame_rng(9, i)) == want
        bursty += not np.array_equal(flips, channel_flips(no_bursts, frame_rng(9, i)))
    assert bursty


def test_numpy_draws_are_the_raw_word_bits_the_block_draw_reads():
    """The two numpy identities the block draw relies on: an integer in
    [0, 2) is the top bit of one uint32, low half of a raw word first, and
    random() is the top 53 bits of one raw word times 2**-53; so
    random() < ber is those 53 bits < ceil(ber * 2**53), also when ber is
    a drawn value."""
    for seed, index in ((0, 0), (42, 7), (2**64 - 1, 2**64 - 1)):
        raw = frame_rng(seed, index).bit_generator.random_raw(135 + 320)
        rng = frame_rng(seed, index)
        halves = np.stack([raw[:135] & 0xFFFFFFFF, raw[:135] >> 32], axis=1).ravel()
        assert np.array_equal(rng.integers(0, 2, size=270), halves >> 31)
        uniform = rng.random(320)
        assert np.array_equal(uniform, (raw[135:] >> 11) * 2.0**-53)
        for ber in (1e-3, 0.5, 1.0, float(uniform[0]), float(uniform[1])):
            assert np.array_equal((raw[135:] >> 11) < math.ceil(ber * 2.0**53), uniform < ber)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_block_draw_is_the_per_frame_stream(seed):
    start, stop = 5, 5 + BLOCK_FRAMES + 3
    blocks = list(frame_blocks(start, stop))
    assert len(blocks) == 2
    for ber, burst_len, burst_rate in itertools.product(
            (0.0, 1e-3, 0.5, 1.0), (0, 6, 400), (0.0, 0.1, 3.0)):
        cfg = ChannelConfig(ber=ber, burst_len=burst_len, burst_rate=burst_rate,
                            seed=seed, frames=stop)
        gen = np.random.Generator(np.random.Philox(key=0))
        flips = np.concatenate([_draw_block(cfg, block, gen) for block in blocks])
        assert flips.dtype == np.uint8
        for row, index in enumerate(range(start, stop)):
            rng = frame_rng(seed, index)
            rng.integers(0, 2, size=270)  # the payload draw comes first
            assert np.array_equal(flips[row], channel_flips(cfg, rng))


def _scalar_counters(payloads, flips):
    """Counters from the per-frame chain: build_frame of each payload, its
    flips XORed in, unframe."""
    stats = TrialStats(frames_total=len(payloads))
    for payload, flip in zip(payloads, flips):
        frame = build_frame(payload)
        received = [b ^ f for b, f in zip(frame, flip)]
        out = unframe(received)
        pre = sum(a != b for a, b in zip(frame[10:], received[10:]))
        post = sum(a != b for a, b in zip(out.info, payload))
        stats.bit_err_pre += pre
        stats.bit_err_post += post
        stats.frames_err_pre += pre > 0
        stats.frames_err_post += post > 0
        stats.frames_recovered += pre > 0 and post == 0
        for half, res in enumerate((out.result_a, out.result_b)):
            wrong = out.info[135 * half:135 * (half + 1)] != payload[135 * half:135 * (half + 1)]
            stats.detected_uncorrectable += res.status == UNCORRECTABLE
            stats.miscorrections += wrong and res.status != UNCORRECTABLE
    return stats


def _scalar_simulation(cfg):
    """Counters from the per-frame chain on each frame's stream: frame_rng,
    the payload draw, then channel_flips."""
    payloads, flips = [], []
    for index in range(cfg.frames):
        rng = frame_rng(cfg.seed, index)
        payloads.append(rng.integers(0, 2, size=270).tolist())
        flips.append(channel_flips(cfg, rng).tolist())
    return _scalar_counters(payloads, flips)


def test_no_block_is_encoded(monkeypatch):
    """Each block's flips are decoded as bare error words, so a run never
    encodes a frame: with encode_frames made to raise wherever it is held,
    a 3-block run gives the counters it gives without the patch."""
    cfg = ChannelConfig(ber=5e-3, burst_len=6, burst_rate=0.3, seed=29, frames=300)
    assert len(list(frame_blocks(0, cfg.frames))) == 3
    want = run_simulation(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("the simulator encoded a block")

    for module in [m for name, m in sys.modules.items() if name.startswith("rs3127")]:
        for name, value in list(vars(module).items()):
            if value is framing.encode_frames:
                monkeypatch.setattr(module, name, refuse)
    assert run_simulation(cfg) == want


def test_a_clean_channel_draws_nothing(monkeypatch):
    """With ber 0 and no bursts every flip is 0, known before any draw: the
    thread's generator is never touched, and the records are those of
    frames that all arrive intact."""
    def refuse(*args):
        raise AssertionError("a clean channel drew from its generator")

    untouchable = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=refuse))
    monkeypatch.setattr(harness, "_thread_generator", lambda: untouchable)
    cfgs = [ChannelConfig(ber=0.0, seed=1, frames=300),
            ChannelConfig(ber=0.0, burst_len=6, seed=1, frames=300),
            ChannelConfig(ber=0.0, burst_rate=2.0, seed=1, frames=300)]
    clean = ("frames_total=300 frames_err_pre=0 frames_err_post=0 frames_recovered=0"
             " miscorrections=0 detected_uncorrectable=0 bit_err_pre=0 bit_err_post=0")
    assert emit_stats([(cfg, run_simulation(cfg)) for cfg in cfgs]).splitlines() == [
        "ber=0.0 burst_len=0 burst_rate=0.0 seed=1 frames=300 " + clean,
        "ber=0.0 burst_len=6 burst_rate=0.0 seed=1 frames=300 " + clean,
        "ber=0.0 burst_len=0 burst_rate=2.0 seed=1 frames=300 " + clean]


def test_block_path_equals_the_scalar_chain():
    cfg = ChannelConfig(ber=5e-3, burst_len=6, burst_rate=0.3, seed=29, frames=300)
    assert cfg.frames > 2 * BLOCK_FRAMES
    want = _scalar_simulation(cfg)
    assert want.frames_recovered and want.miscorrections and want.detected_uncorrectable
    assert run_simulation(cfg) == want
    assert run_simulation(cfg, jobs=3) == want


# --- sparse blocks: decoded from their flipped bits alone ---------------------

# _FEW_FLIPS that sends every block down one path: -1 even an empty one
# to the dense path.
PATHS = {"sparse": 10**9, "dense": -1}


def _counters_of(monkeypatch, flips, few_flips):
    """_run_frames' counters of one block whose draw is flips, on the path
    that few_flips selects."""
    monkeypatch.setattr(harness, "_draw_block", lambda cfg, block, gen: flips[block.start:block.stop])
    monkeypatch.setattr(harness, "_FEW_FLIPS", few_flips)
    return harness._run_frames(ChannelConfig(frames=len(flips)), 0, len(flips))


def _symbol_errors(rnd, counts):
    """uint8[len(counts), 320] flips: for each (a, b) in counts, a symbols
    of codeword A and b of B (positions from the tuple when it holds
    lists) get random nonzero errors, laid out by the layout oracle."""
    rows = []
    for count in counts:
        halves = []
        for spec in count:
            err = [0] * 31
            for pos in (spec if isinstance(spec, list) else rnd.sample(range(31), spec)):
                err[pos] = rnd.randrange(1, 32)
            halves.append(err)
        rows.append([0] * 10 + interleave_reference(*halves))
    return np.array(rows, np.uint8)


def _hand_made(case):
    rnd = random.Random(case)
    if case == "header-only":
        flips = np.zeros((6, 320), np.uint8)
        flips[[0, 0, 2, 5, 5, 5], [0, 9, 4, 1, 2, 3]] = 1
        return flips
    if case == "parity-only":
        return _symbol_errors(rnd, [([28], [27, 30]), ([27, 28], [29]), ([], [29, 30]),
                                    ([30], []), ([27], [28])])
    if case == "one-and-two-symbols":
        return _symbol_errors(rnd, [(1, 0), (0, 1), (2, 1), (1, 2), (2, 2), ([0, 26], [26, 27])])
    if case == "uncorrectable":
        return _symbol_errors(rnd, [(3, 0), (4, 5), (0, 3), (6, 6), (3, 3), (5, 0), (3, 4), (8, 2),
                                    ([27, 29, 30], []), ([], [27, 28, 29, 30])])
    if case == "codeword":
        # a nonzero codeword pair with the header left alone: syndrome 0 in
        # both halves, so each is taken as clean, with wrong info bits
        payloads = np.random.default_rng(3).integers(0, 2, (2, 3, 270), dtype=np.uint8)
        payloads[1, 2, 135:] = payloads[0, 2, 135:]  # frame 2: codeword B the same
        return encode_bit_frames(payloads[0]) ^ encode_bit_frames(payloads[1])
    if case == "single-bits":
        flips = np.zeros((12, 320), np.uint8)
        for row in range(12):
            flips[row, rnd.sample(range(320), rnd.randint(0, 6))] = 1
        return flips
    raise ValueError(case)


CASES = ["header-only", "parity-only", "one-and-two-symbols", "uncorrectable", "codeword",
         "single-bits"]


@pytest.mark.parametrize("case", CASES)
def test_sparse_path_equals_dense_path_and_the_chain(monkeypatch, case):
    """A block decoded from its flipped bits gives the counters of the same
    block decoded as whole codewords, and of the scalar chain on random
    payloads with those flips."""
    flips = _hand_made(case)
    got = {path: _counters_of(monkeypatch, flips, few) for path, few in PATHS.items()}
    assert got["sparse"] == got["dense"]
    payloads = np.random.default_rng(7).integers(0, 2, (len(flips), 270), dtype=np.uint8)
    stats = got["sparse"]
    assert stats == _scalar_counters(payloads.tolist(), flips.tolist())
    if case == "header-only":
        assert stats == TrialStats(frames_total=len(flips))
    if case in ("parity-only", "one-and-two-symbols"):
        assert stats.frames_recovered == stats.frames_err_pre == len(flips)
        assert stats.bit_err_post == stats.miscorrections == stats.detected_uncorrectable == 0
    if case == "uncorrectable":
        assert stats.detected_uncorrectable and stats.miscorrections
    if case == "codeword":
        parity_flips = int(frame_words_reference(flips)[:, 135:].sum())
        assert stats.detected_uncorrectable == 0 and stats.frames_recovered == 0
        assert stats.miscorrections == 5 and stats.frames_err_post == 3
        assert stats.bit_err_post == stats.bit_err_pre - parity_flips > 0


def test_sparse_path_equals_dense_path_on_a_grid_of_configs(monkeypatch):
    """Drawn blocks of every kind: clean, sparse, burst-only and dense,
    with bursts longer than a frame, at the two extreme seeds."""
    for ber, burst_len, burst_rate, seed in itertools.product(
            (0.0, 1e-4, 1e-3, 1e-2, 0.5, 1.0), (0, 6, 20, 400), (0.0, 0.1, 2.0), (1, 2**64 - 1)):
        cfg = ChannelConfig(ber=ber, burst_len=burst_len, burst_rate=burst_rate,
                            seed=seed, frames=BLOCK_FRAMES + 9)
        got = []
        for few_flips in PATHS.values():
            monkeypatch.setattr(harness, "_FEW_FLIPS", few_flips)
            got.append(harness._run_frames(cfg, 0, cfg.frames))
        assert got[0] == got[1], cfg


@pytest.mark.parametrize("extra, dense", [(0, False), (1, True)], ids=["at-few", "one-more"])
def test_the_flip_count_selects_the_path(monkeypatch, extra, dense):
    """A block with _FEW_FLIPS set bits, header bits included, never calls
    decode_frames; one with _FEW_FLIPS + 1 decodes all its frames once.
    Both give the scalar chain's counters."""
    flips = np.zeros((BLOCK_FRAMES, 320), np.uint8)
    at = np.random.default_rng(31).choice(flips.size, harness._FEW_FLIPS + extra, replace=False)
    flips.ravel()[at] = 1
    assert flips[:, :10].any()
    calls, decode_frames = [], harness.decode_frames
    monkeypatch.setattr(harness, "decode_frames",
                        lambda frames: calls.append(len(frames)) or decode_frames(frames))
    stats = _counters_of(monkeypatch, flips, harness._FEW_FLIPS)
    assert calls == ([BLOCK_FRAMES] if dense else [])
    payloads = np.random.default_rng(37).integers(0, 2, flips.shape[:1] + (270,), dtype=np.uint8)
    assert stats == _scalar_counters(payloads.tolist(), flips.tolist())


class _RawSizes:
    """Stands in for the thread's generator: passes every call on to a real
    Philox generator, and records the size of each random_raw call."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(key=0))
        self.bit_generator = self
        self.sizes = []

    @property
    def state(self):
        return self.gen.bit_generator.state

    @state.setter
    def state(self, value):
        self.gen.bit_generator.state = value

    def random_raw(self, size):
        self.sizes.append(size)
        return self.gen.bit_generator.random_raw(size)

    def poisson(self, lam):
        return self.gen.poisson(lam)

    def integers(self, low, high):
        return self.gen.integers(low, high)


@pytest.mark.parametrize("ber, burst_len, burst_rate, words", [
    (1e-3, 6, 0.5, 3 + 320), (2e-2, 0, 0.0, 3 + 320), (0.0, 20, 1.0, 3)],
    ids=["bursty", "burst-free", "bursts-only"])
def test_the_draw_skips_the_payload_words(monkeypatch, ber, burst_len, burst_rate, words):
    """Each frame's draw starts past the payload's 135 raw words: it asks
    for the 3 raw words of their last four that come before the flips,
    then the 320 flip words (none at BER 0), and the counters are those
    of the per-frame stream."""
    spy = _RawSizes()
    monkeypatch.setattr(harness, "_thread_generator", lambda: spy)
    cfg = ChannelConfig(ber=ber, burst_len=burst_len, burst_rate=burst_rate, seed=41, frames=40)
    stats = run_simulation(cfg)
    assert spy.sizes == [words] * cfg.frames
    assert stats == _scalar_simulation(cfg)
