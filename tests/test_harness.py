import itertools
import math
import os
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
    int as 0 where the CLI prints 0.0; True was accepted, and a string
    raised TypeError. Any real number is stored as a float, and anything
    else raises ValueError."""
    for value in ("0.1", True, np.True_, None, 1j):
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
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
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
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
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


def _scalar_simulation(cfg):
    """Counters from the per-frame chain: frame_rng, the payload draw,
    apply_channel on build_frame, unframe."""
    stats = TrialStats(frames_total=cfg.frames)
    for index in range(cfg.frames):
        rng = frame_rng(cfg.seed, index)
        payload = rng.integers(0, 2, size=270).tolist()
        frame = build_frame(payload)
        received = apply_channel(frame, cfg, rng)
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
