"""Channel simulator and pre/post-correction statistics.

Each frame's payload and corruption stream come from a Philox generator
keyed by (seed, frame index), so trials are replay-identical and
independent of execution order — worker-pool runs merge to the same
counters as a serial run.

`frame_rng` and `channel_flips` define that stream: the payload is
`integers(0, 2, 270)` on frame_rng(seed, index), and the flips are
channel_flips on the same generator. The simulator draws the same bits
in blocks of framing.BLOCK_FRAMES frames (`_draw_block`). It keeps one
Philox per thread, built on first use, and re-keys it to (seed, index) at
counter 0 for each frame, so no state carries over from an earlier call,
and reads the block's payloads and independent flips off the raw 64-bit
words in a few array operations; bursts alone are drawn per frame,
continuing each frame's stream. Each block then runs through the batch
kernels `encode_frames` and `decode_frames`; `apply_channel` and the
scalar `build_frame`/`unframe` give the same frames and decodes one at
a time.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .framing import (FRAME_BITS, HALF_INFO_BITS, HEADER_BITS,
                      INFO_BITS_PER_FRAME, decode_frames, encode_frames,
                      frame_blocks)

# Raw words of a frame's payload draw: one per two payload bits.
_PAYLOAD_WORDS = INFO_BITS_PER_FRAME // 2


@dataclass(frozen=True)
class ChannelConfig:
    ber: float = 0.0
    burst_len: int = 0
    burst_rate: float = 0.0
    seed: int = 0
    frames: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber <= 1.0:
            raise ValueError(f"ber must be in [0, 1], got {self.ber}")
        if not math.isfinite(self.burst_rate):
            raise ValueError(f"burst_rate must be finite, got {self.burst_rate}")
        if self.burst_rate > FRAME_BITS:
            # Every burst is drawn and listed: time and memory grow with the rate.
            raise ValueError(f"burst_rate must be at most {FRAME_BITS}, got {self.burst_rate}")
        if self.burst_len < 0 or self.burst_rate < 0 or self.frames < 0:
            raise ValueError("burst_len, burst_rate and frames must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class TrialStats:
    """Counters per config.

    frames_* are per frame (payload region for pre, info bits for post);
    miscorrections and detected_uncorrectable count codeword decodes, so
    they range up to 2 per frame. bit_err_pre counts wrong payload bits
    before decoding, bit_err_post wrong info bits after.
    """

    frames_total: int = 0
    frames_err_pre: int = 0
    frames_err_post: int = 0
    frames_recovered: int = 0
    miscorrections: int = 0
    detected_uncorrectable: int = 0
    bit_err_pre: int = 0
    bit_err_post: int = 0

    def merge(self, other: "TrialStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    key = np.array([seed, frame_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def channel_flips(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    """uint8[320], 1 where the channel flips a frame bit: independent flips
    at probability ber, plus Poisson(burst_rate) all-flip bursts of
    burst_len bits at uniform offsets. The header is exposed to the
    channel like everything else."""
    flips = np.zeros(FRAME_BITS, np.uint8)
    if cfg.ber > 0:
        flips[:] = rng.random(FRAME_BITS) < cfg.ber
    if cfg.burst_rate > 0 and cfg.burst_len > 0:
        span = min(cfg.burst_len, FRAME_BITS)
        for _ in range(rng.poisson(cfg.burst_rate)):
            off = int(rng.integers(0, FRAME_BITS - span + 1))
            flips[off:off + span] ^= 1
    return flips


def apply_channel(frame: list[int], cfg: ChannelConfig,
                  rng: np.random.Generator) -> list[int]:
    """The frame with the bits of channel_flips flipped."""
    return (np.array(frame, np.uint8) ^ channel_flips(cfg, rng)).tolist()


def _draw_block(cfg: ChannelConfig, block: range,
                gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(payload uint8[n, 270], flips uint8[n, 320]) of the frames in block:
    row r equals frame_rng(cfg.seed, block[r]).integers(0, 2, 270)
    followed by channel_flips(cfg, rng) on the same generator.

    gen's Philox is re-keyed to (seed, frame index) at counter 0 for each
    frame, which is the generator frame_rng builds, and its first
    135 + 320 raw words (320 only when ber > 0) land in one array. numpy
    draws an integer in [0, 2) from one uint32, low half of a word first,
    as the uint32's top bit, and random() as (word >> 11) * 2**-53, which
    is below ber exactly when word >> 11 is below ceil(ber * 2**53), that
    is, when word is at most ceil(ber * 2**53) * 2**11 - 1 (which fits in
    64 bits, also at ber = 1).
    Bursts are drawn through gen, so they continue each frame's stream
    right after those words."""
    n = len(block)
    n_words = _PAYLOAD_WORDS + (FRAME_BITS if cfg.ber > 0 else 0)
    words = np.empty((n, n_words), np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [cfg.seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    bursty = cfg.burst_rate > 0 and cfg.burst_len > 0
    span = min(cfg.burst_len, FRAME_BITS)
    bursts = []
    bitgen = gen.bit_generator
    for row, idx in enumerate(block):
        key[1] = idx
        bitgen.state = state
        words[row] = bitgen.random_raw(n_words)
        if bursty:
            for _ in range(gen.poisson(cfg.burst_rate)):
                bursts.append((row, int(gen.integers(0, FRAME_BITS - span + 1))))

    # Little-endian view: the low half of each word first on any host.
    halves = words[:, :_PAYLOAD_WORDS].astype("<u8", copy=False).view("<u4")
    payload = halves >= 2**31
    if cfg.ber > 0:
        flips = words[:, _PAYLOAD_WORDS:] <= (math.ceil(cfg.ber * 2.0**53) << 11) - 1
    else:
        flips = np.zeros((n, FRAME_BITS), bool)
    flips = flips.view(np.uint8)
    for row, off in bursts:
        flips[row, off:off + span] ^= 1
    return payload.view(np.uint8), flips


_local = threading.local()


def _thread_generator() -> np.random.Generator:
    """This thread's generator for _draw_block, which sets its whole state
    for every frame. One per thread, so that two threads simulating at
    once never re-key each other's."""
    try:
        return _local.gen
    except AttributeError:
        _local.gen = np.random.Generator(np.random.Philox(key=0))
        return _local.gen


def _run_frames(cfg: ChannelConfig, start: int, count: int) -> TrialStats:
    """Counters of frames start..start+count-1, from each block's wrong
    bits per codeword half: pre counts the payload bits the channel
    flipped, post the info bits wrong after decoding."""
    stats = TrialStats(frames_total=count)
    gen = _thread_generator()
    for block in frame_blocks(start, start + count):
        payload, flips = _draw_block(cfg, block, gen)
        frames = encode_frames(payload)
        frames ^= flips
        info, ok, _, _ = decode_frames(frames)

        pre = flips[:, HEADER_BITS:].sum(axis=1)
        half = (info != payload).reshape(-1, HALF_INFO_BITS).sum(axis=1)
        post = half[::2] + half[1::2]
        stats.bit_err_pre += int(pre.sum())
        stats.bit_err_post += int(half.sum())
        stats.frames_err_pre += int(np.count_nonzero(pre))
        stats.frames_err_post += int(np.count_nonzero(post))
        stats.frames_recovered += int(np.count_nonzero((pre > 0) & (post == 0)))
        stats.detected_uncorrectable += len(ok) - int(np.count_nonzero(ok))
        stats.miscorrections += int(np.count_nonzero(ok & (half > 0)))
    return stats


def run_simulation(cfg: ChannelConfig, jobs: int = 1) -> TrialStats:
    """Frame trials for one config, on at most one worker per CPU; counter
    merging is commutative, so any worker split yields identical totals."""
    jobs = min(jobs, cfg.frames, os.cpu_count() or 1) if jobs > 1 else 1
    if jobs <= 1:
        return _run_frames(cfg, 0, cfg.frames)
    step = -(-cfg.frames // jobs)
    starts = range(0, cfg.frames, step)
    counts = [min(step, cfg.frames - start) for start in starts]
    total = TrialStats()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_run_frames, [cfg] * len(starts), starts, counts):
            total.merge(part)
    return total


def run_sweep(cfgs: list[ChannelConfig], jobs: int = 1) -> list[TrialStats]:
    return [run_simulation(cfg, jobs=jobs) for cfg in cfgs]


_CFG_FIELDS = [f.name for f in fields(ChannelConfig)]
_STAT_FIELDS = [f.name for f in fields(TrialStats)]


def emit_stats(results, csv: bool = False) -> str:
    """One record per (config, stats) pair, stable field order.

    Default form is line-delimited key=value pairs; csv emits a header row
    plus comma-separated values for plotting.
    """
    names = _CFG_FIELDS + _STAT_FIELDS
    rows = []
    for cfg, stats in results:
        rows.append([repr(getattr(cfg, n)) if isinstance(getattr(cfg, n), float)
                     else str(getattr(cfg, n)) for n in _CFG_FIELDS]
                    + [str(getattr(stats, n)) for n in _STAT_FIELDS])
    if csv:
        lines = [",".join(names)] + [",".join(row) for row in rows]
    else:
        lines = [" ".join(f"{n}={v}" for n, v in zip(names, row)) for row in rows]
    return "\n".join(lines) + "\n"
