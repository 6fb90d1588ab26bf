"""Channel simulator and pre/post-correction statistics.

Each frame's payload and flips come from a Philox generator keyed by
(seed, frame index), so trials are replay-identical and independent of
execution order: worker-pool runs merge to the serial counters.
`frame_rng` and `channel_flips` define that stream (the payload is
`integers(0, 2, 270)`, then the flips). The simulator draws only the
flips, a block of frames at a time (`_draw_block`), and decodes the bare
error words, since a decode reads only the syndrome (`_run_frames`);
`apply_channel` and `build_frame`/`unframe` run the full chain one frame
at a time.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .decoder import decode_words
from .framing import FRAME_BITS, HEADER_BITS, INFO_BITS_PER_FRAME, frame_blocks, frame_words
from .rs_core import K_SYMBOLS

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
        for name in ("burst_len", "seed", "frames"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("ber", "burst_rate"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # a plain float, so the record prints ber=0.0 and never np.float64(...)
            object.__setattr__(self, name, float(value))
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


def _draw_block(cfg: ChannelConfig, block: range, gen: np.random.Generator) -> np.ndarray:
    """flips uint8[n, 320] of the frames in block: row r equals
    channel_flips(cfg, rng) on rng = frame_rng(cfg.seed, block[r]) right
    after the payload draw integers(0, 2, 270), which spends 135 raw words.

    With ber 0 and no bursts gen is not touched. Otherwise its Philox is
    re-keyed to (seed, frame index) at counter 0 for each frame, as
    frame_rng builds it, and its first 135 + 320 raw words (320 only when
    ber > 0) land in one array. random() < ber holds exactly when the word
    is at most ceil(ber * 2**53) * 2**11 - 1: random() is (word >> 11) *
    2**-53, and the bound fits in 64 bits, also at ber = 1. Bursts are
    drawn through gen, continuing each frame's stream."""
    flips = np.zeros((len(block), FRAME_BITS), np.uint8)
    bursty = cfg.burst_rate > 0 and cfg.burst_len > 0
    if cfg.ber == 0 and not bursty:
        return flips
    n_words = _PAYLOAD_WORDS + (FRAME_BITS if cfg.ber > 0 else 0)
    words = np.empty((len(block), n_words), np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [cfg.seed, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
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

    if cfg.ber > 0:
        bound = (math.ceil(cfg.ber * 2.0**53) << 11) - 1
        flips = (words[:, _PAYLOAD_WORDS:] <= bound).view(np.uint8)
    for row, off in bursts:
        flips[row, off:off + span] ^= 1
    return flips


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
    flipped, post the info bits wrong after decoding.

    A received codeword is c ^ e, c the sent one and e the error word the
    flips put on it. A decode reads only the syndrome, which is that of e,
    and XORs in the fix it gives: so decoding e alone gives the same ok
    and nu, and as message the decoded one XOR the sent one, which
    descrambling leaves as it is: the wrong info bits. So no block is
    encoded, and neither header nor scrambler is read."""
    stats = TrialStats(frames_total=count)
    gen = _thread_generator()
    for block in frame_blocks(start, start + count):
        flips = _draw_block(cfg, block, gen)
        ok, bits, _ = decode_words(frame_words(flips))

        pre = flips[:, HEADER_BITS:].sum(axis=1)
        half = bits[:, :K_SYMBOLS].sum(axis=(1, 2))
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
        rows.append([str(getattr(cfg, n)) for n in _CFG_FIELDS]
                    + [str(getattr(stats, n)) for n in _STAT_FIELDS])
    if csv:
        lines = [",".join(names)] + [",".join(row) for row in rows]
    else:
        lines = [" ".join(f"{n}={v}" for n, v in zip(names, row)) for row in rows]
    return "\n".join(lines) + "\n"
