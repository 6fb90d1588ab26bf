"""Channel simulator and pre/post-correction statistics.

Each frame's payload and corruption stream come from a Philox generator
keyed by (seed, frame index), so trials are replay-identical and
independent of execution order — worker-pool runs merge to the same
counters as a serial run.

The simulator draws each frame's payload and channel flips from its own
stream, gathers them into blocks of framing.BLOCK_FRAMES frames, and runs
each block through the batch kernels `encode_frames`/`decode_frames`;
`apply_channel` and the scalar `build_frame`/`unframe` give the same
frames and decodes one at a time.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .framing import (FRAME_BITS, HALF_INFO_BITS, HEADER_BITS,
                      INFO_BITS_PER_FRAME, decode_frames, encode_frames,
                      frame_blocks)
from .decoder import UNCORRECTABLE


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
        if self.burst_len < 0 or self.burst_rate < 0 or self.frames < 0:
            raise ValueError("burst_len, burst_rate and frames must be >= 0")


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


def _run_frames(cfg: ChannelConfig, start: int, count: int) -> TrialStats:
    stats = TrialStats()
    for block in frame_blocks(start, start + count):
        payload = np.empty((len(block), INFO_BITS_PER_FRAME), np.uint8)
        flips = np.empty((len(block), FRAME_BITS), np.uint8)
        for row, idx in enumerate(block):
            rng = frame_rng(cfg.seed, idx)
            payload[row] = rng.integers(0, 2, size=INFO_BITS_PER_FRAME)
            flips[row] = channel_flips(cfg, rng)
        info, results, _ = decode_frames(encode_frames(payload) ^ flips)

        pre_bits = flips[:, HEADER_BITS:].sum(axis=1)
        wrong = info != payload
        post_bits = wrong.sum(axis=1)
        wrong_half = wrong.reshape(-1, HALF_INFO_BITS).any(axis=1)
        uncorrectable = np.array([res.status == UNCORRECTABLE for res in results], bool)
        stats.frames_total += len(block)
        stats.bit_err_pre += int(pre_bits.sum())
        stats.bit_err_post += int(post_bits.sum())
        stats.frames_err_pre += int(np.count_nonzero(pre_bits))
        stats.frames_err_post += int(np.count_nonzero(post_bits))
        stats.frames_recovered += int(np.count_nonzero((pre_bits > 0) & (post_bits == 0)))
        stats.detected_uncorrectable += int(uncorrectable.sum())
        stats.miscorrections += int(np.count_nonzero(wrong_half & ~uncorrectable))
    return stats


def _run_chunk(args: tuple[ChannelConfig, int, int]) -> TrialStats:
    return _run_frames(*args)


def run_simulation(cfg: ChannelConfig, jobs: int = 1) -> TrialStats:
    """Frame trials for one config; counter merging is commutative, so any
    worker split yields identical totals."""
    if jobs <= 1 or cfg.frames < 2:
        return _run_frames(cfg, 0, cfg.frames)
    jobs = min(jobs, cfg.frames)
    step = -(-cfg.frames // jobs)
    chunks = [(cfg, start, min(step, cfg.frames - start))
              for start in range(0, cfg.frames, step)]
    total = TrialStats()
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_run_chunk, chunks):
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
