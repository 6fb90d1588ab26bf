"""Channel simulator and pre/post-correction statistics.

Each frame's payload and flips come from a Philox generator keyed by
(seed, frame index), so trials are replay-identical and independent of
execution order: worker-pool runs merge to the serial counters.
`frame_rng` and `channel_flips` define that stream (the payload is
`integers(0, 2, 270)`, then the flips). The simulator draws only the
flips, a block of frames at a time (`_draw_block`): each frame's Philox
starts at the counter past the payload's raw words, so they are never
made. It decodes the bare error words, since a decode reads only the
syndrome (`_run_frames`). A block with few flipped bits is decoded from
those bits alone: syndromes are linear in the error, so a codeword's are
the XOR of the syndrome columns of its flipped bits, and only the
nonzero ones are looked up. A denser block's flips are decoded as wire
frames by `framing.decode_frames`, the CLI's decoder. `apply_channel` and
`build_frame`/`unframe` run the full chain one frame at a time.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .decoder import lookup_lists
from .framing import (FRAME_BITS, HALF_INFO_BITS, HEADER_BITS, INFO_BITS_PER_FRAME, PRBS_BYTES,
                      decode_frames, flip_table, frame_blocks)
from .rs_core import K_SYMBOLS

# Raw words of a frame's payload draw: one per two payload bits.
# `_draw_block` starts each frame past them at Philox counter
# _SKIP_COUNTER and drops _SKIP_WORDS words; its docstring says why.
_PAYLOAD_WORDS = INFO_BITS_PER_FRAME // 2
_SKIP_COUNTER, _SKIP_WORDS = divmod(_PAYLOAD_WORDS, 4)
# uint8[2, 34]: the info bits of codeword A, then of codeword B, in record
# bytes as decode_frames returns the info.
_HALF_MASKS = np.packbits(np.repeat(np.eye(2, dtype=np.uint8), HALF_INFO_BITS, axis=1), axis=1)


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
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ValueError(f"{name} must be a number, got {value!r}") from None
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
    after the payload draw integers(0, 2, 270), which spends the stream's
    first 135 raw words.

    With ber 0 and no bursts gen is not touched. Otherwise its Philox is
    keyed (seed, frame index) for each frame, as frame_rng keys it, and
    started past those 135 words without making most of them. Philox
    raises its counter before it makes each four raw words, so set to
    counter c with its buffer spent it next makes words 4c..4c+3: from
    divmod(135, 4) = (33, 3), counter 33 makes words 132..135 first, and
    the 3 words before word 135 are drawn and dropped. The 320 words after
    them (when ber > 0) land in one array. random() < ber holds exactly
    when the word is at most ceil(ber * 2**53) * 2**11 - 1: random() is
    (word >> 11) * 2**-53, and the bound fits in 64 bits, also at ber = 1.
    Bursts are drawn through gen, continuing each frame's stream."""
    flips = np.zeros((len(block), FRAME_BITS), np.uint8)
    bursty = cfg.burst_rate > 0 and cfg.burst_len > 0
    if cfg.ber == 0 and not bursty:
        return flips
    n_words = _SKIP_WORDS + (FRAME_BITS if cfg.ber > 0 else 0)
    words = np.empty((len(block), n_words), np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": [_SKIP_COUNTER, 0, 0, 0], "key": [cfg.seed, 0]},
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
        flips = (words[:, _SKIP_WORDS:] <= bound).view(np.uint8)
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


# Set bits up to which a block is decoded from its flipped bits alone
# (`_count_sparse`), not as whole frames (`_count_dense`). Counting a
# block of 8 or 128 frames with F flips at random places, count_nonzero
# included, sparse against dense (us, min of 2 x 40 rounds of 10 passes
# over 20 blocks, the two alternating, 2-core Xeon):
#
#     F          0     4     8    16    32    48    64    80    96   128
#   8  sparse    5    12    18    26    38    45    53    59    66    79
#   8  dense    33    62    62    63    63    63    63    63    62    63
#   128 sparse   8    19    27    39    65    86   108   128   150   198
#   128 dense   89   122   123   125   127   128   129   133   134   140
#
# Sparse costs about 0.6 us a flip at 8 frames and 1.5 us at 128 (more
# dirty codewords to look up), dense about the same at any count: sparse
# is faster up to 80 at both sizes, and slower from 96.
_FEW_FLIPS = 80


def _run_frames(cfg: ChannelConfig, start: int, count: int) -> TrialStats:
    """Counters of frames start..start+count-1, from each block's wrong
    bits per codeword half: pre counts the payload bits the channel
    flipped, post the info bits wrong after decoding.

    A received codeword is c ^ e, c the sent one and e the error word the
    flips put on it. A decode reads only the syndrome, which is that of e,
    and XORs in the fix it gives: so decoding e alone gives the same ok
    and nu, and as message the decoded one XOR the sent one, which
    descrambling leaves as it is: the wrong info bits. So no block is
    encoded, and neither header nor scrambler is read. A block with at
    most _FEW_FLIPS set bits goes by those bits (`_count_sparse`): the
    syndromes of e are the XOR of the syndrome columns of its set bits,
    and a clean block needs no decode. Others decode all their codewords
    (`_count_dense`)."""
    stats = TrialStats(frames_total=count)
    gen = _thread_generator()
    for block in frame_blocks(start, start + count):
        flips = _draw_block(cfg, block, gen)
        if np.count_nonzero(flips) <= _FEW_FLIPS:
            _count_sparse(np.flatnonzero(flips.view(bool)).tolist(), stats)
        else:
            _count_dense(flips, stats)
    return stats


def _count_dense(flips: np.ndarray, stats: TrialStats) -> None:
    """Add the counters of flips uint8[n, 320]: the flips, packed as wire
    bytes, are decoded as frames (`decode_frames`), and the info that comes
    back XOR the PRBS is the decoded messages, the wrong info bits; the two
    _HALF_MASKS split them by codeword."""
    info, ok, _, _ = decode_frames(np.packbits(flips, axis=1))
    wrong = (info ^ PRBS_BYTES)[:, None] & _HALF_MASKS
    half = np.bitwise_count(wrong).sum(axis=2, dtype=int).ravel()
    pre = flips[:, HEADER_BITS:].sum(axis=1)
    post = half[::2] + half[1::2]
    stats.bit_err_pre += int(pre.sum())
    stats.bit_err_post += int(half.sum())
    stats.frames_err_pre += int(np.count_nonzero(pre))
    stats.frames_err_post += int(np.count_nonzero(post))
    stats.frames_recovered += int(np.count_nonzero((pre > 0) & (post == 0)))
    stats.detected_uncorrectable += len(ok) - int(np.count_nonzero(ok))
    stats.miscorrections += int(np.count_nonzero(ok & (half > 0)))


def _count_sparse(flat: list[int], stats: TrialStats) -> None:
    """Add the counters of a block from the flat indices of its set flips
    (frame row * 320 + frame bit), as `_count_dense` counts them.

    Per codeword, the flips give its syndromes and its error value at each
    info symbol. The nonzero syndromes go to `lookup_lists`. A codeword's
    wrong info bits are its info flips, plus popcount(e ^ y) - popcount(e)
    for each info symbol the decoder fixes by y where the error is e; an
    uncorrectable codeword is left as received."""
    table = flip_table()
    pre, synd, errors = {}, {}, {}
    for i in flat:
        row, bit = divmod(i, FRAME_BITS)
        entry = table[bit]
        if entry is None:
            continue
        half, column, symbol, value = entry
        word = 2 * row + half
        pre[row] = pre.get(row, 0) + 1
        synd[word] = synd.get(word, 0) ^ column
        if symbol < K_SYMBOLS:
            errors[word, symbol] = errors.get((word, symbol), 0) ^ value
    wrong = dict.fromkeys(synd, 0)
    for (word, _), value in errors.items():
        wrong[word] += value.bit_count()
    dirty = {word: s for word, s in synd.items() if s}
    failed = set()
    for word, (nu, first, y1, last, y2) in zip(dirty, lookup_lists(list(dirty.values()))):
        if not nu:
            failed.add(word)
            continue
        for symbol, y in ((first, y1), (last, y2)):
            if y and symbol < K_SYMBOLS:
                e = errors.get((word, symbol), 0)
                wrong[word] += (e ^ y).bit_count() - e.bit_count()
    post = [wrong.get(2 * row, 0) + wrong.get(2 * row + 1, 0) for row in pre]
    stats.bit_err_pre += sum(pre.values())
    stats.bit_err_post += sum(post)
    stats.frames_err_pre += len(pre)
    stats.frames_err_post += len(post) - post.count(0)
    stats.frames_recovered += post.count(0)
    stats.detected_uncorrectable += len(failed)
    stats.miscorrections += sum(1 for word, n in wrong.items() if n and word not in failed)


def run_simulation(cfg: ChannelConfig, jobs: int = 1) -> TrialStats:
    """Frame trials for one config, on at most one worker per CPU; counter
    merging is commutative, so any worker split yields identical totals."""
    jobs = min(jobs, cfg.frames, os.cpu_count() or 1) if jobs > 1 else 1
    if jobs <= 1:
        return _run_frames(cfg, 0, cfg.frames)
    step = -(-cfg.frames // jobs)
    starts = range(0, cfg.frames, step)
    counts = [min(step, cfg.frames - start) for start in starts]
    # Imported here: it loads multiprocessing, which a serial run never uses.
    from concurrent.futures import ProcessPoolExecutor
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
