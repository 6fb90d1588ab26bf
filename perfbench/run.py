"""rs3127 benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src. Every line but the last is a human-readable report (input size,
sample counts, machine facts, the per-workload metrics); the last line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, measured untraced and scaled to
the host's full speed (see CAL_REF_US): throughput and median per-frame
time, set-up time, and peak RSS. --trace 1 makes the same untraced
measurement, then runs blocks of items untraced and traced in turn, and
reports per-layer span metrics from the first round of traced blocks,
which covers every item once. Traced steps must give byte-identical
outputs and respect the workload's zero-call predictions. Spans are
written to perfbench/out/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import refcodec as ref
from tracer import Tracer
from workloads import WORKLOADS, check_repeat, zero_call_violations

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 9
WINDOW_S = 0.1

# The host this was tuned on runs the same code at full speed for a second
# or two, then at half to two-thirds of it for seconds to minutes, as its
# other load comes and goes. So a fixed pure-Python loop (the benchmark's
# own RS encoder over CAL_MSGS) is timed before and after every window of
# timed calls and every set-up sample. Each time measured in between is
# multiplied by CAL_REF_US / loop time, which cancels most of the host's
# momentary speed: the metrics read as on that host at full speed, where
# the loop takes CAL_REF_US.
CAL_MSGS = [[(7 * i + 3 * j) % 32 for j in range(ref.K_SYM)] for i in range(64)]
CAL_REF_US = 350.0

# A fresh interpreter imports the package (numpy included), derives the
# parity matrix through the first build_frame and prints that frame.
_SETUP_CHILD = """\
import sys
from rs3127 import cli, framing
frame = framing.build_frame([0] * framing.INFO_BITS_PER_FRAME)
sys.stdout.write(framing.frame_to_bytes(frame).hex() + "\\n")
sys.stdout.flush()
"""

_ZERO_FRAME_HEX = ref.to_bytes(ref.build_frames(np.zeros((1, ref.INFO_BITS), np.uint8))).hex()

# Names of the per-kind throughputs on the report lines, by call kind.
KIND_METRICS = {"encode_parallel": "encode_fps", "encode_ref": "encode_ref_fps",
                "encode_lfsr": "encode_lfsr_fps", "decode": "decode_fps",
                "simulate": "sim_fps", "round_trip": "frame_rt_fps"}


def load_package():
    if not (SRC / "rs3127" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at {SRC / 'rs3127'}; "
                         "run from the root of an rs3127 checkout")
    sys.path.insert(0, str(SRC))
    import rs3127
    from rs3127 import cli, framing, harness, parallel_gen  # noqa: F401
    if Path(rs3127.__file__).resolve().parent != SRC / "rs3127":
        raise SystemExit(f"run.py: imported rs3127 from {rs3127.__file__}, not {SRC}")
    return rs3127


def calibrate() -> float:
    """Microseconds the calibration loop takes now."""
    start = time.perf_counter()
    for msg in CAL_MSGS:
        ref.rs_encode(msg)
    return (time.perf_counter() - start) * 1e6


def measure_setup() -> tuple[float, float, bool]:
    """Wall time from spawning an interpreter to its first frame, the
    host-speed scale around it, and whether that frame is right."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = calibrate()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    scale = CAL_REF_US / ((before + calibrate()) / 2)
    return elapsed, scale, child.returncode == 0 and line.strip() == _ZERO_FRAME_HEX


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rs3127").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "loadavg_start": os.getloadavg(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": git_commit(), "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        name = text[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_steps(wl, indices, seen, tally):
    """Run steps, check repeats, and add to tally; returns (kind, frames, s) calls."""
    calls = []
    for i in indices:
        step = wl.step(i)
        repeat_ok = check_repeat(seen, i % wl.items, step.output)
        tally["attempted"] += step.attempted
        tally["failed"] += step.attempted if not repeat_ok else step.failed
        tally["repeat_mismatch"] += not repeat_ok
        tally.update(step.outcomes)
        calls.extend(step.calls)
    return calls


def measure(wl, seconds, seen, tally, between):
    """Run steps for `seconds`, grouped into consecutive windows of at least
    WINDOW_S wall seconds (one step at least). `between(done)` runs before
    each window, untimed and not counted in `seconds`; `done` is the share
    of `seconds` used so far. Returns (timed calls, host-speed scale) per
    window."""
    windows, i, used = [], 0, 0.0
    while not windows or used < seconds:
        between(used / seconds)
        before = calibrate()
        start = time.perf_counter()
        calls = []
        while not calls or time.perf_counter() - start < WINDOW_S:
            calls += run_steps(wl, [i], seen, tally)
            i += 1
        used += time.perf_counter() - start
        windows.append((calls, CAL_REF_US / ((before + calibrate()) / 2)))
    run_steps(wl, range(i, wl.min_steps), seen, tally)
    return windows


def summarize(windows, scaled=True) -> dict:
    """Over (calls, scale) windows: the median of the windows' throughputs,
    per-frame time percentiles over all calls, and per-kind throughput.
    With `scaled`, each call time is multiplied by its window's scale."""
    windows = [[(k, f, s * (scale if scaled else 1.0)) for k, f, s in calls]
               for calls, scale in windows]
    calls = [c for window in windows for c in window]
    frames = sum(f for _, f, _ in calls)
    throughput = statistics.median(sum(f for _, f, _ in w) / sum(s for _, _, s in w)
                                   for w in windows)
    per_frame_us = np.array([s / f * 1e6 for _, f, s in calls])
    p50, p99 = np.percentile(per_frame_us, [50, 99])
    by_kind = {}
    for kind in dict.fromkeys(k for k, _, _ in calls):
        kf = sum(f for k, f, _ in calls if k == kind)
        ks = sum(s for k, _, s in calls if k == kind)
        by_kind[KIND_METRICS[kind]] = kf / ks
    return {"frames": frames, "samples": len(calls), "throughput_fps": throughput,
            "frame_p50_us": float(p50), "frame_p99_us": float(p99), "by_kind": by_kind}


def frame_us(calls) -> float:
    return sum(s for _, _, s in calls) / sum(f for _, f, _ in calls) * 1e6


def traced_pass(rs, wl, seen, tally, rounds=3):
    """Blocks of items run untraced, then traced, in turn. The first round
    covers every item once; its spans give the per-layer metrics. The
    median over all blocks of traced minus untraced call time per frame is
    the tracing overhead: a block and its traced twin run a few
    milliseconds apart, so they see the same host speed."""
    block = max(1, wl.items // 16)
    recorded, base_us, diff_us = Tracer(), [], []
    for r in range(rounds):
        for first in range(0, wl.items, block):
            items = range(first, min(first + block, wl.items))
            base = frame_us(run_steps(wl, items, seen, tally))
            tracer = recorded if r == 0 else Tracer()
            missing = tracer.install()
            try:
                if r == 0 and first == 0:  # derive the parity matrix again, traced
                    clear = getattr(rs.parallel_gen.default_parity_matrix, "cache_clear", None)
                    if clear is not None:
                        clear()
                    rs.parallel_gen.default_parity_matrix()
                traced = frame_us(run_steps(wl, items, seen, tally))
            finally:
                tracer.uninstall()
            base_us.append(base)
            diff_us.append(traced - base)
    recorded.write(OUT / f"spans-{wl.name}.tsv")
    return recorded, missing, statistics.median(base_us), statistics.median(diff_us)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rs = load_package()
    facts = machine_facts()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](rs, args.seed, workdir)
        seen, tally, setup = {}, Counter(), []
        # Warm-up pass over every item: lazy set-up, file cache. Peak RSS is
        # read after it, before the timed loop stores its samples.
        run_steps(wl, range(wl.items), {}, Counter())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        def between(done):  # spread the set-up samples over the run
            if args.trace == 0 and len(setup) < min(SETUP_RUNS, 1 + int(done * SETUP_RUNS)):
                setup.append(measure_setup())

        windows = measure(wl, args.seconds, seen, tally, between)
        while args.trace == 0 and len(setup) < SETUP_RUNS:
            setup.append(measure_setup())
        e2e, raw = summarize(windows), summarize(windows, scaled=False)
        if args.trace:
            tracer, missing, base_us, overhead_us = traced_pass(rs, wl, seen, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_ok = all(ok for _, _, ok in setup)
    speed = statistics.median(scale for _, scale in windows)
    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"input: {wl.input_facts()}")
    print(f"samples: frames={e2e['frames']} calls={e2e['samples']} windows={len(windows)} "
          f"setup_runs={len(setup)}")
    print("machine: " + json.dumps(facts))
    print(f"host speed: calibration loop median {CAL_REF_US / speed:.0f} us "
          f"(reference {CAL_REF_US:.0f} us)")
    for label, x in (("unscaled", raw), ("scaled", e2e)):
        print(f"{label}: throughput_fps={x['throughput_fps']:.1f} "
              f"frame_p50_us={x['frame_p50_us']:.1f} frame_p99_us={x['frame_p99_us']:.1f}")
    correct = setup_ok and tally["failed"] == 0
    if not setup_ok:
        print("CHECK FAILED: set-up child did not print the expected first frame")
    if tally["repeat_mismatch"]:
        print(f"CHECK FAILED: {tally['repeat_mismatch']} steps did not repeat byte-identically")
    for kind, value in e2e["by_kind"].items():
        print(f"metric {kind}={value:.1f} frames/s (scaled; unscaled {raw['by_kind'][kind]:.1f})")
    print(f"metric failed_ratio={tally['failed'] / tally['attempted']:.6f} "
          f"({tally['failed']}/{tally['attempted']} frames)")
    outcomes = {k: tally[k] for k in ("ok", "corrected", "uncorrectable", "miscorrected")
                if k in tally}
    if outcomes:
        print("codeword outcomes: " + " ".join(f"{k}={v}" for k, v in outcomes.items()))

    if args.trace == 0:
        metrics = {
            "throughput_fps": {"value": e2e["throughput_fps"], "unit": "frames/s"},
            "frame_p50_us": {"value": e2e["frame_p50_us"], "unit": "us"},
            "setup_s": {"value": statistics.median(t * scale for t, scale, _ in setup),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if wl.name == "frame_latency":
            print(f"metric frame_rt_p50_us={e2e['frame_p50_us']:.1f} us (scaled; unscaled "
                  f"{raw['frame_p50_us']:.1f})")
            print(f"metric frame_rt_p99_us={e2e['frame_p99_us']:.1f} us (scaled; unscaled "
                  f"{raw['frame_p99_us']:.1f}; {e2e['samples']} samples)")
    else:
        metrics = tracer.metrics()
        print(f"trace: spans={len(tracer.spans)} untraced_frame_us={base_us:.1f} "
              f"overhead_us_per_frame={overhead_us:.1f} "
              f"overhead_pct={100 * overhead_us / base_us:.1f}")
        if missing:
            print("trace: not found in this version: " + " ".join(missing))
        broken = zero_call_violations(wl.must_not_call, tracer.layer_stats())
        if broken:
            correct = False
            print("CHECK FAILED: predicted zero calls, but called: " + " ".join(broken))
    print(f"summary: {'OK' if correct else 'FAILED'}")

    result = {"correct": bool(correct), "attempted": int(tally["attempted"]),
              "failed": int(tally["failed"]), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
