#!/usr/bin/env python3
"""Check that the benchmark resolves a 20% slowdown injected into one layer.

Copies the repository twice into a scratch directory and, in the second
copy only, makes the stencil kernel layer 20% slower: every explicit-SIMD
Jacobi step (`jacobi_step_vns`) busy-waits a quarter of its own duration
on the calling thread, so sweeps run at 1/1.25 = 0.8 of their rate. It
then runs `jacobi2d`, which exercises the kernel, and `uts`, which
bypasses it, on both copies with the same seeds, alternating which copy
runs first, and prints each workload's end-to-end medians.

The check passes when the slowdown is resolved on `jacobi2d` (the slowed
copy is slower in at least nine tenths of the seed pairs, and its median
`units_per_s` is lower by more than the quartile spread of the
unmodified copy's runs) and not flagged on `uts` (its median moves by
less than the metric's bound in BENCHMARK.json).

    python3 perfbench/slowdown_check.py SCRATCH_DIR [--seeds 1,2,3,4,5] [--seconds N]

The repository it is run from is only read, never modified.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNEL = os.path.join("crates", "stencil", "src", "jacobi2d.rs")
STEP_START = """    assert_eq!((cur.nx(), cur.ny()), (next.nx(), next.ny()));
    let boundary = cur.boundary();
"""
STEP_END = """        out_row.refresh_halo(boundary, boundary);
    });
}
"""
SPIN = """    let spent = slow_t0.elapsed();
    while slow_t0.elapsed() < spent.mul_f64(1.25) {
        std::hint::spin_loop();
    }
"""


def copy_repo(dest):
    ignore = shutil.ignore_patterns(".git", "target", ".bench_build", ".bench_out")
    shutil.copytree(REPO, dest, ignore=ignore)


def inject_slowdown(root):
    path = os.path.join(root, KERNEL)
    src = open(path).read()
    if src.count(STEP_START) != 1 or src.count(STEP_END) != 1:
        sys.exit(f"slowdown_check: {KERNEL} no longer has the expected jacobi_step_vns shape")
    src = src.replace(STEP_START, "    let slow_t0 = std::time::Instant::now();\n" + STEP_START)
    src = src.replace(STEP_END, STEP_END[: -len("}\n")] + SPIN + "}\n")
    open(path, "w").write(src)


def build(root):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--quiet", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
    subprocess.run(cmd, cwd=root, env=env, check=True)
    return os.path.join(root, ".bench_build", "release", "perfbench")


def run(root, binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"slowdown_check: {workload} seed {seed} in {root} reported failed ops")
    return result["metrics"]["units_per_s"]["value"]


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("scratch", help="empty or absent directory for the two copies")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=None, help="run length (default: run_seconds)")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(REPO, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "units_per_s")
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 4:
        sys.exit("slowdown_check: need at least 4 seeds for quartiles")

    base, slow = os.path.join(args.scratch, "base"), os.path.join(args.scratch, "slow")
    for d in (base, slow):
        if os.path.exists(d):
            sys.exit(f"slowdown_check: {d} exists; give an empty scratch directory")
    copy_repo(base)
    copy_repo(slow)
    inject_slowdown(slow)
    binaries = {base: build(base), slow: build(slow)}

    ok = True
    for workload, exercised in (("jacobi2d", True), ("uts", False)):
        values = {base: [], slow: []}
        for i, seed in enumerate(seeds):
            order = (base, slow) if i % 2 == 0 else (slow, base)
            for root in order:
                values[root].append(run(root, binaries[root], workload, seed, seconds))
        mb, ms = statistics.median(values[base]), statistics.median(values[slow])
        change = ms / mb - 1.0
        noise = spread(values[base])
        slower = sum(s < b for b, s in zip(values[base], values[slow]))
        if exercised:
            verdict = slower >= 0.9 * len(seeds) and change < -noise
            claim = f"resolved: {change:+.1%}, slower in {slower}/{len(seeds)} pairs, spread {noise:.1%}"
        else:
            verdict = abs(change) < bound
            claim = f"not flagged: {change:+.1%} within bound {bound:.0%} (spread {noise:.1%})"
        ok &= verdict
        print(f"{workload:9s} base {['%.4g' % v for v in values[base]]}")
        print(f"{workload:9s} slow {['%.4g' % v for v in values[slow]]}")
        print(f"{workload:9s} base median {mb:.4g}  slowed median {ms:.4g}  "
              f"{claim if verdict else 'FAILED ' + claim}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
