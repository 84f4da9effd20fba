#!/usr/bin/env python3
"""Build and run the Split-CNN end-to-end benchmark.

One workload, from the repository root:

    python3 perfbench/run.py --workload vgg19_split4x4 --seed 1 \
        --seconds 30 --trace 0

prints the workload's metrics and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 1 gives
the per-layer metrics instead and writes a Chrome trace under the
build directory. Every workload, each in its own process:

    python3 perfbench/run.py --all --seed 1 --seconds 30 [--trace 1]

The benchmark binary is built from ../src with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["vgg19_split4x4", "resnet18_base_4t", "resnet18_sscnn"]
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then bring the binary up to date; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources missing under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return out / "scnn_perfbench"


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, inject_nan=False):
    """Run one workload in its own process; return (human lines, result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if inject_nan:
        cmd.append("--inject-nan")
    # The library reads SCNN_* knobs (threads, SIMD, split execution)
    # from the environment; the workloads fix their own configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCNN_")}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: malformed result line")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json: "
                           f"{sorted(set(got.items()) ^ set(want.items()))}")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")

    try:
        binary = build()
        if args.workload:
            lines, result = run_workload(binary, args.workload, args.seed,
                                         args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        results = {}
        for w in WORKLOADS:
            _, results[w] = run_workload(binary, w, args.seed, args.seconds,
                                         args.trace)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    names = list(results[WORKLOADS[0]]["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " +
          "  ".join(f"{w:>18}" for w in WORKLOADS) + "  unit")
    for n in names:
        cells = "  ".join(f"{results[w]['metrics'][n]['value']:>18.4f}"
                          for w in WORKLOADS)
        print(f"{n:<{width}}  {cells}  {results[WORKLOADS[0]]['metrics'][n]['unit']}")
    print("correct: " + ", ".join(
        f"{w}={results[w]['correct']} ({results[w]['failed']}/"
        f"{results[w]['attempted']} failed)" for w in WORKLOADS))
    out = build_dir() / f"results-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
