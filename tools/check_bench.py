#!/usr/bin/env python3
"""Perf/robustness gate over the benchmark JSON reports.

Auto-detects the report flavour:
 - bench_kernels output (key "split_conv_summary"): fails when the
   fused split-conv numbers regress past the thresholds below, or
   when the AVX2 GEMM tile is not clearly faster than the scalar one;
 - bench_serving output (key "scenarios"): fails when the request
   accounting leaks, percentiles are malformed, the chaos scenario
   exercised none of the fault machinery, or the degradation
   ablation does not serve strictly more concurrent tenants with
   the Split-CNN ladder enabled than disabled.

Also prints a side-by-side diff against the committed baseline JSON
so a regression is diagnosable from the CI log alone.

Usage:
    check_bench.py <fresh.json> [<baseline.json>]

Thread-scaling checks are skipped when the reporting machine has
fewer than 4 hardware threads (the speedup is then physically
unmeasurable); the overhead-ratio checks always run. Serving checks
deliberately avoid gating on throughput or completion ratios — those
depend on the CI machine — and gate only on machine-independent
invariants.
"""
import json
import sys

# ---------------------------------------------------------------------------
# Thresholds — the single place to tune the gate.
#
# split_overhead_ratio = fused split ms / unsplit ms at 1 thread.
# The v2 band execution runs the GEMM at the unsplit shape and skips
# the pad2d copy, so split conv is near-free at every depth (measured
# 0.85x at 2x2 and 0.94x at 4x4 on the reference container); both
# depths share the same tight bound.
SPLIT_OVERHEAD_MAX = {
    "2x2": 1.15,
    "4x4": 1.15,
}
# Patch-parallel scaling: 4 threads over a 2x2 split must reach at
# least this speedup over 1 thread (checked only when the machine has
# >= 4 hardware threads).
SPEEDUP_4T_MIN = {
    "2x2": 2.5,
    "4x4": 2.5,
}
# Fused split pooling writes the strided parent output directly (no
# per-patch tensors, no concat); split and unsplit pooling run the
# same patch kernel and both record the argmax, so the split pool must
# never lose to the unsplit one (measured ~1.0x).
SPLIT_POOL_OVERHEAD_MAX = {
    "2x2": 1.1,
    "4x4": 1.1,
}
# Band-fused split backward (dgrad + wgrad + bias) vs the unsplit
# conv2dBackward at 1 thread. Both sides run the same band-pipelined
# GEMM engine and pack their W^T panels once per call, so the
# ratio isolates the per-patch staging and halo-scatter bookkeeping
# (measured ~1.0x at both depths on the reference container).
SPLIT_BACKWARD_OVERHEAD_MAX = {
    "2x2": 1.15,
    "4x4": 1.15,
}
# microkernel_gflops = 256^3 NN gemmBlocked GF/s under each
# microkernel. The AVX2 6x16 tile keeps its 12 accumulators in ymm
# registers; when they spill to the stack every FMA turns into a load,
# an FMA and a store and the tile runs at ~1.4x the scalar 4x8 kernel
# (measured 1.36-1.43). Register-resident it runs at 2.7-3.5x. Checked
# only when the report has an avx2 figure.
AVX2_OVER_SCALAR_MIN = 2.0
# ---------------------------------------------------------------------------


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_serving(fresh, baseline):
    """Gate the bench_serving report on machine-independent invariants."""
    rc = 0
    scenarios = fresh.get("scenarios", {})
    if not scenarios:
        return fail("no scenarios in serving report")

    if baseline is not None:
        print("\nsummary (fresh vs committed baseline):")
        base = baseline.get("scenarios", {})
        for name, s in scenarios.items():
            b = base.get(name, {})
            print(f"  {name}: completed {s['completed']} "
                  f"(baseline {b.get('completed', '?')}), "
                  f"p99 {s['p99']:.4f} (baseline {b.get('p99', '?')}), "
                  f"shed {s['shed']} (baseline {b.get('shed', '?')})")

    for name, s in scenarios.items():
        # Conservation identity: every submitted request reached
        # exactly one terminal outcome. This must hold on any machine.
        leak = s["accounting_leak"]
        terminal = (s["completed"] + s["shed"] +
                    s["deadline_exceeded"] + s["failed"])
        if leak != 0 or terminal != s["submitted"]:
            rc |= fail(f"{name}: accounting leak {leak} "
                       f"(submitted {s['submitted']}, terminal {terminal})")
        else:
            print(f"ok: {name} accounting exact "
                  f"({s['submitted']} requests)")
        if s["completed"] > 0:
            if not (0 <= s["p50"] <= s["p99"] <= s["p999"]):
                rc |= fail(f"{name}: malformed percentiles "
                           f"p50 {s['p50']} p99 {s['p99']} "
                           f"p999 {s['p999']}")
            if s["goodput"] <= 0:
                rc |= fail(f"{name}: completed requests but "
                           f"goodput {s['goodput']}")

    chaos = next((s for n, s in scenarios.items() if "chaos" in n),
                 None)
    if chaos is None:
        rc |= fail("no chaos scenario in serving report")
    elif (chaos["retries"] + chaos["watchdog_kills"] +
          chaos["failed"]) == 0:
        rc |= fail("chaos scenario exercised no fault machinery "
                   "(no retries, watchdog kills, or failures)")
    else:
        print(f"ok: chaos exercised faults (retries "
              f"{chaos['retries']}, watchdog kills "
              f"{chaos['watchdog_kills']}, failed {chaos['failed']})")

    abl = fresh.get("degradation_ablation")
    if abl is None:
        return rc | fail("no degradation_ablation in serving report")
    on, off = abl["enabled"], abl["disabled"]
    for side, s in (("enabled", on), ("disabled", off)):
        if s["accounting_leak"] != 0:
            rc |= fail(f"ablation {side}: accounting leak "
                       f"{s['accounting_leak']}")
    # The Split-CNN serving-capacity lever: under memory pressure the
    # ladder must buy strictly more concurrent tenant reservations.
    if on["peak_concurrent"] <= off["peak_concurrent"]:
        rc |= fail(f"degradation enabled peak_concurrent "
                   f"{on['peak_concurrent']} <= disabled "
                   f"{off['peak_concurrent']}")
    else:
        print(f"ok: degradation peak_concurrent "
              f"{on['peak_concurrent']} > {off['peak_concurrent']} "
              f"(degraded batches: {on['degraded_plans']})")
    if on["degraded_plans"] == 0:
        rc |= fail("ablation served no degraded plans with the "
                   "ladder enabled")
    return rc


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    fresh = json.load(open(sys.argv[1]))
    baseline = None
    if len(sys.argv) > 2:
        try:
            baseline = json.load(open(sys.argv[2]))
        except OSError:
            print(f"note: no baseline at {sys.argv[2]}")

    hw = int(fresh.get("hardware_threads", 0))
    if "scenarios" in fresh:
        print(f"serving report: {hw} hardware threads, time scale "
              f"{fresh.get('time_scale', '?')}")
        return check_serving(fresh, baseline)
    print(f"machine: {hw} hardware threads, "
          f"simd kernel {fresh.get('simd_kernel', '?')}")

    if baseline is not None:
        print("\nsummary (fresh vs committed baseline):")
        base = baseline.get("split_conv_summary", {})
        for depth, s in fresh.get("split_conv_summary", {}).items():
            b = base.get(depth, {})
            print(f"  {depth}: overhead_1t "
                  f"{s['split_overhead_ratio_1t']:.3f} "
                  f"(baseline {b.get('split_overhead_ratio_1t', '?')}), "
                  f"speedup_4t {s['speedup_4t']:.2f} "
                  f"(baseline {b.get('speedup_4t', '?')})")
        base_pool = baseline.get("split_pool_summary", {})
        for depth, s in fresh.get("split_pool_summary", {}).items():
            b = base_pool.get(depth, {})
            print(f"  pool {depth}: overhead_1t "
                  f"{s['split_pool_overhead_ratio_1t']:.3f} "
                  f"(baseline "
                  f"{b.get('split_pool_overhead_ratio_1t', '?')})")
        base_bwd = baseline.get("split_backward_summary", {})
        for depth, s in fresh.get("split_backward_summary",
                                  {}).items():
            b = base_bwd.get(depth, {})
            print(f"  backward {depth}: overhead_1t "
                  f"{s['split_backward_overhead_ratio_1t']:.3f} "
                  f"(baseline "
                  f"{b.get('split_backward_overhead_ratio_1t', '?')})")
        base_small = {r["workload"]: r
                      for r in baseline.get("small_spatial_conv", [])}
        for r in fresh.get("small_spatial_conv", []):
            b = base_small.get(r["workload"], {})
            print(f"  small conv {r['workload']}: {r['gflops']:.2f} "
                  f"GFLOP/s (baseline {b.get('gflops', '?')}; "
                  f"reported, not gated)")
        fu = fresh.get("microkernel_gflops")
        bu = baseline.get("microkernel_gflops", {})
        if fu:
            print(f"  gemm 256 NN: scalar {fu['scalar']:.2f} GF/s "
                  f"(baseline {bu.get('scalar', '?')}), avx2 "
                  f"{fu.get('avx2')} GF/s "
                  f"(baseline {bu.get('avx2', '?')})")
        fi = fresh.get("im2col_strided")
        bi = baseline.get("im2col_strided", {})
        if fi:
            print(f"  im2col fill stride1 "
                  f"{fi['stride1_fill_gbps']:.2f} GB/s "
                  f"(baseline {bi.get('stride1_fill_gbps', '?')}), "
                  f"stride2 {fi['stride2_fill_gbps']:.2f} GB/s "
                  f"(baseline {bi.get('stride2_fill_gbps', '?')})")

    rc = 0
    summary = fresh.get("split_conv_summary")
    if not summary:
        return fail("no split_conv_summary in report")
    for depth, max_ratio in SPLIT_OVERHEAD_MAX.items():
        if depth not in summary:
            rc |= fail(f"no {depth} split measurement in report")
            continue
        ratio = summary[depth]["split_overhead_ratio_1t"]
        if ratio > max_ratio:
            rc |= fail(f"{depth} split_overhead_ratio_1t {ratio:.3f} "
                       f"> {max_ratio}")
        else:
            print(f"ok: {depth} split_overhead_ratio_1t "
                  f"{ratio:.3f} <= {max_ratio}")

    if hw >= 4:
        for depth, min_speedup in SPEEDUP_4T_MIN.items():
            if depth not in summary:
                continue
            speedup = summary[depth]["speedup_4t"]
            if speedup < min_speedup:
                rc |= fail(f"{depth} speedup_4t {speedup:.2f} "
                           f"< {min_speedup}")
            else:
                print(f"ok: {depth} speedup_4t {speedup:.2f} "
                      f">= {min_speedup}")
    else:
        print(f"skip: thread-scaling checks need >= 4 hardware "
              f"threads, machine has {hw}")

    pool = fresh.get("split_pool_summary")
    if not pool:
        rc |= fail("no split_pool_summary in report")
    else:
        for depth, max_ratio in SPLIT_POOL_OVERHEAD_MAX.items():
            if depth not in pool:
                rc |= fail(f"no {depth} split-pool measurement "
                           f"in report")
                continue
            ratio = pool[depth]["split_pool_overhead_ratio_1t"]
            if ratio > max_ratio:
                rc |= fail(f"{depth} split_pool_overhead_ratio_1t "
                           f"{ratio:.3f} > {max_ratio}")
            else:
                print(f"ok: {depth} split_pool_overhead_ratio_1t "
                      f"{ratio:.3f} <= {max_ratio}")

    bwd = fresh.get("split_backward_summary")
    if not bwd:
        rc |= fail("no split_backward_summary in report")
    else:
        for depth, max_ratio in SPLIT_BACKWARD_OVERHEAD_MAX.items():
            if depth not in bwd:
                rc |= fail(f"no {depth} split-backward measurement "
                           f"in report")
                continue
            ratio = bwd[depth]["split_backward_overhead_ratio_1t"]
            if ratio > max_ratio:
                rc |= fail(f"{depth} split_backward_overhead_ratio_1t "
                           f"{ratio:.3f} > {max_ratio}")
            else:
                print(f"ok: {depth} split_backward_overhead_ratio_1t "
                      f"{ratio:.3f} <= {max_ratio}")

    uk = fresh.get("microkernel_gflops")
    if not uk:
        rc |= fail("no microkernel_gflops in report")
    elif uk.get("avx2") is None:
        print(f"skip: no avx2 microkernel on this machine (scalar "
              f"{uk['scalar']:.2f} GF/s)")
    else:
        ratio = uk["avx2"] / uk["scalar"]
        if ratio < AVX2_OVER_SCALAR_MIN:
            rc |= fail(f"avx2/scalar GEMM {ratio:.2f} "
                       f"({uk['avx2']:.2f} / {uk['scalar']:.2f} GF/s) "
                       f"< {AVX2_OVER_SCALAR_MIN}: the AVX2 tile's "
                       f"accumulators likely spill")
        else:
            print(f"ok: avx2/scalar GEMM {ratio:.2f} "
                  f"({uk['avx2']:.2f} / {uk['scalar']:.2f} GF/s) "
                  f">= {AVX2_OVER_SCALAR_MIN}")

    # Fill rates are machine-dependent, so only presence is gated; the
    # baseline diff above is the reviewable measurement.
    if "im2col_strided" not in fresh:
        rc |= fail("no im2col_strided measurement in report")
    else:
        i2c = fresh["im2col_strided"]
        print(f"ok: im2col fill rates measured (stride1 "
              f"{i2c['stride1_fill_gbps']:.2f} GB/s, stride2 "
              f"{i2c['stride2_fill_gbps']:.2f} GB/s)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
