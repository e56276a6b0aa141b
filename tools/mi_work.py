"""Work counters of the chi-square-input rate at the benchmark channels.

Usage:
    PYTHONPATH=src python tools/mi_work.py

The first table covers the seven channels of the ``mi_points`` benchmark
workload (the last is the unit point with every power scaled by 1e-6, which
does the same work as the unit point) and the eight effective-noise channels
of the ``adc_sweep`` workload, both read from ``perfbench/workloads.py``,
then channels at sigma2_rec = 0 (sigma2_a = 1, hP = 1e-3 ... 1e10, the end
of that branch's certified range), whose conditional entropies come from the
closed-form densities of W and go through the same interpolant. It runs ``cnl_rate_chi2``
once to warm its caches and once timed, and prints per channel:

- ``conds``: conditional densities computed, at the interpolation panels'
  nodes and checks;
- ``panels``: interpolation panels evaluated, bisected ones included;
- ``cond_pts``: grid points of all conditional densities together;
- ``marg_pts``: grid points of the marginal density;
- ``ffts``: inverse FFT calls, each over a batch of equal-length grids;
- ``cut_evals``: evaluations of the CF bound in the search for the
  conditional cutoffs (these four read 0 at sigma2_rec = 0, where no grid is
  built);
- ``rate`` and ``bound``: the rate and its error bound, in bits;
- ``wall_s``: the timed call's wall time.

The second table covers the sampled estimate ``cnl_lower_chi2`` at the seven
``mi_points`` channels, 10k samples and seed 3. It runs each estimate twice:
once on every CPU the process may use, timed, counting its conditional chunks
and thread pools; and once on one thread with counting wrappers around the
quadrature's internals. It prints per channel:

- ``cond/smp``: integrand evaluations per sample in the conditional stage,
  the Gauss-Hermite pair's included;
- ``gh``: the share of samples the Gauss-Hermite pair settles;
- ``chunks``: the conditional stage's chunks (calls of ``_log_p_cond``);
- ``pools``: thread pools built by the estimate (0 on one CPU);
- ``wall_s``: the timed estimate's wall time.

Counters do not jitter, so they show a change in work even where the wall
times are noisy.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import sys
import time
from pathlib import Path

import numpy as np

import swiptlab.capacity as cap
from swiptlab.chi2rate import cnl_rate_chi2

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402

# mi_points: the benchmark's channels, then its unit point scaled by 1e-6
MI_POINTS = wl.MI_POINTS + [wl.RESCALED_POINT]
# the sampled estimates' sample count and seed
N_SAMPLES, SEED = 10_000, 3


def channels():
    pts = list(MI_POINTS)
    hp = wl.ADC_LINK["h"] * wl.ADC_LINK["p"]
    for srec2 in wl.ADC_SREC2:
        for rho in wl.adc_rhos():
            pts.append((f"adc_srec{srec2:g}_rho{rho:.3f}", hp, wl.ADC_LINK["sa2"],
                        wl.adc_sigma2_eff(srec2, rho)))
    return pts + [(f"w_law_g{g:g}", g, 1.0, 0.0) for g in np.logspace(-3, 10, 14)]


def rate_table():
    print(f"{'channel':24s} {'hP':>7s} {'sa2':>7s} {'srec2':>9s} "
          f"{'conds':>5s} {'panels':>6s} {'cond_pts':>9s} {'marg_pts':>8s} {'ffts':>5s} "
          f"{'cut_evals':>9s} {'rate':>15s} {'bound':>8s} {'wall_s':>7s}")
    for name, hp, sa2, srec2 in channels():
        cnl_rate_chi2(hp, sa2, srec2)
        work = {}
        t0 = time.perf_counter()
        rate = cnl_rate_chi2(hp, sa2, srec2, work)
        wall = time.perf_counter() - t0
        print(f"{name:24s} {hp:7.3g} {sa2:7.3g} {srec2:9.4g} "
              f"{work['conditionals']:5d} {work['panels']:6d} {work['conditional_points']:9d} "
              f"{work['marginal_points']:8d} {work['transforms']:5d} {work['cutoff_evals']:9d} "
              f"{rate.value:15.12f} {rate.error_bound:8.1e} {wall:7.3f}")


def patched(pairs):
    """Bind each (owner, name, fn) and return the (owner, name, original) list
    that restores them."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in pairs]
    for owner, name, fn in pairs:
        setattr(owner, name, fn)
    return saved


def timed_estimate(hp, sa2, srec2):
    """Wall time, conditional chunks and thread pools of one estimate."""
    chunks, pools = [], []
    log_p_cond, executor = cap._log_p_cond, concurrent.futures.ThreadPoolExecutor

    def counting_cond(*args):
        chunks.append(None)
        return log_p_cond(*args)

    class CountingExecutor(executor):
        def __init__(self, *args, **kwargs):
            pools.append(None)
            super().__init__(*args, **kwargs)

    saved = patched([(cap, "_log_p_cond", counting_cond),
                     (concurrent.futures, "ThreadPoolExecutor", CountingExecutor)])
    try:
        t0 = time.perf_counter()
        cap.cnl_lower_chi2(hp, sa2, srec2, n_samples=N_SAMPLES, seed=SEED)
        wall = time.perf_counter() - t0
    finally:
        patched(saved)
    return wall, len(chunks), len(pools)


def counted_estimate(hp, sa2, srec2):
    """Conditional integrand evaluations and Gauss-Hermite settled samples of
    one estimate on one thread, so that the counters see the chunks in order."""
    evals = settled = 0
    in_table = False
    rule_sums, table, hermite = cap._panel_rule_sums, cap._marginal_table, cap._hermite_sums

    def counting_sums(integrand, n, owner, lower, widths, scratch, u, *weights):
        nonlocal evals
        if not in_table:
            evals += owner.size * u.size
        return rule_sums(integrand, n, owner, lower, widths, scratch, u, *weights)

    def marginal_table(*args):
        nonlocal in_table
        in_table = True
        return table(*args)

    def counting_hermite(*args):
        nonlocal settled
        done, sums = hermite(*args)
        if not in_table:
            settled += int(np.count_nonzero(done))
        return done, sums

    saved = patched([(cap, "_panel_rule_sums", counting_sums),
                     (cap, "_marginal_table", marginal_table),
                     (cap, "_hermite_sums", counting_hermite), (cap, "_WORKERS", 1)])
    try:
        cap.cnl_lower_chi2(hp, sa2, srec2, n_samples=N_SAMPLES, seed=SEED)
    finally:
        patched(saved)
    return evals, settled


def sampled_table():
    print(f"\ncnl_lower_chi2: {N_SAMPLES} samples, seed {SEED}, {cap._WORKERS} worker(s)")
    print(f"{'channel':24s} {'hP':>7s} {'sa2':>7s} {'srec2':>9s} {'cond/smp':>9s} "
          f"{'gh':>6s} {'chunks':>6s} {'pools':>5s} {'wall_s':>7s}")
    # builds the cached rules
    cap.cnl_lower_chi2(*MI_POINTS[0][1:], n_samples=N_SAMPLES, seed=SEED)
    for name, hp, sa2, srec2 in MI_POINTS:
        wall, chunks, pools = timed_estimate(hp, sa2, srec2)
        evals, settled = counted_estimate(hp, sa2, srec2)
        print(f"{name:24s} {hp:7.3g} {sa2:7.3g} {srec2:9.4g} {evals / N_SAMPLES:9.1f} "
              f"{settled / N_SAMPLES:6.3f} {chunks:6d} {pools:5d} {wall:7.3f}")


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    # the library imports scipy.special at its first call; keep that out of
    # the first channel's wall time
    cap._special("i0e")
    rate_table()
    sampled_table()


if __name__ == "__main__":
    main()
