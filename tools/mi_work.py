"""Work counters of the chi-square-input rate at the benchmark channels.

Usage:
    PYTHONPATH=src python tools/mi_work.py

The first table covers the seven channels of the ``mi_points`` benchmark
workload (the last is the unit point with every power scaled by 1e-6, which
does the same work as the unit point) and the eight effective-noise channels
of the ``adc_sweep`` workload, then channels at sigma2_rec = 0 (sigma2_a = 1,
hP = 1e-3 ... 1e6), whose conditional entropies come from the closed-form
densities of W and go through the same interpolant. It runs ``cnl_rate_chi2``
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
import time

import numpy as np

import swiptlab.capacity as cap
from swiptlab.capacity import effective_proc_noise
from swiptlab.chi2rate import cnl_rate_chi2

HP = 100.0
# mi_points: criterion 9's ratios sa2/srec2 1e-4, 1e-2, 1, 1e2 at srec2 = 1,
# fig7's srec2 = 1e4 point, the fig10 point and the ratio-1 point scaled by 1e-6
MI_POINTS = ([(f"c9_ratio{r:.3g}", HP, r, 1.0) for r in np.logspace(-4, 2, 10)[::3]]
             + [("fig7_proc100", HP, 1.0, 1e4), ("fig10", HP, 0.01, 100.0),
                ("rescaled_1e-6", HP * 1e-6, 1e-6, 1e-12)])
# adc_sweep: region --scheme int-adc --points 4 on the fig8 links
ADC_SA2, ADC_SADC2, ADC_SREC2 = 1.0, 1.0, (1.0, 1e4)
ADC_RHOS = np.linspace(0.0, 1.0 - 1e-3, 4)
SAMPLED = cap.MonteCarloConfig(n_samples=10_000, seed=3)


def channels():
    pts = list(MI_POINTS)
    for srec2 in ADC_SREC2:
        for rho in ADC_RHOS:
            eff = effective_proc_noise(srec2, ADC_SADC2, float(rho))
            pts.append((f"adc_srec{srec2:g}_rho{rho:.3f}", HP, ADC_SA2, eff))
    return pts + [(f"w_law_g{g:g}", g, 1.0, 0.0) for g in np.logspace(-3, 6, 10)]


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
        cap.cnl_lower_chi2(hp, sa2, srec2, SAMPLED)
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
        cap.cnl_lower_chi2(hp, sa2, srec2, SAMPLED)
    finally:
        patched(saved)
    return evals, settled


def sampled_table():
    n = SAMPLED.n_samples
    print(f"\ncnl_lower_chi2: {n} samples, seed {SAMPLED.seed}, {cap._WORKERS} worker(s)")
    print(f"{'channel':24s} {'hP':>7s} {'sa2':>7s} {'srec2':>9s} {'cond/smp':>9s} "
          f"{'gh':>6s} {'chunks':>6s} {'pools':>5s} {'wall_s':>7s}")
    cap.cnl_lower_chi2(*MI_POINTS[0][1:], SAMPLED)  # builds the cached rules
    for name, hp, sa2, srec2 in MI_POINTS:
        wall, chunks, pools = timed_estimate(hp, sa2, srec2)
        evals, settled = counted_estimate(hp, sa2, srec2)
        print(f"{name:24s} {hp:7.3g} {sa2:7.3g} {srec2:9.4g} {evals / n:9.1f} "
              f"{settled / n:6.3f} {chunks:6d} {pools:5d} {wall:7.3f}")


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    # the library imports scipy.special at its first call; keep that out of
    # the first channel's wall time
    cap._special("i0e")
    rate_table()
    sampled_table()


if __name__ == "__main__":
    main()
