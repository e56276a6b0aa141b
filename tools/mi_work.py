"""Work counters of the mutual-information estimator at the benchmark channels.

Usage:
    PYTHONPATH=src python tools/mi_work.py [--samples N] [--seed S]

For the seven channels of the ``mi_points`` benchmark workload (the last is
the unit point with every power scaled by 1e-6, which counts the same work as
the unit point) and the eight effective-noise channels of the ``adc_sweep``
workload, runs ``cnl_lower_chi2`` twice: once as
is, to time it, and once on one worker with counting wrappers around the
quadrature's internals.  It prints per channel:

- ``cond/smp``: integrand evaluations per sample in the conditional stage,
  the Gauss-Hermite pair's included;
- ``gh``: the share of samples the Gauss-Hermite pair settles;
- ``table/smp``: integrand evaluations per sample in the marginal table;
- ``fallback``: samples whose conditional density was recomputed on the full
  window because the support window's bound missed;
- ``series``: the share of Bessel-kernel rows that took the asymptotic series;
- ``wall_s``: the uncounted estimate's wall time.

Counters do not jitter, so they show a change in work even where the wall
times are noisy.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

import swiptlab.capacity as cap

HP = 100.0
# mi_points: criterion 9's ratios sa2/srec2 1e-4, 1e-2, 1, 1e2 at srec2 = 1,
# fig7's srec2 = 1e4 point, the fig10 point and the ratio-1 point scaled by 1e-6
MI_POINTS = ([(f"c9_ratio{r:.3g}", HP, r, 1.0) for r in np.logspace(-4, 2, 10)[::3]]
             + [("fig7_proc100", HP, 1.0, 1e4), ("fig10", HP, 0.01, 100.0),
                ("rescaled_1e-6", HP * 1e-6, 1e-6, 1e-12)])
# adc_sweep: region --scheme int-adc --points 4 on the fig8 links
ADC_SA2, ADC_SADC2, ADC_SREC2 = 1.0, 1.0, (1.0, 1e4)
ADC_RHOS = np.linspace(0.0, 1.0 - 1e-3, 4)


def channels():
    pts = list(MI_POINTS)
    for srec2 in ADC_SREC2:
        for rho in ADC_RHOS:
            eff = cap.effective_proc_noise(srec2, ADC_SADC2, float(rho))
            pts.append((f"adc_srec{srec2:g}_rho{rho:.3f}", HP, ADC_SA2, eff))
    return pts


class Counters:
    """Wrap the quadrature's internals in the capacity module and count."""

    def __init__(self):
        self.evals = {"cond": 0, "table": 0}
        self.stage = "cond"
        self.fallback = 0
        self.settled = 0
        self.rows = self.series_rows = 0
        self._conv_calls = 0

    def install(self):
        # a tree without the series kernel has no _i0e_rows, and one without the
        # Gauss-Hermite pair no _hermite_sums; their shares read "-"
        originals = {name: getattr(cap, name) for name in
                     ("_panel_rule_sums", "_marginal_table", "_log_p_conv",
                      "_panelized_integrals", "_i0e_rows", "_hermite_sums")
                     if hasattr(cap, name)}

        def panel_rule_sums(integrand, n, owner, lower, widths, scratch, u, *weights):
            self.evals[self.stage] += owner.size * u.size
            return originals["_panel_rule_sums"](integrand, n, owner, lower, widths,
                                                 scratch, u, *weights)

        def marginal_table(*args, **kwargs):
            self.stage = "table"
            return originals["_marginal_table"](*args, **kwargs)

        def log_p_conv(*args, **kwargs):
            self._conv_calls = 0
            return originals["_log_p_conv"](*args, **kwargs)

        def panelized_integrals(knots, *args, **kwargs):
            # a second call within one conditional convolution is the fallback;
            # its rows with nonempty panels are the samples recomputed
            self._conv_calls += 1
            if self.stage == "cond" and self._conv_calls == 2:
                self.fallback += int(np.count_nonzero((np.diff(knots, axis=1) > 0).any(axis=1)))
            return originals["_panelized_integrals"](knots, *args, **kwargs)

        def hermite_sums(*args):
            settled, sums = originals["_hermite_sums"](*args)
            if self.stage == "cond":
                self.settled += int(np.count_nonzero(settled))
            return settled, sums

        def i0e_rows(z, *args):
            self.rows += z.shape[0]
            self.series_rows += int(np.count_nonzero(z[:, 0, 0] >= cap._I0E_SERIES_MIN))
            return originals["_i0e_rows"](z, *args)

        for name, fn in [("_panel_rule_sums", panel_rule_sums),
                         ("_marginal_table", marginal_table), ("_log_p_conv", log_p_conv),
                         ("_panelized_integrals", panelized_integrals),
                         ("_i0e_rows", i0e_rows), ("_hermite_sums", hermite_sums)]:
            if name in originals:
                setattr(cap, name, fn)
        # one worker, so that the counters see the calls of one chunk in order
        cap._WORKERS = 1
        return originals


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)
    mc = cap.MonteCarloConfig(n_samples=args.samples, seed=args.seed)
    workers = cap._WORKERS
    # the library imports scipy.special at its first call; keep that out of
    # the first channel's wall time
    cap._special("i0e")

    print(f"{'channel':24s} {'hP':>5s} {'sa2':>7s} {'srec2':>9s} {'cond/smp':>9s} "
          f"{'gh':>6s} {'table/smp':>9s} {'fallback':>8s} {'series':>7s} {'wall_s':>7s}")
    for name, hp, sa2, srec2 in channels():
        t0 = time.perf_counter()
        cap.cnl_lower_chi2(hp, sa2, srec2, mc)
        wall = time.perf_counter() - t0

        counters = Counters()
        originals = counters.install()
        try:
            cap.cnl_lower_chi2(hp, sa2, srec2, mc)
        finally:
            for attr, fn in originals.items():
                setattr(cap, attr, fn)
            cap._WORKERS = workers
        share = f"{counters.series_rows / counters.rows:7.3f}" if counters.rows else "-"
        settled = (f"{counters.settled / args.samples:6.3f}"
                   if "_hermite_sums" in originals else "-")
        print(f"{name:24s} {hp:5g} {sa2:7.3g} {srec2:9.4g} "
              f"{counters.evals['cond'] / args.samples:9.1f} {settled:>6s} "
              f"{counters.evals['table'] / args.samples:9.2f} {counters.fallback:8d} "
              f"{share:>7s} {wall:7.3f}")


if __name__ == "__main__":
    main()
