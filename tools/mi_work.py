"""Work counters of the deterministic chi-square-input rate at the benchmark channels.

Usage:
    PYTHONPATH=src python tools/mi_work.py

For the seven channels of the ``mi_points`` benchmark workload (the last is
the unit point with every power scaled by 1e-6, which does the same work as
the unit point) and the eight effective-noise channels of the ``adc_sweep``
workload, runs ``cnl_rate_chi2`` once to warm its cached input rule and once
timed, and prints per channel:

- ``nodes``: input nodes, one conditional density each;
- ``cond_pts``: grid points of all conditional densities together;
- ``marg_pts``: grid points of the marginal density;
- ``ffts``: inverse FFT calls, each over a batch of equal grids;
- ``rate`` and ``bound``: the rate and its error bound, in bits;
- ``wall_s``: the timed call's wall time.

Counters do not jitter, so they show a change in work even where the wall
times are noisy.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

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


def channels():
    pts = list(MI_POINTS)
    for srec2 in ADC_SREC2:
        for rho in ADC_RHOS:
            eff = effective_proc_noise(srec2, ADC_SADC2, float(rho))
            pts.append((f"adc_srec{srec2:g}_rho{rho:.3f}", HP, ADC_SA2, eff))
    return pts


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    print(f"{'channel':24s} {'hP':>7s} {'sa2':>7s} {'srec2':>9s} {'nodes':>5s} "
          f"{'cond_pts':>9s} {'marg_pts':>8s} {'ffts':>5s} {'rate':>15s} {'bound':>8s} "
          f"{'wall_s':>7s}")
    for name, hp, sa2, srec2 in channels():
        cnl_rate_chi2(hp, sa2, srec2)
        work = {}
        t0 = time.perf_counter()
        rate = cnl_rate_chi2(hp, sa2, srec2, work)
        wall = time.perf_counter() - t0
        print(f"{name:24s} {hp:7.3g} {sa2:7.3g} {srec2:9.4g} {work['input_nodes']:5d} "
              f"{work['conditional_points']:9d} {work['marginal_points']:8d} "
              f"{work['transforms']:5d} {rate.value:15.12f} {rate.error_bound:8.1e} "
              f"{wall:7.3f}")


if __name__ == "__main__":
    main()
