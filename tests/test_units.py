"""Regions, planners and the mutual information do not depend on the units
the caller picks.

Scaling every power (P, sigma2_a, sigma2_cov, p_s, p_i and the energy
targets) by c, and the rectifier noise variance sigma2_rec by c^2, describes
the same link in other units: every rate and every plan stays, and every
energy scales by c.

Rates and energies are compared to 1e-12 of their scale on the link, the
largest rate it supports and q_max: rounding differs from one c to the next,
and a rate or energy near p_s = q_max, or at a target near q_max, is a
difference of nearly equal numbers, so its own size is no scale.  Boundaries
are compared as regions, by their rate at every energy of a fine grid, and
every boundary keeps its number of points at every scale.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swiptlab.capacity import cnl_lower_chi2
from swiptlab.chi2rate import cnl_rate_chi2
from swiptlab.core import LinkParams, awgn_rate
from swiptlab.modulation import solve_p1, solve_p2
from swiptlab.regions import (
    region_int_circuit,
    region_sep_circuit,
    region_sps,
    region_sps_circuit,
    region_ts,
    region_ts_circuit,
    solve_p0,
)

SCALES = (1e-12, 1e-6, 1e3, 1e9)
TOL = 1e-12
LINKS = st.builds(LinkParams, h=st.floats(0.3, 2.0), p=st.floats(20.0, 300.0),
                  zeta=st.floats(0.3, 1.0), sigma2_a=st.floats(0.05, 3.0),
                  sigma2_cov=st.floats(1.0, 20.0), sigma2_rec=st.floats(1e-2, 1e2))
FRACTIONS = st.floats(0.01, 1.5)   # of q_max, for p_s and p_i
# the integrated receiver's rate: fixed, so that the regions run no MI estimate
INT_RATE = 2.5
# boundary builders at link lp with decoder powers p_s and p_i
REGIONS = {
    "ts": lambda lp, p_s, p_i: region_ts(lp),
    "sps": lambda lp, p_s, p_i: region_sps(lp),
    "ops-circuit": lambda lp, p_s, p_i: region_sep_circuit(lp, p_s),
    "ts-circuit": lambda lp, p_s, p_i: region_ts_circuit(lp, p_s),
    "sps-circuit": lambda lp, p_s, p_i: region_sps_circuit(lp, p_s),
    "int-circuit": lambda lp, p_s, p_i: region_int_circuit(lp, p_i, INT_RATE),
}


def scaled(lp: LinkParams, c: float) -> LinkParams:
    return dataclasses.replace(lp, p=lp.p * c, sigma2_a=lp.sigma2_a * c,
                               sigma2_cov=lp.sigma2_cov * c,
                               sigma2_rec=lp.sigma2_rec * c * c)


def assert_same_rates(got, want, lp: LinkParams):
    assert np.max(np.abs(got - want)) <= TOL * max(awgn_rate(lp), INT_RATE)


def assert_same_region(got, want, c: float, lp: LinkParams):
    """got, at powers scaled by c, bounds the region of want: the same rate at
    every energy, and the same largest energy divided by c."""
    energies = np.linspace(0.0, lp.q_max, 2049)
    assert_same_rates(got.rate_at(energies * c), want.rate_at(energies), lp)
    assert abs(got.energies().max() / c - want.energies().max()) <= TOL * lp.q_max


@pytest.mark.parametrize("c", SCALES)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(LINKS, FRACTIONS, FRACTIONS)
# p_s = q_max: sps-circuit once gave one point at some c and 512 at others
@example(LinkParams(h=1.25, p=63.84375, sigma2_a=1.0, sigma2_cov=1.0), 1.0, 1.0)
def test_regions(c, lp, ps_frac, pi_frac):
    p_s, p_i = ps_frac * lp.q_max, pi_frac * lp.q_max
    lp_c = scaled(lp, c)
    for name, build in REGIONS.items():
        want = build(lp, p_s, p_i)
        got = build(lp_c, p_s * c, p_i * c)
        assert got.scheme == want.scheme == name
        assert got.points.shape == want.points.shape
        assert_same_region(got, want, c, lp)


# p_i = q_max: int-circuit once sampled a chord with a vertex at some c and
# one without at c = 1e-12, and an elementwise comparison saw two boundaries
@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("pi_frac", [0.5, 1.0, 1.5])
def test_int_circuit_points(c, pi_frac):
    lp = LinkParams(h=1.25, p=63.84375, sigma2_a=1.0, sigma2_cov=1.0)
    p_i = pi_frac * lp.q_max
    want = region_int_circuit(lp, p_i, INT_RATE).points
    got = region_int_circuit(scaled(lp, c), p_i * c, INT_RATE).points
    assert got.shape == want.shape
    assert_same_rates(got[:, 0], want[:, 0], lp)
    assert np.max(np.abs(got[:, 1] / c - want[:, 1])) <= TOL * lp.q_max


# the unit point and the fig10 point: the estimate is computed in units where
# sigma_rec = 1, so the same draw and the same densities serve every c
@pytest.mark.parametrize("hp, sigma2_a, sigma2_rec", [(100.0, 1.0, 1.0), (100.0, 0.01, 100.0)])
def test_mutual_information(hp, sigma2_a, sigma2_rec):
    mc = dict(n_samples=10_000, seed=5)
    want = cnl_lower_chi2(hp, sigma2_a, sigma2_rec, **mc)
    for c in SCALES:
        got = cnl_lower_chi2(hp * c, sigma2_a * c, sigma2_rec * c * c, **mc)
        assert abs(got.value - want.value) <= TOL
        assert abs(got.std_error - want.std_error) <= TOL


# the deterministic rate at the unit point, the fig7 and fig10 points and
# criterion 9's smallest ratio: its grids and rules scale with sigma_rec
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from([(100.0, 1.0, 1.0), (100.0, 1.0, 1e4), (100.0, 0.01, 100.0),
                        (100.0, 1e-4, 1.0)]), st.floats(-8.0, 8.0))
def test_chi_square_rate(channel, log_c):
    hp, sigma2_a, sigma2_rec = channel
    c = 10.0 ** log_c
    want = cnl_rate_chi2(hp, sigma2_a, sigma2_rec).value
    assert abs(cnl_rate_chi2(hp * c, sigma2_a * c, sigma2_rec * c * c).value - want) <= 1e-12


@pytest.mark.parametrize("c", SCALES)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(LINKS, FRACTIONS)
def test_solve_p0(c, lp, ps_frac):
    p_s = ps_frac * lp.q_max
    qs = np.linspace(0.0, lp.q_max, 64)[:-1]
    want = solve_p0(lp, p_s, qs)
    got = solve_p0(scaled(lp, c), p_s * c, qs * c)
    assert_same_rates(got.rate, want.rate, lp)
    np.testing.assert_allclose(got.alpha_star, want.alpha_star, rtol=0.0, atol=TOL)
    np.testing.assert_allclose(got.rho_star, want.rho_star, rtol=0.0, atol=TOL)


@pytest.mark.parametrize("c", SCALES)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(LINKS, FRACTIONS, st.floats(0.0, 0.98), st.sampled_from([1e-2, 1e-5, 1e-9]))
# p1 once took its off fraction at rho0 from a cancellation, 0 at some c and
# 1e-16 at others, and the rate tie it broke picked another split
@example(LinkParams(h=1.4175076842090157, p=241.63997093072973, zeta=0.32810968988303,
                    sigma2_a=0.09531412553436366, sigma2_cov=17.94593804205896,
                    sigma2_rec=89.5434096982929),
         0.2731119134638529, 0.3984840269372409, 1e-5)
def test_planners(c, lp, power_frac, q_frac, ser_target):
    power, q_req = power_frac * lp.q_max, q_frac * lp.q_max
    lp_c = scaled(lp, c)
    for solver in (solve_p1, solve_p2):
        (want,) = solver([lp], power, q_req, ser_target)
        (got,) = solver([lp_c], power * c, q_req * c, ser_target)
        assert (got.family, got.m) == (want.family, want.m)
        assert got.rate == pytest.approx(want.rate, rel=TOL, abs=0.0)
        assert got.alpha == pytest.approx(want.alpha, rel=0.0, abs=TOL)
        if want.rho is None:
            assert got.rho is None
        else:
            assert got.rho == pytest.approx(want.rho, rel=0.0, abs=TOL)
