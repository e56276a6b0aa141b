"""The chi-square-input rate of the rectified channel, deterministic and
with a bound on its error, from the closed-form characteristic functions
(CFs) of its output.

The callers import this module at their first rate, so that the CLI's
start-up does not compile it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .capacity import (
    _kronrod_nodes,
    _log_density_w_cond,
    _log_density_w_marg,
    _marginal_w_variances,
)
from .core import LOG2E
from .errors import InvalidParams, QuadratureFailure, ZeroNoise, check_real


@dataclass(frozen=True)
class RateBound:
    """A deterministic rate [bits/channel use] and a bound on its error [bits]."""

    value: float
    error_bound: float


# each conditional density's grid resolves its characteristic function (CF)
# down to this modulus, at a cutoff rounded up to a power of 2^(1/4) so that
# rows share frequency grids; the marginal's step in units where sigma_rec = 1
_CF_FLOOR = 1e-18
_CUTOFF_ROUNDING = 4
_MARG_STEP = 0.25
# the largest transform, the points of all conditional grids together, and
# the points per batch of equal conditional grids
_MAX_GRID = 2 ** 20
_MAX_CONDITIONAL_POINTS = 2 ** 25
_BATCH_POINTS = 2 ** 18
# the grid lengths, ascending from 8 up to _MAX_GRID: the conditionals' powers
# of two (one transform per length, so few distinct lengths), and the
# marginal's even 2^i 3^j 5^k (its one transform runs fast on any of them)
_POW2_LENGTHS = 2 ** np.arange(3, 21)
_SMOOTH_LENGTHS = np.array(sorted(n for n in (2 ** i * 3 ** j * 5 ** k for i in range(1, 21)
                                                for j in range(13) for k in range(9))
                                   if 8 <= n <= _MAX_GRID))
# mass outside a window: the Rice law beyond nu -/+ 7 sigma_a, a Gaussian
# beyond -/+ 12 stds, and the marginal power beyond 40 (at sigma2_rec = 0, 45)
# of its tail scales
_RICE_TAIL = math.exp(-49.0)
_GAUSS_TAIL = math.erfc(12.0 / math.sqrt(2.0))
_MARG_TAIL = math.exp(-40.0)
_MARG_TAIL_W = math.exp(-45.0)
# E_X runs in s = sqrt(x) up to _S_MAX
_S_MAX = 9.0
# every density must integrate to 1 within this on its grid or rule
_MASS_TOL = 1e-12
# at sigma2_rec = 0, the end of the certified range of hP / sigma2_a
_MAX_SNR_W = 1e10
# h(Y | X = x) is interpolated in s = sqrt(x) on panels that start from these
# edges.  Each panel holds the 24 Chebyshev-Lobatto points (ascending) with
# their barycentric weights and is checked at the 4 angle midpoints nearest its
# ends; a panel whose interpolant misses a check by more than _PANEL_TOL [nats]
# is bisected
_PANEL_EDGES = (0.0, 0.1, 0.3, 1.0, 3.0, _S_MAX)
_PANEL_NODES = -np.cos(np.pi * np.arange(24) / 23)
_PANEL_WEIGHTS = np.where(np.arange(24) % 2, -1.0, 1.0) * np.r_[0.5, np.ones(22), 0.5]
_PANEL_CHECKS = -np.cos(np.pi * (np.array([0, 1, 21, 22]) + 0.5) / 23)
_PANEL_TOL = 1e-11
_MAX_PANELS = 64


def _input_tail_error(variance0, variance1):
    """Error [nats] of E_X[h(. | X)] from the input mass beyond _S_MAX, where
    0 < h <= the entropy of a Gaussian of the conditional variance
    variance0 + variance1 s^2, which is concave in s^2 (Jensen's inequality)."""
    q = math.erfc(_S_MAX / math.sqrt(2.0))
    s2_tail = 1.0 + _S_MAX * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * _S_MAX ** 2) / q
    return 0.5 * q * math.log(2.0 * math.pi * math.e * (variance0 + variance1 * s2_tail))


def _plogp_error(delta, length):
    """Bound on the entropy error [nats] over a grid of the given length of
    a density (at most 1/2) known to delta on average: with f(p) = -p ln p,
    |f(p) - f(q)| <= f(|p - q|) for |p - q| <= 1/2 (Cover & Thomas, Lemma
    17.3.3), and f is concave, so the sum is at most length f(delta)."""
    delta = np.minimum(delta, 0.5)
    return -length * delta * np.log(np.maximum(delta, 5e-324))


def _tail_entropy(mass, variance):
    """Bound on the share -int p ln p [nats] of the mass outside a window: the
    outside law has variance at most variance / mass, and no law of that
    variance has more entropy than the Gaussian."""
    return mass * (0.5 * np.log(2.0 * math.pi * math.e * variance / mass) - math.log(mass))


def _window_error(mass, length, variance):
    """Entropy error [nats] from the mass outside a density's window: that
    mass folded onto the periodic grid, and its own share of the entropy."""
    return _plogp_error(mass / length, length) + _tail_entropy(mass, variance)


def _truncation_error(floor, cutoff, length):
    """Entropy error [nats] on a grid of the given length from truncating,
    at the cutoff, a CF bounded by floor e^(-(omega^2 - cutoff^2)/2) above
    it: every density value is then off by at most
    floor min(1/cutoff, sqrt(pi/2)) / pi."""
    return _plogp_error(floor * np.minimum(1.0 / cutoff, math.sqrt(0.5 * math.pi)) / math.pi,
                        length)


def _marg_cf_conj(omega, hp, a):
    """The conjugate CF of Y under the chi-square input, sigma_rec = 1:
    exp(-omega^2/2) ((1 + i omega a)(1 + i omega (a + 2 hP)))^(-1/2).  Both
    factors have a positive real part, so their arguments sum to less than
    pi, and the principal root of the product is the product of their roots."""
    w2 = omega * omega
    prod = np.empty(omega.shape, complex)
    prod.real = 1.0 - w2 * (a * (a + 2.0 * hp))
    prod.imag = omega * (2.0 * (a + hp))
    return np.divide(np.exp(-0.5 * w2), np.sqrt(prod, out=prod), out=prod)


def _cond_cf_terms(omega, a):
    """base and slope such that exp(base + nu^2 slope) is the conjugate CF of
    Y - E[Y | X] given nu^2, phi(omega) e^(-i omega (nu^2 + a)), sigma_rec = 1:
    with t = a omega and d = 1 + t^2, log phi = -omega^2/2 - ln(d)/2
    - i (t - arctan t) - nu^2 a omega^2 (1 + i t) / d."""
    t = a * omega
    d = 1.0 + t * t
    base = -0.5 * omega * omega - 0.5 * np.log(d) + 1j * (t - np.arctan(t))
    return base, (-a * omega * omega / d) * (1.0 - 1j * t)


def _grid_entropies(coef, n, step, work):
    """Entropies [nats] of densities from their CFs, each row with its own
    step (or one step for all): each row of coef is the conjugate of a CF at
    the multiples of 2 pi / (n step) up to the Nyquist frequency pi / step,
    so one inverse real FFT gives the density at the n points j step, folded
    onto a period of n steps.  Each entropy is a Riemann sum of -p ln p over
    that period, which needs no window offset.

    Returns, per row, the entropy, an estimate of its Riemann sum's error
    (the Nyquist coefficient of p ln p on the grid, which dominates that
    error where the spectrum of p ln p decays) and the density's mass,
    negative values taken as zero."""
    step = np.broadcast_to(step, len(coef))
    p = np.fft.irfft(coef, n, axis=1)
    p *= 1.0 / step[:, None]
    np.maximum(p, 0.0, out=p)
    plogp = np.log(np.maximum(p, 5e-324))
    plogp *= p
    work["transforms"] += 1
    return (-step * plogp.sum(axis=1),
            step * np.abs(plogp[:, ::2].sum(axis=1) - plogp[:, 1::2].sum(axis=1)),
            step * p.sum(axis=1))


def _cond_cutoff(nu2, a, work):
    """For each nu^2, the least level 2^(j/_CUTOFF_ROUNDING), j an integer,
    at which L(omega) = omega^2/2 + omega^2 a nu^2/(1 + omega^2 a^2)
    + ln(1 + omega^2 a^2)/2 exceeds ln(1/_CF_FLOOR).  L increases, and is -ln
    of a bound on |phi| that decreases in omega, so |phi| <= _CF_FLOOR from
    there on.  A binary search over j on all of them at once, between ends in
    closed form: L >= omega^2/2 exceeds the target above
    sqrt(2 ln(1/_CF_FLOOR)), and L <= omega^2 (1/2 + a nu^2 + a^2/2) (as
    x/(1 + x) <= x and ln(1 + x) <= x) does not below
    sqrt(ln(1/_CF_FLOOR) / (1/2 + a nu^2 + a^2/2)).  Each step evaluates L at
    every nu^2; work["cutoff_evals"] counts those evaluations."""
    target = -math.log(_CF_FLOOR)
    # the level indices j of those ends: L exceeds the target at hi, not at lo
    hi = np.full_like(nu2, math.ceil(0.5 * _CUTOFF_ROUNDING * math.log2(2.0 * target)))
    lo = np.floor(0.5 * _CUTOFF_ROUNDING * np.log2(target / (0.5 + a * nu2 + 0.5 * a * a)))
    while np.any(hi - lo > 1.0):
        mid = np.floor(0.5 * (lo + hi))
        w2 = np.exp2(2.0 * mid / _CUTOFF_ROUNDING)
        over = 0.5 * w2 + w2 * a * nu2 / (1.0 + w2 * a * a) + 0.5 * np.log1p(w2 * a * a) > target
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
        work["cutoff_evals"] += nu2.size
    return np.exp2(hi / _CUTOFF_ROUNDING)


def _grid_size(points, what, lengths):
    """The least of the ascending lengths at or above each number of grid
    points; the largest number may not exceed _MAX_GRID."""
    worst = np.max(points)
    if not worst <= _MAX_GRID:
        raise InvalidParams(f"channel past the grid limit: the {what} needs {worst:.4g} "
                            f"grid points, more than {_MAX_GRID}")
    return lengths[np.searchsorted(lengths, points)]


def _cond_entropies(hp, a, s, work):
    """h(Y | X = s^2) [nats] at each s, in units where sigma_rec = 1, for
    a > 0.  Returns per s the entropy, its error term (the Riemann estimate,
    the CF truncation and the mass outside the window) and the density's
    mass.

    Each density's grid spans its window ((nu -/+ 7 sqrt(a))+)^2 -/+ 12 at
    the step pi / cutoff.  Before any transform, the grid points of this
    rate's conditionals so far (work["conditional_points"]) and of these may
    not exceed _MAX_CONDITIONAL_POINTS.  One transform per grid length: the
    CF terms of each of its distinct cutoffs once, gathered per row."""
    nu2 = hp * s * s
    cutoff = _cond_cutoff(nu2, a, work)
    nu, sa = np.sqrt(nu2), math.sqrt(a)
    n = _grid_size(((nu + 7.0 * sa) ** 2 - np.maximum(nu - 7.0 * sa, 0.0) ** 2 + 24.0)
                   * cutoff / math.pi, "widest conditional density", _POW2_LENGTHS)
    total = work["conditional_points"] + int(n.sum())
    if not total <= _MAX_CONDITIONAL_POINTS:
        raise InvalidParams(f"channel past the grid limit: the conditional densities need "
                            f"at least {total} grid points, more than {_MAX_CONDITIONAL_POINTS}")
    h, riemann, mass = np.empty_like(s), np.empty_like(s), np.empty_like(s)
    step = math.pi / cutoff
    for size in np.unique(n):
        rows = np.flatnonzero(n == size)
        cuts, level = np.unique(cutoff[rows], return_inverse=True)
        base, slope = _cond_cf_terms(np.arange(size // 2 + 1) * (2.0 * cuts[:, None] / size), a)
        for part in np.array_split(np.arange(rows.size),
                                   -(-rows.size // max(1, _BATCH_POINTS // size))):
            batch = rows[part]
            coef = nu2[batch, None] * slope[level[part]]
            coef += base[level[part]]
            h[batch], riemann[batch], mass[batch] = _grid_entropies(
                np.exp(coef, out=coef), size, step[batch], work)
    period = n * step
    work["conditionals"] += s.size
    work["conditional_points"] += int(n.sum())
    return (h, riemann + _truncation_error(_CF_FLOOR, cutoff, period)
            + _window_error(_RICE_TAIL + _GAUSS_TAIL, period, 1.0 + a * a + 2.0 * a * nu2),
            mass)


def _lagrange_basis(u):
    """The Lagrange basis of _PANEL_NODES at each u in [-1, 1], in barycentric
    form: rows (..., _PANEL_NODES.size)."""
    d = u[..., None] - _PANEL_NODES
    hit = d == 0.0
    q = _PANEL_WEIGHTS / np.where(hit, 1.0, d)
    return np.where(hit.any(axis=-1, keepdims=True), hit, q / q.sum(axis=-1, keepdims=True))


# (2 / pi) ln n + 1 bounds max over [-1, 1] of sum_k |l_k| for the n
# Chebyshev-Lobatto points (L. N. Trefethen, Approximation Theory and
# Approximation Practice, Thm 15.2): node values each off by at most e put
# the interpolant off by at most _LEBESGUE e
_LEBESGUE = 2.0 / math.pi * math.log(_PANEL_NODES.size) + 1.0


# the Gauss-Legendre nodes on [-1, 1] of orders 40 and 48, each with its
# weights times the Lagrange basis of _PANEL_NODES there: the first rule gives
# the _input_weights, its gap to the second their error (32 nodes suffice)
_WEIGHT_RULES = [(u, w[:, None] * _lagrange_basis(u))
                 for u, w in map(np.polynomial.legendre.leggauss, (40, 48))]


def _input_weights(mid, half):
    """Per rule of _WEIGHT_RULES, the weights w_k = int l_k(s) sqrt(2/pi)
    e^(-s^2/2) ds of each panel mid -/+ half's Lagrange basis against the
    density of s = |G|: rows (panels, _PANEL_NODES.size)."""
    for u, basis in _WEIGHT_RULES:
        s = mid[:, None] + half[:, None] * u
        yield (math.sqrt(2.0 / math.pi) * half[:, None] * np.exp(-0.5 * s * s)) @ basis


def _cond_interpolated(cond, work):
    """E_X[h(Y | X)] [nats] over s = sqrt(x) up to _S_MAX (the mass beyond is
    _input_tail_error's), from a piecewise Chebyshev interpolant in s of the
    conditional entropies cond(s, work) -> (h, error term, mass).  Returns
    the average, its error bound and the worst mass defect of the
    conditionals computed.

    The panels start at _PANEL_EDGES.  Each round calls cond once at the
    nodes and checks of every open panel; a panel passes when its
    interpolant meets every check within _PANEL_TOL, and is bisected
    otherwise.  More than _MAX_PANELS panels in all raise QuadratureFailure.
    A passed panel adds sum_k w_k h_k, its interpolant integrated exactly
    (product integration), and to the bound its input mass times its
    largest check gap plus _LEBESGUE times the largest error term of its
    conditionals, and the gap of that sum to the one with the weights of the
    second of _WEIGHT_RULES."""
    lo, hi = np.array(_PANEL_EDGES[:-1]), np.array(_PANEL_EDGES[1:])
    check_basis = _lagrange_basis(_PANEL_CHECKS)
    k = _PANEL_NODES.size
    value = error = defect = 0.0
    opened = 0
    while lo.size:
        opened += lo.size
        if opened > _MAX_PANELS:
            raise QuadratureFailure(f"h(Y | X) needs more than {_MAX_PANELS} interpolation "
                                    f"panels to meet {_PANEL_TOL:g} nats")
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        at = mid[:, None] + half[:, None] * np.concatenate([_PANEL_NODES, _PANEL_CHECKS])
        h, err, mass = cond(at.ravel(), work)
        h, err = h.reshape(at.shape), err.reshape(at.shape)
        defect = max(defect, float(np.abs(mass - 1.0).max()))
        gap = np.abs(h[:, :k] @ check_basis.T - h[:, k:]).max(axis=1)
        ok = gap <= _PANEL_TOL
        w, w_check = _input_weights(mid[ok], half[ok])
        value += float((w * h[ok, :k]).sum())
        error += float(w.sum(axis=1) @ (gap[ok] + _LEBESGUE * err[ok].max(axis=1))
                       + np.abs(((w - w_check) * h[ok, :k]).sum(axis=1)).sum())
        lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
    work["panels"] += opened
    return value, error, defect


def _rate_fft(hp, a, work):
    """The rate [nats], its error bound and the worst density mass defect,
    in units where sigma_rec = 1, for hP > 0."""
    v1, v2 = _marginal_w_variances(hp, a)
    # the marginal: from -12 to its mean plus 40 tail scales 2 v1, plus 12
    marg_n = int(_grid_size((hp + a + 80.0 * v1 + 24.0) / _MARG_STEP, "marginal density",
                            _SMOOTH_LENGTHS))
    if a > 0.0:
        # before the marginal: a channel past the conditionals' limit fails before any grid
        h_cond, error, defect = _cond_interpolated(functools.partial(_cond_entropies, hp, a),
                                                   work)
        error += _input_tail_error(1.0 + a * a, 2.0 * a * hp)
    else:
        # h(Y | X) is the entropy of the unit Gaussian
        h_cond, error, defect = 0.5 * math.log(2.0 * math.pi * math.e), 0.0, 0.0

    omega = np.arange(marg_n // 2 + 1) * (2.0 * math.pi / (marg_n * _MARG_STEP))
    (h_y,), (riemann,), (mass,) = _grid_entropies(_marg_cf_conj(omega, hp, a)[None], marg_n,
                                                  _MARG_STEP, work)
    work["marginal_points"] += marg_n
    period = marg_n * _MARG_STEP
    cut = math.pi / _MARG_STEP
    error += (riemann + _truncation_error(math.exp(-0.5 * cut * cut), cut, period)
              + _window_error(_MARG_TAIL + _GAUSS_TAIL, period,
                              1.0 + 2.0 * v1 * v1 + 2.0 * v2 * v2))
    return h_y - h_cond, error, max(defect, abs(mass - 1.0))


def _panel_entropies(edges, log_density):
    """-int p ln p dw and int p dw in t = sqrt(w), on the panels between the
    edges (..., k + 1) with the Kronrod pair: the Kronrod sums, and the sum
    of each panel's |Kronrod - Gauss| for the entropy."""
    u, wk, wg = _kronrod_nodes(8)
    width = np.diff(edges)[..., None]
    t = edges[..., :-1, None] + width * u
    log_p = log_density(t * t)
    dens = np.exp(log_p) * (2.0 * t) * width
    f = -dens * log_p
    h = f @ wk
    return h.sum(axis=-1), np.abs(h - f @ wg).sum(axis=-1), (dens @ wk).sum(axis=-1)


def _w_cond_entropies(g, s, work):
    """h(W | X = s^2) [nats] at each s at sigma2_rec = 0, in units where
    sigma2_a = 1 (g = hP / sigma2_a): the closed-form density on 28 equal
    panels in t = sqrt(w) over nu -/+ 7.  Returns per s the entropy, its
    error term (the panels' |Kronrod - Gauss| and the mass beyond the
    window) and the density's mass."""
    nu = math.sqrt(g) * s
    lo, hi = np.maximum(nu - 7.0, 0.0), nu + 7.0
    edges = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 29)
    h, error, mass = _panel_entropies(
        edges, lambda w: _log_density_w_cond(w, nu[:, None, None], 1.0))
    work["conditionals"] += s.size
    return h, error + _tail_entropy(_RICE_TAIL, 1.0 + 2.0 * g * s * s), mass


def _rate_w(g, work):
    """The rate [nats], its error bound and the worst density mass defect at
    sigma2_rec = 0, in units where sigma2_a = 1 (g = hP / sigma2_a): the
    closed-form densities of W integrated in t = sqrt(w).  The conditionals
    are _w_cond_entropies; the marginal takes 0.5-wide panels up to t = 8,
    then geometric ones (ratio at most 1.15) up to sqrt(90 v1)."""
    h_cond, error, defect = _cond_interpolated(functools.partial(_w_cond_entropies, g), work)
    v1, v2 = _marginal_w_variances(g, 1.0)
    t_max = math.sqrt(90.0 * v1)
    edges = np.linspace(0.0, min(8.0, t_max), 17)
    if t_max > 8.0:
        edges = np.append(edges, np.geomspace(8.0, t_max, 1 + math.ceil(
            math.log(t_max / 8.0) / math.log(1.15)))[1:])
    h_y, marg_error, mass = _panel_entropies(edges, lambda w: _log_density_w_marg(w, g, 1.0))
    error += (marg_error + _tail_entropy(_MARG_TAIL_W, 2.0 * v1 * v1 + 2.0 * v2 * v2)
              + _input_tail_error(1.0, 2.0 * g))
    return h_y - h_cond, error, max(defect, abs(mass - 1.0))


def cnl_rate_chi2(hp: float, sigma2_a: float, sigma2_rec: float, work=None) -> RateBound:
    """The chi-square-input rate of the rectified channel, deterministic and
    with a bound on its error.

    I(X;Y) = h(Y) - E_X[h(Y | X)] for X = G^2 (G standard normal), in units
    where sigma_rec = 1 (the rate does not change when hP and sigma2_a scale
    by c and sigma2_rec by c^2).  With a = sigma2_a and nu^2 = hP x, Y given
    X = x has the CF phi(omega) = exp(-omega^2/2 + i omega nu^2/(1 - i omega a))
    / (1 - i omega a), and Y the CF exp(-omega^2/2) (1 - i omega a)^(-1/2)
    (1 - i omega (a + 2 hP))^(-1/2).  Each density is one inverse real FFT on
    a uniform grid, and each entropy a Riemann sum on that grid:

    - a conditional density's step is pi / omega_N, where omega_N is the
      frequency from which a bound on |phi| stays below 1e-18, rounded up to
      a power of 2^(1/4); its grid spans ((nu -/+ 7 sqrt(a))+)^2 -/+ 12,
      rounded up to a power of two points.  Grids of equal length run as
      one 2-D transform, in batches of at most 2^18 points;
    - the marginal's step is 1/4, and its grid runs from -12 to
      hP + a + 80 (hP + a/2) + 12, rounded up to the least even 2^i 3^j 5^k
      points;
    - E_X runs in s = sqrt(x) up to s = 9.  h(Y | X = s^2) is smooth in s,
      so it is computed only at the 24 Chebyshev-Lobatto nodes of panels in s
      that start from the edges 0, 0.1, 0.3, 1, 3 and 9.  Each panel is
      checked at the 4 angle midpoints between its nodes nearest its ends,
      and bisected while its interpolant misses a check by more than 1e-11
      nats; more than 64 panels in all raise QuadratureFailure.  Five panels,
      140 conditional densities, serve most channels;
    - each panel's interpolant is integrated against the density of s = |G|
      exactly, by weights from a 40-node Gauss-Legendre rule.

    The error bound sums, in bits: the CF truncation at each cutoff; the mass
    outside each window, folded onto the periodic grid and missing from the
    entropy; each Riemann sum's error, estimated by the Nyquist coefficient
    of p ln p; the interpolant, per panel its largest check gap plus its
    nodes' largest error term (the three before) times the nodes' Lebesgue
    constant, at most 3.03 (Trefethen, ATAP Thm 15.2), weighted by the
    panel's input mass; the weights, as the gap of each panel's sum to that
    with 48-node weights; and the input mass beyond s = 9.  It does not
    count floating-point rounding.
    Every density computed must integrate to 1 within 1e-12 on its grid, or
    QuadratureFailure is raised.

    The grid limit: no transform may exceed 2^20 points, and the conditional
    grids built for one rate together 2^25 points.  The marginal's grid
    needs 4 (81 hP + 41 sigma2_a) / sigma_rec + 96 points, so hP may reach
    about 3236 sigma_rec; the conditional grids grow with sigma2_a /
    sigma_rec, which may reach about 875 at hP = 100 sigma_rec and 880 at
    hP = sigma_rec.  A channel past the limit in its first round of panels
    raises InvalidParams before any grid is built; one that passes it only
    in a later round of bisected panels raises it then.

    Branches: at hP = 0 the rate is 0; at sigma2_a = 0, h(Y | X) is the unit
    Gaussian's; at sigma2_rec = 0 the CF decays too slowly for a grid, and the
    closed-form densities of W = |nu + Z2|^2 are integrated in t = sqrt(w) on
    panels with a 17-node Kronrod rule, in units where sigma2_a = 1; the
    conditional entropies are interpolated and averaged over s as above.  Its
    certified range is hP / sigma2_a <= 1e10, where the bound stays below
    1e-10 bits; a channel past it raises InvalidParams before any density is
    evaluated.  Both noises zero raise ZeroNoise.

    work, when a dict, gains the counters "conditionals" (conditional
    densities computed), "panels" (interpolation panels evaluated, bisected
    ones included), "conditional_points", "marginal_points", "transforms" and
    "cutoff_evals" (evaluations of the CF bound in the search for the
    conditional cutoffs).
    """
    check_real("hp", hp)
    check_real("sigma2_a", sigma2_a)
    check_real("sigma2_rec", sigma2_rec)
    if sigma2_a == 0 and sigma2_rec == 0:
        raise ZeroNoise("noiseless rectified channel has unbounded rate")
    if hp == 0:
        return RateBound(0.0, 0.0)
    counts = dict.fromkeys(("conditionals", "panels", "conditional_points", "marginal_points",
                            "transforms", "cutoff_evals"), 0)
    at = f"hP={hp:g}, sigma2_a={sigma2_a:g}, sigma2_rec={sigma2_rec:g}"
    try:
        if sigma2_rec > 0:
            c = 1.0 / math.sqrt(sigma2_rec)
            value, error, defect = _rate_fft(c * hp, c * sigma2_a, counts)
        else:
            if not hp / sigma2_a <= _MAX_SNR_W:
                raise InvalidParams(f"channel past the certified range: hP / sigma2_a = "
                                    f"{hp / sigma2_a:.17g} exceeds {_MAX_SNR_W:g}")
            value, error, defect = _rate_w(hp / sigma2_a, counts)
    except InvalidParams as exc:
        raise InvalidParams(f"{exc} at {at}") from exc
    except QuadratureFailure as exc:
        raise QuadratureFailure(f"{exc} at {at}", exc.sample) from exc
    if not defect <= _MASS_TOL:
        raise QuadratureFailure(f"an output density at {at} integrates to 1 only within "
                                f"{defect:.3g}, beyond {_MASS_TOL:g}")
    if work is not None:
        for key, count in counts.items():
            work[key] = work.get(key, 0) + count
    return RateBound(max(0.0, float(value) * LOG2E), float(error) * LOG2E)
