"""Capacity bounds and the chi-square-input rate for the rectified channel.

The integrated receiver decodes through Y = |sqrt(hP*X) + Z2|^2 + Z1 with
nonnegative power input X, E[X] <= 1, antenna noise Z2 ~ CN(0, sigma2_a) and
processing noise Z1 ~ N(0, sigma2_rec).  Closed-form upper bounds come from
the two single-noise limits; the achievable rate is the mutual information of
a central chi-square (1 dof) input, estimated by Monte Carlo with analytic
conditional/marginal output densities.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import LOG2E, _special, q_function
from .errors import (
    InvalidParams,
    QuadratureFailure,
    SplitAtUnity,
    ZeroNoise,
    check_count,
    check_real,
)

EULER_GAMMA = float(np.euler_gamma)


@dataclass(frozen=True)
class MiEstimate:
    """Monte Carlo mutual-information estimate [bits/channel use]."""

    value: float
    std_error: float
    n_samples: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "value_bits": self.value,
            "std_error_bits": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def effective_proc_noise(sigma2_rec: float, sigma2_adc: float, rho: float) -> float:
    """sigma2_rec + sigma2_adc / (1 - rho)^2 for a baseband split ratio rho;
    InvalidParams naming sigma2_adc and rho where that sum overflows."""
    check_real("sigma2_rec", sigma2_rec)
    check_real("sigma2_adc", sigma2_adc)
    check_real("rho", rho, hi=1.0, hi_open=False)
    if rho == 1.0:
        if sigma2_adc > 0:
            raise SplitAtUnity("rho = 1 makes the effective processing noise unbounded")
        return sigma2_rec
    noise = sigma2_rec + sigma2_adc / (1.0 - rho) ** 2
    if not math.isfinite(noise):
        raise InvalidParams(f"effective processing noise overflows: sigma2_adc={sigma2_adc:g} "
                            f"/ (1 - rho)^2 at rho={rho:g}")
    return noise


def c1_asymptotic(hp: float, sigma2_rec: float) -> float:
    """High-power capacity of the intensity channel: log2(hP/sigma_rec) + 0.5*log2(e/2pi)."""
    check_real("hp", hp, lo_open=True)
    sigma_rec = math.sqrt(check_real("sigma2_rec", sigma2_rec, lo_open=True))
    return math.log2(hp / sigma_rec) + 0.5 * math.log2(math.e / (2.0 * math.pi))


def _c1_upper_bits(hp, sigma_rec, beta, delta):
    """Intensity-channel capacity upper bound in the noise std sigma_rec,
    valid for any beta > 0 and delta >= 0; beta and delta may be
    broadcasting arrays.

    A duality-style bound: an output-measure log term, two moment terms in
    nats, minus the processing-noise differential entropy.
    """
    dr = delta / sigma_rec
    edr = np.exp(-0.5 * dr * dr)
    q_dr = q_function(dr)
    sqrt_2pi = math.sqrt(2.0 * math.pi)
    term1 = np.log2(beta * edr + sqrt_2pi * sigma_rec * q_dr)
    term2 = (0.5 * q_dr + (delta + hp + sigma_rec * edr / sqrt_2pi) / beta) * LOG2E
    with np.errstate(over="ignore"):   # (delta + hP)/sigma_rec may overflow; Q(inf) = 0
        q_top = q_function((delta + hp) / sigma_rec)
    term3 = (delta * edr / (2.0 * sqrt_2pi * sigma_rec)
             + 0.5 * dr * dr * (1.0 - q_top)) * LOG2E
    term4 = -0.5 * math.log2(2.0 * math.pi * math.e * sigma_rec * sigma_rec)
    return term1 + term2 + term3 + term4


def _c1_beta_star(hp, sigma_rec, delta):
    """The beta minimizing _c1_upper_bits at a fixed delta; delta may be an array.

    With e = exp(-delta^2 / 2 sigma^2), k = sqrt(2 pi) sigma Q(delta/sigma)
    and A = delta + hP + sigma e / sqrt(2 pi), c1 depends on beta through
    log2(beta e + k) + A log2(e) / beta, which is least at the positive root
    of e beta^2 - A e beta - A k = 0.
    """
    dr = delta / sigma_rec
    e = np.exp(-0.5 * dr * dr)
    k = math.sqrt(2.0 * math.pi) * sigma_rec * q_function(dr)
    a = delta + hp + sigma_rec * e / math.sqrt(2.0 * math.pi)
    return 0.5 * a * (1.0 + np.sqrt(1.0 + 4.0 * k / (a * e)))


_C1_GRID, _C1_ROUNDS = 257, 4  # the delta search: points per grid, zoom rounds


def c1_upper_optimized(hp: float, sigma2_rec: float) -> tuple[float, float, float]:
    """Minimize the free parameters of _c1_upper_bits: (bits, beta, delta).

    beta takes its closed-form minimizer at each delta (_c1_beta_star), which
    leaves a search over delta in [0, 10 sigma_rec]: a uniform grid, zoomed to
    the neighbours of its argmin for a fixed number of rounds.  Any residual
    search error only loosens the (still valid) bound.
    """
    check_real("hp", hp, lo_open=True)
    sigma_rec = math.sqrt(check_real("sigma2_rec", sigma2_rec, lo_open=True))
    lo, hi = 0.0, 10.0 * sigma_rec
    best_val, best_delta = math.inf, 0.0
    for _ in range(_C1_ROUNDS):
        deltas = np.linspace(lo, hi, _C1_GRID)
        vals = _c1_upper_bits(hp, sigma_rec, _c1_beta_star(hp, sigma_rec, deltas), deltas)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_delta = float(vals[i]), float(deltas[i])
        lo, hi = deltas[max(i - 1, 0)], deltas[min(i + 1, _C1_GRID - 1)]
    beta = float(_c1_beta_star(hp, sigma_rec, best_delta))
    return float(_c1_upper_bits(hp, sigma_rec, beta, best_delta)), beta, best_delta


def c2_upper(hp: float, sigma2_a: float) -> float:
    """Noncoherent-channel capacity upper bound with Euler-constant correction."""
    check_real("hp", hp)
    check_real("sigma2_a", sigma2_a, lo_open=True)
    return 0.5 * math.log2(1.0 + hp / sigma2_a) + 0.5 * (
        math.log2(2.0 * math.pi / math.e) - EULER_GAMMA * LOG2E
    )


def c2_asymptotic(hp: float, sigma2_a: float) -> float:
    """High-power noncoherent rate 0.5*log2(1 + hP/(2 sigma2_a)), achieved by a
    central chi-square (1 dof) power input."""
    check_real("hp", hp)
    check_real("sigma2_a", sigma2_a, lo_open=True)
    return 0.5 * math.log2(1.0 + hp / (2.0 * sigma2_a))


def cnl_upper(hp: float, sigma2_a: float, sigma2_rec: float) -> dict:
    """Capacity upper bound of the rectified channel, min(c1, c2), as the
    record `capacity --upper` writes; every input is checked before c1's
    delta search."""
    check_real("hp", hp, lo_open=True)
    check_real("sigma2_rec", sigma2_rec, lo_open=True)
    check_real("sigma2_a", sigma2_a, lo_open=True)
    c1, beta, delta = c1_upper_optimized(hp, sigma2_rec)
    c2 = c2_upper(hp, sigma2_a)
    return {"cnl_upper_bits": min(c1, c2), "c1_upper_bits": c1, "c1_beta": beta,
            "c1_delta": delta, "c2_upper_bits": c2}


# ---------------------------------------------------------------------------
# Output densities of Y = W + Z1, W = |sqrt(hP x) + Z2|^2, in t = sqrt(w) space
# ---------------------------------------------------------------------------

def _log_density_w_cond(w, nu, sigma2_a):
    """log density of W given the signal amplitude nu = sqrt(hP x)."""
    sw = np.sqrt(np.maximum(w, 0.0))
    return (
        -((sw - nu) ** 2) / sigma2_a
        + np.log(_special("i0e")(2.0 * sw * nu / sigma2_a))
        - np.log(sigma2_a)
    )


# i0e(z) = (2 pi z)^(-1/2) sum_k a_k z^-k for large z (Abramowitz & Stegun 9.7.1),
# a_0 = 1, a_k = a_{k-1} (2k - 1)^2 / (8k).  From z = 50 on, the first omitted
# term (k = 12) is below 2^-54 and the dropped e^(-2z) term below 1e-43.
_I0E_SERIES_MIN = 50.0
_I0E_SERIES = [1.0]
for _k in range(1, 12):
    _I0E_SERIES.append(_I0E_SERIES[-1] * (2 * _k - 1) ** 2 / (8 * _k))
_I0E_SERIES = tuple(_I0E_SERIES)


def _i0e_rows(z, spare, spare2):
    """i0e(z) in place for z of shape (P, 1, n) whose rows are nondecreasing,
    with spare and spare2 (z's shape) as scratch.

    Rows whose first entry is >= _I0E_SERIES_MIN take the asymptotic series
    (about a quarter of scipy's cost per element); the other rows take scipy's
    i0e.  Each path runs on its rows gathered to the front of a spare buffer,
    since scipy's ufuncs must not be masked with where=.
    """
    i0e = _special("i0e")
    series = z[:, 0, 0] >= _I0E_SERIES_MIN
    rows = np.flatnonzero(series)
    if not rows.size:
        return i0e(z, out=z)
    other = np.flatnonzero(~series)
    small = np.take(z, other, axis=0, out=spare[:other.size])
    i0e(small, out=small)
    big = np.take(z, rows, axis=0, out=spare2[:rows.size])
    r = np.reciprocal(big, out=z[:rows.size])  # z's rows are saved in the spares
    acc = np.multiply(r, _I0E_SERIES[-1], out=spare[other.size:])
    for a in _I0E_SERIES[-2:0:-1]:
        acc += a
        acc *= r
    acc += 1.0
    big *= 2.0 * math.pi
    acc /= np.sqrt(big, out=big)
    z[rows] = acc
    z[other] = small
    return z


def _density_t_cond(t, nu, sigma2_a, out, tmp, spare):
    """Density of T = sqrt(W) given nu (Rice law):
    (2 t / sigma2_a) exp(-(t - nu)^2 / sigma2_a) i0e(2 t nu / sigma2_a),
    computed in place in out with tmp and spare as further buffers (all of t's
    shape).  The rows of t are nondecreasing, and nu >= 0, so the Bessel
    argument is nondecreasing along each row, as _i0e_rows requires."""
    np.multiply(2.0, t, out=tmp)
    tmp *= nu
    tmp /= sigma2_a
    _i0e_rows(tmp, out, spare)
    np.multiply(2.0, t, out=out)
    out /= sigma2_a
    np.subtract(t, nu, out=spare)
    np.square(spare, out=spare)
    np.negative(spare, out=spare)
    spare /= sigma2_a
    out *= np.exp(spare, out=spare)
    out *= tmp
    return out


def _marginal_w_variances(hp, sigma2_a):
    # W is marginally a sum of squares of independent zero-mean Gaussians
    # with these variances (chi-square input integrated out analytically)
    return hp + 0.5 * sigma2_a, 0.5 * sigma2_a


def _log_density_w_marg(w, hp, sigma2_a):
    v1, v2 = _marginal_w_variances(hp, sigma2_a)
    return (
        -w / (2.0 * v1)
        + np.log(_special("i0e")(w * (v1 - v2) / (4.0 * v1 * v2)))
        - np.log(2.0 * math.sqrt(v1 * v2))
    )


def _density_t_marg(t, hp, sigma2_a):
    v1, v2 = _marginal_w_variances(hp, sigma2_a)
    return (t / math.sqrt(v1 * v2)) * np.exp(-t * t / (2.0 * v1)) * _special("i0e")(
        t * t * (v1 - v2) / (4.0 * v1 * v2)
    )


class _Scratch:
    """Float buffers that one worker thread reuses from chunk to chunk of a map.

    The quadrature's (panels, 1, nodes) node arrays take 0.2-0.6 MB each per
    1024-sample chunk at the benchmark channels.  As fresh temporaries, malloc
    hands them back to the OS after every chunk and the next chunk faults them
    in again, which costs more than the arithmetic on them whenever page
    faults are slow.
    """

    def __init__(self):
        self._bufs = {}

    def take(self, name, shape):
        """The buffer called name, viewed as shape (grown when too small)."""
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size)
        return buf[:size].reshape(shape)


_GL_LEVELS = (64, 128, 256, 512)   # escalation after the Kronrod start
# worker threads fetch the cached rules under this lock, so a cold rule is built once
_RULES_LOCK = threading.Lock()


@functools.cache
def _gl_nodes(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0, 1]


@functools.cache
def _kronrod_nodes(n=15):
    """Gauss-Kronrod rule on [0, 1]: the 2n+1 Kronrod nodes, their weights, and
    the weights of the embedded n-point Gauss rule (zero at the added nodes).

    The n+1 added nodes are the roots of the Stieltjes polynomial E, monic in the
    Legendre basis and orthogonal to every P_k, k <= n, under the weight P_n;
    those n+1 conditions are a linear system for E's Legendre coefficients,
    whose triple-product entries a Gauss rule of 2n+2 nodes integrates exactly.
    The Kronrod weights integrate P_0..P_2n exactly (a Legendre-Vandermonde solve).
    """
    leg = np.polynomial.legendre
    xg, wg = leg.leggauss(n)
    xq, wq = leg.leggauss(2 * n + 2)
    vq = leg.legvander(xq, n + 1)
    triple = (vq[:, :n + 1] * (wq * vq[:, n])[:, None]).T @ vq   # int P_n P_k P_j
    stieltjes = np.append(np.linalg.solve(triple[:, :n + 1], -triple[:, n + 1]), 1.0)
    x = np.sort(np.concatenate([xg, leg.legroots(stieltjes)]))  # xg lands at x[1::2]
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    wk = np.linalg.solve(leg.legvander(x, 2 * n).T, moments)
    wg_full = np.zeros(2 * n + 1)
    wg_full[1::2] = wg
    return 0.5 * (x + 1.0), 0.5 * wk, 0.5 * wg_full


def _panel_rule_sums(integrand, n, owner, lower, widths, scratch, u, *weights):
    """Evaluate the integrand at the nodes lower + widths * u of every listed panel
    and return, for each weight vector, the per-sample sums of the panel integrals.

    Panels arrive grouped by sample in knot order, and np.bincount adds them in
    that order, so each sample's sum does not depend on the other samples.
    """
    t = np.multiply(widths[:, None, None], u, out=scratch.take("t", (owner.size, 1, u.size)))
    np.add(lower[:, None, None], t, out=t)
    vals = integrand(t, owner)[:, 0, :]
    return [np.bincount(owner, np.einsum("pk,k,p->p", vals, w, widths), minlength=n)
            for w in weights]


def _panelized_integrals(knots, integrand, quad_tol, scratch=None):
    """Integrate a smooth nonnegative integrand over per-sample panels.

    knots: (n, k) sorted panel edges per sample; equal neighbouring knots make
    empty panels, which are dropped before any evaluation.  Every nonempty
    panel first gets the 31-point Gauss-Kronrod rule; a sample is accepted when
    its Kronrod sum and the sum of the embedded 15-point Gauss rule differ by
    <= quad_tol (absolute).  The panels of the other samples escalate through
    64..512 Gauss-Legendre nodes, each level accepted when it is within
    quad_tol of the level before.  The integrand is called as
    integrand(t, owner) with t of shape (P, 1, nodes) for the P evaluated
    panels and owner the sample index of each panel; t is a buffer of scratch
    (a fresh _Scratch when none is given), overwritten by the next call.
    """
    scratch = _Scratch() if scratch is None else scratch
    n = knots.shape[0]
    lower = knots[:, :-1]
    widths = knots[:, 1:] - lower
    owner, col = np.nonzero(~(widths <= 0))  # NaN-width panels are kept, and fail
    lower, widths = lower[owner, col], widths[owner, col]

    with _RULES_LOCK:
        u, wk, wg = _kronrod_nodes()
    cur, coarse = _panel_rule_sums(integrand, n, owner, lower, widths, scratch, u, wk, wg)
    delta = np.abs(cur - coarse)
    pending = ~(delta <= quad_tol)
    for n_nodes in _GL_LEVELS:
        if not pending.any():
            return cur
        keep = pending[owner]
        owner, lower, widths = owner[keep], lower[keep], widths[keep]
        with _RULES_LOCK:
            u, gw = _gl_nodes(n_nodes)
        (finer,) = _panel_rule_sums(integrand, n, owner, lower, widths, scratch, u, gw)
        delta = np.abs(finer - cur)
        cur = np.where(pending, finer, cur)
        pending &= ~(delta <= quad_tol)
    if not pending.any():
        return cur
    unresolved = np.flatnonzero(pending)
    worst = unresolved[np.argmax(delta[unresolved])]
    raise QuadratureFailure(
        f"{unresolved.size} of {n} output-density integrals missed tol={quad_tol:g} "
        f"with {_GL_LEVELS[-1]} nodes per panel; worst |delta| between the last two "
        f"levels {delta[worst]:.3g} at sample {worst} of the batch, integration "
        f"window [{knots[worst, 0]:.6g}, {knots[worst, -1]:.6g}]",
        sample=int(worst),
    )


def _log_phi(z, sigma2, out=None):
    """log N(z; 0, sigma2) for an array z, written into out when given (out may be z)."""
    out = np.multiply(z, z, out=out)
    np.negative(out, out=out)
    out /= 2.0 * sigma2
    out -= 0.5 * math.log(2.0 * math.pi * sigma2)
    return out


# absolute tolerance of every output density; cnl_lower_chi2 integrates in units
# where sigma_rec = 1, so it holds the same meaning on every channel
_QUAD_TOL = 1e-10


# The Gauss-Hermite pair tried before the panels: its two rule sizes, and the
# half-width of its window in stds of the bump, which must cover the finer rule's
# outermost node (7.62 stds for 20 nodes) so that every node lies at t > 0
_GH_LEVELS = (12, 20)
_GH_WINDOW = 8.0


@functools.cache
def _hermite_pair():
    """The nodes xi of the _GH_LEVELS Gauss-Hermite rules merged in ascending
    order, and for each rule its weights times e^(xi^2) at those nodes (zero at
    the other rule's), so that sum w f(xi) integrates f itself over the line."""
    rules = [np.polynomial.hermite.hermgauss(n) for n in _GH_LEVELS]
    xi = np.concatenate([x for x, _ in rules])
    order = np.argsort(xi)
    weights, start = [], 0
    for x, w in rules:
        full = np.zeros(xi.size)
        full[start:start + x.size] = w * np.exp(x * x)
        weights.append(full[order])
        start += x.size
    return xi[order], *weights


def _hermite_sums(integrand, centre, width, scratch):
    """Try the Gauss-Hermite pair on every sample whose window centre -/+
    _GH_WINDOW width lies in t > 0: both rules at t = centre + sqrt(2) width xi,
    so a Gaussian bump of that centre and std is integrated exactly by either.
    A sample is settled when the two sums differ by <= _QUAD_TOL (absolute),
    the acceptance test of the panel rules.  Returns the settled mask and the
    finer rule's sums (zero where the pair was not tried)."""
    settled = np.zeros(centre.shape, dtype=bool)
    tried = np.flatnonzero(centre - _GH_WINDOW * width > 0.0)
    with _RULES_LOCK:
        xi, coarse_w, fine_w = _hermite_pair()
    coarse, fine = _panel_rule_sums(integrand, centre.size, tried, centre[tried],
                                    math.sqrt(2.0) * width[tried], scratch, xi,
                                    coarse_w, fine_w)
    settled[tried] = np.abs(fine[tried] - coarse[tried]) <= _QUAD_TOL
    return settled, fine


def _log_p_conv(y, sigma2_rec, density, features, scratch, peak=None):
    """log of the rectifier-noise convolution int N(y - t^2; 0, sigma2_rec) p_T(t) dt
    for each sample, where p_T is a law of T = sqrt(W).

    The t window maps y -/+ 10 sigma_rec, and its panel knots are the
    density's own features plus sqrt(y) -/+ 2 and 6 widths of the Gaussian
    factor.  density(t, active, scratch) returns p_T at the (P, 1, nodes) nodes
    t of the samples active, in a scratch buffer other than "t" and "gauss"; it
    may use any buffer except "t" as scratch, since the Gaussian factor is
    evaluated after it.  scratch is the worker's _Scratch, or None for a fresh one.

    peak, when given, is (mode, var): p_T's mode per sample and the variance of
    the Gaussian that matches its curvature there.  The Gaussian factor,
    linearized at sqrt(max(y, 0)), is a Gaussian in t too; the product of the
    two is the bump on which each sample first tries the Gauss-Hermite pair of
    _hermite_sums.  The samples it settles take no panel.
    """
    sigma_rec = math.sqrt(sigma2_rec)
    t_lo = np.sqrt(np.maximum(y - 10.0 * sigma_rec, 0.0))
    t_hi = np.sqrt(np.maximum(y + 10.0 * sigma_rec, 1e-3 * sigma_rec))
    ty = np.sqrt(np.maximum(y, 0.0))
    phi_w = 0.5 * sigma_rec / np.maximum(ty, math.sqrt(sigma_rec))
    # the window's ends and every feature clipped to it, sorted per sample
    knots = np.column_stack([t_lo, *(np.clip(f, t_lo, t_hi) for f in [
        *features, ty - 6 * phi_w, ty - 2 * phi_w, ty + 2 * phi_w, ty + 6 * phi_w]), t_hi])
    knots.sort(axis=1)
    scratch = _Scratch() if scratch is None else scratch

    def integrand(t, active):
        dens = density(t, active, scratch)
        gauss = np.multiply(t, t, out=scratch.take("gauss", t.shape))
        np.subtract(y[active, None, None], gauss, out=gauss)
        np.exp(_log_phi(gauss, sigma2_rec, out=gauss), out=gauss)
        return np.multiply(dens, gauss, out=dens)

    if peak is not None:
        mode, var = peak
        # gain is the Gaussian factor's precision 4 max(y, 0) / sigma2_rec over
        # the density's 1 / var; a centre that overflows is NaN and is not tried
        with np.errstate(over="ignore", invalid="ignore"):
            gain = (4.0 * var / sigma2_rec) * (ty * ty)
            centre = (mode + gain * ty) / (1.0 + gain)
            width = np.sqrt(var / (1.0 + gain))
        settled, hermite = _hermite_sums(integrand, centre, width, scratch)
        # the settled samples' panels collapse to zero width and cost nothing
        knots = np.where(settled[:, None], knots[:, :1], knots)

    vals = _panelized_integrals(knots, integrand, _QUAD_TOL, scratch)
    if peak is not None:
        vals = np.where(settled, hermite, vals)
    return np.log(np.maximum(vals, 5e-324))


def _log_p_cond(y, x, hp, sigma2_a, sigma2_rec, scratch=None):
    """log p(y | x) for each sample; the quadrature's node arrays live in scratch
    (a fresh _Scratch when none is given)."""
    if sigma2_rec == 0.0:
        return _log_density_w_cond(y, np.sqrt(hp * x), sigma2_a)
    if sigma2_a == 0.0:
        return _log_phi(y - hp * x, sigma2_rec)
    nu = np.sqrt(hp * x)
    sig_t = math.sqrt(sigma2_a)

    def rice(t, active, scratch):
        return _density_t_cond(t, nu[active, None, None], sigma2_a,
                               scratch.take("dens", t.shape), scratch.take("tmp", t.shape),
                               scratch.take("gauss", t.shape))

    # for a large Bessel argument the Rice law is a Gaussian of variance sigma2_a / 2 at nu
    return _log_p_conv(y, sigma2_rec, rice, [nu - 6 * sig_t, nu - 2 * sig_t, nu + 2 * sig_t,
                                             nu + 6 * sig_t], scratch,
                       (nu, 0.5 * sigma2_a))


def _log_p_marg(y, hp, sigma2_a, sigma2_rec, scratch=None):
    """log p(y) under the chi-square power input, for each sample."""
    if sigma2_rec == 0.0:
        return _log_density_w_marg(y, hp, sigma2_a)
    if sigma2_a == 0.0:
        # W = hP X, so T = sqrt(hP) |G| is half-normal with scale sqrt(hP)
        sq = math.sqrt(hp)

        def half_normal(t, active, scratch):
            dens = np.multiply(t, t, out=scratch.take("dens", t.shape))
            dens /= -2.0 * hp
            np.exp(dens, out=dens)
            dens *= math.sqrt(2.0 / (math.pi * hp))
            return dens

        return _log_p_conv(y, sigma2_rec, half_normal, [0.5 * sq, sq, 2 * sq, 4 * sq], scratch)
    v1, v2 = _marginal_w_variances(hp, sigma2_a)
    s1, s2 = math.sqrt(v1), math.sqrt(v2)
    return _log_p_conv(y, sigma2_rec, lambda t, active, _: _density_t_marg(t, hp, sigma2_a),
                       [s2, 3 * s2, 0.5 * s1, s1, 2 * s1, 3 * s1], scratch)


# chunks run on one thread per CPU the process may use (see taskset)
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# samples per chunk.  On one CPU a _log_p_cond chunk costs a fixed 0.1-0.4 ms
# of Python-level work, which the threads run one at a time under the GIL, plus
# 1.2-3.7 us per sample; at 1024 samples the fixed part is at most a quarter of
# a chunk (512: up to 38%), and a 10k-sample estimate still splits into 10
# chunks for the threads to share.  2048 was a little faster again, but raised
# the benchmark's peak memory by a tenth
_CHUNK = 1024

# Piecewise Chebyshev table of log p(y) in s = asinh(y / sigma_rec): panels are
# sigma_rec wide near y = 0 and grow geometrically in y.  Each panel holds the 17
# Chebyshev points of the second kind (ascending) with their barycentric weights,
# and is certified at the 16 angle midpoints between them.
_CHEB_NODES = -np.cos(np.pi * np.arange(17) / 16)
_CHEB_WEIGHTS = np.where(np.arange(17) % 2, -1.0, 1.0) * np.r_[0.5, np.ones(15), 0.5]
_CHEB_CHECKS = -np.cos(np.pi * (np.arange(16) + 0.5) / 16)
_TABLE_START_PANELS = 8
_TABLE_MAX_PANELS = 256
# relative part of the certification tolerance: an absolute _QUAD_TOL alone asks
# for accuracy below rounding where the density is large
_TABLE_REL_TOL = 1e-10


@contextlib.contextmanager
def _chunk_map():
    """Yield map_chunks(fn, n), which runs fn(sl, scratch) over the consecutive
    _CHUNK-sample slices sl of range(n) and concatenates the results in slice
    order.  Every map_chunks call of one context runs on the context's one
    pool of _WORKERS threads (numpy and scipy release the GIL in their loops);
    a single worker, or a single slice, runs in the calling thread.  scratch is
    the _Scratch of the thread running the slice, for this map only: held
    from one map to the next, a thread's buffers would add to the next stage's
    arrays and raise the peak memory.

    The first slice in order whose fn raises raises from map_chunks: later
    slices not yet started are cancelled, those running finish and are
    discarded.  Every thread has exited before the context is left, whether
    it returns or raises.
    """
    def map_chunks(fn, n, pool=None):
        slices = [slice(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)]
        if pool is None or len(slices) == 1:
            scratch = _Scratch()
            return np.concatenate([fn(sl, scratch) for sl in slices])
        local = threading.local()

        def run(sl):
            if not hasattr(local, "scratch"):
                local.scratch = _Scratch()
            return fn(sl, local.scratch)

        return np.concatenate(list(pool.map(run, slices)))

    if _WORKERS == 1:
        yield map_chunks
        return
    from concurrent.futures import ThreadPoolExecutor  # not loaded by `import swiptlab`

    with ThreadPoolExecutor(_WORKERS) as pool:
        yield functools.partial(map_chunks, pool=pool)


def _barycentric(s, nodes, values):
    """Barycentric interpolation at s (...) on the rows of nodes and values (..., 17)."""
    d = s[..., None] - nodes
    hit = d == 0.0
    q = _CHEB_WEIGHTS / np.where(hit, 1.0, d)
    return np.where(hit.any(axis=-1), (values * hit).sum(axis=-1),
                    (q * values).sum(axis=-1) / q.sum(axis=-1))


def _marginal_table(y, hp, sigma2_a, sigma2_rec, map_chunks):
    """log p(.) as a function of y over [min y, max y]: the closed form where
    one exists, else a piecewise Chebyshev interpolant of the quadrature, whose
    batches run on map_chunks (a _chunk_map).

    Starting from equal panels in s = asinh(y / sigma_rec), a panel is accepted
    when the interpolant meets |p_hat - p| <= _QUAD_TOL + 1e-10 p against direct
    quadrature at its check points, and bisected otherwise; evaluating more
    than _TABLE_MAX_PANELS panels in all raises QuadratureFailure.  The table
    depends on y only through its range, so no sample's value depends on
    chunking.
    """
    if sigma2_rec == 0.0:
        return functools.partial(_log_p_marg, hp=hp, sigma2_a=sigma2_a, sigma2_rec=sigma2_rec)
    sigma_rec = math.sqrt(sigma2_rec)

    def direct(s):  # batched so that memory stays bounded
        y_at = sigma_rec * np.sinh(s)
        return map_chunks(
            lambda sl, scratch: _log_p_marg(y_at[sl], hp, sigma2_a, sigma2_rec, scratch),
            s.size)

    s_lo, s_hi = np.arcsinh(np.array([y.min(), y.max()]) / sigma_rec)
    start = np.linspace(s_lo, s_hi, _TABLE_START_PANELS + 1)
    lo, hi = start[:-1], start[1:]
    evaluated = 0
    accepted = []
    while lo.size:
        evaluated += lo.size
        if evaluated > _TABLE_MAX_PANELS:
            raise QuadratureFailure(
                f"log p(y) needs more than {_TABLE_MAX_PANELS} table panels of 17 nodes "
                f"to meet tol={_QUAD_TOL:g} + {_TABLE_REL_TOL:g} p"
            )
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _CHEB_NODES
        checks = mid[:, None] + half[:, None] * _CHEB_CHECKS
        both = direct(np.concatenate([nodes.ravel(), checks.ravel()]))
        vals = both[:nodes.size].reshape(nodes.shape)
        p = np.exp(both[nodes.size:].reshape(checks.shape))
        p_hat = np.exp(_barycentric(checks, nodes[:, None], vals[:, None]))
        ok = (np.abs(p_hat - p) <= _QUAD_TOL + _TABLE_REL_TOL * p).all(axis=1)
        accepted.append((lo[ok], nodes[ok], vals[ok]))
        lo, hi, mid = lo[~ok], hi[~ok], mid[~ok]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
    lo, nodes, vals = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.argsort(lo)
    edges, nodes, vals = lo[order], nodes[order], vals[order]

    def log_p(yy):
        s = np.arcsinh(yy / sigma_rec)
        k = np.maximum(np.searchsorted(edges, s, side="right") - 1, 0)
        return _barycentric(s, nodes[k], vals[k])

    return log_p


def cnl_lower_chi2(hp: float, sigma2_a: float, sigma2_rec: float,
                   n_samples: int = 100_000, seed: int = 0) -> MiEstimate:
    """Achievable rate of the rectified channel with a chi-square power input.

    Draws n_samples (at least 10 000) values X = G^2 (G standard normal, so
    E[X] = 1) from numpy's default generator seeded with seed, pushes each
    sample through the channel, and averages log2 p(Y|X)/p(Y); at hP = 0 the
    estimate is exactly 0 with standard error 0.  The rate does not change when
    hP and sigma2_a scale by c and sigma2_rec by c^2, so for sigma2_rec > 0 the
    draw and every density are computed in units where sigma_rec = 1.  The
    conditional law of the squared envelope is the scaled noncentral form with
    scale sigma2_a and noncentrality hP*X, evaluated via the exponentially
    scaled Bessel term (an asymptotic series for rows whose arguments are
    all >= 50, scipy's i0e elsewhere); its processing-noise convolution is a
    per-sample 1-D quadrature to absolute tolerance 1e-10 in those units.  Each
    sample first tries a 12- and a 20-node Gauss-Hermite rule in t = sqrt(w),
    centred on the product of the Rice law's Gaussian approximation at
    sqrt(hP*X) and the processing-noise factor linearized at sqrt(max(Y, 0)),
    and takes the 20-node sum when the two agree to the tolerance; a sample
    whose bump lies within 8 of its widths of t = 0, or whose rules
    disagree, falls back to panels (a 31-point Gauss-Kronrod rule checked
    against its embedded 15-point Gauss rule, escalating to 512 Gauss-Legendre
    nodes where needed).  The input-averaged marginal p(Y) depends on Y alone,
    so it is computed once per call: the same quadrature at the nodes of a
    piecewise Chebyshev table of log p over the range of the drawn Y (in
    asinh(Y / sigma_rec)), each panel certified to |p_hat - p| <= 1e-10 +
    1e-10 p at its check points, and interpolated at every sample.  Raises
    QuadratureFailure when a density misses its tolerance at every level or
    the table needs too many panels, and before any quadrature when hP,
    sigma2_a or a drawn y overflows a float in units where sigma_rec = 1.
    The message names the stage (conditional density or marginal table), the
    channel and the drawn y in the caller's units: for a conditional failure
    the worst sample's index in the draw and its (y, x), for the table the
    range of y.  The per-sample work (the conditional densities, the table's
    quadrature batches and the final log-ratios) runs in 1024-sample chunks on
    one pool per call, with one thread per CPU of the process's affinity mask,
    so `taskset -c 0` limits it to the calling thread.  Results are
    bit-reproducible for a fixed seed and independent of internal chunking and
    of the thread count.
    """
    n = check_count("n_samples", n_samples, 10_000)
    seed = check_count("seed", seed, 0)
    check_real("hp", hp)
    check_real("sigma2_a", sigma2_a)
    check_real("sigma2_rec", sigma2_rec)
    if sigma2_a == 0 and sigma2_rec == 0:
        raise ZeroNoise("noiseless rectified channel has unbounded rate")
    at = f"at hP={hp:g}, sigma2_a={sigma2_a:g}, sigma2_rec={sigma2_rec:g}"
    # to units where sigma_rec = 1, in which y is c times the caller's y
    c = 1.0 / math.sqrt(sigma2_rec) if sigma2_rec > 0 else 1.0
    hp, sigma2_a, sigma2_rec = c * hp, c * sigma2_a, 1.0 if sigma2_rec > 0 else 0.0
    if hp == 0.0:  # no signal (hP may also underflow to 0 in these units)
        return MiEstimate(0.0, 0.0, n, seed)
    if not (math.isfinite(hp) and math.isfinite(sigma2_a)):
        raise QuadratureFailure(f"channel {at} overflows in units where sigma_rec = 1: "
                                f"hP={hp:g}, sigma2_a={sigma2_a:g} there")

    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    x = g * g
    with np.errstate(over="ignore", invalid="ignore"):
        if sigma2_a > 0:
            scale = math.sqrt(0.5 * sigma2_a)
            w = (np.sqrt(hp * x) + scale * rng.standard_normal(n)) ** 2 \
                + (scale * rng.standard_normal(n)) ** 2
        else:
            w = hp * x
        y = w + rng.standard_normal(n) if sigma2_rec > 0 else w
    if not np.isfinite(y).all():
        k = int(np.argmin(np.isfinite(y)))
        raise QuadratureFailure(f"channel {at}: the output y of sample {k} of the draw "
                                f"(x={x[k]:.6g}) overflows in units where sigma_rec = 1",
                                sample=k)

    def log_p_cond(sl, scratch):
        try:
            return _log_p_cond(y[sl], x[sl], hp, sigma2_a, sigma2_rec, scratch)
        except QuadratureFailure as exc:
            exc.sample += sl.start  # the worst sample's index in the draw
            raise

    with _chunk_map() as map_chunks:
        try:
            cond = map_chunks(log_p_cond, n)
        except QuadratureFailure as exc:
            k = exc.sample
            raise QuadratureFailure(
                f"conditional density {at}: worst sample {k} of the draw (y={y[k] / c:.6g}, "
                f"x={x[k]:.6g}): in units where sigma_rec = 1, {exc}") from exc
        # the table comes second: a channel the quadrature cannot resolve usually
        # fails in the first conditional chunk, before the table's cost is paid
        try:
            log_p_marg = _marginal_table(y, hp, sigma2_a, sigma2_rec, map_chunks)
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"marginal table {at}: over y in [{y.min() / c:.6g}, {y.max() / c:.6g}]: "
                f"in units where sigma_rec = 1, {exc}") from exc
        llr = map_chunks(lambda sl, _: (cond[sl] - log_p_marg(y[sl])) * LOG2E, n)

    value = float(np.mean(llr))
    std_error = float(np.std(llr, ddof=1) / math.sqrt(n))
    return MiEstimate(value=max(0.0, value), std_error=std_error, n_samples=n, seed=seed)
