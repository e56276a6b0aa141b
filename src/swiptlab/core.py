"""Shared domain types and elementary closed-form link quantities.

All powers are in watts; "energy units" are watts with the symbol period
normalized to one, so energy per symbol and average power coincide.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParams, ZeroNoise, check_count, check_real

LOG2E = math.log2(math.e)


@functools.cache
def _special(name: str):
    """The scipy.special function ``name``, imported at its first call.

    Importing scipy.special takes longer than most commands compute, and
    only Q(x), the QAM thresholds and the MI densities need it.
    """
    import scipy.special
    return getattr(scipy.special, name)


@dataclass(frozen=True)
class LinkParams:
    """Point-to-point link: channel, transmit power, noise and conversion figures.

    h          channel power gain (dimensionless, > 0)
    p          average transmit power [W]; the received power h*p must be finite
    zeta       RF-to-DC conversion efficiency, in (0, 1]
    sigma2_a   antenna noise power [W]
    sigma2_cov RF-to-baseband conversion noise power [W] (separated receiver)
    sigma2_rec rectifier noise variance [W^2]; the std sigma_rec is a power-like
               quantity in watts because the rectified signal is a power signal
    sigma2_adc ADC quantization noise power [W]
    """

    h: float
    p: float
    zeta: float = 1.0
    sigma2_a: float = 0.0
    sigma2_cov: float = 0.0
    sigma2_rec: float = 0.0
    sigma2_adc: float = 0.0

    def __post_init__(self):
        check_real("h", self.h, lo_open=True)
        check_real("p", self.p)
        check_real("h*p", self.h * self.p)
        check_real("zeta", self.zeta, hi=1.0, lo_open=True, hi_open=False)
        for name in ("sigma2_a", "sigma2_cov", "sigma2_rec", "sigma2_adc"):
            check_real(name, getattr(self, name))

    @property
    def received_power(self) -> float:
        """Average signal power at the antenna output, h*P [W]."""
        return self.h * self.p

    @property
    def q_max(self) -> float:
        """Maximum harvestable energy per symbol, zeta*h*P [energy units]."""
        return self.zeta * self.h * self.p

    @property
    def sigma_rec(self) -> float:
        """Rectifier noise std [W]."""
        return math.sqrt(self.sigma2_rec)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# slack for float noise in the monotonicity check of swept boundaries
_PARETO_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class REBoundary:
    """Sampled boundary of an achievable rate-energy region.

    ``points`` is a read-only (n, 2) float64 copy of any array-like, one row
    (rate [bits/use], energy [energy units]) per point, finite and
    nonnegative.  Points are ordered by nondecreasing energy and carry
    nonincreasing rate, i.e. the upper-right Pareto frontier of the region.
    """

    points: np.ndarray
    scheme: str
    receiver: str

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise InvalidParams(f"boundary needs at least one point in an (n, 2) array, "
                                f"got shape {pts.shape}")
        if not np.all(np.isfinite(pts) & (pts >= 0)):
            raise InvalidParams("rate-energy points must be finite and nonnegative")
        rate, energy = pts[:, 0], pts[:, 1]
        if np.any(energy[1:] < energy[:-1] - _PARETO_SLACK * np.maximum(1.0, energy[:-1])):
            raise InvalidParams("boundary points must be sorted by nondecreasing energy")
        if np.any(rate[1:] > rate[:-1] + _PARETO_SLACK * np.maximum(1.0, rate[:-1])):
            raise InvalidParams("boundary rate must be nonincreasing in energy")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def energies(self) -> np.ndarray:
        return self.points[:, 1]

    def rates(self) -> np.ndarray:
        return self.points[:, 0]

    def rate_at(self, energy) -> np.ndarray:
        """Boundary rate at the given energies by linear interpolation.

        Each knot takes the largest rate at its energy or above, so duplicate
        energies (vertical boundary segments) and points out of order within
        the Pareto slack resolve to the dominating rate; energies beyond the
        boundary's span give rate 0.
        """
        e = self.energies()
        order = np.argsort(e)
        uniq_e, idx = np.unique(e[order], return_index=True)
        r = np.maximum.accumulate(self.rates()[order][::-1])[::-1]
        return np.interp(np.asarray(energy, dtype=float), uniq_e, r[idx], right=0.0)

    def to_csv_rows(self) -> list[tuple[str, str, float, float]]:
        return [(self.scheme, self.receiver, r, e) for r, e in self.points.tolist()]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "receiver": self.receiver,
            "points": [{"rate_bits": r, "energy_units": e} for r, e in self.points.tolist()],
        }


def q_function(x):
    """Gaussian tail probability Q(x) = P(N(0,1) > x).

    Accurate to better than 1e-12 relative error for |x| <= 8, with monotone
    tail decay beyond.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * _special("erfc")(x / math.sqrt(2.0))
    return float(out) if out.ndim == 0 else out


def awgn_rate(lp: LinkParams) -> float:
    """Coherent AWGN rate log2(1 + hP / (sigma2_a + sigma2_cov)) [bits/use]."""
    return math.log2(1.0 + split_snr(0.0, lp))


def split_snr(rho, lp: LinkParams):
    """Decoder SNR under a power split: (1-rho) hP / ((1-rho) sigma2_a + sigma2_cov),
    elementwise over an array of split ratios; a scalar rho gives a float.
    The link's p, received_power, sigma2_a and sigma2_cov may also be arrays
    broadcasting against rho, one entry per link."""
    rho = np.asarray(rho, dtype=float)
    ok = (rho >= 0) & (rho <= 1)
    if not ok.all():
        raise InvalidParams(f"split ratio must lie in [0, 1], got {np.extract(~ok, rho)[0]}")
    keep = 1.0 - rho
    noise = keep * lp.sigma2_a + lp.sigma2_cov
    # noise >= sigma2_cov, so only sigma2_cov = 0 can leave an unsplit share noiseless
    if ((lp.p > 0) & (lp.sigma2_cov <= 0) & (noise <= 0) & (keep > 0)).any():
        raise ZeroNoise("split-path noise is zero; SNR is unbounded")
    with np.errstate(over="ignore"):   # an SNR beyond the float range is rejected below
        out = keep * lp.received_power / np.where(noise > 0, noise, 1.0)
    over = np.isinf(out)
    if over.any():
        raise InvalidParams(f"decoder SNR overflows a float at split ratio "
                            f"{np.broadcast_to(rho, out.shape)[over][0]}")
    return float(out) if out.ndim == 0 else out


def box_boundary(rate: float, energy: float, n_points: int, scheme: str,
                 receiver: str) -> REBoundary:
    """The box with corner (rate, energy): n_points - 1 points at that rate
    from energy 0 to the corner, then (0, energy)."""
    check_count("n_points", n_points, 2)
    rates = np.append(np.full(n_points - 1, rate), 0.0)
    energies = np.append(np.linspace(0.0, energy, n_points - 1), energy)
    return REBoundary(points=np.column_stack((rates, energies)), scheme=scheme,
                      receiver=receiver)


def upper_bound_region(lp: LinkParams, n_points: int = 512) -> REBoundary:
    """Receiver-architecture-independent outer bound: the box with corner
    (log2(1 + hP/sigma2_a), hP)."""
    check_real("sigma2_a of the upper bound", lp.sigma2_a, lo_open=True)
    return box_boundary(math.log2(1.0 + lp.received_power / lp.sigma2_a),
                        lp.received_power, n_points, "ub", "any")


def dbm_to_watts(dbm: float) -> float:
    """10^((dBm - 30)/10)."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise InvalidParams(f"a level of {dbm:g} dBm overflows a float in watts") from None
