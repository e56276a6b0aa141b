"""Exception types shared across the library, their CLI exit codes, and the
range checks every scalar input goes through."""

import math

import numpy as np


class SwiptError(Exception):
    """Base class for all swiptlab errors.  `exit_code` is the CLI's exit
    status for the class: 2 invalid input, 3 infeasible problem, 4 numerical
    failure."""

    exit_code = 2


class InvalidParams(SwiptError):
    """A parameter violates its domain (wrong sign, out of range, bad size)."""


class ZeroNoise(SwiptError):
    """All relevant noise powers are zero while signal power is positive."""


class SplitAtUnity(SwiptError):
    """Split ratio of exactly 1 makes the effective processing noise unbounded."""


class QuadratureFailure(SwiptError):
    """Adaptive quadrature did not reach tolerance.

    `sample` is the index of the worst unresolved integral in its batch, where
    the failure has one.
    """

    exit_code = 4

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


class InfeasibleTarget(SwiptError):
    """Requested harvested-energy target exceeds what the link can deliver."""

    exit_code = 3


class DegenerateCircuitPower(SwiptError):
    """Zero decoding circuit power: the on-off solver degenerates (use the plain
    static-split sweep instead)."""

    exit_code = 3


class BadConstellation(SwiptError):
    """Constellation size is not a power of two in the supported range."""


class AliasedCarrier(SwiptError):
    """Waveform sampling rate too low for the carrier harmonics of interest."""

    exit_code = 4


def check_real(name: str, value, lo: float = 0.0, hi: float = math.inf,
               lo_open: bool = False, hi_open: bool = True):
    """Return `value` if it is finite and lies between lo and hi, each end
    closed unless open; otherwise raise InvalidParams naming `name`.  NaN and
    +-inf always fail, whatever the ends.  An array passes when every entry
    does, and otherwise fails as its first failing entry."""
    if isinstance(value, np.ndarray):
        ok = ((lo < value if lo_open else lo <= value)
              & (value < hi if hi_open else value <= hi) & np.isfinite(value))
        if ok.all():
            return value
        return check_real(name, value[~ok][0], lo, hi, lo_open, hi_open)
    if ((lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi) and math.isfinite(value)):
        return value
    if hi < math.inf:
        rule = (f"lie in {'(' if lo_open else '['}{lo:.15g}, "
                f"{hi:.15g}{')' if hi_open else ']'}")
    elif lo > -math.inf:
        rule = f"be finite and {'>' if lo_open else '>='} {lo:.15g}"
    else:
        rule = "be finite"
    raise InvalidParams(f"{name} must {rule}, got {value}")


def check_count(name: str, value, minimum: int) -> int:
    """Return `value` as an int if it is an integer (not a bool) >= minimum;
    otherwise raise InvalidParams naming `name`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and value >= minimum:
        return int(value)
    raise InvalidParams(f"{name} must be an integer >= {minimum}, got {value!r}")
