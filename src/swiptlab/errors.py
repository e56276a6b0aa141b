"""Exception types shared across the library."""


class SwiptError(Exception):
    """Base class for all swiptlab errors."""


class InvalidParams(SwiptError):
    """A parameter violates its domain (wrong sign, out of range, bad size)."""


class ZeroNoise(SwiptError):
    """All relevant noise powers are zero while signal power is positive."""


class NonPositivePower(SwiptError):
    """A power that must be strictly positive (e.g. for dBm conversion) is not."""


class SplitAtUnity(SwiptError):
    """Split ratio of exactly 1 makes the effective processing noise unbounded."""


class QuadratureFailure(SwiptError):
    """Adaptive quadrature did not reach tolerance; inputs likely need rescaling.

    `sample` is the index of the worst unresolved integral in its batch, where
    the failure has one.
    """

    def __init__(self, message: str, sample: int | None = None):
        super().__init__(message)
        self.sample = sample


class InfeasibleTarget(SwiptError):
    """Requested harvested-energy target exceeds what the link can deliver."""


class DegenerateCircuitPower(SwiptError):
    """Zero decoding circuit power: the on-off solver degenerates (use the plain
    static-split sweep instead)."""


class BadConstellation(SwiptError):
    """Constellation size is not a power of two in the supported range."""


class AliasedCarrier(SwiptError):
    """Waveform sampling rate too low for the carrier harmonics of interest."""
