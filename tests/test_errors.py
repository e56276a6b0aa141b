"""The input contract: the two range checks and each error class's exit code."""

import math

import numpy as np
import pytest

from swiptlab import capacity, core, errors, modulation
from swiptlab.errors import InvalidParams, check_count, check_real


class TestCheckReal:
    @pytest.mark.parametrize("value,kwargs", [
        (0.0, {}), (5.0, {}), (1e300, {}), (1.0, {"lo": 1.0}),
        (1.0, {"hi": 1.0, "hi_open": False}), (0.5, {"hi": 1.0, "lo_open": True}),
        (-1e300, {"lo": -math.inf})])
    def test_accepts_and_returns(self, value, kwargs):
        assert check_real("x", value, **kwargs) is value

    @pytest.mark.parametrize("value,kwargs,message", [
        (math.nan, {}, "x must be finite and >= 0, got nan"),
        (math.inf, {}, "x must be finite and >= 0, got inf"),
        (-1.0, {}, "x must be finite and >= 0, got -1.0"),
        (0.0, {"lo_open": True}, "x must be finite and > 0, got 0.0"),
        (0.5, {"lo": 1.0}, "x must be finite and >= 1, got 0.5"),
        (1.0, {"hi": 1.0}, "x must lie in [0, 1), got 1.0"),
        (math.nan, {"hi": 1.0, "lo_open": True}, "x must lie in (0, 1), got nan"),
        (2.0, {"hi": 1.0, "hi_open": False}, "x must lie in [0, 1], got 2.0"),
        (math.inf, {"hi": math.inf, "hi_open": False}, "x must be finite and >= 0, got inf"),
        (-math.inf, {"lo": -math.inf}, "x must be finite, got -inf"),
        (math.nan, {"lo": -math.inf}, "x must be finite, got nan")])
    def test_rejects_with_message(self, value, kwargs, message):
        with pytest.raises(InvalidParams) as info:
            check_real("x", value, **kwargs)
        assert str(info.value) == message


class TestCheckCount:
    @pytest.mark.parametrize("value", [2, 10**20, np.int64(7)])
    def test_accepts(self, value):
        out = check_count("n", value, 2)
        assert out == value and type(out) is int

    @pytest.mark.parametrize("value", [1, -3, 2.0, 2.5, math.nan, True, "4", None])
    def test_rejects(self, value):
        with pytest.raises(InvalidParams, match="n must be an integer >= 2"):
            check_count("n", value, 2)


def test_exit_codes_by_class():
    codes = {name: cls.exit_code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.SwiptError)}
    assert codes == {"SwiptError": 2, "InvalidParams": 2, "ZeroNoise": 2,
                     "SplitAtUnity": 2, "QuadratureFailure": 4,
                     "InfeasibleTarget": 3, "DegenerateCircuitPower": 3,
                     "BadConstellation": 2, "AliasedCarrier": 4}


# inputs that once returned NaN or inf, or were accepted, instead of raising
@pytest.mark.parametrize("call,raises", [
    (lambda: capacity.c2_asymptotic(math.nan, 1.0), InvalidParams),
    (lambda: capacity.c1_asymptotic(math.inf, 1.0), InvalidParams),
    (lambda: capacity.c1_upper_optimized(1.0, math.nan), InvalidParams),
    (lambda: modulation.ser_qam(4, math.nan), InvalidParams),
    (lambda: modulation.ser_pem(4, math.nan), InvalidParams),
    (lambda: modulation.max_modulation(modulation.QAM, math.nan, 1e-5), InvalidParams),
    (lambda: modulation.link_budget_to_params(math.nan, 1.0, -104.0, -70.0, -50.0),
     InvalidParams),
    (lambda: modulation.link_budget_to_params(math.inf, 1.0, -104.0, -70.0, -50.0),
     InvalidParams),
    (lambda: modulation.link_budget_to_params(1.0, math.nan, -104.0, -70.0, -50.0),
     InvalidParams),
    (lambda: modulation.link_budget_to_params(1.0, math.inf, -104.0, -70.0, -50.0),
     InvalidParams),
    (lambda: core.dbm_to_watts(1e12), InvalidParams),
    (lambda: capacity.cnl_lower_chi2(1.0, 1.0, 1.0, n_samples=20000.5), InvalidParams),
], ids=["c2_asymptotic", "c1_asymptotic", "c1_params", "ser_qam", "ser_pem",
        "max_modulation", "budget_distance_nan", "budget_distance_inf", "budget_power_nan",
        "budget_power_inf", "dbm_to_watts", "mc_samples"])
def test_former_holes_raise(call, raises):
    with pytest.raises(raises):
        call()
