"""Argument checks: every entry that takes x or ln x raises DomainError
outside the domain, and the engine-backed entries keep the shape of x."""

import math

import numpy as np
import pytest

from gammamoments import (ContourSpec, ConvergenceError, DomainError,
                          adapted_contour, class_member, contour_log_densities,
                          contour_log_density, inverse_mellin_log,
                          log_bessel_k0, mellin_convolve_many, mellin_symbol,
                          omega2, omega3, perturbation, principal_solution,
                          tm1, tm2, tm3, tm4, w1, w2, w3, w4)


def _decay(v):
    return np.exp(-v)


_X_ENTRIES = {
    "WeightFunction.evaluate": lambda x:
        principal_solution(tm2(1)).evaluate(x),
    "WeightFunction.evaluate[tm3]": lambda x:
        principal_solution(tm3(1)).evaluate(x),
    "Perturbation.evaluate": lambda x: perturbation(tm3(3), 1).evaluate(x),
    "w1": lambda x: w1(2, x),
    "w2": lambda x: w2(1, x),
    "w3": lambda x: w3(1, x),
    "w4": lambda x: w4(1, x),
    "omega2": lambda x: omega2(3, 1, x),
    "omega3": lambda x: omega3(3, 1, x),
    "class_member": lambda x: class_member(tm3(3), 1, 0.1, x),
    "contour_log_density": lambda x: contour_log_density(tm3(1), x),
    "adapted_contour": lambda x: adapted_contour(tm3(1), x),
    "inverse_mellin_log": lambda x: inverse_mellin_log(
        lambda s: mellin_symbol(tm3(1), s), x, ContourSpec(2.0, 20.0, 128)),
    "mellin_convolve_many": lambda x: mellin_convolve_many(_decay, _decay, x),
    "log_bessel_k0": log_bessel_k0,
}

_LOG_X_ENTRIES = {
    "tm1.log_density": principal_solution(tm1(1)).log_density,
    "tm2.log_density": principal_solution(tm2(1)).log_density,
    "tm3.log_density": principal_solution(tm3(1)).log_density,
    "contour_log_densities": lambda lx: contour_log_densities(tm3(1), lx),
}


class TestDomain:
    # mellin's entries once raised ConstraintError, and some of them let
    # inf or nan through to a RuntimeWarning or a ConvergenceError
    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan],
                             ids=["zero", "negative", "inf", "nan"])
    @pytest.mark.parametrize("name", sorted(_X_ENTRIES))
    def test_x_outside_domain(self, name, x):
        with pytest.raises(DomainError, match="0 < x < inf"):
            _X_ENTRIES[name](x)
        with pytest.raises(DomainError, match="0 < x < inf"):
            _X_ENTRIES[name](np.array([1.0, x]))

    @pytest.mark.parametrize("log_x", [-math.inf, math.inf, math.nan],
                             ids=["minus-inf", "inf", "nan"])
    @pytest.mark.parametrize("name", sorted(_LOG_X_ENTRIES))
    def test_log_x_not_finite(self, name, log_x):
        with pytest.raises(DomainError, match="ln x must be finite"):
            _LOG_X_ENTRIES[name](log_x)
        with pytest.raises(DomainError, match="ln x must be finite"):
            _LOG_X_ENTRIES[name](np.array([0.0, log_x]))


# the entries of _X_ENTRIES that return f(x): a scalar x gives a float
_VALUE_ENTRIES = ["WeightFunction.evaluate", "WeightFunction.evaluate[tm3]",
                  "Perturbation.evaluate", "w1",
                  "w2", "w3", "w4", "omega2", "omega3", "class_member",
                  "mellin_convolve_many", "log_bessel_k0"]

_X = np.array([[0.5, 1.0, 2.0], [3.0, 0.7, 1.5]])

_SHAPED = {
    "contour_log_densities": lambda x: contour_log_densities(tm3(1),
                                                             np.log(x))[0],
    "WeightFunction.evaluate[tm2]": lambda x:
        principal_solution(tm2(1)).evaluate(x),
    "WeightFunction.evaluate[tm3]": lambda x:
        principal_solution(tm3(1)).evaluate(x),
    "Perturbation.evaluate": lambda x: perturbation(tm3(3), 1).evaluate(x),
    "class_member": lambda x: class_member(tm3(3), 1, 0.1, x),
    "mellin_convolve_many": lambda x: mellin_convolve_many(_decay, _decay, x),
    "w1": lambda x: w1(2, x),
    "w2": lambda x: w2(1, x),
    "w3": lambda x: w3(1, x),
    "w4": lambda x: w4(1, x),
    "omega2": lambda x: omega2(3, 1, x),
    "omega3": lambda x: omega3(3, 1, x),
}


class TestShape:
    @pytest.mark.parametrize("name", _VALUE_ENTRIES)
    def test_scalar_gives_float(self, name):
        # WeightFunction.evaluate, w1 and w2 once gave np.float64, and
        # log_bessel_k0 a shape-(1,) array for a 0-d x
        for x in (1.5, np.array(1.5)):
            assert type(_X_ENTRIES[name](x)) is float

    @pytest.mark.parametrize("name", sorted(_SHAPED))
    def test_2d_equals_1d_reshaped(self, name):
        # a 2-D x once reached argsort in the engine (IndexError), or the
        # convolution's chunking (ValueError); w3 and w4 took floats only
        got = _SHAPED[name](_X)
        assert got.shape == _X.shape
        np.testing.assert_array_equal(got, _SHAPED[name](_X.ravel())
                                      .reshape(_X.shape))

    @pytest.mark.parametrize("w, make", [(w3, tm3), (w4, tm4)],
                             ids=["w3", "w4"])
    def test_scalar_and_array_forms(self, w, make):
        xs = np.array([0.3, 1.0, 4.0])
        vals = w(1, xs)
        assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
        for x, v in zip(xs, vals):
            one = w(1, float(x))
            # a scalar x gives the one-knot engine value, as it always has
            assert type(one) is float
            assert one == float(np.exp(contour_log_density(make(1), x)[0]))
            assert v == pytest.approx(one, rel=1e-9)

    def test_unbounded_convolution_integrand(self):
        # f = g = exp once ended in a raw IndexError of the support scan
        with pytest.raises(ConvergenceError, match="unbounded"):
            mellin_convolve_many(np.exp, np.exp, np.ones((2, 2)))
