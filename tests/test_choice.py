"""Customer choice: take rates and thinned arrival rates."""

import math

import numpy as np
import pytest

import shipfees as sf


def test_take_rate_midpoint(choice):
    assert sf.take_rate(choice, 6.0) == 0.5


def test_take_rate_boundaries(choice):
    assert sf.take_rate(choice, choice.regular_price + choice.u_max) == 0.0
    assert sf.take_rate(choice, choice.regular_price + choice.u_min) == 1.0


def test_take_rate_nonincreasing_and_bounded(choice):
    rates = [sf.take_rate(choice, p) for p in np.linspace(2.0, 10.0, 81)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(0.0 <= r <= 1.0 for r in rates)


def test_take_rate_degenerate_premium_is_a_step():
    atom = sf.ChoiceModel(4.0, 1.0, 1.0)
    assert sf.take_rate(atom, 4.9) == 1.0
    assert sf.take_rate(atom, 5.0) == 0.0
    assert sf.take_rate(atom, 5.1) == 0.0


def test_split_rates_examples(choice):
    assert sf.split_rates(choice, 5.0, 2.0) == (2.5, 2.5)
    assert sf.split_rates(choice, 5.0, math.inf) == (0.0, 5.0)
    assert sf.split_rates(choice, 5.0, 3.0) == (1.25, 3.75)


def test_split_rates_conserve_total(choice):
    rng = np.random.default_rng(7)
    for fee in rng.uniform(-1.0, 6.0, size=50):
        e, r = sf.split_rates(choice, 5.0, float(fee))
        assert e + r == 5.0
        assert e >= 0.0 and r >= 0.0


def test_express_rate_nonincreasing_in_fee(choice):
    rates = [sf.split_rates(choice, 5.0, float(f))[0] for f in np.linspace(0, 4, 41)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_model_validation():
    with pytest.raises(sf.ParameterError):
        sf.ChoiceModel(4.0, 3.0, 2.0)
    with pytest.raises(sf.ParameterError):
        sf.ChoiceModel(4.0, -0.5, 2.0)
    with pytest.raises(sf.ParameterError):
        sf.ChoiceModel(-1.0, 0.0, 4.0)


@pytest.mark.parametrize("field", ["regular_price", "u_min", "u_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite(field, value):
    kwargs = {"regular_price": 4.0, "u_min": 0.0, "u_max": 4.0, field: value}
    with pytest.raises(sf.ParameterError, match=field):
        sf.ChoiceModel(**kwargs)
