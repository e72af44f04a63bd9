"""Fee structures: canonical forms, benchmark families, demand profiles."""

import math

import pytest

import shipfees as sf
from shipfees.optimize import _is_weakly_monotone
from shipfees.policies import _demand_profile


class TestCanonicalize:
    def test_pads_with_u_max(self):
        pol = sf.canonicalize(2, (1.0, 1.0, 1.0), 4, 4.0)
        assert pol.fees == (1.0, 1.0, 1.0, 4.0)

    def test_full_cutoff_is_identity(self):
        fees = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.8)
        assert sf.canonicalize(7, fees, 8, 4.0).fees == fees

    def test_cutoff_zero(self):
        pol = sf.canonicalize(0, (2.0,), 8, 4.0)
        assert pol.fees == (2.0,) + (4.0,) * 7

    def test_length_mismatch_rejected(self):
        with pytest.raises(sf.ParameterError, match="requires 3 fees, got 2"):
            sf.canonicalize(2, (1.0, 1.0), 4, 4.0)
        with pytest.raises(sf.ParameterError, match="requires 3 fees, got 2"):
            sf.cutoff_form(2, (1.0, 1.0), 4)

    @pytest.mark.parametrize("cutoff", [-1, 4])
    def test_cutoff_out_of_range_rejected(self, cutoff):
        fees = (1.0,) * max(cutoff + 1, 1)
        with pytest.raises(sf.ParameterError, match="cutoff must lie"):
            sf.canonicalize(cutoff, fees, 4, 4.0)
        with pytest.raises(sf.ParameterError, match="cutoff must lie"):
            sf.cutoff_form(cutoff, fees, 4)

    def test_idempotent(self):
        pol = sf.canonicalize(1, (2.0, 3.0), 4, 4.0)
        again = sf.canonicalize(3, pol.fees, 4, 4.0)
        assert again.fees == pol.fees

    def test_cutoff_form_keeps_unavailable_sentinel(self):
        pol = sf.cutoff_form(0, (2.0,), 8)
        assert pol.fees[0] == 2.0
        assert all(math.isinf(f) for f in pol.fees[1:])
        assert sf.cutoff_form(2, (1, 2.5, 3), 6) == sf.canonicalize(
            2, (1.0, 2.5, 3.0), 6, math.inf
        )


class TestBuildPolicy:
    def test_csp(self):
        assert sf.build_policy("CSP", 2.0, 8, 4.0).fees == (2.0,) * 8

    def test_tsp(self):
        pol = sf.build_policy("TSP", (2.4, 3.0, 6, 7), 8, 4.0)
        assert pol.fees == (2.4,) * 7 + (3.0,)

    def test_tsp_cf(self):
        pol = sf.build_policy("TSP_CF", (2.0, 6), 8, 4.0)
        assert pol.fees == (2.0,) * 7 + (4.0,)

    def test_tsp_requires_fee_order(self):
        with pytest.raises(sf.ParameterError, match="lastminute_fee must exceed"):
            sf.build_policy("TSP", (3.0, 2.4, 6, 7), 8, 4.0)
        with pytest.raises(sf.ParameterError, match="lastminute_fee must exceed"):
            sf.build_policy("TSP", (2.4, 2.4, 6, 7), 8, 4.0)

    def test_tsp_requires_age_order(self):
        with pytest.raises(sf.ParameterError, match="0 <= switch_age <= cutoff_age"):
            sf.build_policy("TSP", (2.4, 3.0, 7, 6), 8, 4.0)
        with pytest.raises(sf.ParameterError, match="0 <= switch_age <= cutoff_age"):
            sf.build_policy("TSP", (2.4, 3.0, -1, 6), 8, 4.0)

    @pytest.mark.parametrize(
        "family, params",
        [("TSP_CF", (2.0, 9)), ("TSP_CF", (2.0, -1)), ("TSP", (2.4, 3.0, 6, 8))],
    )
    def test_cutoff_range_enforced(self, family, params):
        with pytest.raises(sf.ParameterError, match="cutoff_age must lie in 0..period"):
            sf.build_policy(family, params, 8, 4.0)

    @pytest.mark.parametrize(
        "family, params, name, age",
        [
            ("TSP_CF", (2.0, 6.5), "cutoff_age", "6.5"),
            ("TSP_CF", (2.0, 6.0), "cutoff_age", "6.0"),
            ("TSP_CF", (2.0, True), "cutoff_age", "True"),
            ("TSP", (2.0, 3.0, 2.5, 6), "switch_age", "2.5"),
            ("TSP", (2.0, 3.0, False, 6), "switch_age", "False"),
            ("TSP", (2.0, 3.0, 2, 6.0), "cutoff_age", "6.0"),
            ("TSP", (2.0, 3.0, 2.5, 6.0), "cutoff_age", "6.0"),
        ],
    )
    def test_non_integer_age_rejected(self, family, params, name, age):
        with pytest.raises(
            sf.ParameterError, match=rf"^{name} must be an integer, got {age}$"
        ):
            sf.build_policy(family, params, 8, 4.0)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("TSP", (2.4, 3.0, 6), "TSP takes (express_fee, lastminute_fee, "
             "switch_age, cutoff_age), got (2.4, 3.0, 6)"),
            ("TSP_CF", (2.0,), "TSP_CF takes (fee, cutoff_age), got (2.0,)"),
            ("TSP_CF", 2.0, "TSP_CF takes (fee, cutoff_age), got 2.0"),
            ("CSP", (2.0,), "fee must be a real number, got (2.0,)"),
            ("CSP", "2.0", "fee must be a real number, got '2.0'"),
            ("CSP", True, "fee must be a real number, got True"),
            ("TSP_CF", ("2", 3), "fee must be a real number, got '2'"),
            ("TSP", (True, 3.0, 1, 2), "express_fee must be a real number, got True"),
            ("TSP", (2.0, None, 1, 2), "lastminute_fee must be a real number, got None"),
        ],
    )
    def test_malformed_params_rejected(self, family, params, message):
        with pytest.raises(sf.ParameterError) as info:
            sf.build_policy(family, params, 8, 4.0)
        assert str(info.value) == message

    def test_unknown_family_rejected(self):
        with pytest.raises(sf.ParameterError):
            sf.build_policy("FLAT", 2.0, 8, 4.0)

    def test_fee_range_enforced(self):
        with pytest.raises(sf.ParameterError):
            sf.build_policy("CSP", 4.5, 8, 4.0)
        with pytest.raises(sf.ParameterError):
            sf.build_policy("CSP", -0.5, 8, 4.0)


class TestDemandProfile:
    def test_no_express_means_zero_profile(self, choice):
        pol = sf.build_policy("CSP", 4.0, 8, 4.0)
        prof = _demand_profile(pol, choice, 5.0)
        assert prof == (0.0,) * 8

    def test_constant_fee_is_linear(self, choice):
        prof = _demand_profile(sf.build_policy("CSP", 2.0, 8, 4.0), choice, 5.0)
        for tau, val in enumerate(prof):
            assert val == pytest.approx(2.5 * (tau + 1), abs=1e-12)

    def test_tsp_final_value(self, choice):
        pol = sf.build_policy("TSP", (2.4, 3.0, 6, 7), 8, 4.0)
        prof = _demand_profile(pol, choice, 5.0)
        assert prof[7] == pytest.approx(7 * 5 * 0.4 + 5 * 0.25, abs=1e-12)

    def test_running_sum_of_express_rates(self, choice):
        pol = sf.FeeStructure(6, (0.0, 1.3, 2.7, 0.4, 4.0, math.inf))
        running, expected = 0.0, []
        for fee in pol.fees:
            running += sf.split_rates(choice, 5.0, fee)[0]
            expected.append(running)
        prof = _demand_profile(pol, choice, 5.0)
        assert type(prof) is tuple and prof == tuple(expected)


class TestMonotonicity:
    def test_flat_prefix_is_not_strict(self):
        pol = sf.build_policy("TSP", (2.4, 3.0, 6, 7), 8, 4.0)
        assert pol.fees[0] == pol.fees[1]
        assert _is_weakly_monotone(pol) is True

    def test_strictly_increasing(self):
        assert _is_weakly_monotone(sf.FeeStructure(4, (1.0, 2.0, 3.0, 4.0))) is True

    def test_canonical_tail_ties_break_strictness(self):
        # one sentinel age: a last offered fee at u_max ties with the tail
        below = sf.build_policy("TSP", (1.0, 2.0, 0, 1), 3, 4.0)
        at_max = sf.build_policy("TSP", (1.0, 4.0, 0, 1), 3, 4.0)
        assert below.fees[1] < below.fees[2] and at_max.fees[1] == at_max.fees[2]
        assert _is_weakly_monotone(below) is True
        assert _is_weakly_monotone(at_max) is True

    def test_weak_allows_ties_but_not_decreases(self):
        assert _is_weakly_monotone(sf.FeeStructure(3, (1.0, 1.0, 2.0))) is True
        assert _is_weakly_monotone(sf.FeeStructure(3, (1.0, 0.5, 2.0))) is False
