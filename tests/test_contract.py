import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarnpricer import KnockoutType, TarnContract
from tarnpricer.contract import batch_present_value, fixing_flows, sharing_cases

from cashflow_oracle import fixing_outcome, path_present_value, raw_cash_flow


def make_contract(knockout=KnockoutType.FULL_GAIN, target=0.3, strike=1.0,
                  beta=1, times=(0.25, 0.5, 0.75), extras=None):
    return TarnContract(strike=strike, target=target, beta=beta,
                        fixing_times=times, knockout=knockout,
                        extra_payments=extras)


class TestRawCashFlow:
    def test_in_the_money_buy(self):
        assert raw_cash_flow(1.05, make_contract()) == pytest.approx(0.05)

    def test_out_of_the_money_buy(self):
        assert raw_cash_flow(0.90, make_contract()) == 0.0

    def test_sell_direction(self):
        assert raw_cash_flow(0.90, make_contract(beta=-1)) == pytest.approx(0.10)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            spot = float(rng.uniform(0.01, 5.0))
            for beta in (1, -1):
                assert raw_cash_flow(spot, make_contract(beta=beta)) >= 0.0


class TestFixingOutcome:
    # c = 0.08 against A = 0.25, U = 0.3 breaches in all three cases
    def test_full_gain_breach_pays_gross(self):
        out = fixing_outcome(1.08, 0.25, 1, make_contract(KnockoutType.FULL_GAIN))
        assert out.payment == pytest.approx(0.08)
        assert out.terminated

    def test_part_gain_breach_pays_shortfall(self):
        out = fixing_outcome(1.08, 0.25, 1, make_contract(KnockoutType.PART_GAIN))
        assert out.payment == pytest.approx(0.05)
        assert out.terminated

    def test_no_gain_breach_pays_nothing_and_terminates(self):
        # The breach is detected on the gross amount and knocks the note out
        # for every knockout type; no-gain just cancels the final payment.
        out = fixing_outcome(1.08, 0.25, 1, make_contract(KnockoutType.NO_GAIN))
        assert out.payment == 0.0
        assert out.terminated

    def test_no_breach_passes_gross_through(self):
        out = fixing_outcome(1.02, 0.1, 2, make_contract(KnockoutType.NO_GAIN))
        assert out.payment == pytest.approx(0.02)
        assert not out.terminated

    def test_exact_target_hit_is_a_breach(self):
        # 0.5 + 0.25 == 0.75 exactly in binary; equality counts as a breach
        contract = make_contract(KnockoutType.PART_GAIN, target=0.75)
        out = fixing_outcome(1.25, 0.5, 1, contract)
        assert out.terminated
        assert out.payment == pytest.approx(0.25)

    def test_dead_state_rejected(self):
        with pytest.raises(ValueError):
            fixing_outcome(1.05, 0.3, 1, make_contract(target=0.3))
        with pytest.raises(ValueError):
            fixing_outcome(1.05, 0.31, 1, make_contract(target=0.3))

    def test_negative_accumulation_rejected(self):
        with pytest.raises(ValueError):
            fixing_outcome(1.05, -1e-9, 1, make_contract())

    def test_at_target_limit_state(self):
        contract = make_contract(KnockoutType.FULL_GAIN, target=0.3)
        with pytest.raises(ValueError):
            fixing_outcome(1.05, 0.3, 1, contract)
        out = fixing_outcome(1.05, 0.3, 1, contract, allow_at_target=True)
        assert out.payment == pytest.approx(0.05)
        assert out.terminated
        # zero gross at the limit state: nothing fires, the state stays live
        out = fixing_outcome(0.9, 0.3, 1, contract, allow_at_target=True)
        assert out.payment == 0.0
        assert not out.terminated

    def test_bad_fixing_index(self):
        with pytest.raises(ValueError):
            fixing_outcome(1.0, 0.0, 4, make_contract())

    def test_extra_payment_weights(self):
        extras = (0.01, 0.01, 0.01)
        full = make_contract(KnockoutType.FULL_GAIN, extras=extras)
        part = make_contract(KnockoutType.PART_GAIN, extras=extras)
        none_ = make_contract(KnockoutType.NO_GAIN, extras=extras)
        # no breach: extra paid in full, does not accrue
        out = fixing_outcome(1.01, 0.0, 1, full)
        assert out.extra_payment == pytest.approx(0.01)
        # breach with c = 0.08 against A = 0.25, U = 0.3
        assert fixing_outcome(1.08, 0.25, 1, full).extra_payment == pytest.approx(0.01)
        assert fixing_outcome(1.08, 0.25, 1, part).extra_payment == pytest.approx(
            0.01 * 0.05 / 0.08)
        assert fixing_outcome(1.08, 0.25, 1, none_).extra_payment == 0.0


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def fixing_states(draw):
    """A contract plus a batch of (spot, accrued) states at its first fixing.

    Spots at the strike, on its paying side and on the other side give zero
    and positive gross amounts; the accrued amounts lie in [0, target), or
    sit exactly on the target, the lattice's limit state.  Some accrued
    amounts are ``target - gross``, so that the fixing often lands exactly
    on the target.
    """
    kind = draw(st.sampled_from(list(KnockoutType)))
    beta = draw(st.sampled_from([1, -1]))
    strike = draw(st.floats(0.5, 2.0))
    target = draw(st.floats(0.01, 2.0))
    extra = draw(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
    contract = make_contract(kind, target=target, strike=strike, beta=beta,
                             times=(0.5, 1.0), extras=(extra, 0.0))
    state = st.tuples(
        st.one_of(st.just(strike), st.floats(0.01, 5.0)),
        st.one_of(st.just(target), st.floats(0.0, target, exclude_max=True),
                  st.just(None)),
    )
    states = []
    for spot, accrued in draw(st.lists(state, min_size=1, max_size=20)):
        if accrued is None:
            hit = target - raw_cash_flow(spot, contract)
            accrued = hit if 0.0 <= hit < target else 0.0
        states.append((spot, accrued))
    return contract, states


class TestFixingFlows:
    @given(fixing_states())
    def test_matches_scalar_oracle_bitwise(self, case):
        contract, states = case
        gross = np.array([raw_cash_flow(s, contract) for s, _ in states])
        accrued = np.array([a for _, a in states])
        # equal in value; a zero gross may differ in sign from the oracle's
        assert np.array_equal(contract.gross(np.array([s for s, _ in states])),
                              gross)
        payment, extra, dead = fixing_flows(
            gross, accrued, contract.extra_payments[0],
            contract.knockout, contract.target)
        want = [fixing_outcome(s, a, 1, contract, allow_at_target=True)
                for s, a in states]
        assert bits(payment) == bits([o.payment for o in want])
        assert bits(extra) == bits([o.extra_payment for o in want])
        assert dead.tolist() == [o.terminated for o in want]

    def test_broadcasts_accrued_against_gross(self):
        contract = make_contract(KnockoutType.PART_GAIN, extras=(0.01,) * 3)
        gross = contract.gross(np.array([0.9, 1.05, 1.2]))
        accrued = np.array([0.0, 0.2, 0.3])[:, None]
        payment, extra, dead = fixing_flows(gross, accrued, 0.01,
                                            contract.knockout, contract.target)
        assert payment.shape == extra.shape == dead.shape == (3, 3)
        assert dead.tolist() == [[False, False, False],
                                 [False, False, True],
                                 [False, True, True]]
        assert payment[1, 2] == pytest.approx(0.1)


class TestPathPresentValue:
    def test_single_fixing_no_breach(self):
        contract = make_contract(target=10.0, times=(1.0,))
        assert path_present_value([1.05], contract, [1.0]) == pytest.approx(0.05)

    def test_all_out_of_the_money(self):
        contract = make_contract(times=(0.5, 1.0))
        assert path_present_value([0.9, 0.95], contract, [1.0, 1.0]) == 0.0

    def test_three_fixings_by_knockout_type(self):
        # gross sequence 0.2, 0.2, 0.2 against U = 0.5 breaches at the third
        # fixing: full gain pays it, part gain trims to 0.1, no gain drops it
        path = [1.2, 1.2, 1.2]
        ones = [1.0, 1.0, 1.0]
        expect = {KnockoutType.FULL_GAIN: 0.6, KnockoutType.PART_GAIN: 0.5,
                  KnockoutType.NO_GAIN: 0.4}
        for kind, value in expect.items():
            contract = make_contract(kind, target=0.5)
            assert path_present_value(path, contract, ones) == pytest.approx(value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            path_present_value([1.0], make_contract(), [1.0, 1.0, 1.0])


def random_paths(rng, n, k):
    return 1.0 + 0.35 * rng.standard_normal((n, k)).cumsum(axis=1) * 0.3 + \
        0.1 * rng.standard_normal((n, k))


class TestPathProperties:
    rng = np.random.default_rng(2024)
    n, k = 400, 8
    times = tuple(0.1 * (i + 1) for i in range(8))
    paths = np.abs(random_paths(rng, n, k)) + 1e-6
    discounts = np.exp(-0.03 * np.asarray(times))

    def total_payments(self, kind, target, path):
        contract = make_contract(kind, target=target, times=self.times)
        return path_present_value(path, contract, np.ones(self.k))

    def test_part_gain_total_is_capped_minimum(self):
        for path in self.paths[:200]:
            full = self.total_payments(KnockoutType.FULL_GAIN, 0.4, path)
            part = self.total_payments(KnockoutType.PART_GAIN, 0.4, path)
            assert part <= 0.4 + 1e-12
            assert part == pytest.approx(min(full, 0.4))

    def test_no_gain_total_strictly_below_target(self):
        for path in self.paths[:200]:
            none_ = self.total_payments(KnockoutType.NO_GAIN, 0.4, path)
            assert none_ < 0.4

    def test_full_gain_exceeds_only_via_final_payment(self):
        for path in self.paths[:200]:
            contract = make_contract(KnockoutType.FULL_GAIN, target=0.4,
                                     times=self.times)
            acc = 0.0
            last = 0.0
            for i in range(self.k):
                out = fixing_outcome(path[i], acc, i + 1, contract)
                acc += out.payment
                last = out.payment
                if out.terminated:
                    break
            assert acc - last < 0.4

    def test_dominance_across_knockout_types(self):
        for path in self.paths:
            values = [
                path_present_value(path, make_contract(kind, target=0.4,
                                                       times=self.times),
                                   self.discounts)
                for kind in (KnockoutType.NO_GAIN, KnockoutType.PART_GAIN,
                             KnockoutType.FULL_GAIN)
            ]
            assert values[0] <= values[1] + 1e-14
            assert values[1] <= values[2] + 1e-14

    def test_huge_target_equals_vanilla_strip(self):
        contract = make_contract(KnockoutType.FULL_GAIN, target=1e9,
                                 times=self.times)
        for path in self.paths[:100]:
            strip = sum(
                d * max(path[i] - 1.0, 0.0)
                for i, d in enumerate(self.discounts)
            )
            got = path_present_value(path, contract, self.discounts)
            assert got == pytest.approx(strip, rel=1e-13, abs=1e-15)

    def test_batch_matches_scalar_bitwise(self):
        for kind in KnockoutType:
            for extras in (None, tuple(0.002 * (i + 1) for i in range(self.k))):
                contract = make_contract(kind, target=0.4, times=self.times,
                                         extras=extras)
                batch = batch_present_value(self.paths, (contract,), self.discounts)
                scalar = np.array([
                    path_present_value(p, contract, self.discounts)
                    for p in self.paths
                ])
                assert batch.shape == (1, self.n)
                assert np.array_equal(batch[0], scalar)


# Spots whose gross amounts against strike 1 are multiples of 1/8, so that
# accrued sums are exact and land on a target of m/8 exactly; 1.0 pays zero.
DYADIC_SPOTS = tuple(1.0 + j / 8 for j in range(-4, 9))


@st.composite
def path_batches(draw):
    """A group of 1 to 6 contracts on one schedule of 1 to 24 fixings, one
    strike and one beta, with discounts and 1 to 8 paths.

    Both betas; each contract draws its own knockout, target and extras
    (none, all zeros or mixed ones), so a group mixes them, repeated or
    distinct extras included.  Half the groups draw their targets from a
    pool of 1 or 2 values and hold up to 6 contracts, so one target is
    often shared across knockouts and distinct extras; the others draw
    each target afresh for up to 4.  Half the groups use only the dyadic
    spots and targets of m/8, so zero-gross fixings and accrued amounts
    exactly at the target are common; the others mix in arbitrary spots
    and targets, up to a huge one that no path breaches.
    """
    k_total = draw(st.integers(1, 24))
    times = tuple(0.1 * (k + 1) for k in range(k_total))
    beta = draw(st.sampled_from([1, -1]))
    dyadic = draw(st.booleans())
    eighths = st.sampled_from([m / 8 for m in range(1, 25)])
    targets = eighths if dyadic else st.one_of(st.floats(0.01, 3.0), st.just(1e9))
    size = st.integers(1, 4)
    if draw(st.booleans()):
        targets = st.sampled_from(draw(st.lists(targets, min_size=1, max_size=2)))
        size = st.integers(1, 6)
    extras = st.one_of(
        st.just(None), st.just((0.0,) * k_total),
        st.lists(st.one_of(st.just(0.0), st.floats(-0.2, 0.2)),
                 min_size=k_total, max_size=k_total))
    cases = tuple(
        make_contract(draw(st.sampled_from(list(KnockoutType))), target=draw(targets),
                      beta=beta, extras=draw(extras), times=times)
        for _ in range(draw(size)))
    discounts = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.5, 1.0)),
                              min_size=k_total, max_size=k_total))
    spot = st.sampled_from(DYADIC_SPOTS)
    if not dyadic:
        spot = st.one_of(spot, st.floats(0.3, 2.0))
    paths = draw(st.lists(st.lists(spot, min_size=k_total, max_size=k_total),
                          min_size=1, max_size=8))
    return cases, np.array(paths), np.array(discounts)


class TestBatchPresentValue:
    @given(path_batches())
    def test_matches_scalar_oracle_bitwise(self, group):
        cases, paths, discounts = group
        want = [bits([path_present_value(p, case, discounts) for p in paths])
                for case in cases]
        assert [bits(row) for row in batch_present_value(paths, cases, discounts)] == want
        # the engine passes the transpose of a fixing-major buffer
        fixing_major = np.ascontiguousarray(paths.T)
        got = batch_present_value(fixing_major.T, cases, discounts)
        assert [bits(row) for row in got] == want

    def test_a_case_is_valued_the_same_in_any_group(self):
        # distinct extras in one group: one shares the gross buffer, one a copy;
        # the last two share a target and differ only in extras and knockout
        rng = np.random.default_rng(5)
        paths, discounts = np.abs(random_paths(rng, 50, 3)) + 1e-6, np.full(3, 0.97)
        cases = (make_contract(KnockoutType.PART_GAIN, extras=(0.01, 0.0, -0.02)),
                 make_contract(KnockoutType.NO_GAIN, target=0.2),
                 make_contract(KnockoutType.FULL_GAIN, target=0.5, extras=(0.01, 0.0, -0.02)),
                 make_contract(KnockoutType.PART_GAIN, target=0.5, extras=(0.0, 0.03, 0.01)))
        together = batch_present_value(paths, cases, discounts)
        for case, row in zip(cases, together):
            assert bits(row) == bits(batch_present_value(paths, (case,), discounts)[0])

    @pytest.mark.parametrize("layout", ["knockouts", "extras", "crossed"])
    @pytest.mark.parametrize("breach", ["never", "at_first_fixing", "exactly_at_target",
                                        "mixed"])
    def test_cases_sharing_a_target_each_match_the_oracle(self, breach, layout):
        # The knockout state is made once per target and the survivors'
        # sum once per (target, extras): each case must still get its own.
        rng = np.random.default_rng(17)
        k_total, n = 6, 40
        times = tuple(0.1 * (k + 1) for k in range(k_total))
        paths = rng.choice(DYADIC_SPOTS, size=(n, k_total))
        target, other = {"never": (1e9, 0.25), "at_first_fixing": (1 / 8, 1e9),
                         "exactly_at_target": (3 / 8, 5 / 8), "mixed": (0.3, 0.7)}[breach]
        if breach == "at_first_fixing":
            paths[:, 0] = rng.choice(DYADIC_SPOTS[5:], size=n)  # gross >= 1/8
        elif breach == "exactly_at_target":
            paths[: n // 2] = 1.125  # accrues 1/8 a fixing, reaching 3/8 at fixing 3
        elif breach == "mixed":
            paths = np.abs(random_paths(rng, n, k_total)) + 1e-6
        accrued = np.cumsum(np.maximum(paths - 1.0, 0.0), axis=1)
        tau = (accrued < target).sum(axis=1)
        assert {"never": np.all(tau == k_total), "at_first_fixing": np.all(tau == 0),
                "exactly_at_target": np.any(accrued[:, 2] == target),
                "mixed": 0 < np.count_nonzero(tau < k_total) < n}[breach]

        mixed_extras = tuple(0.01 * (-1) ** k * (k + 1) for k in range(k_total))
        zeros = (0.0,) * k_total
        if layout == "knockouts":
            spec = [(target, kind, mixed_extras) for kind in KnockoutType]
        elif layout == "extras":
            spec = [(target, KnockoutType.PART_GAIN, extras)
                    for extras in (None, zeros, mixed_extras)]
        else:  # each target and each extras shared, each (target, extras) once
            spec = [(target, KnockoutType.FULL_GAIN, mixed_extras),
                    (other, KnockoutType.NO_GAIN, zeros),
                    (target, KnockoutType.PART_GAIN, zeros),
                    (other, KnockoutType.PART_GAIN, mixed_extras)]
        cases = tuple(make_contract(kind, target=u, extras=extras, times=times)
                      for u, kind, extras in spec)
        discounts = np.linspace(0.99, 0.9, k_total)
        want = [bits([path_present_value(p, case, discounts) for p in paths])
                for case in cases]
        assert [bits(row) for row in batch_present_value(paths, cases, discounts)] == want


class TestSharingCases:
    def test_keeps_the_cases_on_its_terms_in_order_each_once(self):
        low, high = make_contract(target=0.2), make_contract(target=0.4)
        other = make_contract(strike=1.1)
        cases = (high, other, low, make_contract(target=0.4), low)
        assert sharing_cases(low, cases) == (high, low)

    def test_a_contract_outside_its_cases_stands_alone(self):
        contract = make_contract(target=0.2)
        assert sharing_cases(contract, (make_contract(), make_contract())) == (contract,)


class TestContractValidation:
    def test_requires_positive_target(self):
        with pytest.raises(ValueError, match="target must be positive"):
            make_contract(target=-1.0)

    def test_requires_positive_strike(self):
        with pytest.raises(ValueError, match="strike"):
            make_contract(strike=0.0)

    def test_requires_valid_beta(self):
        with pytest.raises(ValueError, match="beta"):
            make_contract(beta=2)

    @pytest.mark.parametrize("beta", [1.7, -1.2, 0.5, math.nan])
    def test_rejects_non_integral_beta_by_name(self, beta):
        # int() would truncate 1.7 to +1 and -1.2 to -1
        with pytest.raises(ValueError, match="^beta must be"):
            make_contract(beta=beta)

    @pytest.mark.parametrize("beta", [1.0, -1.0])
    def test_integral_float_beta_becomes_an_int(self, beta):
        contract = make_contract(beta=beta)
        assert contract.beta == beta and type(contract.beta) is int

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            make_contract(times=(0.5, 0.5, 0.75))
        with pytest.raises(ValueError, match="positive"):
            make_contract(times=(0.0, 0.5))

    def test_extra_payments_length(self):
        with pytest.raises(ValueError, match="entries"):
            make_contract(extras=(0.01, 0.01))

    @pytest.mark.parametrize("field, kwargs", [
        ("strike", dict(strike=math.nan)),
        ("target", dict(target=math.inf)),
        ("target", dict(target=math.nan)),
        ("fixing_times", dict(times=(0.25, 0.5, math.inf))),
        ("fixing_times", dict(times=(0.25, math.nan, 0.75))),
        ("extra_payments", dict(extras=(0.1, math.nan, 0.1))),
        ("extra_payments", dict(extras=(0.1, 0.1, -math.inf))),
    ])
    def test_rejects_non_finite_by_name(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_contract(**kwargs)

    @pytest.mark.parametrize("knockout", ["no_gain", None, 1])
    def test_rejects_knockout_that_is_not_a_type(self, knockout):
        # a string used to price silently by the part-gain rule
        with pytest.raises(ValueError, match="^knockout must be a KnockoutType"):
            make_contract(knockout=knockout)

    @pytest.mark.parametrize("field, value, message", [
        ("strike", "1.0", "strike must be a finite real number, got '1.0'"),
        ("strike", True, "strike must be a finite real number, got True"),
        ("target", "0.3", "target must be a finite real number, got '0.3'"),
        ("target", False, "target must be a finite real number, got False"),
        ("beta", True, "beta must be +1 or -1, got True"),
    ], ids=["strike_str", "strike_bool", "target_str", "target_bool", "beta_bool"])
    def test_rejects_the_wrong_kind_by_name(self, field, value, message):
        # float() would convert a numeric string silently, and a bool would
        # pass as 0 or 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_contract(**{field: value})

    @pytest.mark.parametrize("value", [1, np.float64(1.0), np.int64(1)],
                             ids=["int", "float64", "int64"])
    def test_any_real_strike_becomes_a_float(self, value):
        contract = make_contract(strike=value)
        assert contract.strike == 1.0 and type(contract.strike) is float

    def test_no_extra_payments_are_stored_as_zeros(self):
        # one form for both engines to read: one float per fixing
        contract = make_contract(extras=None)
        assert contract.extra_payments == (0.0,) * 3
        assert contract == make_contract(extras=(0, 0.0, 0))

    def test_contract_is_immutable(self):
        contract = make_contract()
        with pytest.raises(AttributeError):
            contract.strike = 2.0
