"""Ordinal cones, middle rates, stochastic dominance, and the V-domain."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alloclab import (
    BernoulliUtility,
    MuOutOfRange,
    NormalizedUtility,
    OrdinalPreference,
    PreconditionViolated,
    SdVerdict,
    SingleObject,
    TiesPresent,
    WrongDimension,
    all_orders,
    canonicalize,
    expected_utility,
    make_lottery,
    make_utility,
    middle_rate,
    ordinal_of,
    rdu_utility,
    sd_compare,
    separating_utility,
    utility_from,
    v_from_bernoulli,
    validate_v_domain,
)
from alloclab.checkers import encoded
from alloclab.ordinal import (
    InconsistentBase,
    random_utility_consistent,
    sd_comparable_pair,
)

from conftest import utilities


ABC = OrdinalPreference((0, 1, 2))


class TestOrdinalOf:
    def test_examples(self):
        assert ordinal_of(make_utility(["1", "2/5", "0"])) == ABC
        assert ordinal_of(make_utility(["0", "1", "1/2"])) == OrdinalPreference((1, 2, 0))

    def test_ties_rejected_at_construction(self):
        with pytest.raises(TiesPresent):
            make_utility([1, 1, 0])

    def test_string_roundtrip(self):
        order = OrdinalPreference((2, 0, 1))
        assert str(order) == "c>a>b"

    def test_kept_on_the_utility(self):
        u = make_utility(["0", "1", "1/2"])
        assert ordinal_of(u) is ordinal_of(u)
        assert not hasattr(ordinal_of, "cache_info")  # no global memo to grow

    @given(utilities())
    def test_partition_into_cones(self, u):
        matches = [order for order in all_orders(3) if ordinal_of(u) == order]
        assert len(matches) == 1


class TestMiddleRate:
    def test_direct(self):
        assert middle_rate(make_utility(["1", "2/5", "0"])) == Fraction(2, 5)

    def test_scale_invariant(self):
        assert middle_rate(make_utility([10, 4, 0])) == Fraction(2, 5)

    def test_relabelled_cone(self):
        assert middle_rate(make_utility([0, 3, 1])) == Fraction(1, 3)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            middle_rate(make_utility([1, 2, 3, 4]))

    def test_strictly_interior(self):
        rng = random.Random(4)
        for _ in range(200):
            u = random_utility_consistent(rng.choice(all_orders(3)), rng)
            assert 0 < middle_rate(u) < 1

    @given(
        utilities(),
        st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=16),
        st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=16),
    )
    def test_affine_invariance(self, u, scale, shift):
        moved = make_utility([scale * v + shift for v in u.values])
        assert middle_rate(moved) == middle_rate(u)
        assert ordinal_of(moved) == ordinal_of(u)


class TestCanonicalize:
    def test_example(self):
        assert canonicalize(make_utility([10, 4, 0])).values == (
            Fraction(5, 7),
            Fraction(2, 7),
            Fraction(0),
        )

    def test_idempotent(self):
        u = make_utility(["5/7", "2/7", "0"])
        assert canonicalize(u).values == u.values
        normalized = canonicalize(u)
        assert canonicalize(normalized) is normalized

    def test_affine_reduction(self):
        assert canonicalize(make_utility([3, 7, 5])).values == (
            Fraction(0),
            Fraction(2, 3),
            Fraction(1, 3),
        )

    def test_refuses_one_object(self):
        # One value shifts to 0, which no scale brings to sum 1.
        with pytest.raises(SingleObject, match="one-object utility has no canonical form"):
            canonicalize(make_utility([5]))

    @given(utilities())
    def test_lands_in_same_class(self, u):
        canonical = canonicalize(u)
        assert ordinal_of(canonical) == ordinal_of(u)
        assert middle_rate(canonical) == middle_rate(u)
        assert min(canonical.values) == 0
        assert sum(canonical.values) == 1
        assert canonicalize(canonical).values == canonical.values


class TestNormalizedUtility:
    def test_trusted_builds_equal_validated_ones(self):
        # canonicalize and utility_from skip the checks on values they
        # built to pass them; the public constructor runs them.
        rng = random.Random(18)
        for _ in range(200):
            order = rng.choice(all_orders(3))
            canonical = canonicalize(random_utility_consistent(order, rng))
            built = utility_from.__wrapped__(order, Fraction(rng.randrange(1, 64), 64))
            for trusted in (canonical, built):
                checked = NormalizedUtility(trusted.values)
                assert type(trusted) is NormalizedUtility
                assert trusted == checked and hash(trusted) == hash(checked)
                assert checked._ordinal is None and ordinal_of(checked) == order
            # canonicalize leaves the ranking to ordinal_of, as a validated
            # build does; utility_from sets the order it was given
            assert canonical._ordinal is None and ordinal_of(canonical) == order
            assert built._ordinal is order

    def test_a_public_build_still_validates(self):
        F = Fraction
        with pytest.raises(ValueError, match="minimum 0"):
            NormalizedUtility((F(1, 2), F(1, 3), F(1, 6)))
        with pytest.raises(ValueError, match="sum to 1"):
            NormalizedUtility((F(1), F(1, 2), F(0)))
        with pytest.raises(TiesPresent):
            NormalizedUtility((F(1, 2), F(1, 2), F(0)))


class TestUtilityFrom:
    def test_examples(self):
        assert utility_from(ABC, Fraction(2, 5)).values == (
            Fraction(5, 7),
            Fraction(2, 7),
            Fraction(0),
        )
        assert utility_from(OrdinalPreference((2, 0, 1)), Fraction(1, 2)).values == (
            Fraction(1, 3),
            Fraction(0),
            Fraction(2, 3),
        )

    def test_mu_out_of_range(self):
        with pytest.raises(MuOutOfRange):
            utility_from(ABC, Fraction(1))

    def test_roundtrips_with_middle_rate(self):
        rng = random.Random(9)
        for _ in range(100):
            order = rng.choice(all_orders(3))
            mu = Fraction(rng.randrange(1, 64), 64)
            u = utility_from(order, mu)
            assert isinstance(u, NormalizedUtility)
            assert ordinal_of(u) == order
            assert middle_rate(u) == mu
            assert canonicalize(u).values == u.values

    def test_builds_the_canonical_values_and_keeps_the_order(self):
        # Bypass the memo: its entry may hold an equal order object from an
        # earlier call.
        build = utility_from.__wrapped__
        for order in all_orders(3):
            for k in range(1, 300):
                mu = Fraction(k, 300)
                values = [Fraction(0)] * 3
                best, mid, worst = order.ranking
                values[best], values[mid], values[worst] = Fraction(1), mu, Fraction(0)
                u = build(order, mu)
                assert u.values == canonicalize(BernoulliUtility(tuple(values))).values
                assert ordinal_of(u) is order

    def test_memo_is_bounded(self):
        # Lemma sampling draws fresh rates on every trial.
        for k in range(1, 2001):
            utility_from(ABC, Fraction(k, 2001))
        assert utility_from.cache_info().currsize <= 1024


class TestSdCompare:
    def test_dominates(self):
        p = make_lottery(["3/5", "3/10", "1/10"])
        q = make_lottery(["1/2", "3/10", "1/5"])
        assert sd_compare(p, q, ABC) == SdVerdict.DOMINATES
        assert sd_compare(q, p, ABC) == SdVerdict.DOMINATED_BY

    def test_incomparable(self):
        p = make_lottery(["1/2", "0", "1/2"])
        q = make_lottery(["2/5", "3/10", "3/10"])
        assert sd_compare(p, q, ABC) == SdVerdict.INCOMPARABLE

    def test_equal(self):
        p = make_lottery(["1/3"] * 3)
        assert sd_compare(p, p, ABC) == SdVerdict.EQUAL

    def test_dominance_implies_higher_eu_for_all_consistent_utilities(self):
        rng = random.Random(17)
        cases = 0
        while cases < 3:
            order = rng.choice(all_orders(3))
            p, q = sd_comparable_pair(order, rng)
            assert sd_compare(p, q, order) == SdVerdict.DOMINATES
            for _ in range(120):
                u = random_utility_consistent(order, rng)
                assert expected_utility(u, p) > expected_utility(u, q)
            cases += 1


class TestSeparatingUtility:
    def test_worked_example(self):
        v = v_from_bernoulli(make_utility(["1/2", "3/10", "1/5"]))
        p1 = make_lottery(["1/2", "0", "1/2"])
        p2 = make_lottery(["2/5", "3/10", "3/10"])
        u1 = separating_utility(v, p1, p2)
        assert u1.values == (Fraction(1), Fraction(3, 20), Fraction(1, 10))
        gap = expected_utility(u1, p1) - expected_utility(u1, p2)
        assert gap == Fraction(3, 40)

    def test_equal_lotteries_rejected(self):
        v = v_from_bernoulli(make_utility([3, 2, 1]))
        p = make_lottery(["1/3"] * 3)
        with pytest.raises(PreconditionViolated):
            separating_utility(v, p, p)

    def test_dominated_p1_rejected(self):
        v = v_from_bernoulli(make_utility([3, 2, 1]))
        p1 = make_lottery(["1/4", "1/4", "1/2"])
        p2 = make_lottery(["1/2", "1/4", "1/4"])
        with pytest.raises(PreconditionViolated):
            separating_utility(v, p1, p2)

    def test_dominant_p1_still_separates(self):
        v = v_from_bernoulli(make_utility([3, 2, 1]))
        p1 = make_lottery(["1/2", "1/4", "1/4"])
        p2 = make_lottery(["1/4", "1/4", "1/2"])
        u1 = separating_utility(v, p1, p2)
        assert ordinal_of(u1) == v.ordinal
        assert expected_utility(u1, p1) > expected_utility(u1, p2)

    def test_auto_mode_postconditions_on_random_instances(self):
        rng = random.Random(23)
        done = 0
        while done < 150:
            order = rng.choice(all_orders(3))
            u = random_utility_consistent(order, rng)
            v = v_from_bernoulli(u)
            from alloclab.ordinal import random_lottery

            p1, p2 = random_lottery(3, rng), random_lottery(3, rng)
            if sd_compare(p2, p1, order) in (SdVerdict.DOMINATES, SdVerdict.EQUAL):
                continue
            u1 = separating_utility(v, p1, p2)
            assert ordinal_of(u1) == order
            assert expected_utility(u1, p1) > expected_utility(u1, p2)
            done += 1


class TestRdu:
    def test_identity_weighting_is_expected_utility(self):
        base = make_utility(["1", "2/5", "0"])
        v = rdu_utility(ABC, base, weight_exponent=1)
        rng = random.Random(5)
        from alloclab.ordinal import random_lottery

        for _ in range(50):
            lot = random_lottery(3, rng)
            assert v.evaluate(lot) == expected_utility(base, lot)

    def test_degenerate_best(self):
        base = make_utility(["1", "2/5", "0"])
        v = rdu_utility(ABC, base, weight_exponent=2)
        assert v.evaluate(make_lottery([1, 0, 0])) == 1

    def test_uniform_value(self):
        base = make_utility(["1", "2/5", "0"])
        v = rdu_utility(ABC, base, weight_exponent=2)
        assert v.evaluate(make_lottery(["1/3"] * 3)) == Fraction(11, 45)

    def test_inconsistent_base(self):
        with pytest.raises(InconsistentBase):
            rdu_utility(ABC, make_utility([0, 1, 2]), weight_exponent=2)


class TestValidateVDomain:
    def test_eu_members_pass(self):
        candidates = [v_from_bernoulli(make_utility([3, 1, 2]))]
        assert validate_v_domain(candidates, sample_count=40, seed=2) == []

    def test_rdu_members_pass(self):
        base = make_utility(["1", "2/5", "0"])
        failures = validate_v_domain(
            [rdu_utility(ABC, base, 2), rdu_utility(ABC, base, 3)],
            sample_count=60,
            seed=3,
        )
        assert failures == []

    def test_broken_member_fails_with_witness(self):
        from alloclab import VUtility

        broken = VUtility(
            name="tied",
            evaluate=lambda lot: lot.probs[0] + lot.probs[1],
            ordinal=ABC,
        )
        assert validate_v_domain([broken], sample_count=5, seed=1) == [
            {"name": "tied", "tie": [0, 1]}
        ]

    def test_non_monotone_member_fails_with_reverifying_witness(self):
        from alloclab import VUtility

        base = make_utility(["1", "2/5", "0"])
        reversed_eu = VUtility(
            name="minus-eu",
            evaluate=lambda lot: -expected_utility(base, lot),
            ordinal=ABC,
        )
        members = [v_from_bernoulli(base), reversed_eu]
        [witness] = encoded(validate_v_domain(members, sample_count=5, seed=1))
        assert witness["name"] == "minus-eu"
        dominant = make_lottery(witness["dominant"])
        dominated = make_lottery(witness["dominated"])
        assert sd_compare(dominant, dominated, ABC) == SdVerdict.DOMINATES
        assert witness["value_dominant"] == str(reversed_eu.evaluate(dominant))
        assert witness["value_dominated"] == str(reversed_eu.evaluate(dominated))
        assert reversed_eu.evaluate(dominant) <= reversed_eu.evaluate(dominated)
