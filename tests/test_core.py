"""Value types: lotteries, allocations, utilities, expected utility."""

import contextlib
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alloclab import (
    ColumnSumNotOne,
    DimensionMismatch,
    NegativeEntry,
    RowSumNotOne,
    SumNotOne,
    TiesPresent,
    Allocation,
    CheckConfig,
    DICTATORSHIP,
    Lottery,
    OrdinalPreference,
    PS,
    PermutationMatrix,
    RSD,
    Rule,
    UTILITARIAN,
    MalformedProgram,
    allocation_distance,
    best_assignment,
    blend_rule,
    decompose,
    expected_utility,
    maximize,
    recompose,
    make_allocation,
    make_lottery,
    make_profile,
    make_utility,
    support,
    uniform_allocation,
    utility_from,
    v_from_bernoulli,
)
from alloclab import core, rules
from alloclab.bvn import random_bistochastic
from alloclab.core import BernoulliUtility, degenerate_lottery, distance_form, parse_fraction
from alloclab.harness import _random_affine
from alloclab.ordinal import (
    DENOMINATOR,
    all_orders,
    canonicalize,
    random_lottery,
    random_utility_consistent,
    sd_comparable_pair,
)

from conftest import (
    best_assignments,
    lotteries,
    mix_allocations,
    perm_matrix_rows,
    rsd_oracle,
    unit_fractions,
    utilities,
)


class TestLottery:
    def test_degenerate(self):
        lot = make_lottery([1, 0, 0])
        assert lot.probs == (Fraction(1), Fraction(0), Fraction(0))

    def test_uniform(self):
        lot = make_lottery(["1/3", "1/3", "1/3"])
        assert sum(lot.probs) == 1

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            make_lottery(["1/2", "1/3", "1/4"])  # 13/12

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            make_lottery(["3/2", "-1/2", "0"])


class TestAllocation:
    def test_identity_permutation(self):
        alloc = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert alloc.row(1).probs == (Fraction(0), Fraction(1), Fraction(0))

    def test_uniform(self):
        assert uniform_allocation(3) == make_allocation([["1/3"] * 3] * 3)

    def test_column_sum(self):
        with pytest.raises(ColumnSumNotOne):
            make_allocation([[1, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_row_sum_checked_first(self):
        from alloclab import RowSumNotOne

        with pytest.raises(RowSumNotOne):
            make_allocation([[1, 1, 0], [0, 0, 1], [0, 0, 0]])

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            make_allocation([[1, 0], [0, 1], [0, 0]])

    def test_distance(self):
        a = uniform_allocation(3)
        b = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert allocation_distance(a, b) == Fraction(2, 3)

    def test_distance_needs_one_size(self):
        with pytest.raises(DimensionMismatch, match="allocations differ in size"):
            distance_form(uniform_allocation(3), uniform_allocation(2))


# Malformed inputs and the one message each must raise: the first fault in
# check order wins. A matrix is checked for squareness, then for negative
# entries, then row sums, then column sums; a lottery for negative entries,
# then its sum. Entries mix ints, `Fraction`s and unlike denominators.
_MALFORMED = [
    (make_allocation, [[1, 0], [0, 1], [0, 0]],
     DimensionMismatch, "allocation matrix must be square"),
    (make_allocation, [], DimensionMismatch, "allocation matrix must be square"),
    (make_allocation, [["-1/2", "3/2"], [1, 0, 0]],
     DimensionMismatch, "allocation matrix must be square"),
    (make_allocation, [[1, 1, 0], [0, 0, 1], ["1/2", "-1/2", 1]],
     NegativeEntry, "negative entry -1/2"),
    (make_allocation, [[Fraction(4, 3), "-1/3", 0], [0, "-2/5", "7/5"], [0, 1, 0]],
     NegativeEntry, "negative entry -1/3"),
    (make_allocation, [["1/2", "1/3", "1/5"], [0, 1, 0], ["1/2", 0, "1/2"]],
     RowSumNotOne, "row 0 sums to 31/30, not 1"),
    (make_allocation, [["1/2", "1/2"], ["1/3", "1/3"]], RowSumNotOne, "row 1 sums to 2/3, not 1"),
    (make_allocation, [["1/3", "2/3"], ["1/2", "1/2"]],
     ColumnSumNotOne, "column 0 sums to 5/6, not 1"),
    (make_allocation, [[0, 1, 0], [0, 1, 0], [1, 0, 0]],
     ColumnSumNotOne, "column 1 sums to 2, not 1"),
    (make_lottery, [2, "-1/2", "-1/2"], NegativeEntry, "negative probability -1/2"),
    (make_lottery, [Fraction(-1, 3), "4/3"], NegativeEntry, "negative probability -1/3"),
    (make_lottery, ["1/2", "1/3"], SumNotOne, "probabilities sum to 5/6, not 1"),
    (make_lottery, [1, "1/4", "3/4"], SumNotOne, "probabilities sum to 2, not 1"),
    (make_lottery, [], SumNotOne, "probabilities sum to 0, not 1"),
    (make_utility, [1, "2/2", 3],
     TiesPresent, "tied utility values in (Fraction(1, 1), Fraction(1, 1), Fraction(3, 1))"),
    (make_utility, ["1/2", "-1/3", "2/4"],
     TiesPresent, "tied utility values in (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 2))"),
]


@pytest.mark.parametrize("build, entries, fault, message", _MALFORMED)
def test_malformed_input_names_its_first_fault(build, entries, fault, message):
    with pytest.raises(fault) as raised:
        build(entries)
    assert type(raised.value) is fault and str(raised.value) == message


def _row_entries():
    """Utility entries as a profile file or a caller gives them: ints,
    Fractions, unreduced, signed and padded strings, and inexact values."""
    ints = st.integers(-40, 40)
    dens = st.integers(1, 12)
    unreduced = st.builds(lambda p, q, k: f"{p * k}/{q * k}", ints, dens, st.integers(1, 4))
    signed = st.builds(lambda sign, p, q: f"{sign}{abs(p)}/{q}", st.sampled_from("+-"), ints, dens)
    padded = st.one_of(unreduced, signed, ints.map(str)).map(lambda text: f" {text}\t")
    inexact = st.sampled_from(["1.5", "1/0", "1_0", "+3/-2", True, 0.5])
    return st.one_of(ints, st.builds(Fraction, ints, dens), unreduced, signed, padded, inexact)


class TestUtility:
    def test_no_ties_enforced(self):
        with pytest.raises(TiesPresent):
            make_utility([1, 1, 0])

    def test_profile_square(self):
        with pytest.raises(DimensionMismatch):
            make_profile([[1, 2, 3], [3, 2, 1]])

    def test_equality_is_value_based(self):
        assert make_utility([1, 2, 3]) == make_utility(["1", "2", "3"])

    @given(st.lists(_row_entries(), max_size=4))
    def test_reads_rows_as_the_fraction_route_does(self, row):
        # make_utility reads each entry to an integer pair, with no
        # Fraction; the form, or the error, is the one the validating
        # constructor gives on the entries' Fractions.
        def outcome(build):
            try:
                u = build(row)
            except (ValueError, TypeError) as exc:
                return type(exc), str(exc)
            return type(u), u.den, u.nums

        reference = outcome(lambda entries: BernoulliUtility(tuple(map(parse_fraction, entries))))
        assert outcome(make_utility) == reference


class TestExpectedUtility:
    def test_degenerate_returns_object_utility(self):
        u = make_utility(["1", "2/5", "0"])
        assert expected_utility(u, make_lottery([1, 0, 0])) == 1

    def test_uniform_lottery(self):
        u = make_utility(["1", "2/5", "0"])
        assert expected_utility(u, make_lottery(["1/3"] * 3)) == Fraction(7, 15)

    def test_middle_object(self):
        u = make_utility([5, 3, 1])
        assert expected_utility(u, make_lottery([0, 1, 0])) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expected_utility(make_utility([1, 2, 3, 4]), make_lottery([1, 0, 0]))

    @given(utilities(), lotteries(), lotteries(), unit_fractions())
    def test_linearity(self, u, lot1, lot2, alpha):
        mixed = make_lottery(
            [alpha * p + (1 - alpha) * q for p, q in zip(lot1.probs, lot2.probs)]
        )
        assert expected_utility(u, mixed) == alpha * expected_utility(
            u, lot1
        ) + (1 - alpha) * expected_utility(u, lot2)


class TestSupport:
    @pytest.mark.parametrize(
        "probs,expected",
        [
            ((1, 0, 0), {0}),
            (("1/2", "1/2", 0), {0, 1}),
            (("1/3", "1/3", "1/3"), {0, 1, 2}),
        ],
    )
    def test_examples(self, probs, expected):
        assert support(make_lottery(probs)) == expected

    @given(lotteries())
    def test_never_empty(self, lot):
        assert support(lot)


HALF = Fraction(1, 2)

# Each entry point that takes an exact rational, applied to one value, and
# the error it raises for anything else.
_EXACT_ENTRY_POINTS = {
    "parse_fraction": (parse_fraction, TypeError),
    "Lottery": (lambda x: Lottery((x, HALF)), TypeError),
    "Allocation": (lambda x: Allocation(((x, HALF), (HALF, HALF))), TypeError),
    "BernoulliUtility": (lambda x: BernoulliUtility((x, 1, 0)), TypeError),
    "maximize": (lambda x: maximize(((x, 1), (1, HALF))), MalformedProgram),
    "best_assignment": (lambda x: best_assignment(((x, 1), (1, HALF))), MalformedProgram),
    "blend_rule": (lambda x: blend_rule(RSD, PS, x), TypeError),
    "utility_from": (lambda x: utility_from(OrdinalPreference((0, 1, 2)), x), TypeError),
    "mix_allocations": (
        lambda x: mix_allocations(uniform_allocation(2), uniform_allocation(2), x), TypeError
    ),
    "CheckConfig grid": (lambda x: CheckConfig(mu_grid=(x,)), TypeError),
    "CheckConfig tau": (lambda x: CheckConfig(continuity_gap_tau=x), TypeError),
    "CheckConfig delta": (lambda x: CheckConfig(continuity_interval_delta=x), TypeError),
}


class TestRationals:
    def test_parse_fraction(self):
        assert parse_fraction("2/5") == Fraction(2, 5)
        assert parse_fraction("-3") == Fraction(-3)

    @pytest.mark.parametrize("text", ["0.5", "1e-3", "x", "1/0", "2/-3", ""])
    def test_rejects_inexact(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)

    @pytest.mark.parametrize("entry, value", [
        (entry, value)
        for entry in _EXACT_ENTRY_POINTS
        for value in (0.5, True, "1/2")
        if not (entry == "parse_fraction" and isinstance(value, str))  # it parses strings
    ])
    def test_every_entry_point_refuses_inexact_values(self, entry, value):
        build, error = _EXACT_ENTRY_POINTS[entry]
        with contextlib.suppress(ValueError):  # an equal exact value first, as a memo holds it
            build(Fraction(value))
        with pytest.raises(error, match=f"exact rational expected, got {type(value).__name__}"):
            build(value)


class TestValueTypes:
    """The value types are plain classes on the `core.Frozen` base: value
    equality and hash for the one-field types, identity for rules and
    V-domain members, and no assignment after construction."""

    def test_value_equality_and_hash(self):
        pairs = [
            (make_allocation([["1/2", "1/2"], ["1/2", "1/2"]]), uniform_allocation(2)),
            (make_lottery(["1/4", "3/4"]), make_lottery([Fraction(1, 4), Fraction(3, 4)])),
            (OrdinalPreference((2, 0, 1)), OrdinalPreference(tuple([2, 0, 1]))),
            (CheckConfig(seed=3), CheckConfig(seed=3)),
        ]
        for first, second in pairs:
            assert first is not second
            assert first == second and hash(first) == hash(second)
            assert len({first, second}) == 1
        assert OrdinalPreference((0, 1, 2)) != OrdinalPreference((0, 2, 1))
        assert make_allocation([[1, 0], [0, 1]]) != make_allocation([[0, 1], [1, 0]])
        assert make_lottery([1, 0]) != make_allocation([[1, 0], [0, 1]])

    def test_values_survive_pickle_and_copy(self):
        values = [
            uniform_allocation(3),
            make_lottery(["1/4", "3/4"]),
            OrdinalPreference((2, 0, 1)),
            decompose(uniform_allocation(3)),
            CheckConfig(seed=4),
            make_utility([1, 0]),
            utility_from(OrdinalPreference((2, 0, 1)), Fraction(1, 2)),
        ]
        for value in values:
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.copy(value) == value and copy.deepcopy(value) == value

    def test_rules_and_v_members_are_equal_only_to_themselves(self):
        twin = Rule(RSD.name, RSD.key, RSD.compute)
        assert twin != RSD and twin == twin
        u = make_utility([3, 2, 1])
        assert v_from_bernoulli(u) != v_from_bernoulli(u)

    @pytest.mark.parametrize(
        "value, field",
        [
            (make_lottery([1, 0]), "probs"),
            (uniform_allocation(2), "rows"),
            (make_utility([1, 0]), "values"),
            (OrdinalPreference((1, 0)), "ranking"),
            (PermutationMatrix((1, 0)), "assignment"),
            (decompose(uniform_allocation(2)), "terms"),
            (CheckConfig(), "seed"),
            (v_from_bernoulli(make_utility([1, 0])), "name"),
            (RSD, "name"),
        ],
        ids=lambda value: value if isinstance(value, str) else type(value).__name__,
    )
    def test_frozen_types_refuse_assignment(self, value, field):
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)

    def test_validation_hooks_are_looked_up_on_the_class(self, monkeypatch):
        """A profiler replaces both `__post_init__`s on the class and rebinds
        `allocate` on a rule instance; construction must go through them."""
        calls = []
        for cls in (core.Allocation, rules.Rule):
            original = cls.__post_init__

            def hook(self, original=original):
                calls.append(type(self).__name__)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", hook)
        rows = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        Allocation(rows)
        make_allocation([[0, 1], [1, 0]])
        Allocation._over(1, ((1, 0), (0, 1)))
        rule = Rule("twin", RSD.key, RSD.compute)
        assert calls == ["Allocation", "Allocation", "Rule"]
        allocate = RSD.allocate
        object.__setattr__(rule, "allocate", allocate)
        assert rule.allocate is allocate


class TestTrustedConstruction:
    """Public builders that skip validation still refuse bad arguments, and
    what they build passes the validating constructor."""

    @pytest.mark.parametrize("weight", [Fraction(2), Fraction(-1), Fraction(3, 2)])
    def test_mix_weight_outside_unit_interval(self, weight):
        identity = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NegativeEntry):
            mix_allocations(identity, uniform_allocation(3), weight)

    @pytest.mark.parametrize("n", [0, -1, -4])
    def test_uniform_needs_an_agent(self, n):
        with pytest.raises(DimensionMismatch):
            uniform_allocation(n)

    def test_mix_matches_fraction_formula(self):
        """Each entry, built from integer numerators and denominators, equals
        w*p + (1-w)*q in `Fraction`s, on matrices with unlike denominators."""
        rng = random.Random(14)
        weights = [Fraction(0), Fraction(1), Fraction(3, 10), Fraction(2, 7), Fraction(1, 2)]
        for _ in range(60):
            n = rng.randrange(2, 6)
            first, second = random_bistochastic(n, rng), random_bistochastic(n, rng)
            weight = rng.choice(weights)
            mixed = mix_allocations(first, second, weight)
            assert mixed.rows == tuple(
                tuple(weight * p + (1 - weight) * q for p, q in zip(row_p, row_q))
                for row_p, row_q in zip(first.rows, second.rows)
            )
            assert all(type(p) is Fraction for row in mixed.rows for p in row)

    def test_outputs_validate(self):
        identity = make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        built = [uniform_allocation(n) for n in range(1, 8)] + [
            mix_allocations(identity, uniform_allocation(3), Fraction(k, 6))
            for k in range(7)
        ]
        for alloc in built:
            assert Allocation(alloc.rows) == alloc
            for agent in range(alloc.n):
                assert Lottery(alloc.row(agent).probs) == alloc.row(agent)


def _plain_expected_utility(values, probs) -> Fraction:
    """The `Fraction` formula, on entries that never went through an
    integer form."""
    return sum((Fraction(v) * Fraction(p) for v, p in zip(values, probs)), Fraction(0))


def _replay(rng: random.Random) -> random.Random:
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _entries(den: int, nums) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, den) for n in nums)


class TestIntegerForm:
    """A utility's and a lottery's integer form (den, nums) holds the same
    entries as `values` and `probs`, whichever builder made it."""

    def test_expected_utility_matches_the_fraction_formula(self):
        """Negative, zero, plain-int and unlike-denominator entries, through
        validated builds and through unreduced integer forms."""
        rng = random.Random(21)
        for _ in range(400):
            values = rng.sample(
                [rng.randrange(-9, 10), 0, Fraction(rng.randrange(-40, 41), rng.randrange(1, 13)),
                 Fraction(rng.randrange(1, 50), rng.randrange(1, 7)), -3, 7], 3
            )
            if len(set(values)) < 3:
                continue
            weights = [rng.randrange(0, 5) for _ in range(3)]
            if not sum(weights):
                continue
            probs = [Fraction(w, sum(weights)) for w in weights]
            expected = _plain_expected_utility(values, probs)
            validated = make_utility(values)
            k = rng.randrange(2, 9)  # a common factor: the forms are not in lowest terms
            unreduced = BernoulliUtility._trusted(
                validated.den * k, tuple(n * k for n in validated.nums)
            )
            lotteries = [
                make_lottery(probs),
                Lottery._trusted(sum(weights) * k, tuple(w * k for w in weights)),
            ]
            for utility in (validated, unreduced):
                for lottery in lotteries:
                    got = expected_utility(utility, lottery)
                    assert type(got) is Fraction and got == expected

    def test_rows_with_an_integer_form_match_the_fraction_formula(self):
        rng = random.Random(22)
        profile = make_profile([[3, "-1/2", 0], ["2/7", "5/3", -1], [0, 1, "1/2"]])
        for _ in range(100):
            alloc = random_bistochastic(3, rng)
            for i, u in enumerate(profile):
                assert alloc.row(i).den == alloc.row(0).den  # the counts' one total
                assert expected_utility(u, alloc.row(i)) == _plain_expected_utility(
                    u.values, alloc.rows[i]
                )

    def test_trusted_builders_hold_their_values(self):
        """Each builder that passes an integer form, against its entries
        computed in `Fraction`s from the same draws."""
        rng = random.Random(23)
        orders = all_orders(3)
        for _ in range(300):
            order = rng.choice(orders)
            best, mid, worst = order.ranking
            mu = Fraction(rng.randrange(1, 200), rng.randrange(200, 400))
            built = utility_from.__wrapped__(order, mu)
            reference = [Fraction(0)] * 3
            reference[best], reference[mid] = 1 / (1 + mu), mu / (1 + mu)
            assert _entries(built.den, built.nums) == tuple(reference) == built.values

            twin = _replay(rng)
            drawn = random_utility_consistent(order, rng)
            while True:
                draws = {twin.randrange(0, DENOMINATOR * 4) for _ in range(3)}
                if len(draws) == 3:
                    break
            reference = [Fraction(0)] * 3
            for level, obj in zip(sorted(draws, reverse=True), order.ranking):
                reference[obj] = Fraction(level, DENOMINATOR)
            assert _entries(drawn.den, drawn.nums) == tuple(reference) == drawn.values

            twin = _replay(rng)
            moved = _random_affine(drawn, rng)
            scale = Fraction(twin.randrange(1, 12), twin.randrange(1, 12))
            shift = Fraction(twin.randrange(-12, 13), twin.randrange(1, 12))
            reference = tuple(scale * v + shift for v in drawn.values)
            assert _entries(moved.den, moved.nums) == reference == moved.values

            shifted = [v - min(reference) for v in reference]
            canonical = canonicalize(moved)
            reference = tuple(v / sum(shifted) for v in shifted)
            assert _entries(canonical.den, canonical.nums) == reference == canonical.values

            twin = _replay(rng)
            lottery = random_lottery(3, rng)
            while True:
                weights = [twin.randrange(0, 361) for _ in range(3)]
                if sum(weights):
                    break
            reference = tuple(Fraction(w, sum(weights)) for w in weights)
            assert _entries(lottery.den, lottery.nums) == reference == lottery.probs

            twin = _replay(rng)
            dominant, dominated = sd_comparable_pair(order, rng)
            base = random_lottery(3, twin)
            positions = [k for k in range(1, 3) if base.probs[order.ranking[k]] > 0]
            while not positions:
                base = random_lottery(3, twin)
                positions = [k for k in range(1, 3) if base.probs[order.ranking[k]] > 0]
            src_pos = twin.choice(positions)
            dst_pos = twin.randrange(0, src_pos)
            src, dst = order.ranking[src_pos], order.ranking[dst_pos]
            amount = base.probs[src] * Fraction(twin.randrange(1, 16), 16)
            reference = list(base.probs)
            reference[src] -= amount
            reference[dst] += amount
            assert _entries(dominant.den, dominant.nums) == tuple(reference) == dominant.probs
            assert dominated.probs == base.probs

        for m in range(1, 6):
            for obj in range(m):
                lottery = degenerate_lottery(obj, m)
                reference = tuple(Fraction(int(a == obj)) for a in range(m))
                assert _entries(lottery.den, lottery.nums) == reference == lottery.probs
        with pytest.raises(SumNotOne):
            degenerate_lottery(3, 3)

    def test_allocation_forms_hold_their_rows(self):
        rng = random.Random(24)
        allocations = [random_bistochastic(rng.randrange(1, 6), rng) for _ in range(100)]
        allocations += [uniform_allocation(n) for n in range(1, 6)]
        allocations += [PermutationMatrix(picks).to_allocation()
                        for n in (1, 3, 4) for picks in itertools.permutations(range(n))]
        # A canonical rsd row is its counts over 3! in lowest terms.
        outputs = {id(alloc): alloc for alloc in map(RSD.allocate, _grid_profiles())}
        rows = {id(row): row for alloc in outputs.values() for row in alloc._lotteries}
        assert {row.den for row in rows.values()} == {1, 2, 3, 6}
        assert all(math.gcd(row.den, *row.nums) == 1 for row in rows.values())
        allocations += outputs.values()
        for alloc in allocations:
            for i, row in enumerate(alloc.rows):
                lottery = alloc.row(i)
                assert _entries(lottery.den, lottery.nums) == lottery.probs == row
                assert lottery == Lottery(row) and hash(lottery) == hash(Lottery(row))

    def test_builders_agree_on_equality_and_hash(self):
        """A utility built from integers equals the same values built through
        the validating constructor, hashes alike and is the same dict key;
        so does the same form scaled by any k, which is not in lowest terms."""
        for order in all_orders(3):
            for mu in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)):
                built = utility_from(order, mu)
                validated = make_utility(built.values)
                fresh = utility_from.__wrapped__(order, mu)
                assert built == validated and validated == built
                assert hash(fresh) == hash(validated) == hash(built)
                # A normalized utility's entries sum to one: a lottery's too.
                lottery = Lottery._trusted(built.den, built.nums)
                for k in range(2, 9):
                    scaled = (built.den * k, tuple(x * k for x in built.nums))
                    unreduced = BernoulliUtility._trusted(*scaled)
                    assert unreduced == built and hash(unreduced) == hash(built)
                    unreduced = Lottery._trusted(*scaled)
                    assert unreduced == lottery and hash(unreduced) == hash(lottery)
                table = {validated: "validated"}
                table[fresh] = "integer form"
                assert table == {validated: "integer form"} and fresh in table
        rng = random.Random(25)
        u = random_utility_consistent(all_orders(3)[4], rng)
        moved = _random_affine(u, rng)
        assert len({moved, make_utility(moved.values), BernoulliUtility(moved.values)}) == 1
        assert make_utility([1, 2, 3]) != make_utility([2, 4, 6])
        assert make_utility([1, 2, 3]) != make_utility([1, 2])
        lottery = random_lottery(3, rng)
        assert len({lottery, make_lottery(lottery.probs)}) == 1


    def test_allocation_builders_match_the_fraction_reference(self):
        """Each builder's rows against the same entries computed in
        `Fraction`s; every row lottery holds them."""
        rng = random.Random(26)
        built = []
        for profile in _grid_profiles() + _random_profiles(rng, 40):
            canonical = tuple(canonicalize(u) for u in profile)
            built += [
                (RSD.allocate(profile), rsd_oracle(profile)),
                (PS.allocate(profile), _ps_reference(profile)),
                (DICTATORSHIP.allocate(profile), perm_matrix_rows(_serial_picks(profile))),
                (UTILITARIAN.allocate(profile),
                 min(perm_matrix_rows(p) for p in best_assignments(canonical))),
            ]
        for rankings in itertools.islice(itertools.product(all_orders(4), repeat=4), 0, None, 331):
            profile = tuple(_utility_from_ranking(order) for order in rankings)
            built.append((PS.allocate(profile), _ps_reference(profile)))
        built += [(uniform_allocation(n), ((Fraction(1, n),) * n,) * n) for n in range(1, 6)]
        for _ in range(100):
            n = rng.randrange(1, 6)
            twin = _replay(rng)
            drawn = random_bistochastic(n, rng)
            built.append((drawn, _bistochastic_reference(n, twin)))
            rebuilt = recompose(decompose(drawn))
            built.append((rebuilt, _recompose_reference(decompose(drawn))))
        outputs = [alloc for alloc, _ in built if alloc.n == 3]
        weights = [Fraction(0), Fraction(1)] + [
            Fraction(rng.randrange(0, d + 1), d) for d in (rng.randrange(1, 40) for _ in range(198))
        ]
        for weight in weights:
            first, second = rng.choice(outputs), rng.choice(outputs)
            mixed = mix_allocations(first, second, weight)
            built.append((mixed, tuple(
                tuple(weight * p + (1 - weight) * q for p, q in zip(row_p, row_q))
                for row_p, row_q in zip(first.rows, second.rows)
            )))
        for _ in range(40):
            objective = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(3)]
                         for _ in range(3)]
            argmax = maximize(tuple(map(tuple, objective)))[1]
            built.append((argmax, tuple(map(tuple, Allocation(argmax.rows).rows))))
            grid = [[str(p) for p in row] for row in random_bistochastic(3, rng).rows]
            built.append((make_allocation(grid), tuple(tuple(map(parse_fraction, r)) for r in grid)))
        for alloc, reference in built:
            assert alloc.rows == reference
            assert all(type(p) is Fraction for row in alloc.rows for p in row)
            for i, row in enumerate(reference):
                lottery = alloc.row(i)
                assert _entries(lottery.den, lottery.nums) == row == lottery.probs
                assert lottery == Lottery(row) and hash(lottery) == hash(Lottery(row))

    def test_allocation_distance_matches_the_fraction_formula(self):
        rng = random.Random(27)
        pool = [random_bistochastic(3, rng) for _ in range(30)]
        pool += [RSD.allocate(p) for p in _random_profiles(rng, 20)]
        pool += [PS.allocate(p) for p in _random_profiles(rng, 20)]
        pool += [mix_allocations(rng.choice(pool), rng.choice(pool), Fraction(rng.randrange(0, 8), 7))
                 for _ in range(30)]
        for _ in range(300):
            first, second = rng.choice(pool), rng.choice(pool)
            got = allocation_distance(first, second)
            assert type(got) is Fraction
            assert got == max(
                abs(p - q) for row_p, row_q in zip(first.rows, second.rows)
                for p, q in zip(row_p, row_q)
            )
        assert allocation_distance(pool[0], pool[0]) == 0

    def test_form_only_and_validated_allocations_agree(self):
        """Equality and hash agree between an allocation built from integers
        and the validated one with the same entries, whichever is read first."""
        rng = random.Random(28)
        for _ in range(100):
            n = rng.randrange(1, 5)
            twin = _replay(rng)
            drawn = random_bistochastic(n, rng)
            validated = make_allocation(_bistochastic_reference(n, twin))
            assert drawn == validated and validated == drawn
            assert hash(drawn) == hash(validated)
            assert len({drawn, validated}) == 1
            other = random_bistochastic(n, rng)
            assert (other == drawn) == (other.rows == validated.rows)
        assert uniform_allocation(3) != make_allocation([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert uniform_allocation(2) != uniform_allocation(3)

    def test_unreduced_forms_intern_to_one_output(self):
        """An output is interned on its rows in lowest terms: the same rows
        scaled by any factors, row by row, are the same canonical object
        and are built of the same row objects."""
        rng = random.Random(29)
        for _ in range(60):
            alloc = random_bistochastic(3, rng)
            canonical = rules._canonical(alloc)
            scaled = Allocation._trusted(tuple(
                Lottery._trusted(row.den * k, tuple(x * k for x in row.nums))
                for row, k in zip(alloc._lotteries, (rng.randrange(1, 9) for _ in range(3)))
            ))
            twins = [rules._canonical(scaled), rules._canonical(make_allocation(alloc.rows))]
            for twin in twins:
                assert twin is canonical
            unreduced = Allocation._over(alloc.row(0).den * 6, [
                [x * 6 for x in alloc.row(i).nums] for i in range(3)
            ])
            other = rules._canonical(mix_allocations(unreduced, alloc, Fraction(1, 2)))
            assert other is canonical
            for i in range(3):
                assert other.row(i) is canonical.row(i) and other.rows[i] == canonical.rows[i]
                row = canonical.row(i)
                assert math.gcd(row.den, *row.nums) == 1

    def test_form_only_allocations_survive_pickle_and_copy(self):
        rng = random.Random(30)
        drawn = random_bistochastic(4, rng)
        values = [
            drawn,
            mix_allocations(drawn, uniform_allocation(4), Fraction(2, 7)),
            uniform_allocation(3),
            PS.allocate(_grid_profiles()[5]),
        ]
        for value in values:
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
                assert twin == value and hash(twin) == hash(value)
                assert twin.rows == value.rows
                assert [twin.row(i) for i in range(twin.n)] == [value.row(i) for i in range(value.n)]


def _random_profiles(rng: random.Random, count: int):
    orders = all_orders(3)
    return [
        tuple(random_utility_consistent(rng.choice(orders), rng) for _ in range(3))
        for _ in range(count)
    ]


def _utility_from_ranking(order: OrdinalPreference) -> BernoulliUtility:
    """A utility with ranking `order`: m - 1 for the best object down to 0."""
    values = [0] * order.m
    for level, obj in enumerate(reversed(order.ranking)):
        values[obj] = level
    return make_utility(values)


def _ps_reference(profile):
    """Simultaneous eating in `Fraction`s."""
    n = len(profile)
    rankings = [sorted(range(n), key=lambda a: u.values[a], reverse=True) for u in profile]
    remaining = [Fraction(1)] * n
    shares = [[Fraction(0)] * n for _ in range(n)]
    while any(remaining):
        targets = [next(a for a in ranking if remaining[a] > 0) for ranking in rankings]
        eaters = {a: targets.count(a) for a in targets}
        step = min(remaining[a] / count for a, count in eaters.items())
        for agent, obj in enumerate(targets):
            shares[agent][obj] += step
        for obj, count in eaters.items():
            remaining[obj] -= step * count
    return tuple(map(tuple, shares))


def _serial_picks(profile) -> tuple[int, ...]:
    taken: list[int] = []
    for u in profile:
        taken.append(max((a for a in range(len(profile)) if a not in taken), key=u.values.__getitem__))
    return tuple(taken)


def _bistochastic_reference(n: int, rng: random.Random):
    """`random_bistochastic`'s entries from the same draws, in `Fraction`s."""
    count = rng.randrange(1, 2 * n + 1)
    perms = []
    for _ in range(count):
        order = list(range(n))
        rng.shuffle(order)
        perms.append(order)
    weights = [rng.randrange(1, 60) for _ in range(count)]
    grid = [[Fraction(0)] * n for _ in range(n)]
    for weight, perm in zip(weights, perms):
        for i, obj in enumerate(perm):
            grid[i][obj] += Fraction(weight, sum(weights))
    return tuple(map(tuple, grid))


def _recompose_reference(decomposition):
    n = decomposition.terms[0][1].n
    grid = [[Fraction(0)] * n for _ in range(n)]
    for weight, perm in decomposition.terms:
        for i, obj in enumerate(perm.assignment):
            grid[i][obj] += weight
    return tuple(map(tuple, grid))

def _grid_profiles():
    cells = [utility_from(order, Fraction(1, 2)) for order in all_orders(3)]
    return [(a, b, c) for a in cells for b in cells for c in cells]
