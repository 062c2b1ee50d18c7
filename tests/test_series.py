"""Exact series arithmetic: frozen examples plus ring-axiom property tests."""

import copy
import math
import pickle
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcft import series
from qcft.errors import NonAlignablePrefactor, OrderTooLarge, ZeroLeadingCoefficient
from qcft.partitions import PartitionConstraint, count_partitions, unrestricted_p
from qcft.regularization import oscillator_partition_series
from qcft.series import (KRONECKER_MIN_ORDER, MAX_ORDER, FracQSeries,
                         check_order, rat)
from qcft.special import RR_SPECTRUM, dedekind_eta, eisenstein, rr_product
from qcft.virasoro import character_25, ode_residual


def poly(*coeffs, prefactor=0, order=None):
    n = order or len(coeffs)
    return FracQSeries(prefactor, (list(coeffs) + [0] * n)[:n])


def monomial(exponent, n):
    """q^exponent to order n."""
    return FracQSeries.from_ints(exponent, [1] + [0] * (n - 1))


# -- add ----------------------------------------------------------------------

def test_add_cancellation():
    s = poly(1, -1) + poly(0, 1)
    assert s.coeffs == (F(1), F(0))


def test_add_prefactor_alignment():
    f = poly(1, 1, prefactor=F(1, 2))
    g = poly(1, 0, prefactor=F(3, 2))
    s = f + g
    assert s.prefactor == F(1, 2)
    assert s.coeffs == (F(1), F(2))


def test_add_nonalignable():
    with pytest.raises(NonAlignablePrefactor):
        poly(1, prefactor=F(1, 2)) + poly(1, prefactor=F(1, 3))


def test_add_offset_exceeding_order():
    with pytest.raises(NonAlignablePrefactor):
        poly(1, 2) + poly(1, 2, prefactor=5)


# -- mul ----------------------------------------------------------------------

def test_mul_telescoping():
    n = 12
    geometric = FracQSeries(0, [1] * n)
    s = poly(1, -1, order=n) * geometric
    assert s == FracQSeries.one(n)


def test_mul_exponent_addition():
    s = monomial(F(-1, 60), 4) * monomial(F(11, 60), 4)
    assert s.prefactor == F(1, 6)
    assert s.coeffs[0] == 1


def test_mul_square():
    s = poly(1, 1, 0) * poly(1, 1, 0)
    assert s.coeffs == (F(1), F(2), F(1))


# -- invert -------------------------------------------------------------------

def test_invert_geometric():
    n = 10
    inv = poly(1, -1, order=n).invert()
    assert inv.coeffs == tuple(F(1) for _ in range(n))


def test_invert_monomial():
    inv = monomial(F(1, 24), 5).invert()
    assert inv.prefactor == F(-1, 24)
    assert inv.coeffs[0] == 1


def test_invert_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        poly(0, 1).invert()


# -- q_derivative ---------------------------------------------------------------

def test_qderiv_prefactor_power_rule():
    d = monomial(F(-1, 60), 3).q_derivative()
    assert d.prefactor == F(-1, 60)
    assert d.coeffs[0] == F(-1, 60)


def test_qderiv_constant():
    assert FracQSeries.one(5).q_derivative().is_zero()


def test_qderiv_per_term():
    d = poly(1, 1, prefactor=F(11, 60)).q_derivative()
    assert d.coeffs == (F(11, 60), F(71, 60))


# -- properties ---------------------------------------------------------------------

small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_strategy(order=6):
    return st.lists(small_rationals, min_size=order, max_size=order).map(
        lambda cs: FracQSeries(0, cs))


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


@given(series_strategy())
@settings(max_examples=60, deadline=None)
def test_invert_two_sided(f):
    if f.coeffs[0] == 0:
        return
    assert (f * f.invert()) == FracQSeries.one(f.order)
    assert (f.invert() * f) == FracQSeries.one(f.order)


@given(series_strategy(), series_strategy())
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(f, g):
    lhs = (f * g).q_derivative()
    rhs = f.q_derivative() * g + f * g.q_derivative()
    assert lhs == rhs


# -- the int kernels against the Fraction schoolbook ----------------------------------

def fraction_product(a, b):
    n = min(len(a), len(b))
    out = [F(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def fraction_inverse(a):
    out = [1 / a[0]]
    for m in range(1, len(a)):
        out.append(-sum(a[k] * out[m - k] for k in range(1, m + 1)) / a[0])
    return out


mixed_rationals = st.builds(F, st.integers(-50, 50), st.sampled_from((1, 1, 2, 3, 7, 12, 60)))
leading = st.sampled_from((F(1), F(-1), F(3, 7), F(-5), F(12, 5), F(-1, 60)))
prefactors = st.fractions(min_value=-2, max_value=2, max_denominator=60)


@st.composite
def wide_series(draw, order=None):
    n = draw(st.integers(1, 40)) if order is None else order
    head = draw(leading)
    tail = draw(st.lists(mixed_rationals, min_size=n - 1, max_size=n - 1))
    return FracQSeries(draw(prefactors), [head] + tail)


@given(wide_series(), wide_series())
@settings(max_examples=80, deadline=None)
def test_mul_matches_fraction_schoolbook(f, g):
    h = f * g
    assert h.prefactor == f.prefactor + g.prefactor
    assert list(h.coeffs) == fraction_product(f.coeffs, g.coeffs)


@given(wide_series())
@settings(max_examples=80, deadline=None)
def test_invert_matches_fraction_recurrence(f):
    inv = f.invert()
    assert inv.prefactor == -f.prefactor
    assert list(inv.coeffs) == fraction_inverse(f.coeffs)


# -- the product kernel: Kronecker substitution and the schoolbook loop ---------------

huge = st.integers(-10 ** 30, 10 ** 30)
KERNEL_COEFFICIENTS = {
    "signed": st.builds(F, st.integers(-9, 9)),
    "zero-heavy": st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)),
                            st.builds(F, st.integers(-3, 3))),
    "huge": st.builds(F, huge),
    "rational": st.builds(F, huge, st.sampled_from((1, 3, 7, 60, 10 ** 12 + 39))),
}


@st.composite
def kernel_series(draw):
    """Orders 1 to 120, each series with one of KERNEL_COEFFICIENTS and a nonzero,
    often non-unit, leading term."""
    n = draw(st.integers(1, 120))
    tail = draw(st.lists(draw(st.sampled_from(list(KERNEL_COEFFICIENTS.values()))),
                         min_size=n - 1, max_size=n - 1))
    head = draw(st.one_of(leading, st.builds(F, huge.filter(bool), st.integers(1, 10 ** 6))))
    return FracQSeries(draw(prefactors), [head] + tail)


@given(kernel_series(), kernel_series())
@settings(max_examples=120, deadline=None)
def test_mul_kernel_matches_fraction_schoolbook(f, g):
    h = f * g
    assert h.prefactor == f.prefactor + g.prefactor
    assert list(h.coeffs) == fraction_product(f.coeffs, g.coeffs)


def packed_widths(monkeypatch) -> list[int]:
    """The slot widths, in bits, of every Kronecker operand packed from now on."""
    widths, pack = [], series._pack
    monkeypatch.setattr(series, "_pack", lambda x, nb, ones: widths.append(8 * nb) or
                        pack(x, nb, ones))
    return widths


def int_product(a, b):
    n = min(len(a), len(b))
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def test_product_packs_from_the_order_floor_on(monkeypatch):
    widths = packed_widths(monkeypatch)
    for n, packs in ((KRONECKER_MIN_ORDER - 1, False), (KRONECKER_MIN_ORDER, True)):
        a, b = [(-1) ** k * 9 for k in range(n)], [k % 7 - 3 for k in range(n)]
        widths.clear()
        assert series._product(a, b, n) == int_product(a, b)
        assert bool(widths) == packs, n
    # w = bitlen(max|a|) + bitlen(max|b|) + bitlen(n) + 2, rounded up to whole bytes,
    # however wide: 1000 + 1 + 7 + 2 bits take 1016-bit slots
    n = 64
    a, b = [-(2 ** 999)] + [3] * (n - 1), [(-1) ** k for k in range(n)]
    widths.clear()
    assert series._product(a, b, n) == int_product(a, b)
    assert widths == [1016] * 2


@pytest.mark.parametrize("n", [24, 25, 63, 64, 65, 127, 128, 201, 255])
@pytest.mark.parametrize("sa,sb", [(1, 1), (1, -1), (-1, -1)])
def test_slots_hold_the_extreme_coefficients(n, sa, sb, monkeypatch):
    """Every coefficient at +-(2^bits - 1) takes c_{n-1} to n max|a| max|b|, the bound the
    slot width is proven for; the raw width takes every residue mod 8, so that the
    rounding up to whole bytes leaves no spare bit in some case."""
    widths = packed_widths(monkeypatch)
    for bits_a in (1, 5, 13):
        for bits_b in range(1, 17):
            ma, mb = 2 ** bits_a - 1, 2 ** bits_b - 1
            want = [(k + 1) * sa * sb * ma * mb for k in range(n)]
            assert series._product([sa * ma] * n, [sb * mb] * n, n) == want, (bits_a, bits_b)
    assert len(widths) == 2 * 3 * 16


@pytest.mark.parametrize("which", ["G", "H"])
def test_ode_residual_at_order_1601_is_the_same_by_either_path(which, monkeypatch):
    z = oscillator_partition_series(RR_SPECTRUM[which], 1601)
    packed = (ode_residual(which, 1601), eisenstein(4, 1601) * z)
    monkeypatch.setattr(series, "KRONECKER_MIN_ORDER", MAX_ORDER + 1)
    schoolbook = (ode_residual(which, 1601), eisenstein(4, 1601) * z)
    assert packed == schoolbook and packed[0].is_zero()


# -- the int pair and the Fraction view ------------------------------------------------

def test_numerators_reproduce_coeffs_and_are_memoized():
    f = poly(F(1, 2), F(-3, 4), 5, F(7, 60), prefactor=F(-1, 60))
    pair = f.numerators()
    a, d = pair
    assert isinstance(a, tuple) and d == 60
    assert tuple(F(n, d) for n in a) == f.coeffs == (F(1, 2), F(-3, 4), F(5), F(7, 60))
    assert f.numerators() is pair


def test_repr_builds_only_the_head(monkeypatch):
    f = FracQSeries.from_ints("-1/60", [n * n - 7 for n in range(MAX_ORDER)], 6)
    counts = fraction_calls(monkeypatch, lambda n: lambda: repr(f), (MAX_ORDER,))
    assert counts[MAX_ORDER].get("__new__", 0) <= 6
    assert not hasattr(f, "_coeffs")   # no view left behind
    assert repr(f) == "FracQSeries(q^-1/60 * [-7/6, -1, -1/2, 1/3, 3/2, 3, ...], order=4096)"


def test_from_ints_reduces_its_pair_once():
    f = FracQSeries.from_ints("-1/60", [6, -9, 0, 12], -6)
    assert f.prefactor == F(-1, 60) and type(f.prefactor) is F
    assert f.coeffs == (F(-1), F(3, 2), F(0), F(-2))
    assert f.numerators() == ((-2, 3, 0, -4), 2)
    assert f == FracQSeries(F(-1, 60), f.coeffs)


@pytest.mark.parametrize("nums,d", [([], 1), ([1, 2], 0)])
def test_from_ints_rejects_an_empty_list_and_a_zero_denominator(nums, d):
    with pytest.raises(ValueError):
        FracQSeries.from_ints(0, nums, d)


@pytest.mark.parametrize("nums", [[1, 0.5], [1, F(1, 2)]])
def test_from_ints_takes_ints_only(nums):
    with pytest.raises(TypeError):
        FracQSeries.from_ints(0, nums)


def test_numerators_memo_keeps_the_series_immutable():
    f = poly(1, F(1, 3)) * poly(F(-2, 5), 3)
    assert not hasattr(f, "_coeffs")   # an operation's result has no view until it is read
    view = f.coeffs
    a, d = f.numerators()
    assert view == tuple(F(x, d) for x in a) and f.coeffs is view and f._coeffs is view
    for name in ("prefactor", "coeffs", "order", "_pair", "_coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    assert f.coeffs is view and f.numerators() == (a, d)


def test_equality_and_hash_ignore_the_memo():
    f, g = poly(F(2, 3), 1, prefactor=F(1, 5)), poly(F(2, 3), 1, prefactor=F(1, 5))
    f.coeffs
    assert f == g and hash(f) == hash(g)
    assert f.to_record() == g.to_record()


tail_rationals = st.builds(F, st.integers(-50, 50), st.sampled_from((11, 13, 121)))


@given(wide_series(), wide_series(), st.lists(tail_rationals, min_size=1, max_size=20),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_mul_and_invert_with_memo_past_the_shorter_order(f, g, tail, warm):
    # g's tail lies past f's order and brings denominators f's coefficients lack,
    # so the common denominator of g's memo exceeds that of the product's terms
    g = FracQSeries(g.prefactor, list(g.coeffs) + tail)
    if warm:
        f.coeffs, g.coeffs
    assert list((f * g).coeffs) == fraction_product(f.coeffs, g.coeffs)
    assert list((g * f).coeffs) == fraction_product(g.coeffs, f.coeffs)
    assert list(g.invert().coeffs) == fraction_inverse(g.coeffs)


def test_serialization_roundtrip_and_stability():
    f = poly(1, -2, F(3, 7), prefactor=F(-1, 60))
    rec = f.to_record()
    assert rec == {"prefactor": "-1/60", "order": 3, "coeffs": ["1/1", "-2/1", "3/7"]}
    assert f.to_record() == rec  # repeated serialization is bit-identical


@pytest.mark.parametrize("warm", [False, True])
def test_copy_and_pickle_rebuild_the_series(warm):
    f = poly(F(2, 3), -1, F(5, 7), prefactor=F(-1, 60))
    if warm:
        f.coeffs
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert g == f and hash(g) == hash(f)
        assert not hasattr(g, "_coeffs")   # the view is rebuilt on read, not carried over
        assert g.numerators() == f.numerators() and g.coeffs == f.coeffs
        with pytest.raises(AttributeError):
            g.order = 1


# -- every operation over the int pair ------------------------------------------------

def fraction_sum(f, g, sign):
    """f + sign * g term by term over exponents, from the lower prefactor to the
    first exponent either series no longer stores."""
    terms = {}
    for h, k in ((f, 1), (g, sign)):
        for i, c in enumerate(h.coeffs):
            terms[h.prefactor + i] = terms.get(h.prefactor + i, 0) + k * c
    lo = min(f.prefactor, g.prefactor)
    hi = min(f.prefactor + f.order, g.prefactor + g.order)
    return lo, [F(terms.get(lo + n, 0)) for n in range(int(hi - lo))]


def assert_canonical(h):
    """The kept pair is the one a series rebuilt from h's Fractions computes, reduced,
    and copies and pickles of h compare, hash and serialize equal."""
    nums, d = h.numerators()
    assert (nums, d) == FracQSeries(h.prefactor, h.coeffs).numerators()
    assert d > 0 and math.gcd(d, *nums) == 1
    assert tuple(F(x, d) for x in nums) == h.coeffs
    for c in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert c == h and hash(c) == hash(h) and c.to_record() == h.to_record()


@st.composite
def alignable_pairs(draw):
    f, g = draw(wide_series()), draw(wide_series())
    s = draw(st.integers(1 - min(f.order, g.order), min(f.order, g.order) - 1))
    return f, FracQSeries(f.prefactor + s, g.coeffs)


@given(alignable_pairs(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_add_and_sub_match_fraction_sums(pair, warm):
    f, g = pair
    if warm:
        f.coeffs, g.coeffs
    for h, sign in ((f + g, 1), (f - g, -1), (g - f, None)):
        lo, want = fraction_sum(g, f, -1) if sign is None else fraction_sum(f, g, sign)
        assert h.prefactor == lo and list(h.coeffs) == want
        assert_canonical(h)
    assert (f - f).is_zero() and (f - f).numerators() == ((0,) * f.order, 1)


scales = st.sampled_from((F(0), F(1), F(-1), F(2), F(-3, 7), F(5, 12), F(-60), F(1, 60)))


@given(wide_series(), scales)
@settings(max_examples=80, deadline=None)
def test_neg_scale_and_q_derivative_match_fractions(f, k):
    cases = ((-f, [-c for c in f.coeffs]),
             (f.scale(k), [k * c for c in f.coeffs]),
             (k * f, [k * c for c in f.coeffs]),
             (f.q_derivative(), [(f.prefactor + n) * c for n, c in enumerate(f.coeffs)]))
    for h, want in cases:
        assert h.prefactor == f.prefactor and list(h.coeffs) == want
        assert_canonical(h)
    assert f.scale(0).is_zero() and not f.is_zero()


@given(wide_series(), wide_series())
@settings(max_examples=40, deadline=None)
def test_mul_and_invert_keep_the_reduced_pair(f, g):
    for h in (f * g, f.invert(), g.invert().invert()):
        assert_canonical(h)


def test_negative_leading_numerator_inverts_over_a_positive_denominator():
    # a_0 = -5/1 at an odd order: a_0^order is negative and the sign moves to the nums
    f = poly(-5, F(1, 3), 2)
    inv = f.invert()
    assert list(inv.coeffs) == fraction_inverse(f.coeffs)
    assert_canonical(inv)


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
                       "__mod__", "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__",
                       "__abs__")


def guard_series(order, prefactor):
    heads = (F(3, 7), F(-1), F(12, 5), F(-1, 60))
    return FracQSeries(prefactor, [heads[order % 4]] + [
        F((7 * i) % 11 - 5, (1, 2, 3, 7, 60)[i % 5]) for i in range(1, order)])


GUARD_OPS = {
    "add": lambda f, g: f + g,
    "sub": lambda f, g: f - g,
    "neg": lambda f, g: -f,
    "scale": lambda f, g: f.scale(F(-3, 7)),
    "rmul": lambda f, g: F(5, 12) * f,
    "q_derivative": lambda f, g: f.q_derivative(),
    "mul": lambda f, g: f * g,
    "invert": lambda f, g: f.invert(),
    "is_zero": lambda f, g: f.is_zero(),
    "mul_sparse": lambda f, g: f.mul_sparse(3, F(-2, 5)),
}


def fraction_calls(monkeypatch, run, orders):
    """{n: {name: calls}} of Fraction constructions (__new__) and arithmetic during
    run(n), for each order n; run(n) is given its inputs before counting starts."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    thunks = {n: run(n) for n in orders}
    for name in FRACTION_ARITHMETIC + ("__new__",):
        monkeypatch.setattr(F, name, counted(name, getattr(F, name)))
    counts = {}
    for n, thunk in thunks.items():
        calls.clear()
        thunk()
        counts[n] = dict(calls)
    return counts


@pytest.mark.parametrize("op", sorted(GUARD_OPS))
def test_fraction_arithmetic_does_not_grow_with_the_order(op, monkeypatch):
    """Each operation runs over ints: the Fraction arithmetic it does (on the prefactor
    alone) is the same at order 16 and at order 64, and so is the number of Fractions
    it builds, since a result's coefficients are built only when coeffs is read."""
    def run(n):
        f, g = guard_series(n, F(-7, 60)), guard_series(n, F(53, 60))
        return lambda: GUARD_OPS[op](f, g)

    counts = fraction_calls(monkeypatch, run, (16, 64))
    built = {n: c.pop("__new__", 0) for n, c in counts.items()}
    assert built[16] == built[64]
    assert counts[16] == counts[64]
    assert sum(counts[64].values()) <= 2


def test_ode_residual_builds_as_many_fractions_at_any_order(monkeypatch):
    counts = fraction_calls(monkeypatch, lambda n: lambda: ode_residual("G", n), (51, 201))
    assert counts[51]["__new__"] == counts[201]["__new__"]


# -- floats and orders ----------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: rat(0.1),
    lambda: rat(2.0),
    lambda: FracQSeries(0, [1, 0.1]),
    lambda: FracQSeries(0.5, [1]),
    lambda: poly(1, 2).scale(0.5),
    lambda: poly(1, 2) * 0.5,
    lambda: poly(1, 2).mul_sparse(1, 0.5),
    lambda: monomial(0.25, 3),
], ids=["rat", "rat integral", "coeff", "prefactor", "scale", "mul", "mul_sparse", "monomial"])
def test_floats_are_rejected(call):
    with pytest.raises(TypeError, match="float"):
        call()


def test_rat_keeps_exact_inputs():
    assert rat(F(1, 3)) == F(1, 3) and rat(-4) == -4 and rat("3/7") == F(3, 7)
    assert rat("0.1") == F(1, 10) and rat(True) == 1


ORDER_ENTRIES = {
    "check_order": check_order,
    "one": FracQSeries.one,
    "rr_product G": lambda n: rr_product("G", n),
    "ode_residual G": lambda n: ode_residual("G", n),
    "eisenstein 2": lambda n: eisenstein(2, n),
    "eisenstein 4": lambda n: eisenstein(4, n),
    "dedekind_eta": dedekind_eta,
    "unrestricted_p": lambda n: unrestricted_p(n - 1),   # n counts, p(0) to p(n - 1)
    "character_25 V0": lambda n: character_25("V0", n),
}
ORDER_CASES = ([(name, MAX_ORDER + 1) for name in list(ORDER_ENTRIES)[:4]]
               + [(name, n) for name in ORDER_ENTRIES for n in (0, -1)])


@pytest.mark.parametrize("name,order", ORDER_CASES,
                         ids=[name if n > 0 else f"{name} {n}" for name, n in ORDER_CASES])
def test_orders_above_max_order_raise(name, order):
    """check_order's rule, 1 <= order <= MAX_ORDER, holds at each entry point: ValueError
    below 1 (nothing is padded, cut or defaulted) and OrderTooLarge above MAX_ORDER."""
    if order > MAX_ORDER:
        with pytest.raises(OrderTooLarge, match=f"MAX_ORDER = {MAX_ORDER}"):
            ORDER_ENTRIES[name](order)
    else:
        with pytest.raises(ValueError, match=f"order {order} < 1"):
            ORDER_ENTRIES[name](order)


# each entry point takes its order or n_max as given here, so a bool reaches it unchanged
NON_INT_ENTRIES = {**ORDER_ENTRIES, "unrestricted_p": unrestricted_p,
                   "count_partitions": lambda n: count_partitions(n, PartitionConstraint())}


@pytest.mark.parametrize("value", [10.0, 2.0, True, False, F(3), "3"])
@pytest.mark.parametrize("name", list(NON_INT_ENTRIES))
def test_orders_that_are_not_ints_raise(name, value):
    """Anything but an int, a bool included, is a ValueError before anything is allocated:
    10.0 is not truncated to 10, and True does not run as order 1."""
    with pytest.raises(ValueError, match="int"):
        NON_INT_ENTRIES[name](value)


def test_max_order_itself_is_accepted():
    assert check_order(MAX_ORDER) == MAX_ORDER
    assert FracQSeries.one(MAX_ORDER).order == MAX_ORDER
