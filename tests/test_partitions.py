"""Restricted partition counting: count_partitions runs the DP alone, so the
cross-checks are explicit here: frozen values, the unrestricted DP against the
pentagonal recurrence and the product expansion to n = 100, both Andrews-Gordon
sides against the backtracking enumerator, a property test of the enumerator
and the DPs, and the packed-row DPs against reference loop DPs."""

import tracemalloc
from collections import deque
from functools import cache
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcft import partitions, special
from qcft.errors import ConflictingConstraint
from qcft.partitions import (ENUMERATION_LIMIT, GORDON_LIMIT, PartitionConstraint,
                             _dp_counts, _dp_window, _enumerate_counts, _gordon_constraints,
                             _slot_bits, count_partitions, gordon_check, unrestricted_p)
from qcft.series import MAX_ORDER

GORDON_SHAPES = [(k, i) for k in (2, 3, 4) for i in range(1, k + 1)]
# the four constraints the rr report counts with: G and H, gap and congruence
REPORT_CONSTRAINTS = [
    PartitionConstraint(min_gap=2),
    PartitionConstraint(min_part=2, min_gap=2),
    PartitionConstraint(allowed_residues=frozenset({1, 4}), modulus=5),
    PartitionConstraint(allowed_residues=frozenset({2, 3}), modulus=5),
]


@pytest.fixture(scope="module")
def unrestricted_table():
    # the DP alone; checked against the pentagonal recurrence and the product
    # expansion to n = 100 below
    return count_partitions(100, PartitionConstraint())


def test_unrestricted_values(unrestricted_table):
    assert unrestricted_table[5] == 7
    assert unrestricted_table[100] == 190569292


def test_unrestricted_matches_pentagonal_recurrence(unrestricted_table):
    assert unrestricted_table.values == unrestricted_p(100).values


def test_unrestricted_matches_product_expansion(unrestricted_table):
    # third oracle: expand prod 1/(1-q^m) by plain convolution
    n_max = 100
    acc = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for k in range(m, n_max + 1):
            acc[k] += acc[k - m]
    assert unrestricted_table.values == acc


def test_gap_two_values():
    table = count_partitions(9, PartitionConstraint(min_gap=2))
    # n=9: {9},{8,1},{7,2},{6,3},{5,3,1} -> 5
    assert table[9] == 5


def test_min_part_and_gap():
    table = count_partitions(10, PartitionConstraint(min_part=2, min_gap=2))
    # n=10: {10},{8,2},{7,3},{6,4} -> 4
    assert table[10] == 4


def test_congruence_residues():
    c = PartitionConstraint(allowed_residues=frozenset({1, 4}), modulus=5)
    table = count_partitions(12, c)
    # n=6: {6},{4,1,1},{1^6} -> 3
    assert table[6] == 3


def test_residues_normalized_mod_modulus():
    a = PartitionConstraint(allowed_residues=frozenset({6, 9}), modulus=5)
    b = PartitionConstraint(allowed_residues=frozenset({1, 4}), modulus=5)
    assert count_partitions(20, a).values == count_partitions(20, b).values
    # a one-shot iterator of residues is read once, by the int check and the set alike
    assert PartitionConstraint(allowed_residues=iter((6, 9)), modulus=5) == b


def test_window_counts_match_enumeration_definition():
    c = PartitionConstraint(window=(3, 2))
    table = count_partitions(15, c)
    assert table.values == _enumerate_counts(15, c)
    raw = count_partitions(15, PartitionConstraint(min_gap=2))
    # k=2 window equals the plain gap rule
    pair = count_partitions(15, PartitionConstraint(window=(2, 2)))
    assert pair.values == raw.values == _enumerate_counts(15, PartitionConstraint(window=(2, 2)))
    assert all(table[n] >= raw[n] for n in range(16))


def test_conflicting_constraint():
    with pytest.raises(ConflictingConstraint):
        PartitionConstraint(min_gap=2, window=(2, 2))
    with pytest.raises(ValueError):
        PartitionConstraint(allowed_residues=frozenset({1}))


def test_constraint_validation():
    with pytest.raises(ValueError):
        PartitionConstraint(max_ones=-1)
    with pytest.raises(ValueError):
        PartitionConstraint(min_part=0)
    with pytest.raises(ValueError):
        PartitionConstraint(window=(0, 2))
    for gap in (0, 1, 3):
        with pytest.raises(ValueError):
            PartitionConstraint(window=(3, gap))
    assert PartitionConstraint(max_ones=0).parts_valid([3, 2])
    assert not PartitionConstraint(max_ones=1).parts_valid([3, 1, 1])


@pytest.mark.parametrize("modulus", [0, -5])
def test_constraint_rejects_modulus_below_one(modulus):
    with pytest.raises(ValueError, match="modulus"):
        PartitionConstraint(allowed_residues=frozenset({1}), modulus=modulus)


@pytest.mark.parametrize("kwargs", [
    {"min_part": 1.5}, {"min_part": True}, {"min_gap": 2.0},
    {"allowed_residues": frozenset({1.5}), "modulus": 5},
    {"allowed_residues": frozenset({1}), "modulus": 5.0}, {"max_ones": 1.0},
    {"window": (2.0, 2)}, {"window": (2, True)},
    {"window": (3,)}, {"window": 3}, {"window": (3, 2, 1)},
    {"allowed_residues": 5, "modulus": 5},
], ids=repr)
def test_constraint_fields_must_be_ints(kwargs):
    with pytest.raises(ValueError, match="need int fields"):
        PartitionConstraint(**kwargs)


def test_enumeration_cross_check_scope():
    # the oracle range of the rr.partition_oracle records is part of the contract
    assert ENUMERATION_LIMIT == 60


def test_count_partitions_never_enumerates(monkeypatch):
    def refuse(n_max, c):
        raise AssertionError("count_partitions entered the enumerator")

    monkeypatch.setattr(partitions, "_enumerate_counts", refuse)
    for c in REPORT_CONSTRAINTS:
        assert len(count_partitions(200, c)) == 201


def test_oracle_never_counts_by_a_dp(monkeypatch):
    # the other direction: the oracle reaches no DP and no product expansion
    def refuse(*args):
        raise AssertionError("the enumerator entered a DP or a product expansion")

    for name in ("_dp_counts", "_dp_window", "_slot_bits", "_unpack", "count_partitions"):
        monkeypatch.setattr(partitions, name, refuse)
    monkeypatch.setattr(special, "euler_product", refuse)
    oracle = [_enumerate_counts(ENUMERATION_LIMIT, c) for c in REPORT_CONSTRAINTS]
    monkeypatch.undo()
    assert oracle == [_dp_counts(ENUMERATION_LIMIT, c) for c in REPORT_CONSTRAINTS]


def test_window_state_does_not_grow_with_k():
    # no value fits more than n_max times, so a window of k > n_max counts as
    # k = n_max + 1 does, with state of size n_max (about 20 kB here); k - 1 layers of
    # n_max + 1 counts take 3 MB at k = 10^4, which runs first, so that k-sized state
    # fails in seconds rather than minutes
    n = 30
    fit = count_partitions(n, PartitionConstraint(window=(n + 1, 2))).values
    fit_sides = _gordon_constraints(n + 1, 1, n)
    for huge in (10 ** 4, 10 ** 6):
        tracemalloc.start()
        try:
            table = count_partitions(n, PartitionConstraint(window=(huge, 2)))
            first = gordon_check(huge, 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000, huge
        assert table.values == fit
        assert first is None and gordon_check(n + 1, 1, n) is None
        gaps, congruences = _gordon_constraints(huge, 1, n)
        assert _dp_window(n, gaps) == _dp_window(n, fit_sides[0])
        assert congruences.allowed_residues == fit_sides[1].allowed_residues


@pytest.mark.parametrize("k,i", [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2)])
def test_gordon_identities(k, i):
    assert gordon_check(k, i, 45) is None


@pytest.mark.parametrize("k,i", GORDON_SHAPES)
def test_gordon_sides_match_enumeration(k, i):
    # the oracle range: each DP against the single backtracking enumerator
    n = ENUMERATION_LIMIT
    gaps, congruences = _gordon_constraints(k, i, n)
    assert gaps.window == (k, 2) and gaps.max_ones == i - 1
    assert _enumerate_counts(n, gaps) == _dp_window(n, gaps)
    assert _enumerate_counts(n, congruences) == _dp_counts(n, congruences)


@pytest.mark.parametrize("k,i", GORDON_SHAPES)
def test_gordon_identities_by_dp(k, i):
    assert gordon_check(k, i, 200) is None


def test_gordon_argument_validation():
    # out of range, and anything but an int (a bool or an integral float too)
    for k, i, n_max in [(2, 3, 40), (3, 1, GORDON_LIMIT + 1), (3, 1, -1), (2.5, 1, 10),
                        (2, 1.0, 10), (2, 1, 10.0), (2, 1, True), (True, 1, 10)]:
        with pytest.raises(ValueError):
            gordon_check(k, i, n_max)


def test_gordon_check_returns_the_first_differing_n(monkeypatch):
    real = partitions._dp_window

    def perturbed(n_max, c):
        counts = real(n_max, c)
        return [x + (n == 17) for n, x in enumerate(counts)]

    monkeypatch.setattr(partitions, "_dp_window", perturbed)
    assert gordon_check(3, 1, 60) == 17
    assert gordon_check(3, 1, 16) is None


# -- property test: enumerator against brute force, DP against enumerator ---------------

@cache
def all_partitions(n):
    """Every partition of n as a weakly decreasing list, by plain recursion."""
    def rec(rest, cap):
        if rest == 0:
            yield []
            return
        for s in range(min(rest, cap), 0, -1):
            for tail in rec(rest - s, s):
                yield [s] + tail
    return tuple(rec(n, n))


@st.composite
def constraints(draw):
    kwargs = {"min_part": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        kwargs["min_gap"] = draw(st.integers(0, 3))
    else:
        kwargs["window"] = (draw(st.integers(1, 4)), 2)
    if draw(st.booleans()):
        modulus = draw(st.integers(2, 6))
        kwargs["modulus"] = modulus
        kwargs["allowed_residues"] = draw(st.frozensets(st.integers(0, modulus - 1)))
    kwargs["max_ones"] = draw(st.none() | st.integers(0, 3))
    return PartitionConstraint(**kwargs)


# windows whose bound reaches zero or below: after a part 1 or 2 under gap 2
@pytest.mark.parametrize("c", [
    PartitionConstraint(window=(2, 2)),
    PartitionConstraint(window=(3, 2)),
    PartitionConstraint(window=(3, 2), max_ones=1),
    PartitionConstraint(min_part=2, window=(2, 2)),
    PartitionConstraint(window=(4, 2), allowed_residues=frozenset({1, 2}), modulus=4),
], ids=["k2", "k3", "k3_one_1", "k2_from_2", "k4_mod_4"])
def test_enumerator_with_nonpositive_window_bounds(c):
    brute = [sum(1 for p in all_partitions(n) if c.parts_valid(p)) for n in range(25)]
    assert _enumerate_counts(24, c) == brute
    assert _dp_window(24, c) == brute


@settings(max_examples=60, deadline=None)
@given(constraints())
def test_enumerator_and_dp_match_definition(c):
    brute = [sum(1 for p in all_partitions(n) if c.parts_valid(p)) for n in range(25)]
    assert _enumerate_counts(24, c) == brute
    assert _dp_counts(40, c) == _enumerate_counts(40, c)


# -- packed rows: against the plain loop DPs, at the slot bound, and in memory ----------

def loop_dp_counts(n_max, c):
    """The table over the smallest allowed part, one Python add per count."""
    if c.window is not None:
        return loop_dp_window(n_max, c)
    gap = c.min_gap
    ones = n_max if c.max_ones is None else c.max_ones
    ahead = deque([[1] + [0] * n_max] * max(gap, 1), maxlen=max(gap, 1))
    for s in range(n_max, c.min_part - 1, -1):
        row = list(ahead[0])
        if c.part_allowed(s) and not (s == 1 and ones == 0):
            rest = ahead[-1] if gap else row
            for n in range(s, n_max + 1):
                row[n] += rest[n - s]
            if s == 1 and not gap:
                row = [v - (row[n - ones - 1] if n > ones else 0) for n, v in enumerate(row)]
        ahead.appendleft(row)
    return ahead[0]


def loop_dp_window(n_max, c):
    """The multiplicity DP for the window rule, one list per multiplicity."""
    room = c.window[0] - 1
    top = min(room, n_max)
    zero = [0] * (n_max + 1)
    layer = [[1] + [0] * n_max] + [zero] * top
    for v in range(c.min_part, n_max + 1):
        cap = min(top, n_max // v) if c.part_allowed(v) else 0
        if v == 1 and c.max_ones is not None:
            cap = min(cap, c.max_ones)
        below = [layer[0]]
        for f in range(1, top + 1):
            below.append(below[-1] if layer[f] is zero else list(map(add, below[-1], layer[f])))
        layer = [below[top]]
        for f in range(1, top + 1):
            if f > cap:
                layer.append(zero)
            else:
                shift = f * v
                layer.append([0] * shift + below[min(room - f, top)][:n_max + 1 - shift])
    return [sum(column) for column in zip(*layer)]


PACKED_SHAPES = (
    [PartitionConstraint(min_part=m, min_gap=g) for g in (1, 2, 3) for m in (1, 2)]
    + [PartitionConstraint(allowed_residues=frozenset(r), modulus=m, max_ones=ones)
       for r, m in (({1, 4}, 5), ({2, 5}, 7)) for ones in (None, 3)]
    + [PartitionConstraint(window=(k, 2), **extra) for k in (2, 3, 4)
       for extra in ({}, {"max_ones": 1}, {"min_part": 2})]
)


@pytest.mark.parametrize("c", PACKED_SHAPES, ids=repr)
def test_packed_rows_match_the_loop_dps(c):
    assert _dp_counts(600, c) == loop_dp_counts(600, c)


@pytest.fixture(scope="module")
def p_to_max_order():
    # the pentagonal recurrence, which shares no code with the DPs
    return unrestricted_p(MAX_ORDER - 1).values


def test_packed_rows_hold_p_at_the_largest_order(p_to_max_order):
    # the tightest case of the slot bound: every slot near p(n_max) itself
    assert count_partitions(MAX_ORDER - 1, PartitionConstraint()).values == p_to_max_order


def test_slot_width_exceeds_p(p_to_max_order):
    # a slot must hold p(n) with a bit to spare, so a sum of two counts never carries
    assert all(_slot_bits(n) > p.bit_length() + 1 for n, p in enumerate(p_to_max_order))


def at_most_three_parts(n, gap):
    """Partitions of n with consecutive parts gap or more apart, for n < 6 gap + 4 (no
    room for four parts): taking gap (k - 1 - j) from the j-th of k parts leaves a
    partition of n - gap k(k - 1)/2 into exactly k parts, of which there are 1, m // 2
    and round(m^2 / 12) for k = 1, 2, 3 and m >= 1; n = 0 has the empty partition."""
    assert n < 6 * gap + 4
    m = [n, n - gap, n - 3 * gap]
    return 1 + max(m[1], 0) // 2 + (max(m[2], 0) ** 2 + 6) // 12


@pytest.mark.parametrize("gap,limit", [(4095, 1_000_000), (1000, 72_000_000)])
def test_gap_dp_keeps_only_the_slots_it_reads(gap, limit):
    # A row r is read at step r - gap alone, up to q^n_max, so only its slots
    # r..n_max + gap - r are kept.  At gap 4095 no row is ever read; at gap 1000 the
    # kept rows peak at step 1000, about 2.1 million 30-byte slots (63 MB).  Full rows
    # of n_max + 1 counts, one per gap step, peak at 84 and 134 MB here.
    tracemalloc.start()
    try:
        table = count_partitions(4095, PartitionConstraint(min_gap=gap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit
    assert table.values == [at_most_three_parts(n, gap) for n in range(4096)]
