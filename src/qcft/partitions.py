"""Partition counting: gap rules, congruence rules, Andrews-Gordon windows.

The library counts by two iterative dynamic programs, run alone by
count_partitions: a table over the smallest allowed part for the gap and
congruence rules, and a multiplicity DP over part values for the window rule,
whose state stops at n_max copies of a value however large the window.  Both
keep each row of counts for n = 0..n_max as one packed int, a fixed-width slot
per n, so a step is a few whole-row shifts and adds.  Every slot holds a count
of partitions of some n <= n_max, at most p(n) < exp(pi sqrt(2n/3)) (Apostol,
Introduction to Analytic Number Theory, Thm 14.5), and _slot_bits leaves two
bits above that bound, so no slot carries into or borrows from the next.  One
backtracking enumerator applies the raw definition to explicit part lists and
counts each one, a leaf without a call of its own; it is the oracle, which the
rr.partition_oracle records compare with the DP to n = 60.  Two independent
DPs count the Andrews-Gordon sides; gordon_check returns where they first differ.
unrestricted_p counts p(n) by Euler's recurrence over special.pentagonal, with no DP.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from math import ceil, log, pi, sqrt

from . import special
from .errors import ConflictingConstraint
from .series import _unpack, check_order, is_int

ENUMERATION_LIMIT = 60
#: Largest n_max gordon_check accepts: one call with k = 4 at this bound takes
#: about 0.03 s (CPython 3.11, 2-core x86-64 VM), against a budget of 1 s.
GORDON_LIMIT = 1000


@dataclass(frozen=True)
class PartitionConstraint:
    """Rules a partition (weakly decreasing part list) must satisfy.

    min_gap g requires consecutive parts to differ by at least g; the
    window rule (k, 2), the only window gap supported, requires
    b_j - b_{j+k-1} >= 2 for 1-indexed positions.  At most one of the two
    may be active.  allowed_residues restricts parts to given residues mod
    `modulus`.  max_ones caps the number of parts equal to 1.  Every field, residue
    and window entry is an int (series.is_int), the residues are an iterable and the window
    a tuple of two, else ValueError.
    """

    min_part: int = 1
    min_gap: int = 0
    allowed_residues: frozenset[int] | None = None
    modulus: int | None = None
    window: tuple[int, int] | None = None
    max_ones: int | None = None

    def __post_init__(self):
        residues, window = self.allowed_residues, self.window
        residues = tuple(residues) if isinstance(residues, Iterable) else residues   # read once
        shaped = ((residues is None or isinstance(residues, tuple))
                  and (window is None or isinstance(window, tuple) and len(window) == 2))
        given = [x for x in (self.modulus, self.max_ones) if x is not None]
        entries = [*(residues or ()), *(window or ())] if shaped else []
        if not (shaped and all(map(is_int, (self.min_part, self.min_gap, *given, *entries)))):
            raise ValueError(f"need int fields, residues and a window pair, got {self!r}")
        if self.min_gap > 0 and self.window is not None:
            raise ConflictingConstraint("min_gap and window cannot both be active")
        if (self.allowed_residues is None) != (self.modulus is None):
            raise ValueError("allowed_residues and modulus must be given together")
        if self.modulus is not None and self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if self.min_part < 1 or self.min_gap < 0:
            raise ValueError("need min_part >= 1 and min_gap >= 0")
        if self.window is not None and (self.window[0] < 1 or self.window[1] != 2):
            raise ValueError("a window (k, 2) needs k >= 1; no other gap is supported")
        if self.max_ones is not None and self.max_ones < 0:
            raise ValueError("max_ones must be >= 0")
        if self.allowed_residues is not None:
            object.__setattr__(self, "allowed_residues",
                               frozenset(r % self.modulus for r in residues))

    def part_allowed(self, s: int) -> bool:
        if s < self.min_part:
            return False
        if self.allowed_residues is not None and s % self.modulus not in self.allowed_residues:
            return False
        return True

    def parts_valid(self, parts: list[int]) -> bool:
        """Raw check on an explicit weakly decreasing part list."""
        if any(not self.part_allowed(p) for p in parts):
            return False
        if self.min_gap > 0:
            for a, b in zip(parts, parts[1:]):
                if a - b < self.min_gap:
                    return False
        if self.window is not None:
            k, gap = self.window
            for j in range(len(parts) - k + 1):
                if parts[j] - parts[j + k - 1] < gap:
                    return False
        if self.max_ones is not None and parts.count(1) > self.max_ones:
            return False
        return True


@dataclass
class CountTable:
    """values[n] = number of partitions of n under some constraint."""

    values: list[int] = field(default_factory=list)

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _enumerate_counts(n_max: int, c: PartitionConstraint) -> list[int]:
    """Backtracking oracle: walk every valid partition with sum <= n_max.

    Parts are placed from the largest down, and each new part s is checked
    only against the rules s can break: its size and residue, the gap to the
    previous part, the window ending at s, and the ones budget.  Every other
    rule instance involves accepted parts only, so this is parts_valid on the
    extended list, and a failed prefix is pruned soundly: a prefix of a valid
    partition is itself valid.  Each partition is counted once, when its last
    part is placed; the walk descends into it only if the gap and the sum
    leave room for one more allowed part, so a leaf is counted without a call.
    """
    counts = [0] * (n_max + 1)
    counts[0] = 1  # empty partition
    k, wgap = c.window if c.window is not None else (0, 0)
    if k == 1 and wgap > 0:
        return counts  # b_j - b_j >= gap fails for every part
    gap = c.min_gap
    # descending[h]: the parts <= h that pass the size and residue rules
    allowed = [s for s in range(n_max, c.min_part - 1, -1) if c.part_allowed(s)]
    descending = [[s for s in allowed if s <= h] for h in range(n_max + 1)]
    lo = allowed[-1] if allowed else n_max + 1   # the smallest of them
    parts = [0] * n_max  # parts[:depth] is the partition being extended

    def extend(total: int, depth: int, hi: int, ones_left: int):
        # hi: the largest part the gap to the previous part and the sum allow
        if k > 1 and depth >= k - 1:
            bound = parts[depth - k + 1] - wgap   # the window ending at the new part
            if bound < hi:
                if bound < lo:   # also keeps a negative bound out of descending
                    return
                hi = bound
        for s in descending[hi]:
            if s == 1 and ones_left == 0:
                break
            t = total + s
            counts[t] += 1
            nxt = s - gap
            if n_max - t < nxt:
                nxt = n_max - t
            if nxt >= lo:
                parts[depth] = s
                extend(t, depth + 1, nxt, ones_left - (s == 1))

    extend(0, 0, n_max, n_max if c.max_ones is None else c.max_ones)
    return counts


def _slot_bits(n_max: int) -> int:
    """Bits per slot of a packed row for counts of n <= n_max: two more than
    log2 exp(pi sqrt(2 n_max / 3)), the bound on p(n) for every n <= n_max, rounded
    up to whole bytes."""
    return -(-(ceil(pi * sqrt(2 * n_max / 3) / log(2)) + 2) // 8) * 8


def _dp_counts(n_max: int, c: PartitionConstraint) -> list[int]:
    """The same counts by a bottom-up table over the smallest allowed part.

    Row s counts partitions whose parts are all >= s.  Either s is not used
    (row s + 1), or s is the smallest part and the rest lie in row s + gap;
    with no gap rule s repeats, so row s is row s + 1 times 1/(1 - q^s) =
    (1 + q^s)(1 + q^2s)(1 + q^4s)... up to q^n_max, one doubling pass per
    factor.  A row is one packed int, so each step is a few whole-row shifts and
    adds, and a slot, a count of partitions of n, never exceeds p(n).
    """
    if c.window is not None:
        return _dp_window(n_max, c)
    gap = c.min_gap
    ones = n_max if c.max_ones is None else c.max_ones
    w = _slot_bits(n_max)
    row = 1   # row s + 1; above n_max only the empty partition
    if not gap:
        mask = (1 << w * (n_max + 1)) - 1
        for s in range(n_max, c.min_part - 1, -1):
            if c.part_allowed(s) and not (s == 1 and ones == 0):
                t = s
                while t <= n_max:
                    row += (row << w * t) & mask
                    t *= 2
                if s == 1:
                    # drop the partitions with more than `ones` parts equal to 1
                    row -= (row << w * (ones + 1)) & mask
        return _unpack(row, n_max + 1, w // 8)
    # Row r = 1 + q^r T_r is read as the rest only at step r - gap, and there only up
    # to q^n_max, so ahead keeps just the low n_max + 1 + gap - 2r slots of T_r, or 0
    # when that step is below min_part or no slot is left; ahead[j] is kept of row s + 1 + j
    ahead = deque([0] * gap, maxlen=gap)
    for s in range(n_max, c.min_part - 1, -1):
        if c.part_allowed(s) and not (s == 1 and ones == 0):
            row += (1 << w * s) + (ahead[-1] << w * (2 * s + gap))
        kept = n_max + 1 + gap - 2 * s
        ahead.appendleft((row >> w * s) & ((1 << w * kept) - 1)
                         if kept > 0 and s - gap >= c.min_part else 0)
    return _unpack(row, n_max + 1, w // 8)


def _dp_window(n_max: int, c: PartitionConstraint) -> list[int]:
    """Multiplicity DP for the window rule (k, 2).

    b_j - b_{j+k-1} >= 2 is equivalent to f_v + f_{v+1} <= k - 1 for the
    multiplicities f_v of each value v.  Values are taken in increasing
    order; the state is (multiplicity of the previous value, total), one
    packed row per multiplicity as in _dp_counts, so f copies of v are one
    shift by f v slots.  No value fits more than n_max times, so the layers
    stop at min(k - 1, n_max) and the cost does not grow with k.
    """
    room = c.window[0] - 1   # f_v + f_{v+1} <= room
    top = min(room, n_max)
    w = _slot_bits(n_max)
    mask = (1 << w * (n_max + 1)) - 1
    # layer[f]: multiplicities of the values so far, f copies of the last one, by total
    layer = [1] + [0] * top
    for v in range(c.min_part, n_max + 1):
        cap = min(top, n_max // v) if c.part_allowed(v) else 0
        if v == 1 and c.max_ones is not None:
            cap = min(cap, c.max_ones)
        # below[j] sums the layers with f <= j copies of v - 1 (all of them for j >= top)
        below = [layer[0]]
        for f in range(1, top + 1):
            below.append(below[-1] + layer[f] if layer[f] else below[-1])
        layer = [below[top]] + [(below[min(room - f, top)] << w * f * v) & mask
                                for f in range(1, cap + 1)] + [0] * (top - cap)
    return _unpack(sum(layer), n_max + 1, w // 8)


def count_partitions(n_max: int, c: PartitionConstraint) -> CountTable:
    """Counts for 0 <= n <= n_max by the DP alone; the enumeration oracle runs
    only in checks.check_rr, as the rr.partition_oracle records."""
    if not is_int(n_max) or n_max < 0:
        raise ValueError(f"n_max = {n_max!r}: need an int >= 0")
    check_order(n_max + 1)
    return CountTable(_dp_counts(n_max, c))


# -- unrestricted p(n) ---------------------------------------------------------

def unrestricted_p(n_max: int) -> CountTable:
    """p(n) by Euler's pentagonal number recurrence, p(n) = -sum (-1)^k p(n - g) over
    the g <= n of special.pentagonal: 1 / prod (1 - q^n) by special.sparse_quotient."""
    if not is_int(n_max):
        raise ValueError(f"n_max = {n_max!r}: need an int")
    return CountTable(special.sparse_quotient((), special.pentagonal(n_max), n_max + 1))


# -- Andrews-Gordon ------------------------------------------------------------

def _gordon_constraints(k: int, i: int, n_max: int) -> tuple[PartitionConstraint,
                                                               PartitionConstraint]:
    """The two sides of Gordon's theorem for (k, i), for parts up to n_max.

    Partitions with b_j - b_{j+k-1} >= 2 and at most i - 1 ones are
    equinumerous with partitions into parts not congruent to 0, +-i mod 2k+1
    (Andrews, The Theory of Partitions, ch. 7).  Only residues a part up to
    n_max can have are listed, so the set does not grow with k.
    """
    m = 2 * k + 1
    residues = frozenset(range(1, min(m, n_max + 1))) - {i % m, (-i) % m}
    return (PartitionConstraint(window=(k, 2), max_ones=i - 1),
            PartitionConstraint(allowed_residues=residues, modulus=m))


def gordon_check(k: int, i: int, n_max: int) -> int | None:
    """The first n <= n_max at which the two Andrews-Gordon sides, counted by two
    independent DPs, differ, or None; n_max <= GORDON_LIMIT."""
    if not (is_int(k) and is_int(i) and 2 <= k and 1 <= i <= k):
        raise ValueError(f"need ints 2 <= k and 1 <= i <= k, got k = {k!r}, i = {i!r}")
    if not (is_int(n_max) and 0 <= n_max <= GORDON_LIMIT):
        raise ValueError(f"need an int 0 <= n_max <= {GORDON_LIMIT}, got {n_max!r}")
    gaps, congruences = _gordon_constraints(k, i, n_max)
    lhs = _dp_window(n_max, gaps)
    rhs = _dp_counts(n_max, congruences)
    return next((n for n in range(n_max + 1) if lhs[n] != rhs[n]), None)
