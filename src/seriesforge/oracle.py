"""Test oracles: brute-force enumerators of the actual combinatorial
objects, and the paper's formula routes that production has replaced.

The enumerators count by direct construction (set partitions, exhaustive
maps, canonical codes) with no Bell-polynomial or series machinery, so
they can independently validate the formula modules at small sizes.
bell_partial computes one B_{n,k} by a band table of O(k (n-k)^2) ring
products (tested against the definitional partition sum) and gives the
special sequences, derangement counts and associated and plain Stirling
numbers of the second kind, that the paper's alternating sums read.  make_named
builds the stock rational series the tests invert.  The last sections keep
the paper's other routes as references for production: the global
inversion, the closed-form inversion and the root-color recurrence with
one Bell table per color and no color swap for P (against labeled.p_series
and bell.bell_inverse_recursive), the series inversion for the mobile
polynomials, the alternating Bell sums and the integral relation of the
counting series (against the labeled prefix recurrences), and the
divisor-sum Bell recurrence and the Euler transform over Z[t] with
t -> t^d substitution for the unlabeled refinement (against the level
table of unlabeled.py).  The chain recurrence, beside its enumerator,
checks the identity y_s(m) = a_s(m + 1) that production uses.  Production
never imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Dict, Iterator, Tuple

from .bell import bell_inverse_recursive, bell_row
from .egf import QQ, ExpSeries
from .labeled import POLY_M, ultrametric_counts
from .rings import ZZ, PolyVar, Ring, poly_ring
from .weights import WEIGHT_RING, WeightPoly

MAX_LABELED_LEAVES = 8
MAX_ULTRA_POINTS = 5
MAX_UNLABELED_LEAVES = 9
MAX_CHAINS = 7
MAX_MOBILE_LEAVES = 7


def set_partitions(items: list) -> Iterator[list]:
    """All partitions of a list into unordered nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


# ---------------------------------------------------------------------------
# Labeled m-partite series-reduced trees.
# ---------------------------------------------------------------------------

def _weight_sum(labels: frozenset, forbidden: int, m: int, memo: dict) -> WeightPoly:
    """Sum of tree weights over all m-partite series-reduced trees on the
    given leaf-label set whose root color differs from `forbidden`
    (0 = no restriction).  A single label is a bare leaf of weight 1."""
    if len(labels) == 1:
        return WeightPoly.const(1)
    key = (labels, forbidden)
    if key in memo:
        return memo[key]
    total = WeightPoly()
    items = sorted(labels)
    for part in set_partitions(items):
        if len(part) < 2:
            continue  # out-degree >= 2 at every inner vertex
        for c in range(1, m + 1):
            if c == forbidden:
                continue
            w = WeightPoly.gen(c, len(part))
            for block in part:
                w = w * _weight_sum(frozenset(block), c, m, memo)
                if w.is_zero():
                    break
            total = total + w
    memo[key] = total
    return total


def enum_labeled_trees(s: int, m: int) -> Tuple[int, WeightPoly]:
    """Count and summed weight of labeled m-partite series-reduced trees."""
    if not (1 <= s <= MAX_LABELED_LEAVES) or m < 1 or m > 4:
        raise ValueError("size beyond enumeration bounds")
    weight = _weight_sum(frozenset(range(1, s + 1)), 0, m, {})
    count = weight.substitute(lambda c, k: 1)
    return count, weight


def enum_mobiles(s: int, m: int) -> int:
    """Labeled m-partite series-reduced mobiles: each inner vertex of
    out-degree k contributes (k-1)! cyclic arrangements of its branches."""
    if not (1 <= s <= MAX_MOBILE_LEAVES) or m < 1 or m > 4:
        raise ValueError("size beyond enumeration bounds")
    weight = _weight_sum(frozenset(range(1, s + 1)), 0, m, {})
    return weight.substitute(lambda c, k: factorial(k - 1))


# ---------------------------------------------------------------------------
# Symbolic ultrametrics.
# ---------------------------------------------------------------------------

def enum_ultrametrics(s: int, m: int) -> int:
    """Exhaustively count symmetric maps on unordered distinct pairs of
    {1..s} into {1..m} satisfying:

    - every triple of points uses at most 2 distinct values;
    - no four distinct points a,b,c,d with
      D(a,b) = D(b,c) = D(c,d) != D(b,d) = D(d,a) = D(a,c).
    """
    if not (1 <= s <= MAX_ULTRA_POINTS) or not (1 <= m <= 3):
        raise ValueError("size beyond enumeration bounds")
    if s == 1:
        return 1
    pairs = list(combinations(range(s), 2))
    triples = list(combinations(range(s), 3))
    quads = list(permutations(range(s), 4)) if s >= 4 else []
    count = 0
    for values in product(range(1, m + 1), repeat=len(pairs)):
        d = dict(zip(pairs, values))

        def D(x, y):
            return d[(x, y)] if x < y else d[(y, x)]

        ok = all(len({D(x, y), D(x, z), D(y, z)}) <= 2 for x, y, z in triples)
        if ok:
            for a, b, c, e in quads:
                if (
                    D(a, b) == D(b, c) == D(c, e)
                    and D(b, e) == D(e, a) == D(a, c)
                    and D(a, b) != D(b, e)
                ):
                    ok = False
                    break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Unlabeled series-reduced trees.
# ---------------------------------------------------------------------------

_LEAF = ()


def _unlabeled_trees(n: int, memo: dict) -> tuple:
    """Canonical codes of rooted unlabeled series-reduced trees with n
    leaves.  A code is () for a leaf, else the sorted tuple of child codes."""
    if n in memo:
        return memo[n]
    if n == 1:
        memo[1] = (_LEAF,)
        return memo[1]
    smaller = []
    for j in range(1, n):
        smaller.extend((j, code) for code in _unlabeled_trees(j, memo))
    found = set()

    def extend(children, start, remaining):
        if remaining == 0:
            if len(children) >= 2:
                found.add(tuple(sorted(children)))
            return
        for idx in range(start, len(smaller)):
            leaves, code = smaller[idx]
            if leaves > remaining:
                continue
            extend(children + [code], idx, remaining - leaves)

    extend([], 0, n)
    memo[n] = tuple(found)
    return memo[n]


def _inner_vertices(code) -> int:
    if code == _LEAF:
        return 0
    return 1 + sum(_inner_vertices(child) for child in code)


def enum_unlabeled_trees(s: int) -> Dict[int, int]:
    """Counts of rooted unlabeled series-reduced trees with s leaves,
    bucketed by number of inner vertices."""
    if not (1 <= s <= MAX_UNLABELED_LEAVES):
        raise ValueError("size beyond enumeration bounds")
    buckets: Dict[int, int] = {}
    for code in _unlabeled_trees(s, {}):
        k = _inner_vertices(code)
        buckets[k] = buckets.get(k, 0) + 1
    return buckets


# ---------------------------------------------------------------------------
# Chain-increasing binary trees.
# ---------------------------------------------------------------------------

def _chain_junction_counts(labels: frozenset) -> Iterator[int]:
    """Yields the junction count of every uncolored chain-increasing
    binary tree on the given chain-label set (one yield per tree).

    The root is either a chain (necessarily carrying the minimum label,
    with at most one child) or a junction over an unordered pair of
    nonempty subtrees.
    """
    lo = min(labels)
    if len(labels) == 1:
        yield 0
    else:
        yield from _chain_junction_counts(labels - {lo})
    rest = sorted(labels - {lo})
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            left = frozenset((lo,) + extra)
            right = labels - left
            if not right:
                continue
            for a in _chain_junction_counts(left):
                for b in _chain_junction_counts(right):
                    yield 1 + a + b


def enum_chain_increasing(s: int, m: int) -> int:
    """Count m-colored chain-increasing binary trees with s chains by
    enumerating uncolored shapes and coloring the junctions."""
    if not (1 <= s <= MAX_CHAINS) or not (0 <= m <= 3):
        raise ValueError("size beyond enumeration bounds")
    return sum(m ** j for j in _chain_junction_counts(frozenset(range(1, s + 1))))


def chain_increasing_recurrence(up_to_s: int, m) -> list:
    """y_s(m) for s = 1..up_to_s over the ring of m.  The root is a chain
    over the tree for s - 1 chains, or a junction of one of m colors over
    two subtrees: y_n = y_{n-1} + m sum_{i=1..n-1} C(n-1,i-1) y_i y_{n-i}.
    """
    y = [None, m * 0 + 1]
    for n in range(2, up_to_s + 1):
        pairs = sum(comb(n - 1, i - 1) * y[i] * y[n - i] for i in range(1, n))
        y.append(y[n - 1] + m * pairs)
    return y[1:]


# ---------------------------------------------------------------------------
# Partial Bell polynomials by the band table, and the special sequences.
# ---------------------------------------------------------------------------

def bell_partial(n: int, k: int, x, ring: Ring):
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Computed column by column over the band n' - k' <= n - k only, by the
    binomial recurrence B_{n,k} = sum_i C(n-1, i-1) x_i B_{n-i,k-1},
    B_{0,0} = 1, B_{n,0} = 0 for n > 0.  Out-of-range arguments give the
    ring zero.
    """
    if k < 0 or n < k:
        return ring.zero
    width = n - k
    x = list(x[: width + 1]) + [ring.zero] * (width + 1 - len(x))
    col = [ring.one] + [ring.zero] * width     # col[d] = B_{j+d,j}, here j = 0
    for j in range(1, k + 1):
        col = [ring.dot((comb(j + d - 1, i - 1), x[i - 1], col[d + 1 - i])
                        for i in range(1, d + 2))
               for d in range(width + 1)]
    return col[width]


def derangement_count(n: int, k: int) -> int:
    """Fixed-point-free permutations of n elements with exactly k cycles.

    Equals B_{n,k} at x_1 = 0, x_i = (i-1)! (associated Stirling numbers
    of the first kind).
    """
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    seq = [0] + [factorial(i - 1) for i in range(2, n - k + 2)]
    return bell_partial(n, k, seq, ZZ)


def assoc_stirling2(n: int, k: int) -> int:
    """Set partitions of n elements into k blocks, every block of size >= 2.

    Equals B_{n,k} at x_1 = 0, x_i = 1.
    """
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    seq = [0] + [1] * max(0, n - k)
    return bell_partial(n, k, seq, ZZ)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind: B_{n,k} at all-ones."""
    return bell_partial(n, k, [1] * max(1, n - k + 1), ZZ)


# ---------------------------------------------------------------------------
# Definitional partial Bell polynomial (partition-sum form).
# ---------------------------------------------------------------------------

def bell_partial_partition_sum(n: int, k: int, x, ring):
    """B_{n,k} straight from the definition: a sum over all multiplicity
    vectors alpha with sum alpha_i = k and sum i*alpha_i = n."""
    if k == 0:
        return ring.one if n == 0 else ring.zero
    width = n - k + 1
    total = ring.zero

    def rec(i, parts_left, weight_left, alpha):
        nonlocal total
        if i > width:
            if parts_left == 0 and weight_left == 0:
                coeff = Fraction(factorial(n))
                term = ring.one
                for j, a in enumerate(alpha, start=1):
                    coeff /= factorial(a) * factorial(j) ** a
                    for _ in range(a):
                        xj = x[j - 1] if j <= len(x) else ring.zero
                        term = term * xj
                assert coeff.denominator == 1
                total = total + int(coeff) * term
            return
        for a in range(min(parts_left, weight_left // i) + 1):
            rec(i + 1, parts_left - a, weight_left - i * a, alpha + [a])

    rec(1, k, n, [])
    return total


def enum_derangements(n: int, k: int) -> int:
    """Count fixed-point-free permutations of n elements with k cycles by
    scanning all n! permutations."""
    count = 0
    for perm in permutations(range(n)):
        if any(perm[i] == i for i in range(n)):
            continue
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        if cycles == k:
            count += 1
    return count


def enum_set_partitions_min_block(n: int, k: int, min_size: int) -> int:
    """Count partitions of {1..n} into k blocks of size >= min_size."""
    count = 0
    for part in set_partitions(list(range(n))):
        if len(part) == k and all(len(b) >= min_size for b in part):
            count += 1
    return count


# ---------------------------------------------------------------------------
# Stock rational series.
# ---------------------------------------------------------------------------

def make_named(name: str, order: int) -> ExpSeries:
    """Stock rational series, used by the tests as inversion inputs.

    exp_minus_one:      e^t - 1            (coefficients 1, 1, 1, ...)
    log1p:              log(1 + t)         ((-1)^{n-1} (n-1)!)
    neg_log_one_minus:  -log(1 - t)        ((n-1)!)
    one_minus_exp_neg:  1 - e^{-t}         ((-1)^{n+1})
    identity:           t
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if name == "exp_minus_one":
        tail = [Fraction(1)] * order
    elif name == "log1p":
        tail = [Fraction((-1) ** (n - 1) * factorial(n - 1)) for n in range(1, order + 1)]
    elif name == "neg_log_one_minus":
        tail = [Fraction(factorial(n - 1)) for n in range(1, order + 1)]
    elif name == "one_minus_exp_neg":
        tail = [Fraction((-1) ** (n + 1)) for n in range(1, order + 1)]
    elif name == "identity":
        return ExpSeries.identity(QQ, order)
    else:
        raise ValueError(f"unknown series name: {name}")
    return ExpSeries(QQ, [Fraction(0)] + tail)


# ---------------------------------------------------------------------------
# The paper's formula routes.
# ---------------------------------------------------------------------------

def alternating_bell_poly(s: int, seq) -> PolyVar:
    """The paper's count for s leaves as a polynomial in m:
    (-1)^{s-1} sum_{k=0..s} (-m)^k seq(s+k-1, k).

    seq = derangement_count gives the ultrametric (labeled tree) counts,
    seq = assoc_stirling2 the mobile counts; evaluate at an
    integer m for a single count.
    """
    sign = (-1) ** (s - 1)
    return PolyVar([sign * (-1) ** k * seq(s + k - 1, k) for k in range(s + 1)], "m")


def refined_polys_bell(up_to_s: int) -> list:
    """Unlabeled refinement polynomials for s = 1..up_to_s by the paper's
    divisor-sum Bell recurrence over Z[t].

    Level s is t/s! times sum_j B_{s,j}(w), with weights w_n = sum over
    divisors d of n, n/d != s, of (n!/d) * (level n/d with t -> t^d); n!/d
    is an integer, so every weight stays in Z[t].
    """
    ring = poly_ring("t")
    levels = [ring.one]                 # s = 1: a bare leaf, zero inner vertices
    for s in range(2, up_to_s + 1):
        weights = [
            sum((factorial(n) // d * levels[n // d - 1].substitute(d)
                 for d in range(1, n + 1) if n % d == 0 and n // d != s), ring.zero)
            for n in range(1, s + 1)
        ]
        rows = [[ring.one]]
        for _ in range(s):
            bell_row(rows, weights, ring)
        acc = sum(rows[s][1:], ring.zero)
        levels.append(PolyVar.gen("t") * acc // factorial(s))
    return levels


def refined_polys_substituted(up_to_s: int) -> list:
    """Refinement polynomials a_1..a_S (integer coefficients in t).

    With B = MSET(A) = sum b_n x^n and c_n = sum_{d | n} d a_d(t^{n/d}),
    n b_n = sum_{j=1..n} c_j b_{n-j} (Euler transform).  The j = n term
    holds n a_n, so r_n = b_n - a_n, the multisets of two or more trees,
    needs only smaller levels; then a_n = t r_n and b_n = a_n + r_n.
    """
    if up_to_s < 1:
        raise ValueError("s must be >= 1")
    t = PolyVar.gen("t")
    one = PolyVar([1], "t")
    a, b, c = [None, one], [one, one], [None, one]
    for n in range(2, up_to_s + 1):
        # c_n without its d = n term n a_n, which is not known yet
        c_short = sum(d * a[d].substitute(n // d) for d in range(1, n) if n % d == 0)
        r = (c_short + sum(c[j] * b[n - j] for j in range(1, n))) // n
        a.append(t * r)
        b.append(a[n] + r)
        c.append(c_short + n * a[n])
    return a[1:]


def mobiles_series_polynomials(up_to_s: int) -> list:
    """g_s(m) for s = 1..up_to_s by inverting t(1-m) + m(1 - e^{-t}) over
    Z[m], the series route to labeled.mobile_counts."""
    tail = [POLY_M.one] + [(-1) ** (n + 1) * PolyVar.gen("m") for n in range(2, up_to_s + 1)]
    return list(bell_inverse_recursive(tail, POLY_M))


# ---------------------------------------------------------------------------
# The integral relation of the labeled counting series.
# ---------------------------------------------------------------------------

def labeled_series(m: int, order: int) -> ExpSeries:
    """A(m,t): exponential series of the labeled m-partite tree counts."""
    return ExpSeries(ZZ, [0] + ultrametric_counts(order, m))


def verify_integral_relation(m: int, order: int) -> bool:
    """Check 1 + A = 1 + (1 + A)^m * integral of (1 + A)^{-m}, to order."""
    if m < 1 or order < 2:
        raise ValueError("need m >= 1 and order >= 2")
    cal_a = labeled_series(m, order).add_const(1)
    rhs = ExpSeries.one(ZZ, order) + cal_a.pow(m) * cal_a.pow(-m).integrate()
    return cal_a.coeffs == rhs.coeffs


# ---------------------------------------------------------------------------
# The other routes to the weighted generating function P.
# ---------------------------------------------------------------------------

def bell_inverse_closed(x, ring: Ring) -> tuple:
    """Compositional inverse by the closed-form (non-recursive) formula.

    inv_n = sum_{k=1..n-1} (-1)^k x_1^{-(n+k)} B_{n+k-1,k}(0, x_2, x_3, ...)
    for n > 1.  The sign (-1)^k (not (-1)^{n+k-1}) is the one that agrees
    with bell.bell_inverse_recursive; see tests.
    """
    if not x:
        raise ValueError("empty sequence")
    one_over_x1 = ring.invert(x[0])
    powers = [ring.one]                 # powers[e] = x_1^{-e}
    for _ in range(2 * len(x) - 1):
        powers.append(powers[-1] * one_over_x1)
    rows = [[ring.one]]
    shifted = (ring.zero,) + tuple(x[1:])
    for _ in range(2 * len(x) - 2):
        bell_row(rows, shifted, ring)
    out = [one_over_x1]
    for n in range(2, len(x) + 1):
        out.append(ring.dot(((-1) ** k, powers[n + k], rows[n + k - 1][k]) for k in range(1, n)))
    return tuple(out)


def p_closed_form(m: int, s: int) -> WeightPoly:
    """P_s(m,x) by the closed-form inversion: of every degree function,
    then of t + sum_c (inverse degree function - t)."""
    ring = WEIGHT_RING
    if s < 1:
        raise ValueError("s must be >= 1")
    f = [ring.one] + [ring.zero] * (s - 1)
    for c in range(1, m + 1):
        xc = [ring.one] + [WeightPoly.gen(c, k) for k in range(2, s + 1)]
        inv = bell_inverse_closed(xc, ring)
        for j in range(2, s + 1):
            f[j - 1] = f[j - 1] + inv[j - 1]
    return bell_inverse_closed(f, ring)[s - 1]


def p_series_by_inversion(m: int, order: int) -> tuple:
    """(P_0, ..., P_order) by global Lagrange inversion: invert every
    degree function, then t + sum_c (inverse degree function - t), with
    the Bell-table kernel over the weight ring."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ring = WEIGHT_RING
    f = [ring.one] + [ring.zero] * (order - 1)
    for c in range(1, m + 1):
        xc = [ring.one] + [WeightPoly.gen(c, k) for k in range(2, order + 1)]
        inv = bell_inverse_recursive(xc, ring)
        for n in range(2, order + 1):
            f[n - 1] = f[n - 1] + inv[n - 1]
    return (ring.zero,) + bell_inverse_recursive(f, ring)


def p_series_by_color_recursion(m: int, order: int) -> ExpSeries:
    """P(m,t,x) by the root-color recurrence.

    For each color c, trees with root color c are a root vertex of
    out-degree k >= 2 over a forest of subtrees whose roots avoid c; the
    forests are counted by Bell polynomials in the complementary weights
    comp_1 = 1 (a singleton block is a bare leaf), comp_j = P_j - P_j^{(c)}.
    """
    ring = WEIGHT_RING
    total = [None, ring.one]            # total[s] = P_s(m, x)
    by_color = {c: [None, None] for c in range(1, m + 1)}
    comps = {c: [ring.one] for c in range(1, m + 1)}
    tables = {c: [[ring.one], [ring.zero, ring.one]] for c in range(1, m + 1)}
    for s in range(2, order + 1):
        for c in range(1, m + 1):
            comp, rows = comps[c], tables[c]
            if s > 2:                   # comp_{s-1} is known once level s-1 is
                comp.append(total[s - 1] - by_color[c][s - 1])
                rows[s - 1][1] = comp[-1]
            bell_row(rows, comp, ring)
            by_color[c].append(ring.dot((1, WeightPoly.gen(c, k), rows[s][k])
                                        for k in range(2, s + 1)))
        total.append(sum((by_color[c][s] for c in range(1, m + 1)), ring.zero))
    return ExpSeries(ring, [ring.zero] + total[1:])
