"""Packed walk weights: a polynomial with nonnegative coefficients as one int.

Every walk weight and table entry of the degenerate pipeline is a
polynomial sum c_i z**i with c_i >= 0.  Evaluating it at z = 2**width
(Kronecker substitution) stores it as the single int sum c_i 2**(width*i):
multiplication and addition are plain int arithmetic.  Carries only move
upward, and the low slots of a product depend only on the low slots of its
factors, so slot d of a result is exactly c_d as long as c_0..c_d of that
result fit in ``width`` bits; slots above d may overflow freely.  Width 0
is evaluation at z = 1: the plain sum of the coefficients.

The pipeline packs at ``degree_slot_width(n, l, D)``, which keeps slots
0..l exact over n vertices of maximum degree D; ``slot_width(n, l)`` is
the bound from the vertex count alone.  D <= n - 1 gives bitlen(2D) <=
bitlen(n) + 1, so degree_slot_width(n, l, D) <= (l + 1) * bitlen(n) + l
< slot_width(n, l): the degree bound is always the narrower one.

TruncatedPolynomial (Z[z] with terms above a bound dropped on multiply) is
the earlier coefficient-tuple representation, kept as a cross-check
reference for the packed arithmetic.  No engine uses it.
"""

from __future__ import annotations

from .graphs import GraphError


class TruncatedPolynomial:
    """Polynomial over arbitrary-precision ints, truncated above ``trunc``.

    A cross-check reference for the packed weights; no engine uses it.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        if trunc < 0:
            raise ValueError("truncation bound must be nonnegative")
        cs = list(coeffs[: trunc + 1])
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.trunc = trunc

    @staticmethod
    def term(coefficient: int, degree: int, trunc: int) -> "TruncatedPolynomial":
        if degree > trunc:
            return TruncatedPolynomial((), trunc)
        return TruncatedPolynomial((0,) * degree + (coefficient,), trunc)

    def coefficient(self, degree: int) -> int:
        if 0 <= degree < len(self.coeffs):
            return self.coeffs[degree]
        return 0

    def at_one(self) -> int:
        """Evaluate at z = 1."""
        return sum(self.coeffs)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            if other == 0:
                return not self.coeffs
            return self.coeffs == (other,)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self
            other = TruncatedPolynomial((other,), self.trunc)
        elif not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        a = self.coeffs
        b = other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        t = self.trunc if self.trunc >= other.trunc else other.trunc
        return _raw(out, t)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return 0
            return _raw([c * other for c in self.coeffs], self.trunc)
        if not isinstance(other, TruncatedPolynomial):
            return NotImplemented
        a = self.coeffs
        b = other.coeffs
        if not a or not b:
            return _raw([], self.trunc)
        t = self.trunc if self.trunc >= other.trunc else other.trunc
        la = len(a)
        lb = len(b)
        if la == 1:
            c = a[0]
            return _raw([x * c for x in b[: t + 1]], t)
        if lb == 1:
            c = b[0]
            return _raw([x * c for x in a[: t + 1]], t)
        top = la + lb - 1
        if top > t + 1:
            top = t + 1
        out = [0] * top
        for i in range(la):
            ca = a[i]
            if ca == 0:
                continue
            stop = top - i
            if stop <= 0:
                break
            if stop > lb:
                stop = lb
            for j in range(stop):
                out[i + j] += ca * b[j]
        return _raw(out, t)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"TruncatedPolynomial({list(self.coeffs)}, trunc={self.trunc})"


def _raw(coeffs: list, trunc: int) -> TruncatedPolynomial:
    """Internal constructor: takes ownership of a pre-truncated list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    poly = TruncatedPolynomial.__new__(TruncatedPolynomial)
    poly.coeffs = tuple(coeffs)
    poly.trunc = trunc
    return poly


def slot_width(n: int, length: int) -> int:
    """Bits per slot for exact z**length coefficients over n vertices.

    Slot i <= length of a cycle count adds up closed walks of length i
    (at most n**(i + 1) vertex sequences) times a choice of break points
    (at most 2**i), so it is below 2**width with this width.  Valid for
    any degree; ``degree_slot_width`` is the bound for a known degree.
    """
    return (length + 1) * n.bit_length() + length + 1


def degree_slot_width(n: int, length: int, max_degree: int) -> int:
    """Bits per slot for exact z**length coefficients over n vertices of
    degree at most ``max_degree`` (D; for a digraph, the degree of its
    underlying graph).

    Bound: slot i of every value the degenerate pipeline forms (walk
    weight, cherry entry, closed-walk row, join, matmul chain segment,
    the p = 1 sum over x, y of along(x, y) * against(x, y), or final
    count) is at most n * (2D)**i.  Proof: such a slot adds up
    tuples of directed walks in the two orientation DAGs whose lengths sum
    to i, glued end to end at shared sources and sinks.  Reading the tuple
    in order, source walks reversed, gives one walk of length i in the
    underlying graph G together with the set of positions where it changes
    run, and the tuple is recovered from that pair, so the map is
    injective.  G has at most n starts and D**i walks of length i from
    each, and there are at most 2**i sets of split positions.  A row or a
    segment starts at one vertex; sums over anchors stay within the n
    starts.  The p = 1 sum is the case of two walks glued at x and y: the
    along walk x -> y followed by the against walk read back from y to x
    is a closed walk from x split once at y.  Since n < 2**bitlen(n) and
    2D < 2**bitlen(2D), slot i <= length is below 2**width at this width.
    A DAG's out-degree is at most D, and D**(length - 1) is below
    2**((length - 1) * bitlen(D)), so ``walks.build_walk_weights``' up-front
    overflow check always passes at this width.
    """
    return n.bit_length() + length * (2 * max_degree).bit_length()


def pack(count: int, degree: int, width: int) -> int:
    """The term count * z**degree evaluated at z = 2**width.

    Raises GraphError if a count does not fit its slot, which would carry
    into the next slot and corrupt every coefficient read from there on.
    """
    if count < 0 or (width and count >> width):
        raise GraphError(f"walk count {count} does not fit a {width}-bit slot")
    return count << (width * degree)


def slot_mask(degree: int, width: int) -> int:
    """Mask keeping slots 0..degree of a packed value."""
    return (1 << (width * (degree + 1))) - 1


def coefficient(value: int, degree: int, width: int) -> int:
    """The z**degree coefficient of a packed value."""
    return (value >> (width * degree)) & ((1 << width) - 1)
