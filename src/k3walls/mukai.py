"""The algebraic Mukai lattice Z + Pic(X) + Z*rho over a Picard lattice.

A Mukai vector is a triple ``(r, c1, s)``: rank component, divisor component
in Picard coordinates, and point component.  Rational components are first
class citizens (twist parameters and orthogonal projections need them);
integrality is a predicate, not a type split.  The pairing is

    <x, y> = (c1(x), c1(y)) - r(x) s(y) - s(x) r(y).
"""

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import mul

from .errors import InvalidTwist, _Record
from .lattice import pairing as picard_pairing
from .linalg import (clear_denominators, mat_mul_vec, normalize_number, normalize_vector, vec_add,
                     vec_scale, vec_sub)


class MukaiVector(_Record):
    """Element of H^0 + Pic + H^4 with exact rational components."""

    __slots__ = ("r", "c1", "s", "lattice")

    def __init__(self, r, c1, s, lattice):
        c1 = tuple(c1)
        if set(map(type, c1)) != {int}:
            c1 = normalize_vector(c1)
        if len(c1) != lattice.rank:
            raise ValueError("c1 length does not match Picard rank")
        super().__init__(r if type(r) is int else normalize_number(Fraction(r)), c1,
                         s if type(s) is int else normalize_number(Fraction(s)), lattice)

    def __hash__(self):  # leaves out the lattice, whose hash walks its whole Gram
        return hash((self.r, self.c1, self.s))

    def __repr__(self):
        return f"MukaiVector(r={self.r}, c1={list(self.c1)}, s={self.s})"

    def __add__(self, other):
        self._check_ambient(other)
        return MukaiVector(self.r + other.r, vec_add(self.c1, other.c1),
                           self.s + other.s, self.lattice)

    def __sub__(self, other):
        self._check_ambient(other)
        return MukaiVector(self.r - other.r, vec_sub(self.c1, other.c1),
                           self.s - other.s, self.lattice)

    def __neg__(self):
        return MukaiVector(-self.r, vec_scale(-1, self.c1), -self.s, self.lattice)

    def __rmul__(self, c):
        return MukaiVector(c * self.r, vec_scale(c, self.c1), c * self.s, self.lattice)

    def _check_ambient(self, other):
        if self.lattice != other.lattice:
            raise ValueError("Mukai vectors live over different Picard lattices")

    def int_typed(self):
        """True iff every component is an ``int``, which makes the vector integral."""
        return type(self.r) is int and type(self.s) is int and set(map(type, self.c1)) <= {int}

    def is_integral(self):
        return self.int_typed() or all(c == int(c) for c in (self.r, self.s, *self.c1))


def rho(lattice):
    """The point class (0, 0, 1)."""
    return MukaiVector(0, lattice.zero(), 1, lattice)


def mukai_pairing(x, y):
    """<x, y> = (c1 x, c1 y) - r(x) s(y) - s(x) r(y); symmetric, exact."""
    x._check_ambient(y)
    return normalize_number(picard_pairing(x.lattice, x.c1, y.c1) - x.r * y.s - x.s * y.r)


def scaled_pairings(xs, y):
    """``(q, [q <x, y> for x in xs])``, ``q > 0`` the lcm of the denominators of ``y``.

    ``y`` is cleared once, so each entry is one dot product with the integer
    ``G c1(q y)``, an integer for integral ``x``.
    """
    q, (*c1, r, s) = clear_denominators((*y.c1, y.r, y.s))
    gy = mat_mul_vec(y.lattice.gram, c1)
    for x in xs:
        y._check_ambient(x)
    return q, [sum(map(mul, x.c1, gy)) - x.r * s - x.s * r for x in xs]


def gram(xs):
    """The symmetric ``[[<x, y> for y in xs] for x in xs]``, exact as :func:`mukai_pairing`.

    A one-coordinate class ``c e_k`` takes ``c G[k]`` as ``G c1`` (the Gram row itself when
    ``c = 1``) and pairs by the one entry ``c (G c1 y)[k]``; any other class forms ``G c1`` by
    :func:`mat_mul_vec` and pairs by a ``map`` dot product.  One triangle is computed and
    mirrored, and normalized only if an entry is not an ``int``.
    """
    for z in xs:
        if z.lattice is not xs[0].lattice:
            xs[0]._check_ambient(z)
    rows = xs[0].lattice.gram if xs else ()
    basis, images = [], []
    for x in xs:
        if x.c1.count(0) == len(rows) - 1:
            k = next(i for i, c in enumerate(x.c1) if c)
            c = x.c1[k]
            basis.append((k, c))
            images.append(rows[k] if c == 1 else vec_scale(c, rows[k]))
        else:
            basis.append(None)
            images.append(mat_mul_vec(rows, x.c1))
    rs, ss, tri = [x.r for x in xs], [x.s for x in xs], []
    for i, (x, b) in enumerate(zip(xs, basis)):
        ys, r, s = range(i, len(xs)), x.r, x.s
        if b is None:
            tri.append([sum(map(mul, x.c1, images[j])) - r * ss[j] - s * rs[j] for j in ys])
        else:
            k, c = b
            tri.append([c * images[j][k] - r * ss[j] - s * rs[j] for j in ys])
    if not set(map(type, chain.from_iterable(tri))) <= {int}:
        tri = [list(map(normalize_number, row)) for row in tri]
    return [[tri[j][i - j] for j in range(i)] + row for i, row in enumerate(tri)]


def mukai_square(x):
    return mukai_pairing(x, x)


def is_primitive(x):
    """True iff the gcd of all integer components is 1.  Input must be integral."""
    if not x.is_integral():
        raise ValueError("primitivity is only defined for integral Mukai vectors")
    g = gcd(int(x.r), int(x.s))
    for c in x.c1:
        g = gcd(g, int(c))
    return g == 1


def delta_map(v, d):
    """Isometric embedding of divisor classes, ``D -> (0, D, (D, c1(v))/r)``.

    The image is orthogonal to both ``v`` and the point class, which gives the
    orthogonal decomposition  Q v + Q rho  perp  delta(Pic tensor Q).
    """
    if v.r == 0:
        raise ValueError("delta map needs a Mukai vector of positive rank")
    d = normalize_vector(d)
    s = Fraction(picard_pairing(v.lattice, d, v.c1)) / Fraction(v.r)
    return MukaiVector(0, d, s, v.lattice)


class TwistParameter(_Record):
    """A rational twist class ``alpha`` in the image of H-perp under delta.

    For the active pair ``(v, H)`` this means: ``alpha.r == 0``,
    ``(c1(alpha), H) == 0`` and ``alpha.s == (c1(alpha), c1(v)) / v.r``.
    All three are verified on construction.
    """

    __slots__ = ("alpha", "v", "h")

    def __init__(self, alpha, v, h):
        alpha._check_ambient(v)
        if v.r == 0:
            raise ValueError("twist parameters need a context vector of positive rank")
        if alpha.r != 0:
            raise InvalidTwist("twist parameter must have rank component 0")
        if picard_pairing(v.lattice, alpha.c1, h) != 0:
            raise InvalidTwist("twist parameter must pair to zero with the polarization")
        expected_s = Fraction(picard_pairing(v.lattice, alpha.c1, v.c1)) / Fraction(v.r)
        if alpha.s != expected_s:
            raise InvalidTwist("twist parameter point component must equal (c1, c1(v))/r")
        super().__init__(alpha, v, tuple(h))

    def __repr__(self):
        return f"TwistParameter({self.alpha!r})"
