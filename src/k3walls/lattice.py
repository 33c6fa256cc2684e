"""Even integer lattices: Gram arithmetic, complements, enumeration.

A :class:`PicardLattice` is an abstract even lattice given by a symmetric
integer Gram matrix with labelled basis vectors; a :class:`Sublattice` reduces
its basis and factors its definite form once, when it is built.  Vectors are
plain tuples of ``int`` (or ``Fraction`` where an operation documents rational
inputs) in the lattice basis.  All arithmetic is exact.
"""

from operator import mul

from . import linalg
from .errors import NotDefinite, _Record
from .linalg import normalize_number, normalize_vector


class PicardLattice(_Record):
    """An even lattice with a fixed basis.

    ``gram`` must be a symmetric integer matrix with even diagonal.  The
    basis labels are cosmetic but must be distinct; they surface in reports
    and DOT output.
    """

    __slots__ = ("rank", "gram", "basis_labels")

    def __init__(self, gram, basis_labels=None):
        gram = linalg.integer_rows(gram, "gram")
        n = len(gram)
        for i, row in enumerate(gram):
            if len(row) != n:
                raise ValueError(f"gram row {i} has length {len(row)}, expected {n}")
        if gram != tuple(zip(*gram)) or any(gram[i][i] % 2 for i in range(n)):
            for i in range(n):  # name the first fault
                if gram[i][i] % 2 != 0:
                    raise ValueError(
                        f"gram[{i}][{i}] = {gram[i][i]} is odd; the lattice must be even")
                for j in range(i + 1, n):
                    if gram[i][j] != gram[j][i]:
                        raise ValueError(f"gram is not symmetric at ({i},{j})")
        if basis_labels is None:
            basis_labels = tuple(f"e{i}" for i in range(n))
        else:
            basis_labels = tuple(str(s) for s in basis_labels)
            if len(basis_labels) != n:
                raise ValueError("basis_labels length does not match rank")
            if len(set(basis_labels)) != n:
                raise ValueError("basis_labels must be distinct")
        super().__init__(n, gram, basis_labels)

    def __eq__(self, other):
        return self is other or (isinstance(other, PicardLattice) and self.gram == other.gram
                                 and self.basis_labels == other.basis_labels)

    def __hash__(self):
        return hash((self.gram, self.basis_labels))

    def __repr__(self):
        return f"PicardLattice(rank={self.rank}, labels={list(self.basis_labels)})"

    def basis_vector(self, i):
        """The ``i``-th basis vector, ``0 <= i < rank``; ``IndexError`` otherwise."""
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} is out of range 0..{self.rank - 1}")
        return (0,) * i + (1,) + (0,) * (self.rank - i - 1)

    def zero(self):
        return (0,) * self.rank


def pairing(lattice, x, y):
    """Evaluate the bilinear form ``x^T G y``; exact, integer for integer input."""
    n = lattice.rank
    if len(x) != n or len(y) != n:
        raise ValueError(f"vector length does not match lattice rank {n}")
    total = 0
    for xi, row in zip(x, lattice.gram):
        if xi != 0:
            total += xi * sum(map(mul, row, y))
    return normalize_number(total)


def _restricted_gram(ambient, basis):
    gram_basis = [linalg.mat_mul_vec(ambient.gram, w) for w in basis]
    return [[sum(map(mul, v, gw)) for gw in gram_basis] for v in basis]


class Sublattice(_Record):
    """A sublattice given by an independent integer basis in ambient coordinates.

    The basis is reduced once, by unimodular row operations, to an integer
    row echelon basis of the same lattice (``echelon``: ``(col, row)`` pivot
    pairs); the independence check and every membership test read it.
    The restricted Gram G is factored once too: ``form`` is the
    :class:`~k3walls.linalg.QuadraticForm` of ``sign * G`` for the ``sign``, +1 or
    -1, that makes it positive definite (+1 at rank 0), and ``(sign, form)`` is
    ``(0, None)`` when G is indefinite or degenerate.  ``sign`` is the definiteness
    :func:`is_negative_definite` reads; :func:`enumerate_norm_vectors` reads both.
    """

    __slots__ = ("ambient", "basis", "echelon", "sign", "form")

    def __init__(self, ambient, basis):
        basis = linalg.integer_rows(basis, "basis")
        for v in basis:
            if len(v) != ambient.rank:
                raise ValueError("basis vector length does not match ambient rank")
        echelon = ()
        if basis:
            system = linalg.IntegerSystem([list(v) for v in zip(*basis)], len(basis))
            if len(system.pivot_cols) < len(basis):
                raise ValueError("sublattice basis is linearly dependent")
            echelon = system.pivot_rows()
        gram = _restricted_gram(ambient, basis)
        for sign in (1, -1):
            try:
                form = linalg.QuadraticForm([[sign * e for e in row] for row in gram])
                break
            except ValueError:
                pass
        else:
            sign, form = 0, None
        super().__init__(ambient, basis, echelon, sign, form)

    def __repr__(self):
        return f"Sublattice(rank={self.rank})"

    @property
    def rank(self):
        return len(self.basis)

    def restricted_gram(self):
        """Gram matrix of the basis under the ambient form."""
        return _restricted_gram(self.ambient, self.basis)

    def from_coefficients(self, coeffs):
        """Map a coefficient vector on the basis to ambient coordinates."""
        n = self.ambient.rank
        out = [0] * n
        for c, v in zip(coeffs, self.basis):
            if c != 0:
                for j in range(n):
                    out[j] += c * v[j]
        return normalize_vector(out)

    def contains(self, x):
        """Whether ``x`` lies in the sublattice: forward substitution on the
        echelon rows with a divisibility check at each pivot."""
        if len(x) != self.ambient.rank:
            raise ValueError(f"vector length does not match ambient rank {self.ambient.rank}")
        if linalg.clear_denominators(x)[0] != 1:
            return False
        return linalg.echelon_coefficients(self.echelon, x) is not None


def full_sublattice(lattice):
    return Sublattice(lattice, [lattice.basis_vector(i) for i in range(lattice.rank)])


def orthogonal_complement(lattice, vectors):
    """The saturated sublattice pairing to zero against every input vector."""
    if any(len(v) != lattice.rank for v in vectors):
        raise ValueError(f"vector length does not match lattice rank {lattice.rank}")
    if not vectors:
        return full_sublattice(lattice)
    rows = [linalg.mat_mul_vec(lattice.gram, v) for v in vectors]
    kernel = linalg.integer_kernel([list(r) for r in rows], lattice.rank)
    return Sublattice(lattice, kernel)


def is_negative_definite(sub):
    """True iff the restricted form is negative definite (vacuously for rank 0)."""
    return sub.rank == 0 or sub.sign == -1


def enumerate_norm_vectors(sub, norm_min, norm_max):
    """All ``x`` in a definite sublattice with ``norm_min <= (x,x) <= norm_max``.

    Exactly one of ``x, -x`` is returned for nonzero ``x`` (the representative
    whose first nonzero ambient coordinate is positive); the zero vector is
    included iff 0 lies in the range.  Output is sorted lexicographically on
    ambient coordinates.
    """
    if norm_min > norm_max:
        raise ValueError("norm_min exceeds norm_max")
    sign = sub.sign
    if sign == 0:
        raise NotDefinite("sublattice is not definite")
    out = []
    if norm_min <= 0 <= norm_max:
        out.append(sub.ambient.zero())
    lo, hi = (norm_min, norm_max) if sign > 0 else (-norm_max, -norm_min)
    if sub.rank and hi > 0:
        vectors = linalg.short_vectors(sub.form, hi)  # x, then -x: keep one of each pair
        out.extend(linalg.sign_normalize(sub.from_coefficients(coeffs))
                   for (coeffs, value), _ in zip(vectors, vectors) if value >= lo)
    return sorted(out)
