"""Generator for the diagonal affine ADE model instances.

Given an affine ADE type with marks ``(a_0, ..., a_n)`` and positive integers
``r`` and ``a``, the lattice ``N`` with Gram ``(xi_i, xi_j) = -a_ij + 2ra``
carries the polarization ``H = sum a_i xi_i`` and the Mukai vectors
``v_i = (r, xi_i, a)``, ``v = sum a_i v_i``.  The construction forces the
whole dictionary of identities used by the singularity classification:
``<v_i, v_j> = -a_ij``, ``v`` primitive isotropic, ``H^perp`` negative
definite without (-2)-classes, and so on.  ``generate_example`` re-verifies
every identity by exact computation and raises on any failure, which would
indicate a bug, not bad input.  What depends on the type alone is computed
once per ``(family, n)`` per process: the standard matrix C, its marks, and
the facts of the phi image (the span of ``d_i = e_i - e_{i+1}`` under C): its
Gram on the d_i, built once in O(n^2); positive definite and free of norm-2
vectors, by that Gram's one factorization; saturated, by one echelon of the d_i.
Each instance checks its ``H^perp`` identities against these in O(n^2), and
reads its stratum identities (the Mukai pairings among the ``v_i``, ``v`` and
``H^ = delta(H)``) off its own Gram and ``G H`` in O(n^2) as well.
"""

from fractions import Fraction
from functools import cache
from operator import index, mul

from . import lattice as lat
from . import linalg
from . import mukai as mk
from . import roots
from .errors import CapExceeded, _Record
from .strata import StratumData

EMBEDDING_CAVEAT = (
    "assumes N embeds primitively into the K3 lattice (-E8)^2 + U^3; known for "
    "extended A/D types of rank <= 18 and the extended E types, not verified here"
)

#: Largest diagram rank ``n`` that :func:`generate_example` builds.  On a
#: 2-vCPU VM (CPython 3.11.7) the first instance of rank 64 of a type takes
#: 18-21 ms, a later one about 2 ms and a whole ``example --alpha`` CLI process
#: 0.13-0.16 s; a first instance of rank 100 takes 70-125 ms.  The sweep stops at 18.
EXAMPLE_N_CAP = 64

#: Most decimal digits of ``r * a`` that :func:`generate_example` accepts: every
#: number of its document, alpha included, then prints within CPython's 4,300-digit limit.
EXAMPLE_RA_DIGIT_CAP = 1000

#: (family, n) pairs covered by the standard sweep.
SWEEP_TYPES = ([("A", n) for n in range(1, 19)]
               + [("D", n) for n in range(4, 19)]
               + [("E", n) for n in (6, 7, 8)])


class ExampleSpec(_Record):
    __slots__ = ("family", "n", "r", "a")

    def __init__(self, family, n, r, a):
        if any(isinstance(x, bool) for x in (n, r, a)):  # index() refuses floats and strings
            raise TypeError("n, r and a must be integers, got bool")
        n, r, a = index(n), index(r), index(a)
        roots.check_type(family, n)  # not finite_edges: no n-sized list before EXAMPLE_N_CAP
        if r < 1 or a < 1:
            raise ValueError("r and a must be positive integers")
        super().__init__(family, n, r, a)


class ExampleInstance(_Record):
    __slots__ = ("spec", "lattice", "polarization", "v_list", "v", "affine_matrix", "marks",
                 "verification", "caveat")
    _defaults = {"caveat": EMBEDDING_CAVEAT}

    def stratum(self):
        """The stratum data ``[(v_i, a_i)]`` of the singular point."""
        return StratumData(self.lattice, self.polarization, self.v,
                           tuple(zip(self.v_list, self.marks)))


def _check(verification, name, ok):
    verification[name] = bool(ok)
    if not ok:
        raise RuntimeError(f"model instance identity failed: {name}")


def _difference_gram(gram):
    """Gram of the differences ``d_i = e_i - e_{i+1}`` under ``gram``, by bilinearity, in O(n^2)."""
    rows = [[a - b for a, b in zip(upper, lower)] for upper, lower in zip(gram, gram[1:])]
    return [[a - b for a, b in zip(row, row[1:])] for row in rows]


@cache
def _type_data(family, n):
    """``(matrix, marks, saturated, definite, no_norm_two, minus_gram)``: the facts of one
    type every ``(r, a)`` shares; the phi image's from one Gram, factorization and echelon."""
    matrix = roots.standard_affine_matrix(family, n)
    marks = roots.classify_affine(matrix).marks
    gram = _difference_gram(matrix.entries)
    columns = [[(i == j) - (i == j + 1) for j in range(n)] for i in range(n + 1)]  # d_j in column j
    diffs = linalg.IntegerSystem(columns, n)
    try:
        form = linalg.QuadraticForm(gram)  # the phi image's +1 definiteness test
    except ValueError:
        form = None
    definite = form is not None
    return (matrix, marks, len(diffs.pivot_cols) == n
            and all(abs(row[col]) == 1 for col, row in diffs.pivot_rows()),
            definite, definite and all(value != 2 for _, value in linalg.short_vectors(form, 2)),
            [[-e for e in row] for row in gram])


def generate_example(spec):
    """Build and verify one diagonal model instance; CapExceeded past either cap above."""
    if spec.n > EXAMPLE_N_CAP:
        raise CapExceeded(f"example rank n = {spec.n} exceeds cap {EXAMPLE_N_CAP}")
    if spec.r * spec.a >= 10 ** EXAMPLE_RA_DIGIT_CAP:
        raise CapExceeded(f"r * a has more than {EXAMPLE_RA_DIGIT_CAP} digits")
    matrix, marks, saturated, definite, no_norm_two, minus_gram = _type_data(spec.family, spec.n)
    n_nodes = matrix.n_nodes
    shift = 2 * spec.r * spec.a
    gram = [[shift - e for e in row] for row in matrix.entries]
    lattice = lat.PicardLattice(gram, [f"xi{i}" for i in range(n_nodes)])
    h = marks
    mark_sum = sum(marks)
    basis = [lattice.basis_vector(i) for i in range(n_nodes)]
    v_list = tuple(mk.MukaiVector(spec.r, e, spec.a, lattice) for e in basis)
    v = mk.MukaiVector(spec.r * mark_sum, h, spec.a * mark_sum, lattice)

    verification = {}
    gh = linalg.mat_mul_vec(lattice.gram, h)
    _check(verification, "h_pairs_constant", all(e == shift * mark_sum for e in gh))
    hh = sum(map(mul, h, gh))
    _check(verification, "h_square", hh == shift * mark_sum ** 2 > 0)

    # H-perp, the kernel of the row (Gh)^T != 0, is saturated of rank n.  The d_i
    # lie in it and span a saturated sublattice of rank n (the phi image, same
    # coordinates), so they span H-perp: the quotient is torsion inside the
    # torsion-free Z^(n+1) / span(d_i).  Its Gram is then the one on the d_i.
    _check(verification, "h_perp_span",
           not any(gh[i] - gh[i + 1] for i in range(spec.n)) and any(gh) and saturated)
    gram_ok = _difference_gram(lattice.gram) == minus_gram
    _check(verification, "h_perp_negative_definite", gram_ok and definite)
    _check(verification, "h_perp_no_minus_two", gram_ok and no_norm_two)

    # The stratum identities, in O(n^2) on the r, c1 and s of the built vectors.
    # With c1(v_i) = e_i and c1(v) = H, each checked by the first identity that
    # reads it (a failed identity raises, so later ones rely on it), the Picard part
    # of <v_i, v_j> is G[i][j] and that of <v, v_i> is (G H)_i: <v_i, v_j> = -C[i][j]
    # reads G[i][j] + C[i][j] = r_i s_j + s_i r_j.  H^ = delta(H) = (0, H, (H, H) / rk v),
    # so <H^, v_i> = 0 is rk v (G H)_i = rk v_i (H, H).  It fails for rk v = 0: (H, H) > 0,
    # and rk v_i = 0 for all i would make G = -C, so G H = 0.  Last, <v, v> = (H, H) - 2 rk v s(v).
    rks, pts = [x.r for x in v_list], [x.s for x in v_list]
    _check(verification, "stratum_gram", [x.c1 for x in v_list] == basis and not any(
        any([g + c - xr * s - xs * r for g, c, r, s in zip(row, c_row, rks, pts)])
        for xr, xs, row, c_row in zip(rks, pts, lattice.gram, matrix.entries)))
    _check(verification, "v_orthogonal",
           v.c1 == h and not any([g - v.r * s - v.s * r for g, r, s in zip(gh, rks, pts)]))
    _check(verification, "h_hat_orthogonal", not any([v.r * g - r * hh for g, r in zip(gh, rks)]))
    _check(verification, "v_isotropic", hh - 2 * v.r * v.s == 0)
    _check(verification, "v_primitive", mk.is_primitive(v))
    _check(verification, "phi_image_no_norm_two", no_norm_two)

    return ExampleInstance(spec, lattice, h, v_list, v, matrix, marks, verification)


def fundamental_alpha(instance, scale=1):
    """A twist parameter with all retained pairings equal to ``scale`` > 0.

    Solves for a rational divisor ``D`` with ``(xi_j, D) = scale`` for j >= 1
    and ``(H, D) = 0``; the resulting ``delta(D)`` lies in the fundamental
    chamber and satisfies the equal-pairing sufficient condition for the
    slope inequality.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    marks = instance.marks
    rest = sum(marks[1:])
    target = [-scale * rest] + [scale] * (len(marks) - 1)
    d = linalg.solve_rational([list(r) for r in instance.lattice.gram], target)
    if d is None:
        raise RuntimeError("model instance Gram matrix is singular")
    alpha = mk.MukaiVector(0, d, 0, instance.lattice)
    return mk.TwistParameter(alpha, instance.v, instance.polarization)
