"""Exception hierarchy.

``DomainError`` covers every mathematically meaningful failure (the CLI maps
it to exit code 3); malformed input documents raise ``SchemaError`` (exit
code 2).  Plain ``ValueError`` is reserved for caller bugs such as dimension
mismatches.  ``InvariantError`` flags a broken internal invariant, a bug in
the library rather than bad input; it is raised by explicit checks, so it
survives ``python -O``.
"""

from functools import cache
from operator import attrgetter


@cache
def _fields_builder(n):
    """``make(new, cls, *setters)``, whose result is ``(from_fields, init)``: ``from_fields``
    builds a ``cls`` from exactly ``n`` values, ``init(self, x0, ...)`` fills them in.

    Generated as ``dataclasses`` generates ``__init__``: fixed-arity functions, so a missing
    or surplus value raises TypeError.  One per arity keeps the import to a few compiles.
    """
    xs = [f"x{k}" for k in range(n)]
    fill = "".join(f"  set_{x}(self, {x})\n" for x in xs)
    namespace = {}
    exec(f"def make(new, cls, {', '.join(f'set_{x}' for x in xs)}):\n"
         f" def from_fields({', '.join(xs)}):\n  self = new(cls)\n{fill}  return self\n"
         f" def init(self, {', '.join(xs)}):\n{fill}"
         " return from_fields, init\n", namespace)
    return namespace["make"]


class _Record:
    """Immutable record: its fields are its ``__slots__``; equality, hash and repr go by
    them unless a subclass defines its own.

    A record class without its own ``__init__`` gets one generated: its parameters are the
    slots, the class's ``_defaults`` trailing (a slotted class cannot hold a class attribute
    named after a slot).  A validating or normalising record ends its own ``__init__`` with
    ``super().__init__``, one value per slot.  ``_from_fields(*fields)``, generated per
    class, takes exactly one value per slot and fills the slots with no ``__init__``, so no
    check and no normalisation.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        names = cls.__slots__
        cls._key = attrgetter(*names)  # gives a tuple: records have two fields or more
        setters = [cls.__dict__[name].__set__ for name in names]
        from_fields, init = _fields_builder(len(names))(object.__new__, cls, *setters)
        from_fields.__qualname__ = f"{cls.__qualname__}._from_fields"
        cls._from_fields = staticmethod(from_fields)
        if "__init__" not in cls.__dict__:  # Python binds the arguments, as for a dataclass
            init.__code__ = init.__code__.replace(co_varnames=("self", *names))  # x0 -> slot 0
            defaulted = names[len(names) - len(cls._defaults):]  # KeyError unless trailing
            init.__defaults__ = tuple(map(cls._defaults.__getitem__, defaulted))
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):  # also __delattr__, which passes no value
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle restore slots from (None, {name: value})
        _Record.__init__(self, *map(state[1].__getitem__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class DomainError(Exception):
    """A computation was asked for data that the theory rules out."""


class SchemaError(Exception):
    """An input document does not match the JSON contract."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class NotDefinite(DomainError):
    """Enumeration requested on a sublattice that is not definite."""


class InvalidTwist(DomainError):
    """A twist parameter violates one of its three defining constraints."""


class NotAffineADE(DomainError):
    """A symmetric matrix is not an affine ADE Cartan matrix."""


class NotFiniteADE(DomainError):
    """A symmetric matrix is not a finite ADE Cartan matrix."""


class MarkNotOne(DomainError):
    """Node deletion requested at a node whose mark is not 1."""


class MarksMismatch(DomainError):
    """Stratum multiplicities differ from the marks of the affine diagram."""


class CapExceeded(DomainError):
    """An orbit or group enumeration, an example rank, a wall search's rk v or an output's
    digit count (CPython's int-to-str limit) outgrew its cap."""


class NotMinusTwo(DomainError):
    """Reflection requested in a vector of square != -2."""


class UOnUPrime(DomainError):
    """Wall crossing requested across a wall through the origin."""


class RankZeroImage(DomainError):
    """A Weyl image of a stratum vector has rank 0 (inconsistent input)."""


class TriplePoint(DomainError):
    """Three stratum vectors pair like a triangle (inconsistent input)."""


class Inconsistent(DomainError):
    """Distinct strata with a nonzero cross pairing (inconsistent input)."""


class NonIsotropicV(DomainError):
    """Wall enumeration needs an isotropic Mukai vector."""


class NonPositivePolarization(DomainError):
    """Wall enumeration needs a polarization of positive square."""


class WrongSignature(DomainError):
    """Wall enumeration needs a lattice of signature (1, rank-1)."""


class InvalidMukaiVector(DomainError, ValueError):
    """Wall enumeration needs an integral, primitive Mukai vector of positive rank.

    Also a ValueError, which is what these checks raised before they had a type.
    """


class NodeOutOfRange(DomainError):
    """Node deletion requested at an index outside the stratum list or the diagram."""


class InvariantError(RuntimeError):
    """A mathematical invariant of a computation failed to hold."""
