"""The library's record classes against frozen dataclasses with their fields.

The eleven record classes share one slotted base.  On the records that sweep
instances and their classify runs build, each must print, compare and hash as a
frozen dataclass with the same fields does (:func:`oracles.dataclass_twin`),
refuse to compare with another class, and refuse every mutation; a class
without its own ``__init__`` takes its slots as parameters.  Every class on the
base copies and pickles: the three value classes (``MukaiVector``,
``PicardLattice`` and ``CartanMatrix``) and the four that compute their fields
(``Sublattice``, ``QuadraticForm``, ``IntegerSystem`` and ``TwistParameter``)
included, and each class's generated ``_from_fields`` takes exactly one value
per slot.
"""

import copy
import importlib
import inspect
import itertools
import pickle
import pkgutil

import pytest

import k3walls
import oracles
from k3walls import errors, families, linalg, pipeline, roots, strata, walls
from k3walls import lattice as lat

RECORD_CLASSES = (families.ExampleSpec, families.ExampleInstance, pipeline.ParsedInstance,
                  roots.AffineDiagram, roots.FiniteDiagram, strata.StratumData,
                  strata.DualGraph, strata.SingularityReport, walls.WallVector,
                  walls.ChamberPosition, walls.CurveClass)


def _fields(x):
    return [getattr(x, name) for name in type(x).__slots__]


@pytest.fixture(scope="module")
def records():
    """Records by class from two sweep instances, D~5 at r = 1 and A~4 at r = 2,
    each generated, then classified with a fundamental-chamber alpha, walls and
    curve classes included; every record is followed by a rebuilt equal copy."""
    out = {cls: [] for cls in RECORD_CLASSES}
    for family, n, r in (("D", 5, 1), ("A", 4, 2)):
        spec = families.ExampleSpec(family, n, r, 1)
        inst = families.generate_example(spec)
        parsed = pipeline.parse_instance(pipeline.instance_document(inst, alpha_scale=1))
        result = strata.classify_singularity(parsed.stratum_data(), 0)
        wall_list = walls.enumerate_walls(parsed.lattice, parsed.polarization, parsed.v)
        position = walls.locate(parsed.twist(), wall_list, parsed.v, singularity=result)
        curves = walls.curve_classes(parsed.v, result.retained, position.weyl_word)
        for x in (spec, inst, parsed, inst.stratum(), result, result.affine, result.finite,
                  result.dual_graph, position, *wall_list[:4], *curves[:2]):
            out[type(x)] += [x, type(x)(*_fields(x))]
    return out


def _hash(x):
    try:
        return hash(x)
    except TypeError:  # ExampleInstance holds a dict
        return TypeError


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_behaves_as_its_dataclass_twin(records, cls):
    twin = oracles.dataclass_twin(cls)
    xs = records[cls]
    twins = [twin(*_fields(x)) for x in xs]
    assert len(xs) >= 4
    for x, tx in zip(xs, twins):
        assert repr(x) == repr(tx)
        assert _hash(x) == _hash(tx)
    for (x, tx), (y, ty) in itertools.product(zip(xs, twins), repeat=2):
        assert (x == y, x != y) == (tx == ty, tx != ty)
    assert any(x != y for x, y in itertools.combinations(xs, 2))
    other = records[walls.CurveClass if cls is walls.WallVector else walls.WallVector][0]
    for x, tx in zip(xs, twins):
        assert x.__eq__(tx) is NotImplemented and tx.__eq__(x) is NotImplemented
        assert x.__eq__(tuple(_fields(x))) is NotImplemented
        assert x.__eq__(other) is NotImplemented
        assert x != tx
        before = _fields(x)
        for obj, name in itertools.product((x, tx), (*cls.__slots__, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert _fields(x) == before


def _call_shapes(cls, fields):
    """Calls ``(args, kwargs)`` over one record's ``fields``: those that must build a
    record, and those that must raise TypeError."""
    names = cls.__slots__
    given = dict(zip(names, fields))
    half = len(names) // 2
    builds = [(fields, {}), ((), given), (fields[:half], dict(list(given.items())[half:]))]
    if cls._defaults:  # the defaulted fields come last
        builds.append(([given[name] for name in names if name not in cls._defaults], {}))
    raises = [((), dict(list(given.items())[1:])), ((*fields, None), {}),
              (fields, {"extra": None}), (fields, {names[0]: fields[0]})]
    return builds, raises


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_binds_arguments_as_its_dataclass_twin(records, cls):
    """Positional, keyword, mixed and defaulted calls fill the same fields as on the
    twin; a missing, surplus, unknown or repeated argument is a TypeError on both."""
    twin = oracles.dataclass_twin(cls)
    fields = _fields(records[cls][0])
    builds, raises = _call_shapes(cls, fields)
    for args, kwargs in builds:
        built, twin_built = _fields(cls(*args, **kwargs)), twin(*args, **kwargs)
        assert built == [getattr(twin_built, name) for name in cls.__slots__]
        assert built == fields or len(args) + len(kwargs) < len(fields)
    for args, kwargs in raises:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)
        with pytest.raises(TypeError):
            twin(*args, **kwargs)


def test_generated_init_takes_the_slots(one_of_each):
    """A record class without its own ``__init__`` has one whose parameters are its slots,
    each positional or keyword, with its ``_defaults`` as trailing defaults: Python binds
    the arguments, as it does for the dataclass twin."""
    classes = [cls for cls in errors._Record.__subclasses__()  # no __init__ in its source
               if cls.__init__.__code__.co_filename != inspect.getsourcefile(cls)]
    assert len(classes) == 9
    for cls in classes:
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.kind) for p in params] == [
            (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in cls.__slots__]
        defaults = [(p.name, p.default) for p in params if p.default is not p.empty]
        assert defaults == list(cls._defaults.items())


def test_record_defaults_and_keywords():
    assert repr(walls.ChamberPosition((), (), ())) == (
        "ChamberPosition(walls=(), signs=(), on_walls=(), weyl_word=None, "
        "reduced_values=None, on_chamber_wall=None)")
    assert strata.DualGraph(nodes=(1,), edges=()) == strata.DualGraph((1,), (), -2)


@pytest.mark.parametrize("args", [("B", 4, 1, 1), ("A", 0, 1, 1), ("D", 3, 1, 1),
                                  ("E", 9, 1, 1), ("A", 1, 0, 1), ("A", 1, 1, -1)])
def test_example_spec_rejects_what_it_rejected(args):
    with pytest.raises(ValueError):
        families.ExampleSpec(*args)


@pytest.mark.parametrize("args", [("A", True, True, True), ("A", 2, 1.5, 1), ("A", 2.0, 1, 1),
                                  ("A", 2, 1, "1"), ("D", 4, 1, False)])
def test_example_spec_refuses_what_is_not_an_integer(args):
    with pytest.raises(TypeError):
        families.ExampleSpec(*args)


def test_stratum_data_normalises_and_rejects_as_before(d4_instance):
    inst = d4_instance
    (v0, _), (v1, _) = inst.stratum().strata[:2]
    data = strata.StratumData(inst.lattice, list(inst.polarization), inst.v, [[v0, 1], [v1, 2]])
    assert data.polarization == inst.polarization and data.strata == ((v0, 1), (v1, 2))
    for bad in (True, 1.0, "1", None):
        with pytest.raises(TypeError):
            strata.StratumData(inst.lattice, inst.polarization, inst.v, ((v0, 1), (v1, bad)))
    for polarization, pairs in ((None, ((v0, 1),)), (inst.polarization, None)):
        with pytest.raises(TypeError):
            strata.StratumData(inst.lattice, polarization, inst.v, pairs)


def test_value_classes_keep_their_own_equality_and_refuse_mutation(a2_instance):
    """MukaiVector and PicardLattice keep their own hash and repr, PicardLattice its own
    equality too; CartanMatrix keeps its repr and compares and hashes by its fields."""
    v, p, m = a2_instance.v, a2_instance.lattice, a2_instance.affine_matrix
    assert hash(v) == hash((v.r, v.c1, v.s)) and repr(v) == "MukaiVector(r=3, c1=[1, 1, 1], s=3)"
    assert p == lat.PicardLattice(p.gram, p.basis_labels)
    assert repr(p) == "PicardLattice(rank=3, labels=['xi0', 'xi1', 'xi2'])"
    assert m == roots.CartanMatrix(m.entries) and repr(m).startswith("CartanMatrix([[2, -1, -1]")
    for obj, name in itertools.product((v, p, m), ("gram", "entries", "r", "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert (v.r, p.rank, m.n_nodes) == (3, 3, 3)


@pytest.fixture(scope="module")
def one_of_each(records):
    """One record of every ``_Record`` subclass in the package, every module imported."""
    for module in pkgutil.iter_modules(k3walls.__path__):
        importlib.import_module(f"k3walls.{module.name}")
    inst = records[families.ExampleInstance][0]
    samples = [xs[0] for xs in records.values()]
    samples += [inst.v, inst.lattice, inst.affine_matrix]
    h_perp = lat.orthogonal_complement(inst.lattice, [inst.polarization])
    samples += [h_perp, h_perp.form, linalg.IntegerSystem(inst.lattice.gram, inst.lattice.rank),
                families.fundamental_alpha(inst)]
    assert {type(x) for x in samples} == set(errors._Record.__subclasses__())
    assert len(samples) == 18
    return samples


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_copy_and_pickle(one_of_each, duplicate):
    for x in one_of_each:
        y = duplicate(x)
        assert type(y) is type(x) and y == x and _hash(y) == _hash(x)
        with pytest.raises(AttributeError):
            setattr(y, type(x).__slots__[0], None)


def test_from_fields_takes_exactly_one_value_per_slot(one_of_each):
    """``_from_fields(*fields)`` is the record with those fields, the very objects in its
    slots; one value too few or too many is a TypeError, never a record with a slot unset
    or a value dropped."""
    for x in one_of_each:
        cls, fields = type(x), _fields(x)
        y = cls._from_fields(*fields)
        assert type(y) is cls and y == x and _hash(y) == _hash(x) and repr(y) == repr(x)
        assert all(a is b for a, b in zip(_fields(y), fields))
        for values in (fields[:-1], (*fields, None)):
            with pytest.raises(TypeError, match=f"{cls.__name__}._from_fields"):
                cls._from_fields(*values)


def test_sublattice_is_a_record_of_its_basis(a2_instance):
    """Two sublattices built from one basis compare and hash equal; the fields set at
    construction, the factored form included, cannot be set afterwards."""
    lattice, h = a2_instance.lattice, a2_instance.polarization
    basis = lat.orthogonal_complement(lattice, [h]).basis
    x, y = lat.Sublattice(lattice, basis), lat.Sublattice(lattice, list(basis))
    assert x is not y and x == y and hash(x) == hash(y)
    assert (x.sign, x.form) == (-1, y.form) and isinstance(x.form, linalg.QuadraticForm)
    assert x != lat.Sublattice(lattice, basis[::-1])
    assert repr(x) == "Sublattice(rank=2)"
    for name in ("sign", "form", "basis"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    assert (x.sign, x.form) == (y.sign, y.form)
