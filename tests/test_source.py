"""Source-level rules for the library package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import k3walls

SOURCES = sorted(Path(k3walls.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    """Invariants are explicit checks raising InvariantError: ``python -O`` strips asserts."""
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert not found, found


#: Public functions that nothing in the package references, or only another
#: name listed here, each kept for a reason outside the package.  A name
#: leaves this list when its function is deleted.
UNREFERENCED_ALLOWED = {
    "linalg.signature": "bound by name in the benchmark tracer",
    "linalg.solve_integer": "bound by name in the benchmark tracer",
    "strata.psi_sets": "bound by the benchmark tracer and called by its strata-batch workload",
    "strata.strata_orthogonality": "pinned by the acceptance tests",
    "strata.no_triple_point_check": "pinned by the acceptance tests",
    "roots.weyl_orbit": "pinned by the acceptance tests",
    "roots.lie_algebra_dimension": "pinned by the acceptance tests",
    "roots.weyl_group_order": "pinned by the acceptance tests",
    "walls.curve_classes": "the curve-class strata of ROADMAP item 5 build on it",
    "roots.apply_word_dual": "the curve-class strata of ROADMAP item 5 build on it",
    "walls.small_twist_violations": "the small-twist check of ROADMAP item 5",
    "roots.marks": "the benchmark population builds its documents with it",
    "lattice.orthogonal_complement": "bound by name in the benchmark tracer; leaves with "
                                     "ROADMAP item 15(a)",
    "lattice.is_negative_definite": "bound by name in the benchmark tracer; leaves with "
                                    "ROADMAP item 15(a)",
    "lattice.enumerate_norm_vectors": "bound by name in the benchmark tracer; leaves with "
                                      "ROADMAP item 15(a)",
    "mukai.rho": "the point class, a basic element of the Mukai lattice",
}


def _locals(func):
    """Names a function (or lambda) binds: its arguments and every name stored in it."""
    args = func.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def _references(node, resolve, modules, shadowed=frozenset()):
    """Qualified ``module.name`` keys of the module-level names ``node`` reads."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        shadowed = shadowed | _locals(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        yield resolve(node.id)
    elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
          and node.value.id in modules and node.value.id not in shadowed):
        yield f"{modules[node.value.id]}.{node.attr}"
    for child in ast.iter_child_nodes(node):
        yield from _references(child, resolve, modules, shadowed)


def test_every_public_function_is_reached():
    """Every public module-level function is referenced somewhere in the package.

    References inside a function's own definition and in ``__init__.py`` (the
    re-exports) do not count; a bare name resolves through the module's
    relative imports, and ``module.name`` through its module aliases.
    """
    public, referenced = set(), set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules, imported = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        imported[local] = f"{node.module}.{alias.name}"

        def resolve(name):
            return imported.get(name, f"{module}.{name}")

        for node in tree.body:
            own = None
            if isinstance(node, ast.FunctionDef):
                own = f"{module}.{node.name}"
                if not node.name.startswith("_"):
                    public.add(own)
            referenced.update(key for key in _references(node, resolve, modules) if key != own)
    assert not set(UNREFERENCED_ALLOWED) - public, "allowlisted names that are not public functions"
    unreached = sorted(public - referenced - set(UNREFERENCED_ALLOWED))
    assert not unreached, unreached


def test_records_set_fields_only_through_the_base():
    """Outside ``errors.py`` every slotted class is a ``_Record``, and nothing writes
    to an object: no ``object.__setattr__`` or ``setattr`` call, no ``__setattr__``
    definition and no assignment to an attribute.  The ``__init__`` that ``_Record``
    generates for a record class, ``_Record.__init__`` and ``_from_fields`` fill the
    slots; a validating record ends its own ``__init__`` with ``super().__init__(...)``,
    and no object changes after that."""
    records, found = [], []
    for path in SOURCES:
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ClassDef):
                slotted = any(isinstance(t, ast.Name) and t.id == "__slots__"
                              for stmt in node.body if isinstance(stmt, ast.Assign)
                              for t in stmt.targets)
                if any(isinstance(base, ast.Name) and base.id == "_Record" for base in node.bases):
                    records.append(node.name)
                elif slotted:
                    found.append(f"{where}: {node.name} has __slots__ but is not a _Record")
            elif isinstance(node, ast.FunctionDef) and node.name == "__setattr__":
                found.append(f"{where}: __setattr__ defined")
            elif isinstance(node, ast.Attribute) and (
                    isinstance(node.ctx, ast.Store) or node.attr == "__setattr__"):
                found.append(f"{where}: {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "setattr":
                found.append(f"{where}: setattr call")
    assert len(records) == 18, records
    assert not found, found


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """``import k3walls.cli`` leaves ``dataclasses`` and ``inspect`` unloaded.

    Every CLI process pays for what that import loads: with the two modules and
    the code generation of ``@dataclass`` it took 87-93 ms above a bare
    interpreter, without them 59-65 ms (CPython 3.11.7, 2 vCPUs, no bytecode cache).
    """
    code = ("import k3walls.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(k3walls.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
