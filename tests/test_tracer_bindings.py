"""Every library name the benchmark tracer binds must exist.

``perfbench/tracing.py`` wraps the functions listed in ``TRACED`` and
``COUNTED`` by module and attribute path, and its ``install`` raises
AttributeError on a missing name.  A deleted or renamed function would
otherwise only show up as a crash of ``perfbench/run.py --trace 1``.
"""

import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def _resolve(module_name, path):
    """The object at ``path`` in ``k3walls.<module_name>``, or None when it is missing.

    A dotted path names a method, which the tracer reads from its class's own
    ``__dict__``, so an inherited attribute does not count.
    """
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module_name}")
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
    if owner is None:
        return None
    return vars(owner).get(attr) if owners else getattr(owner, attr, None)


def test_traced_names_resolve():
    missing = []
    for module_name, path, kind in tracing.TRACED:
        target = _resolve(module_name, path)
        if target is None or inspect.isgeneratorfunction(target) != (kind == "gen"):
            missing.append(f"{module_name}.{path} ({kind})")
    assert not missing, missing


def test_counted_names_resolve():
    missing = [f"{module_name}.{path}" for module_name, path, _ in tracing.COUNTED
               if _resolve(module_name, path) is None]
    assert not missing, missing
