import importlib
import pkgutil

import pytest

import k3walls
from k3walls import families
from k3walls import lattice as lat
from k3walls import mukai as mk


def clear_library_caches():
    """Empty every ``functools`` cache in the library; returns their ``module.name``s.

    A test that counts calls starts from cold caches this way, so what it
    counts does not depend on the tests that ran before it in the process.
    """
    cleared = []
    for info in pkgutil.iter_modules(k3walls.__path__):
        module = importlib.import_module(f"k3walls.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                obj.cache_clear()
                cleared.append(f"{info.name}.{name}")
    return sorted(cleared)


@pytest.fixture(scope="session")
def elliptic():
    """Elliptic K3 with a section: Pic = Z sigma + Z f, H = sigma + 3f."""
    p = lat.PicardLattice([[-2, 1], [1, 0]], ["sigma", "f"])
    h = (1, 3)
    v = mk.MukaiVector(2, (1, 3), 1, p)
    return p, h, v


@pytest.fixture(scope="session")
def a1_instance():
    return families.generate_example(families.ExampleSpec("A", 1, 1, 1))


@pytest.fixture(scope="session")
def a2_instance():
    return families.generate_example(families.ExampleSpec("A", 2, 1, 1))


@pytest.fixture(scope="session")
def a3_instance():
    return families.generate_example(families.ExampleSpec("A", 3, 1, 1))


@pytest.fixture(scope="session")
def d4_instance():
    return families.generate_example(families.ExampleSpec("D", 4, 1, 1))
