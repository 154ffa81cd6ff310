"""Every function that l1agg exports is named outside the module that
defines it: in another library module, a demo, a perfbench script or
README.md. Exported classes are exempt; they are the functions' result
and argument types. Every exported name loads from its module on first
use."""

import functools
import inspect
import pathlib
import re
import sys

import pytest

import l1agg

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "l1agg"
# From __all__: the package's own namespace fills only as names are used.
EXPORTED_FUNCTIONS = sorted(
    name for name in l1agg.__all__ if inspect.isfunction(getattr(l1agg, name))
)


@functools.cache
def texts_outside(module_name: str) -> tuple[str, ...]:
    """The texts of every file that may name a function of ``module_name``."""
    files = [p for p in SRC.glob("*.py") if p.name not in (module_name, "__init__.py")]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    files.append(ROOT / "README.md")
    return tuple(p.read_text(encoding="utf-8") for p in files)


def test_exports_include_functions():
    assert "population_constants" in EXPORTED_FUNCTIONS


@pytest.mark.parametrize("name", EXPORTED_FUNCTIONS)
def test_exported_function_is_named_outside_its_module(name):
    module_name = pathlib.Path(inspect.getfile(getattr(l1agg, name))).name
    word = re.compile(rf"\b{name}\b")
    assert any(word.search(text) for text in texts_outside(module_name)), (
        f"l1agg exports {name}, but only {module_name} names it"
    )


def test_names_load_on_first_use():
    for name in l1agg.__all__:
        obj = getattr(l1agg, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in dir(l1agg)
    namespace = {}
    exec("from l1agg import *", namespace)
    assert set(l1agg.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        l1agg.no_such_name
