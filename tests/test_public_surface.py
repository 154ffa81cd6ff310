"""Every function that l1agg exports is named outside the module that
defines it: in another library module, a demo, a perfbench script or
README.md. Exported classes are exempt; they are the functions' result
and argument types."""

import functools
import inspect
import pathlib
import re

import pytest

import l1agg

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "l1agg"
EXPORTED_FUNCTIONS = sorted(
    name for name, obj in vars(l1agg).items() if inspect.isfunction(obj)
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
