"""Every function that l1agg exports is used outside the module that
defines it: called, imported or read by another library module, a demo or
a perfbench script, or shown as code in README.md. A word in prose or in
a string literal is not a use. A function that only an acceptance gate
calls is listed with that gate. Exported classes are exempt; they are the functions' result and
argument types. Every exported name loads from its module on first use."""

import ast
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


# Exported for an acceptance gate alone, each with the gate whose test calls it.
GATE_HELD = {"membership": "c9"}
CODE_BLOCK = re.compile(r"^```.*?^```", re.S | re.M)


@functools.cache
def names_used(source: str) -> frozenset[str]:
    """Every name that Python ``source`` reads (``name``, ``.name``) or
    imports (``import a.name``, ``from a import name``), from its syntax
    tree: a name inside a string literal (``"module.name"``) is not in it,
    and one inside an f-string's replacement field is."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
    return frozenset(found)


def uses(name: str, source: str) -> bool:
    """Whether Python ``source`` calls, imports or reads ``name``."""
    return name in names_used(source)


def readme_code(text: str) -> list[str]:
    """README's code: its fenced blocks and its inline backtick spans."""
    return CODE_BLOCK.findall(text) + re.findall(r"`[^`\n]+`", CODE_BLOCK.sub("", text))


@functools.cache
def sources_outside(module_name: str) -> tuple[str, ...]:
    """The Python sources that may use a function of ``module_name``."""
    files = [p for p in SRC.glob("*.py") if p.name not in (module_name, "__init__.py")]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return tuple(p.read_text(encoding="utf-8") for p in files)


def test_exports_include_functions():
    assert "population_constants" in EXPORTED_FUNCTIONS


@pytest.mark.parametrize(
    "source, used",
    [
        ("foo(1)", True),
        ("x = l1agg.foo", True),
        ("from l1agg import (\n    bar,\n    foo,\n)", True),
        ("import l1agg.foo", True),
        ('x = f"{foo(1)}"', True),
        ('x = "foo(1)"', False),
        ('"""Calls foo(1) and reads .foo."""', False),
        ("def foo():\n    pass", False),
        ("food(1)", False),
    ],
)
def test_uses_reads_the_syntax_tree(source, used):
    # A call inside an f-string used to be no use on Python 3.10 and 3.11,
    # where tokenize reads an f-string as one string token.
    assert uses("foo", source) is used


@pytest.mark.parametrize("name", EXPORTED_FUNCTIONS)
def test_exported_function_is_named_outside_its_module(name):
    module_name = pathlib.Path(inspect.getfile(getattr(l1agg, name))).name
    readme = readme_code((ROOT / "README.md").read_text(encoding="utf-8"))
    assert (
        name in GATE_HELD
        or any(uses(name, source) for source in sources_outside(module_name))
        or any(re.search(rf"\b{name}\b", code) for code in readme)
    ), f"l1agg exports {name}, but only {module_name} uses it"


@pytest.mark.parametrize("name", sorted(GATE_HELD))
def test_gate_held_function_is_called_by_its_gate(name):
    gates = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    (gate,) = [
        node for node in gates.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(f"test_{GATE_HELD[name]}_")
    ]
    assert any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        for node in ast.walk(gate)
    ), f"gate {GATE_HELD[name]} does not call {name}"


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
