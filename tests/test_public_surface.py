"""Every function that l1agg exports is used outside the module that
defines it: called, imported or read by another library module, a demo or
a perfbench script, or shown as code in README.md. A word in prose or in
a string literal is not a use. A function that only an acceptance gate
calls is listed with that gate. Exported classes are exempt; they are the functions' result and
argument types. Every exported name loads from its module on first use."""

import ast
import functools
import inspect
import io
import pathlib
import re
import sys
import tokenize

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
IMPORT_LIST = re.compile(r"^\s*(?:from\s+\S+\s+)?import\s+(\([^)]*\)|.*)$", re.M)
CODE_BLOCK = re.compile(r"^```.*?^```", re.S | re.M)


@functools.cache
def without_strings(source: str) -> str:
    """Python ``source`` with every string literal, docstrings included,
    replaced by ``""``."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return tokenize.untokenize(
        tok._replace(string='""') if tok.type == tokenize.STRING else tok for tok in tokens
    )


def uses(name: str, source: str) -> bool:
    """Whether Python ``source`` calls, imports or reads ``name``:
    ``name(``, ``.name``, or an import list that holds it. Names inside
    string literals (``"module.name"``) do not count."""
    source = without_strings(source)
    word = re.compile(rf"\b{name}\b")
    return bool(re.search(rf"\b{name}\(|\.{name}\b", source)) or any(
        word.search(names) for names in IMPORT_LIST.findall(source)
    )


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
