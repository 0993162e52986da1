"""Tests for the reach check's bookkeeping (``benchmarks/reach.py``).

The check reports a function as unreached when no code object the profiler
saw carries its (file, first line, name) key, so its inventory must key every
function exactly as the interpreter does: a key that drifts would report
live code as dead.  The full drive runs as its own CI step; these tests read
only the inventory and the allowlist.
"""

import importlib
import inspect
import sys
import types
from functools import cached_property
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
import reach  # noqa: E402

INVENTORY = reach.inventory()


def module_name(path):
    parts = path.relative_to(reach.PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: Every module under ``src/repro`` that defines at least one function.
MODULES = sorted(
    module_name(path)
    for path in reach.PACKAGE.rglob("*.py")
    if any(key[0] == str(path.resolve()) for key in INVENTORY)
)


def module_file(module):
    return str(Path(module.__file__).resolve())


def nested_codes(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from nested_codes(const)


def defined_functions(module):
    """(file, first line, name) of every function ``module`` defines, nested
    ones included, read off the code objects the interpreter built."""
    functions = []

    def add(value):
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, cached_property):
            value = value.func
        if isinstance(value, property):
            for accessor in (value.fget, value.fset, value.fdel):
                add(accessor)
            return
        if isinstance(value, type):
            if value.__module__ == module.__name__ and value not in seen:
                seen.add(value)
                for member in vars(value).values():
                    add(member)
            return
        if not isinstance(value, types.FunctionType):
            # A cache or other wrapper object around a function.
            wrapped = getattr(value, "__wrapped__", None)
            if isinstance(wrapped, types.FunctionType):
                add(wrapped)
            return
        if getattr(value, "__isabstractmethod__", False):
            return
        functions.append(value)
        if inspect.unwrap(value) is not value:
            functions.append(inspect.unwrap(value))

    seen = set()
    for value in vars(module).values():
        add(value)
    filename = module_file(module)
    return {
        (filename, code.co_firstlineno, code.co_name)
        for function in functions
        for code in nested_codes(function.__code__)
        if str(Path(code.co_filename).resolve()) == filename
        and not code.co_name.startswith("<")
    }


@pytest.mark.parametrize("name", MODULES)
def test_inventory_keys_each_function_as_the_interpreter_does(name):
    module = importlib.import_module(name)
    filename = module_file(module)
    listed = {key for key in INVENTORY if key[0] == filename}
    assert listed == defined_functions(module)


def test_inventory_covers_every_module_with_a_function():
    assert {key[0] for key in INVENTORY} == {
        module_file(importlib.import_module(name)) for name in MODULES
    }


def test_abstract_declarations_are_not_listed():
    names = set(INVENTORY.values())
    assert "repro.noc.routing.RoutingAlgorithm.candidate_outputs" not in names
    assert "repro.noc.routing.XYRouting.candidate_outputs" in names


@pytest.mark.parametrize("entry", sorted(reach.ALLOWLIST))
def test_allowlist_entry_names_code_in_src(entry):
    """An entry outlives the code it excused only as a stale promise."""
    assert reach.ALLOWLIST[entry].strip()
    assert any(reach.covering_entry(name) == entry for name in INVENTORY.values())


def test_covering_entry_stops_at_a_name_boundary():
    translator = "repro.migration.io_interface.IoAddressTranslator"
    assert reach.covering_entry(translator) == translator
    assert reach.covering_entry(translator + ".translate_incoming") == translator
    assert reach.covering_entry("repro.noc.flit.Packet.latency") == "repro.noc.flit.Packet"
    assert reach.covering_entry("repro.noc.flit.PacketClass") == ""
