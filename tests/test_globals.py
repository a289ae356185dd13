"""Every global name a function of the package reads is bound."""

import ast
import builtins
import pathlib
import symtable

import pytest

import wresidue

_SOURCES = sorted(pathlib.Path(wresidue.__file__).parent.glob("*.py"))


def unbound_globals(source: str, filename: str):
    """The global names that a function, class body or comprehension of
    `source` reads but that neither the module binds (by assignment, def,
    class, import or a `global` statement) nor the builtins provide."""
    top = symtable.symtable(source, filename, "exec")
    bound = set(dir(builtins))
    bound |= {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    read = set()
    tables = list(top.get_children())
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for s in table.get_symbols():
            if s.is_global() and s.is_assigned():
                bound.add(s.get_name())
            elif s.is_global() and s.is_referenced():
                read.add(s.get_name())
    return sorted(read - bound)


@pytest.mark.parametrize("path", _SOURCES, ids=[p.name for p in _SOURCES])
def test_every_global_a_function_reads_is_bound(path):
    assert unbound_globals(path.read_text(encoding="utf-8"), str(path)) == []


def test_an_unimported_name_is_caught():
    source = ("from .scalars import ScalarExpr\n\n"
              "def check(x: ScalarExpr):\n"
              "    if not x.is_zero():\n"
              "        raise EngineError('nonzero')\n"
              "    return [len(y) for y in x]\n")
    assert unbound_globals(source, "check.py") == ["EngineError"]


# The module-level empty dicts the package may bind: the caches that are not
# `functools` caches. Each one's reason is a comment beside it in the source.
_HAND_ROLLED = {"_BUILTIN_CACHE", "_FACTOR_CACHE", "_COT_TEXT", "_REST_TEXT", "_COEF_TEXT"}


def empty_dict_globals(source: str):
    """The names that a module-level statement of `source` binds to an empty
    dict: `{}`, `dict()`, an annotated `= {}`, or a call without arguments of
    a class of the module that subclasses `dict`."""
    body = ast.parse(source).body
    dict_types = {"dict"} | {
        node.name for node in body if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "dict" for base in node.bases)}
    names = []
    for node in body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in dict_types and not value.args and not value.keywords)
        if empty:
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def test_every_module_level_empty_dict_is_a_named_hand_rolled_cache():
    """A memo is a `functools` cache on its builder; a new module-level
    table must be added to `_HAND_ROLLED`, with its reason beside it, and a
    deleted one must leave it."""
    found = {path.name: set(empty_dict_globals(path.read_text(encoding="utf-8")))
             for path in _SOURCES}
    stray = {name: sorted(names - _HAND_ROLLED) for name, names in found.items()
             if names - _HAND_ROLLED}
    assert stray == {}
    assert _HAND_ROLLED - set().union(*found.values()) == set()


def test_each_form_of_an_empty_module_level_dict_is_caught():
    source = ("from typing import Dict\n"
              "class _Table(dict):\n"
              "    pass\n"
              "_A = {}\n"
              "_B: Dict[int, int] = {}\n"
              "_C = dict()\n"
              "_D = {1: 2}\n"
              "_E = dict(x=1)\n"
              "_F: Dict[int, int]\n"
              "_G = _Table()\n"
              "def f():\n"
              "    g = {}\n"
              "    return g\n")
    assert empty_dict_globals(source) == ["_A", "_B", "_C", "_G"]
