"""Every global name a function of the package reads is bound."""

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
