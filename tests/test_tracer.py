"""The benchmark's per-layer tracer (perfbench/tracer.py) against the engine.

The tracer rebinds engine functions and methods by name.  Installing it
here, on one short run, makes a renamed or deleted traced name fail this
test rather than the benchmark, and checks that `finish()` puts every
original back.
"""

import json
import sys
from pathlib import Path

import pytest

from wresidue import cli, gaussian, scalars, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _engine_bindings():
    """Every callable a wresidue module or class binds, by identity, plus
    the suite table and the slot engine functions."""
    from wresidue import references

    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "wresidue" and not name.startswith("wresidue."):
            continue
        for key, val in vars(mod).items():
            if callable(val):
                out[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                for attr, member in vars(val).items():
                    if callable(member):
                        out[(name, key, attr)] = member
    for name, fn in verify.SUITES.items():
        out[("SUITES", name)] = fn
    for slot in references.SLOTS:
        out[("slot", slot.slot_id)] = slot.build_engine
    return out


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    return Tracer


def test_tracer_installs_traces_and_restores(tracer_cls, capsys):
    before = _engine_bindings()
    tracer = tracer_cls(0)
    try:
        tracer.install()
        # the traced names are really rebound while the tracer is installed
        assert scalars.poly_gcd is not before[("wresidue.scalars", "poly_gcd")]
        assert scalars.poly_divexact is not before[("wresidue.scalars", "poly_divexact")]
        assert vars(gaussian.GRat)["__mul__"] is not before[
            ("wresidue.gaussian", "GRat", "__mul__")]
        assert cli.main(["run", "--theorem", "T2.3", "--format", "json"]) == 0
    finally:
        trace = tracer.finish()
    doc = json.loads(capsys.readouterr().out)
    assert doc["sections"]
    assert trace["stats"]["report.run_computation"][0] == 1
    assert trace["counts"]["gaussian.GRat.mul"] > 0
    after = _engine_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, fn in before.items() if after[key] is not fn]
    assert changed == []


def test_traced_build_count_is_the_symbol_cache_size(tracer_cls, monkeypatch, capsys):
    """The benchmark counts a `builtin_symbol` build as a call whose key is
    not cached yet: from an empty cache, a switched T5.4 run counts exactly
    the symbols it leaves in the cache."""
    from wresidue import references, report, symbols  # noqa: F401  (bound before install)

    monkeypatch.setattr(report, "_fork_helps", lambda: False)  # every build in this process
    monkeypatch.setattr(symbols, "_BUILTIN_CACHE", {})
    tracer = tracer_cls(0)
    try:
        tracer.install()
        assert cli.main(["run", "--theorem", "T5.4", "--no-torsion", "--format", "json"]) == 0
    finally:
        trace = tracer.finish()
    capsys.readouterr()
    assert trace["counts"]["symbols.builtin_symbol.builds"] == len(symbols._BUILTIN_CACHE) > 0
