"""perfbench's patch tables name only attributes that exist.

A traced perfbench run swaps wrappers in for the ``(owner, attr)``
pairs of ``perfbench/tracing.py``'s ``SERVE`` and ``SOLVE`` tables,
reading each original from ``owner.__dict__``.  Renaming a patched
function or method in the library breaks that lookup, which only a
traced benchmark run would otherwise show.  perfbench sits outside the
test paths, so its module is loaded from its file.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SERVE", "SOLVE"])
def test_every_patched_attribute_exists(tracing, table):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _wrapper in getattr(tracing, table)
        if attr not in owner.__dict__
    ]
    assert not missing, f"{table} patches missing attributes: {missing}"
