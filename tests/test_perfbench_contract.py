"""The names the benchmark's op process reaches into must keep resolving.

``perfbench/child.py`` wraps functions by (module, name), counts
``Scalar`` methods by name and loads inputs through ``catalog``.  A
rename in the package would break the benchmark without failing any
other test, so these tests read the child's own tables and look each
name up.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from multiarr import catalog
from multiarr.scalars import Scalar

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = load_child()


@pytest.mark.parametrize("module_name, name", child.TRACED, ids=[f"{m}.{n}" for m, n in child.TRACED])
def test_traced_functions_resolve(module_name: str, name: str) -> None:
    module = importlib.import_module(f"multiarr.{module_name}")
    assert callable(getattr(module, name))


def test_pair_cache_is_reachable_through_the_wrapper() -> None:
    from multiarr import rank2

    wrapped = child.Tracer().wrap(rank2.plane_exponent_pair, 0, "plane_exponent_pair")
    info = wrapped.__wrapped__.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_scalar_groups_resolve() -> None:
    for methods in child.SCALAR_GROUPS.values():
        for method in methods:
            assert callable(getattr(Scalar, method)), method


def test_catalog_loaders_resolve() -> None:
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    load = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_load")
    used = {
        node.attr
        for node in ast.walk(load)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "catalog"
    }
    assert used >= {"shipped_fixture", "intermediate", "parse_spec_string", "load_fixture"}
    for name in used:
        assert callable(getattr(catalog, name)), name
