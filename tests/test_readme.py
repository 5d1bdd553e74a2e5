"""The README's code references name things that exist.

A dotted name in backticks, such as ``rank2.low_rank_exponents`` or
``EulerPattern.values``, must resolve against the package: a first part
that is a ``multiarr`` module is imported, a bare class name is looked up
across the ``multiarr`` modules, and anything else (``typing.NamedTuple``)
is imported as a module.  A renamed or deleted name then fails here
instead of drifting in the prose.  Each fenced ``python`` block is also
run, so the library examples keep working.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import multiarr

README = Path(__file__).resolve().parent.parent / "README.md"
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
MODULES = {
    info.name: importlib.import_module(f"multiarr.{info.name}") for info in pkgutil.iter_modules(multiarr.__path__)
}


def _references() -> list[str]:
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    spans = (span.removesuffix("()") for span in re.findall(r"`([^`]+)`", text))
    return sorted({span for span in spans if _DOTTED.fullmatch(span)})


def _resolves(reference: str) -> bool:
    head, *rest = reference.split(".")
    if head == "multiarr":
        head, *rest = rest
    if head in MODULES:
        roots = [MODULES[head]]
    else:
        roots = [vars(module)[head] for module in MODULES.values() if head in vars(module)]
        if not roots:
            try:
                roots = [importlib.import_module(head)]
            except ImportError:
                return False
    for obj in roots:
        for name in rest:
            obj = getattr(obj, name, None)
        if obj is not None:
            return True
    return False


def test_the_readme_names_code() -> None:
    references = _references()
    assert {"rank2.low_rank_exponents", "induction.Session", "_Engine.walk", "EulerPattern.values"} <= set(references)
    assert [ref for ref in references if not _resolves(ref)] == []


def test_a_stale_reference_does_not_resolve() -> None:
    assert not _resolves("Scalar.sort_key")
    assert not _resolves("induction._state_key")
    assert not _resolves("nosuchmodule.name")
    assert _resolves("typing.NamedTuple") and _resolves("multiarr.arrangement.state_key")


def test_the_readme_python_blocks_run() -> None:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
