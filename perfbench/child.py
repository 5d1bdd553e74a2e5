"""One benchmark op: a fresh process that runs one ``multiarr`` CLI call.

Usage (spawned by run.py, one process per op)::

    python -I perfbench/child.py ROOT OP_JSON

The op names the CLI arguments, the inputs to load before the call and
the known answer.  The process imports ``multiarr.cli`` from ROOT/src,
loads the inputs, calls ``cli.main([...] + ["--json"])`` and checks the
payload.  With ``"trace": true`` it first wraps the public functions of
every layer and reports their spans.  It prints one JSON report line on
standard output and exits 0 whenever it got that far, even when the
answer was wrong; the report lists the problems.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

T_START = time.monotonic()

# Public functions wrapped in a traced run, as (module, name).  Every
# module-level alias of each function is rebound too, so calls through
# ``from .rank2 import plane_exponent_pair`` in induction are seen.
TRACED = (
    ("linalg", "rref"),
    ("linalg", "extend_echelon"),
    ("linalg", "reduce_against"),
    ("linalg", "nullspace"),
    ("rank2", "plane_exponent_pair"),
    ("rank2", "plane_exponents"),
    ("rank2", "rank2_exponents"),
    ("rank2", "common_value"),
    ("rank2", "euler_multiplicity"),
    ("induction", "is_inductively_free"),
    ("induction", "additive_refuter"),
    ("induction", "replay_addition_rows"),
    ("induction", "check_addition_step"),
    ("arrangement", "intersection_lattice"),
    ("arrangement", "restriction"),
)

# Scalar methods by counter group.  There are millions of these calls,
# so they are counted and timed in aggregate (outermost calls only)
# instead of being recorded as spans.
SCALAR_GROUPS = {
    "mul": ("__mul__", "__rmul__", "__pow__"),
    "addsub": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "inverse": ("inverse", "__truediv__", "__rtruediv__"),
}


def _span_extra(name: str, args: tuple, kwargs: dict, result) -> int:
    """The one number a span carries besides its times."""

    def arg(index: int, keyword: str):
        return args[index] if len(args) > index else kwargs[keyword]

    if name == "rref":
        return len(arg(0, "rows")) * arg(1, "ncols")
    if name == "plane_exponent_pair":
        return sum(mult for _, mult in arg(0, "plane"))
    if name == "check_addition_step":
        return int(result is None)
    if name == "intersection_lattice":
        return len(result)
    if name == "replay_addition_rows":
        return len(arg(2, "rows"))
    return 0


class Tracer:
    """Spans [name index, start, end, parent index, extra] kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.scalar = {group: [0, 0.0] for group in SCALAR_GROUPS}
        self.scalar_depth = 0

    def wrap(self, fn, name_index: int, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name_index, start, end, parent, 0]
            spans[index][4] = _span_extra(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_scalar(self, fn, group: str):
        tally = self.scalar[group]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.scalar_depth:
                return fn(*args, **kwargs)
            tracer.scalar_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += clock() - start
                tally[0] += 1
                tracer.scalar_depth = 0

        return traced

    def install(self) -> None:
        from multiarr.scalars import Scalar

        modules = [m for n, m in sys.modules.items() if n == "multiarr" or n.startswith("multiarr.")]
        for index, (module_name, name) in enumerate(TRACED):
            original = getattr(sys.modules[f"multiarr.{module_name}"], name)
            wrapper = self.wrap(original, index, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        for group, methods in SCALAR_GROUPS.items():
            for method in methods:
                setattr(Scalar, method, self.wrap_scalar(getattr(Scalar, method), group))


def _add_step(before: list[int], restricted: list[int]) -> list[int] | None:
    """exp(A, mu) from exp(A', mu') and exp(A'', mu*), or None.

    The restriction exponents must embed into the deletion exponents as
    a multiset; the one leftover value goes up by one.  Integer
    arithmetic only, independent of the program under test.
    """
    leftover = list(before)
    for value in restricted:
        if value not in leftover:
            return None
        leftover.remove(value)
    if len(leftover) != 1:
        return None
    return sorted(restricted + [leftover[0] + 1])


def _poly_from_roots(roots: list[int]) -> list[int]:
    """Coefficients of prod (t - r), index = power of t."""
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [shifted[i] - r * (coeffs[i] if i < len(coeffs) else 0) for i in range(len(shifted))]
    return coeffs


def check(kind: str, rc: int, payload: dict | None, expect: dict) -> list[str]:
    """Differences between one CLI result and its known answer."""
    problems = []
    if rc != expect["exit"]:
        problems.append(f"exit code {rc}, expected {expect['exit']}")
    if payload is None:
        return problems + ["no JSON payload"]
    want = expect.get("exponents")
    if kind == "indfree":
        if payload.get("verdict") != expect["verdict"]:
            problems.append(f"verdict {payload.get('verdict')}, expected {expect['verdict']}")
        if payload.get("exponents") != want:
            problems.append(f"exponents {payload.get('exponents')}, expected {want}")
        current = sorted(payload.get("start_exponents") or [])
        for i, (before, _label, restricted) in enumerate(payload.get("rows") or []):
            if sorted(before) != current:
                problems.append(f"row {i}: starts at {sorted(before)}, chain is at {current}")
                break
            current = _add_step(current, sorted(restricted))
            if current is None:
                problems.append(f"row {i}: {sorted(restricted)} does not embed into {sorted(before)}")
                break
        else:
            if current != want:
                problems.append(f"rows chain to {current}, expected {want}")
    elif kind == "refute":
        if payload.get("verdict") != expect["verdict"]:
            problems.append(f"verdict {payload.get('verdict')}, expected {expect['verdict']}")
        chain = payload.get("chain")
        if expect["verdict"] == "chain_found" and (chain is None or len(chain) != expect["total"]):
            problems.append(f"chain of {len(chain or [])} additions, expected |mu| = {expect['total']}")
    elif kind == "table":
        if payload.get("final_exponents") != want:
            problems.append(f"final exponents {payload.get('final_exponents')}, expected {want}")
        if payload.get("rows") != expect["rows"]:
            problems.append(f"{payload.get('rows')} rows replayed, expected {expect['rows']}")
    elif kind == "charpoly":
        if payload.get("exponents") != want:
            problems.append(f"exponents {payload.get('exponents')}, expected {want}")
        if payload.get("coefficients") != _poly_from_roots(want):
            problems.append(f"coefficients {payload.get('coefficients')} are not prod(t - e) over {want}")
    return problems


def _load(root: Path, load: list[list[str]]) -> None:
    """Load the op's inputs, so the CLI call finds them cached or parsed."""
    from multiarr import catalog

    for what, name in load:
        if what == "fixture":
            catalog.shipped_fixture(name)
        elif what == "spec":
            catalog.intermediate(catalog.parse_spec_string(name))
        elif what == "file":
            catalog.load_fixture(root / name)
        elif what == "json":
            json.loads((root / name).read_text(encoding="utf-8"))
        else:
            raise ValueError(f"unknown input kind {what!r}")


def main(argv: list[str]) -> int:
    root = Path(argv[1])
    op = json.loads(argv[2])
    src = root / "src"
    if not (src / "multiarr" / "cli.py").is_file():
        print(f"child: no multiarr sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    import multiarr.cli as cli

    t_imported = time.monotonic()
    _load(root, op["load"])
    t_loaded = time.monotonic()
    tracer = Tracer() if op["trace"] else None
    if tracer is not None:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(op["argv"] + ["--json"])
    try:
        payload = json.loads(out.getvalue())["payload"]
    except (json.JSONDecodeError, KeyError, TypeError):
        payload = None
    problems = check(op["kind"], rc, payload, op["expect"])
    if problems and err.getvalue():
        problems.append("stderr: " + err.getvalue()[-500:])
    payload = payload or {}
    report = {
        "t_start": T_START,
        "t_imported": t_imported,
        "t_loaded": t_loaded,
        "problems": problems,
        "counters": {
            "nodes": payload.get("nodes", payload.get("explored", 0)),
            "dead_ends": payload.get("dead_ends", 0),
        },
    }
    if tracer is not None:
        from multiarr import rank2

        info = rank2.plane_exponent_pair.__wrapped__.cache_info()
        report["spans"] = tracer.spans
        report["scalar"] = tracer.scalar
        report["pair_cache"] = [info.hits, info.misses]
    sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
