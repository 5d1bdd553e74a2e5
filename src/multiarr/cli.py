"""Command line interface.

Every subcommand emits a single result on standard output; long
searches stream progress to standard error.  ``--json`` switches to a
machine-readable form whose bytes depend only on the inputs.  Exit
codes: 0 for an affirmative or neutral outcome, 2 for a negative
mathematical verdict (not inductively free, additive freeness refuted),
3 when a search budget ran out, 1 for usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .arrangement import (
    Arrangement,
    MultiArrangement,
    characteristic_polynomial,
    free_exponents_from_charpoly,
    intersection_lattice,
    linear_form,
    simple_multi,
    ziegler_multiplicity,
)
from .catalog import (
    FixtureError,
    format_fixture,
    intermediate,
    load_fixture,
    parse_fixture,
    parse_spec_string,
    shipped_fixture,
    shipped_fixture_names,
    shipped_table,
    shipped_table_names,
)
from .induction import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    additive_refuter,
    certificate,
    e2,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    replay_table,
    table_shape_error,
)
from .rank2 import euler_multiplicity
from .scalars import ScalarParseError, one, parse_scalar, zero
from .verification import EXTERNAL_DATA_NOTE, run_all

__all__ = ["main"]


class CommandError(Exception):
    """A usage or data problem; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 means "refuted" here, so remap
    def error(self, message):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _budget(text: str) -> int:
    """A --budget value: a search that may visit no state decides nothing."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _resolve(token: str, kind: str, read_file, shipped, names):
    """``read_file(token)`` if ``token`` is an existing path, else ``shipped(token)``.

    ``--fixture`` and ``--replay`` read NAME|PATH this one way; a file that
    does not read and a name that is not shipped are CommandErrors, the
    latter listing ``names()``.
    """
    if Path(token).exists():
        try:
            return read_file(token)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, malformed
            raise CommandError(f"{token}: {exc}") from None
    try:
        return shipped(token)
    except KeyError:
        raise CommandError(f"{token!r} is neither a file nor a shipped {kind}; shipped: " + ", ".join(names())) from None


def _load_input(args) -> tuple[MultiArrangement, str]:
    """The (multiarrangement, display name) named by --spec/--fixture.

    A file's name is its path, a shipped fixture's its stem.  With
    --ziegler H0 it is the Ziegler restriction of that (simple) input at H0.
    """
    token = args.fixture
    if args.spec:
        try:
            spec = parse_spec_string(args.spec)
        except ValueError as exc:
            raise CommandError(str(exc)) from None
        m, name = simple_multi(intermediate(spec)), str(spec)
    elif not token:
        raise CommandError("need an input: --spec A:r:l:k or --fixture NAME|PATH|-")
    elif token == "-":
        try:
            m, name = parse_fixture(sys.stdin.read()), "<stdin>"
        except FixtureError as exc:
            raise CommandError(f"stdin: {exc}") from None
    else:
        stem = token.removesuffix(".arr")
        m, name = _resolve(token, "fixture", lambda path: (load_fixture(path), path), lambda _: (shipped_fixture(stem), stem), shipped_fixture_names)
    if getattr(args, "ziegler", None):
        _require_simple(m, "--ziegler")
        h0 = _resolve_hyperplane(m.arrangement, args.ziegler)
        name = f"Ziegler restriction of {name} at {m.arrangement.labels[h0]}"
        m = ziegler_multiplicity(m.arrangement, h0)
    return m, name


_ROOT_LABEL = re.compile(r"^H_\{(\d+),(\d+)\}\((.*)\)$")
_COORD_LABEL = re.compile(r"^H_(\d+)$")


def _resolve_hyperplane(arr: Arrangement, token: str) -> int:
    """Hyperplane index from a label, a 1-based position, or H-notation.

    H_i and H_{i,j}(expr) are resolved through the form they denote
    (x_i, respectively x_i - expr * x_j), so any spelling of the scalar
    works, not just the printed one.
    """
    try:
        return arr.index_of_label(token)
    except KeyError:
        pass
    if token.isdecimal():
        pos = int(token)
        if not 1 <= pos <= arr.n:
            raise CommandError(f"hyperplane position {pos} out of range 1..{arr.n}")
        return pos - 1
    order = arr.zeta_order
    m = _COORD_LABEL.match(token)
    if m:
        i = int(m.group(1))
        if not 1 <= i <= arr.dim:
            raise CommandError(f"{token}: coordinate out of range 1..{arr.dim}")
        coeffs = [one(order) if c == i - 1 else zero(order) for c in range(arr.dim)]
    else:
        m = _ROOT_LABEL.match(token)
        if not m:
            raise CommandError(
                f"cannot resolve hyperplane {token!r}: not a label of the input, "
                f"a 1-based position, or H_i / H_{{i,j}}(expr) notation"
            )
        i, j = int(m.group(1)), int(m.group(2))
        if not (1 <= i <= arr.dim and 1 <= j <= arr.dim and i != j):
            raise CommandError(f"{token}: coordinate pair out of range")
        try:
            s = parse_scalar(m.group(3), order)
        except ScalarParseError as exc:
            raise CommandError(f"{token}: {exc}") from None
        coeffs = [zero(order) for _ in range(arr.dim)]
        coeffs[i - 1] = one(order)
        coeffs[j - 1] = -s
    try:
        return arr.index_of_form(linear_form(coeffs))
    except KeyError:
        raise CommandError(f"{token}: no such hyperplane in the input") from None


def _progress(label: str):
    def hook(n: int) -> None:
        print(f"{label}: {n} states explored", file=sys.stderr)

    return hook


def _emit(args, status: str, payload: dict, human: str) -> int:
    if args.json:
        doc = {"status": status, "payload": payload}
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(human if human.endswith("\n") else human + "\n")
    return {"ok": 0, "refuted": 2, "unknown": 3}.get(status, 1)


# ---------------------------------------------------------------- commands


def _cmd_lattice(args) -> int:
    m, name = _load_input(args)
    arr = m.arrangement
    try:
        flats = intersection_lattice(arr, args.max_rank)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    counts: dict[str, int] = {}
    listing = []
    for f in flats:
        counts[str(f.rank)] = counts.get(str(f.rank), 0) + 1
        listing.append({"rank": f.rank, "hyperplanes": [arr.labels[i] for i in f.closed]})
    payload = {"input": name, "dim": arr.dim, "hyperplanes": arr.n, "counts": counts, "flats": listing}
    lines = [f"{name}: {arr.n} hyperplanes in dimension {arr.dim}"]
    lines.append("flats per rank: " + ", ".join(f"{r}: {counts[r]}" for r in sorted(counts, key=int)))
    for entry in listing:
        label = " ".join(entry["hyperplanes"]) or "(whole space)"
        lines.append(f"  rank {entry['rank']}: {label}")
    return _emit(args, "ok", payload, "\n".join(lines))


def _poly_text(coeffs: tuple[int, ...]) -> str:
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        term = "t" if power == 1 else f"t^{power}" if power else ""
        mag = "" if abs(c) == 1 and term else str(abs(c))
        piece = mag + ("*" if mag and term else "") + term
        parts.append(("- " if c < 0 else "+ ") + piece)
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text


def _cmd_charpoly(args) -> int:
    m, name = _load_input(args)
    coeffs = characteristic_polynomial(m.arrangement)
    exps = free_exponents_from_charpoly(m.arrangement)
    payload = {
        "input": name,
        "coefficients": list(coeffs),
        "exponents": list(exps) if exps is not None else None,
    }
    human = f"chi({name}; t) = {_poly_text(coeffs)}"
    if exps is not None:
        human += "\nsplits over Z with exponents {" + ", ".join(map(str, exps)) + "}"
    else:
        human += "\ndoes not split into integer linear factors"
    return _emit(args, "ok", payload, human)


def _cmd_restriction(args) -> int:
    m, name = _load_input(args)
    h0 = _resolve_hyperplane(m.arrangement, args.h0)
    if args.command == "ziegler":
        result = ziegler_multiplicity(m.arrangement, h0)
        what = "Ziegler restriction (underlying arrangement)"
    else:
        result = euler_multiplicity(m, h0)
        what = "Euler restriction"
    header = f"{what} of {name} at {m.arrangement.labels[h0]}"
    if not result.arrangement.n:
        raise CommandError(f"the {header} has no hyperplanes, which no fixture can hold; indfree --ziegler H0 decides it")
    text = format_fixture(result, header)
    payload = {
        "input": name,
        "h0": m.arrangement.labels[h0],
        "fixture": text,
        "multiplicities": list(result.mult),
        "total": result.total,
    }
    return _emit(args, "ok", payload, text)


def _require_simple(m: MultiArrangement, why: str) -> None:
    if set(m.mult) != {1}:
        raise CommandError(f"{why} needs a simple input (all multiplicities 1); got {sorted(set(m.mult))}")


def _cmd_indfree(args) -> int:
    m, name = _load_input(args)
    rep = is_inductively_free(m, args.budget, _progress(f"indfree {name}"))
    status = {"yes": "ok", "no": "refuted", "unknown": "unknown"}[rep.verdict]
    payload = {"input": name, "nodes": rep.nodes, **certificate(rep)}
    if rep.verdict == "yes":
        human = f"{name}: inductively free, exponents {{{', '.join(map(str, sorted(rep.exponents)))}}}\n"
        human += emit_induction_table(rep)
    elif rep.verdict == "no":
        human = f"{name}: not inductively free (exhausted {rep.nodes} reachable states)"
    else:
        human = f"{name}: undecided within the budget of {args.budget} states"
    return _emit(args, status, payload, human)


def _cmd_hereditary(args) -> int:
    m, name = _load_input(args)
    _require_simple(m, "hereditary")
    rep = hereditarily_inductively_free(m.arrangement, args.budget, _progress(f"hereditary {name}"))
    status = {"yes": "ok", "no": "refuted", "unknown": "unknown"}[rep.verdict]
    failed = (
        [m.arrangement.labels[i] for i in rep.failed_flat.closed] if rep.failed_flat is not None else None
    )
    payload = {"input": name, "verdict": rep.verdict, "checked": rep.checked, "failed_flat": failed}
    if rep.verdict == "yes":
        human = f"{name}: hereditarily inductively free ({rep.checked} arrangements checked)"
    elif failed is not None:
        human = f"{name}: restriction to {{{' '.join(failed)}}} is not inductively free"
    else:
        human = f"{name}: the arrangement itself fails ({rep.verdict})"
    return _emit(args, status, payload, human)


def _cmd_refute(args) -> int:
    m, name = _load_input(args)
    try:
        exps = tuple(int(tok) for tok in args.exponents.replace(",", " ").split())
    except ValueError:
        raise CommandError(f"--exponents {args.exponents!r}: need integers") from None
    try:
        rep = additive_refuter(m, exps, args.budget, _progress(f"refute {name}"))
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    status = {"chain_found": "ok", "refuted": "refuted", "unknown": "unknown"}[rep.verdict]
    payload = {"input": name, "exponents": sorted(exps), **rep._asdict()}
    want = "{" + ", ".join(map(str, sorted(exps))) + "}"
    if rep.verdict == "chain_found":
        human = (
            f"{name}: a free filtration compatible with {want} exists "
            f"(additive freeness NOT refuted)\naddition order: {' '.join(rep.chain)}"
        )
    elif rep.verdict == "refuted":
        gate = f"; b2 = {rep.b2} != e2 = {e2(exps)}" if rep.b2 != e2(exps) else ""
        human = (
            f"{name}: no free filtration realizes {want}; not additively free "
            f"({rep.explored} states, {rep.dead_ends} dead ends{gate})"
        )
    else:
        human = f"{name}: undecided within the budget of {args.budget} states"
    return _emit(args, status, payload, human)


def _cmd_table(args) -> int:
    source = args.replay
    doc = _resolve(source, "table", lambda path: json.loads(Path(path).read_text(encoding="utf-8")), shipped_table, shipped_table_names)
    if isinstance(doc, dict) and "payload" in doc:  # a --json indfree result
        doc = doc["payload"]
    # the shape first: a document that is not an object names no fixture
    problem = table_shape_error(doc)
    if problem is not None:
        raise CommandError(f"{source}: {problem}")
    named = doc.get("fixture") or doc.get("input")
    if not (args.spec or args.fixture):
        if not isinstance(named, str):
            raise CommandError("the table does not name its fixture; pass --fixture/--spec")
        try:
            parse_spec_string(named)
            args.spec = named
        except ValueError:
            args.fixture = named
    m, name = _load_input(args)
    try:
        rows, final = replay_table(m, doc, args.budget)
    except BudgetExceeded:
        return _emit(args, "unknown", {"input": name, "table": source}, f"{source}: undecided within the budget of {args.budget} states")
    except ValueError as exc:
        raise CommandError(f"{source}: {exc}") from None
    payload = {
        "input": name,
        "table": source,
        "rows": len(rows),
        "final_exponents": list(final),
    }
    human = (
        f"{source}: {len(rows)} rows replayed against {name}; "
        f"final exponents {{{', '.join(map(str, final))}}}"
    )
    return _emit(args, "ok", payload, human)


def _cmd_verify_paper(args) -> int:
    only = None
    if args.only:
        only = [tok for chunk in args.only for tok in chunk.split(",")]
    try:
        results = run_all(only=only)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    all_passed = all(r.passed for r in results)
    payload = {
        "results": [
            {"check": r.check, "name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all_passed,
    }
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"check {r.check:>2} {r.name:<20} {mark}  ({r.seconds:6.1f}s)  {r.detail}")
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    status = "ok" if all_passed else "error"
    return _emit(args, status, payload, "\n".join(lines))


# ---------------------------------------------------------------- wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="multiarr",
        description="Exact computation with hyperplane multiarrangements.",
        epilog=EXTERNAL_DATA_NOTE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, search: bool = False, h0: bool = False, ziegler: bool = False):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--json", action="store_true", help="machine-readable output, byte-stable per input")
        g = p.add_mutually_exclusive_group()
        g.add_argument("--spec", metavar="A:r:l:k", help="intermediate arrangement, e.g. A:3:3:0")
        g.add_argument("--fixture", metavar="NAME|PATH|-", help="fixture file, shipped fixture name, or - for stdin")
        if search:
            p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, metavar="N", help="search state budget")
        if h0:
            p.add_argument("--h0", required=True, metavar="H", help="hyperplane: label, 1-based position, or H_{i,j}(expr)")
        if ziegler:
            p.add_argument("--ziegler", metavar="H0", help="first take the Ziegler restriction of the (simple) input at H0")
        return p

    p = add("lattice", "flats of the intersection lattice, counts per rank")
    p.add_argument("--max-rank", type=int, default=None, metavar="R", help="list flats of rank <= R only")
    p.set_defaults(fn=_cmd_lattice)

    p = add("charpoly", "characteristic polynomial, with integer roots when it splits")
    p.set_defaults(fn=_cmd_charpoly)

    p = add("ziegler", "Ziegler restriction (A'', kappa) at a hyperplane, as a fixture", h0=True)
    p.set_defaults(fn=_cmd_restriction)

    p = add("euler", "Euler restriction (A'', mu*) at a hyperplane, as a fixture", h0=True)
    p.set_defaults(fn=_cmd_restriction)

    p = add("indfree", "decide inductive freeness; prints the addition table on yes", search=True, ziegler=True)
    p.set_defaults(fn=_cmd_indfree)

    p = add("hereditary", "inductive freeness of a simple arrangement and all its restrictions", search=True)
    p.set_defaults(fn=_cmd_hereditary)

    p = add("refute", "search for a free filtration with the given exponents; exhaustion refutes additive freeness", search=True, ziegler=True)
    p.add_argument("--exponents", required=True, metavar="LIST", help="comma- or space-separated, one per dimension, summing to |mu|")
    p.set_defaults(fn=_cmd_refute)

    p = add("table", "replay an addition table (a shipped one, or indfree --json output) against its fixture", search=True, ziegler=True)
    p.add_argument("--replay", required=True, metavar="NAME|PATH", help="table file, indfree --json output, or shipped table name")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify-paper", help="run the bundled acceptance checks", description="Run the bundled acceptance checks; any failure makes the exit code nonzero.")
    p.add_argument("--json", action="store_true", help="machine-readable output, byte-stable per input")
    p.add_argument("--only", action="append", metavar="IDS", help="subset of checks, by number or name fragment (repeatable, comma-separable)")
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
