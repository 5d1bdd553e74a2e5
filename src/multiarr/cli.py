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
    parse_fixture,
    parse_spec_string,
    shipped_fixture,
    shipped_fixture_names,
    shipped_table,
    shipped_table_names,
)
from .induction import (
    DEFAULT_BUDGET,
    additive_refuter,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    replay_addition_rows,
    table_rows,
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


def _load_input(args) -> tuple[MultiArrangement, str]:
    """The (multiarrangement, display name) named by --spec/--fixture."""
    if getattr(args, "spec", None):
        try:
            spec = parse_spec_string(args.spec)
        except ValueError as exc:
            raise CommandError(str(exc)) from None
        return simple_multi(intermediate(spec)), str(spec)
    token = getattr(args, "fixture", None)
    if not token:
        raise CommandError("need an input: --spec A:r:l:k or --fixture NAME|PATH|-")
    if token == "-":
        try:
            return parse_fixture(sys.stdin.read()), "<stdin>"
        except FixtureError as exc:
            raise CommandError(f"stdin: {exc}") from None
    path = Path(token)
    if path.exists():
        try:
            return parse_fixture(path.read_text(encoding="utf-8")), token
        except FixtureError as exc:
            raise CommandError(f"{token}: {exc}") from None
    name = token[: -len(".arr")] if token.endswith(".arr") else token
    try:
        return shipped_fixture(name), name
    except KeyError:
        raise CommandError(
            f"{token!r} is neither a file nor a shipped fixture; shipped: "
            + ", ".join(shipped_fixture_names())
        ) from None


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
    if token.isdigit():
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
    flats = intersection_lattice(arr, args.max_rank)
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


def _restriction_command(args, kind: str) -> int:
    m, name = _load_input(args)
    h0 = _resolve_hyperplane(m.arrangement, args.h0)
    if kind == "ziegler":
        result = ziegler_multiplicity(m.arrangement, h0)
        what = "Ziegler restriction (underlying arrangement)"
    else:
        result = euler_multiplicity(m, h0)
        what = "Euler restriction"
    header = f"{what} of {name} at {m.arrangement.labels[h0]}"
    text = format_fixture(result, header)
    payload = {
        "input": name,
        "h0": m.arrangement.labels[h0],
        "fixture": text,
        "multiplicities": list(result.mult),
        "total": result.total,
    }
    return _emit(args, "ok", payload, text)


def _cmd_ziegler(args) -> int:
    return _restriction_command(args, "ziegler")


def _cmd_euler(args) -> int:
    return _restriction_command(args, "euler")


def _require_simple(m: MultiArrangement, why: str) -> None:
    if set(m.mult) != {1}:
        raise CommandError(f"{why} needs a simple input (all multiplicities 1); got {sorted(set(m.mult))}")


def _cmd_indfree(args) -> int:
    m, name = _load_input(args)
    if args.ziegler:
        _require_simple(m, "--ziegler")
        h0 = _resolve_hyperplane(m.arrangement, args.ziegler)
        name = f"Ziegler restriction of {name} at {m.arrangement.labels[h0]}"
        m = ziegler_multiplicity(m.arrangement, h0)
    rep = is_inductively_free(m, args.budget, _progress(f"indfree {name}"))
    status = {"yes": "ok", "no": "refuted", "unknown": "unknown"}[rep.verdict]
    payload = {
        "input": name,
        "verdict": rep.verdict,
        "exponents": sorted(rep.exponents) if rep.exponents else None,
        "nodes": rep.nodes,
        "base": [[label, mult] for label, mult in rep.base],
        "start_exponents": list(rep.base_exponents) if rep.base_exponents else None,
        "rows": table_rows(rep),
    }
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
    if args.ziegler:
        _require_simple(m, "--ziegler")
        h0 = _resolve_hyperplane(m.arrangement, args.ziegler)
        name = f"Ziegler restriction of {name} at {m.arrangement.labels[h0]}"
        m = ziegler_multiplicity(m.arrangement, h0)
    try:
        exps = tuple(int(tok) for tok in args.exponents.replace(",", " ").split())
    except ValueError:
        raise CommandError(f"--exponents {args.exponents!r}: need integers") from None
    try:
        rep = additive_refuter(m, exps, args.budget, _progress(f"refute {name}"))
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    status = {"chain_found": "ok", "refuted": "refuted", "unknown": "unknown"}[rep.verdict]
    payload = {
        "input": name,
        "exponents": sorted(exps),
        "verdict": rep.verdict,
        "explored": rep.explored,
        "dead_ends": rep.dead_ends,
        "max_depth": rep.max_depth,
        "chain": list(rep.chain) if rep.chain is not None else None,
        "dead_end_digests": list(rep.dead_end_digests),
        "digests_truncated": rep.digests_truncated,
    }
    want = "{" + ", ".join(map(str, sorted(exps))) + "}"
    if rep.verdict == "chain_found":
        human = (
            f"{name}: a free filtration compatible with {want} exists "
            f"(additive freeness NOT refuted)\naddition order: {' '.join(rep.chain)}"
        )
    elif rep.verdict == "refuted":
        human = (
            f"{name}: no free filtration realizes {want}; not additively free "
            f"({rep.explored} states, {rep.dead_ends} dead ends)"
        )
    else:
        human = f"{name}: undecided within the budget of {args.budget} states"
    return _emit(args, status, payload, human)


def _cmd_table(args) -> int:
    if args.replay or args.shipped_table:
        if args.shipped_table:
            try:
                doc = shipped_table(args.shipped_table)
            except KeyError:
                raise CommandError(
                    f"no shipped table {args.shipped_table!r}; shipped: " + ", ".join(shipped_table_names())
                ) from None
            source = args.shipped_table
        else:
            path = Path(args.replay)
            if not path.exists():
                raise CommandError(f"{args.replay}: no such file")
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise CommandError(f"{args.replay}: {exc}") from None
            if isinstance(doc, dict) and "payload" in doc:  # a --json indfree result
                doc = doc["payload"]
            source = args.replay
        named = doc.get("fixture") or doc.get("input")
        if getattr(args, "spec", None) or getattr(args, "fixture", None):
            m, name = _load_input(args)
        elif isinstance(named, str):
            try:
                parse_spec_string(named)
                args.spec = named
            except ValueError:
                args.fixture = named
            m, name = _load_input(args)
        else:
            raise CommandError("the table does not name its fixture; pass --fixture/--spec")
        start = doc.get("start_exponents")
        rows = doc.get("rows")
        if start is None or rows is None:
            raise CommandError(f"{source}: need 'start_exponents' and 'rows'")
        rows = [(tuple(a), lab, tuple(b)) for a, lab, b in rows]
        try:
            final = replay_addition_rows(m, tuple(start), rows)
        except (ValueError, KeyError) as exc:
            raise CommandError(f"{source}: replay failed: {exc}") from None
        expected = doc.get("final_exponents")
        if expected is not None and tuple(sorted(expected)) != final:
            raise CommandError(f"{source}: replay ends at {final}, table claims {tuple(sorted(expected))}")
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

    m, name = _load_input(args)
    rep = is_inductively_free(m, args.budget, _progress(f"table {name}"))
    if rep.verdict != "yes":
        raise CommandError(f"{name}: no table, verdict is {rep.verdict}")
    payload = {
        "input": name,
        "start_exponents": list(rep.base_exponents),
        "final_exponents": sorted(rep.exponents),
        "rows": table_rows(rep),
    }
    return _emit(args, "ok", payload, emit_induction_table(rep))


def _cmd_verify_paper(args) -> int:
    only = None
    if args.only:
        only = [tok for chunk in args.only for tok in chunk.split(",") if tok]
    try:
        results = run_all(only=only, threads=args.threads)
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
        if name != "verify-paper":
            g = p.add_mutually_exclusive_group()
            g.add_argument("--spec", metavar="A:r:l:k", help="intermediate arrangement, e.g. A:3:3:0")
            g.add_argument("--fixture", metavar="NAME|PATH|-", help="fixture file, shipped fixture name, or - for stdin")
        if search:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N", help="search state budget")
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
    p.set_defaults(fn=_cmd_ziegler)

    p = add("euler", "Euler restriction (A'', mu*) at a hyperplane, as a fixture", h0=True)
    p.set_defaults(fn=_cmd_euler)

    p = add("indfree", "decide inductive freeness; prints the addition table on yes", search=True, ziegler=True)
    p.set_defaults(fn=_cmd_indfree)

    p = add("hereditary", "inductive freeness of a simple arrangement and all its restrictions", search=True)
    p.set_defaults(fn=_cmd_hereditary)

    p = add("refute", "search for a free filtration with the given exponents; exhaustion refutes additive freeness", search=True, ziegler=True)
    p.add_argument("--exponents", required=True, metavar="LIST", help="comma- or space-separated, one per dimension, summing to |mu|")
    p.set_defaults(fn=_cmd_refute)

    p = add("table", "emit an addition table, or replay one against its fixture", search=True)
    p.add_argument("--replay", metavar="FILE", help="JSON table or indfree --json output to replay")
    p.add_argument("--shipped-table", metavar="NAME", help="replay a table shipped with the package")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify-paper", help="run the bundled acceptance checks", description="Run the bundled acceptance checks; any failure makes the exit code nonzero.")
    p.add_argument("--json", action="store_true", help="machine-readable output, byte-stable per input")
    p.add_argument("--only", action="append", metavar="IDS", help="subset of checks, by number or name fragment (repeatable, comma-separable)")
    p.add_argument("--threads", type=int, default=1, metavar="N", help="fan checks out over a thread pool; the report is thread-count invariant")
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
