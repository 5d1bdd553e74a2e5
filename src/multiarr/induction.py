"""Inductive-freeness decisions, certificates, tables, and refutation.

The decision procedure follows the recursive definition: a
multiarrangement of rank <= 2 (or empty) is inductively free; otherwise
it is inductively free iff some hyperplane H0 admits an addition triple
whose deletion and Euler restriction are both inductively free with
exp(restriction) contained in exp(deletion).  Unrolled, that says: the
multiplicity vector is reachable from the zero vector by single
increments each of which passes the addition check.  The search
therefore walks chains upward from the zero vector, which keeps the
exponents of every frontier state known (exponents of a free
multiarrangement are unique), so validating an edge costs one Euler
restriction instead of a blind recursive subtree.  Candidates at each
state are ordered by descending multiplicity deficit (ties: lighter
target first, then index), and a memo keyed by the canonical (forms,
multiplicities) content makes verdicts independent of the call path.
That key, :func:`.arrangement.state_key`, reads each form as integer
(numerators, denominator) pairs, which is exact because scalars are
stored in lowest terms, and equal for equal forms of different
arrangements, so restrictions share the memo too.  The memo belongs to a
:class:`Session`, which holds only proven search facts: calls that
share a session share their verdicts, and a call without one starts a
fresh session, so its node count depends only on its input.  What is
derived from one arrangement (form keys in :mod:`.arrangement`, Euler
values and planes in :mod:`.rank2`) lives in module caches keyed by it.

Positive answers carry a replayable chain of addition steps; negative
answers are exhaustive (the whole reachable set below the target was
explored); a node budget bounds the search and exhaustion yields the
verdict "unknown", never a silent wrong answer.

The additive-freeness refuter first checks b2 = e2 of the exponents,
then walks deletion chains with "virtual exponents": a deletion at H is
admissible only when the Euler restriction size |mu*| equals the sum of
all but one virtual exponent, and that leftover exponent is lowered by
one.  If no chain reaches the empty multiarrangement the input admits
no free filtration at all, so it is not additively free (and in
particular not inductively free).

Both run on one depth-first walk, ``_Engine.walk``, which spends the
budget, keeps the dead set and returns the path to the first goal; each
supplies only its edges: valid additions carrying the exponents of the
state they enter, and size-passing deletions.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, NamedTuple

from .arrangement import (
    Arrangement,
    Flat,
    MultiArrangement,
    form_keys,
    intersection_lattice,
    localize_multi,
    multi,
    rank_of,
    restriction,
    simple_multi,
    state_key,
)
from .rank2 import euler_multiplicity, euler_pattern, local_b2, low_rank_exponents, padded, rank2_exponents

__all__ = [
    "BudgetExceeded",
    "HereditaryReport",
    "InductionReport",
    "InductionStep",
    "ObstructionReport",
    "RefutationReport",
    "Session",
    "additive_refuter",
    "certificate",
    "check_addition_step",
    "e2",
    "emit_induction_table",
    "hereditarily_inductively_free",
    "is_inductively_free",
    "localization_obstruction",
    "replay_addition_rows",
    "replay_table",
    "table_shape_error",
]

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(Exception):
    """Raised when the node budget is spent: inside a search, and out of a replay."""


def check_addition_step(before: tuple[int, ...], restricted: tuple[int, ...]) -> tuple[int, ...] | None:
    """Combine exp(A', mu') and exp(A'', mu*) into exp(A, mu), or None.

    The restriction exponents must be contained in the deletion
    exponents as multisets; the single leftover value b then bumps to
    b + 1:

    >>> check_addition_step((1, 6, 7), (6, 7))
    (2, 6, 7)
    >>> check_addition_step((1, 6, 7), (1, 7))
    (1, 7, 7)
    >>> check_addition_step((1, 6, 7), (6, 6)) is None
    True
    """
    if len(restricted) != len(before) - 1:
        raise ValueError("restriction exponents must have one entry fewer")
    leftover = list(before)
    for v in restricted:
        try:
            leftover.remove(v)
        except ValueError:
            return None
    assert len(leftover) == 1
    return tuple(sorted(restricted + (leftover[0] + 1,)))


class Session:
    """Search memo shared by every call that is handed the same session.

    ``yes`` maps a canonical state key to its exponents, the form key of
    the addition that proved it and the exponents of the Euler
    restriction that addition checked, or to (exponents, None, None) for
    a chain base; ``no`` holds the keys proven not inductively free.
    Both only ever gain proven facts, so sharing a session changes node
    counts and which certificate is found, never a verdict.  Keys and
    additions name forms by form key, not index, and restriction
    exponents depend only on content, so an entry written in one
    arrangement is read in another of equal content and other hyperplane
    order.
    """

    def __init__(self) -> None:
        self.yes: dict[tuple, tuple[tuple[int, ...], tuple | None, tuple[int, ...] | None]] = {}
        self.no: set[tuple] = set()


class _Engine:
    __slots__ = ("session", "budget", "progress", "nodes")

    def __init__(self, session: Session, budget: int, progress: Callable[[int], None] | None = None) -> None:
        self.session = session
        self.budget = budget
        self.progress = progress
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded
        if self.progress is not None and self.nodes % 1000 == 0:
            self.progress(self.nodes)

    def walk(self, root, children, is_goal, dead: set):
        """The (step, node) path from the (step, node) pair ``root`` to the first goal, or None.

        ``children(step, node)`` yields the (step, child) edges out of an
        entered node and is taken lazily.  Each node entered spends one
        unit of budget; a goal is returned without being entered, and a
        node whose children run out moves to ``dead``, never to be
        entered again.  The graph is acyclic, so no child is on the stack.
        """
        if is_goal(root[1]):
            return []
        self.spend()
        stack = [(root, iter(children(*root)))]
        while stack:
            for step, node in stack[-1][1]:
                if node in dead:
                    continue
                if is_goal(node):
                    return [entry for entry, _ in stack[1:]] + [(step, node)]
                self.spend()
                stack.append(((step, node), iter(children(step, node))))
                break
            else:
                dead.add(stack.pop()[0][1])
        return None

    def restriction_exponents(self, arr: Arrangement, h0: int, restricted: tuple[int, ...]) -> tuple[int, ...] | None:
        """Exponents (padded to dim-1) of the Euler restriction, or None if it is not inductively free.

        ``restricted`` is ``euler_pattern(arr, h0).values(state)``, a state
        of the restricted arrangement; rank <= 2 spends no node.
        """
        sub = euler_pattern(arr, h0).arrangement
        exps = low_rank_exponents(sub, restricted)
        return exps if exps is not None else self.decide(sub, restricted)

    def decide(self, arr: Arrangement, target: tuple[int, ...]) -> tuple[int, ...] | None:
        """Exponents of the target state, or None when it is not inductively free."""
        yes, no = self.session.yes, self.session.no
        key = state_key(arr, target)
        hit = yes.get(key)
        if hit is not None:
            return hit[0]
        if key in no:
            return None
        exps = low_rank_exponents(arr, target)
        if exps is not None:
            self.spend()
            yes[key] = (exps, None, None)
            return exps

        # Chains grow upward from the zero vector inside the box 0 <= x <= target;
        # a step carries the exponents of the state it enters, so each edge
        # needs one restriction solve.  An edge rejected from one parent
        # stays available from others.
        dead: set[tuple[int, ...]] = set()

        def additions(x_exps: tuple[int, ...], x: tuple[int, ...]):
            """(exponents of y, y) of each valid addition x -> y, in candidate order.

            Largest deficit first, light planes before heavy ones on ties,
            then index: balanced growth mirrors how certificate chains for
            the known restriction multiarrangements proceed (a sweep of
            single additions first, the heavily weighted planes topped up
            last); a greedy unbalanced prefix tends to strand the walk in
            dead-end corridors and makes the search orders of magnitude slower.
            """
            # the support only grows along an addition, so rank >= 3 at x stays at every y
            low = low_rank_exponents(arr, x) is not None
            for h in sorted((i for i in range(arr.n) if x[i] < target[i]), key=lambda i: (x[i] - target[i], target[i], i)):
                y = x[:h] + (x[h] + 1,) + x[h + 1 :]
                if y in dead:
                    continue
                y_key = state_key(arr, y)
                prior = yes.get(y_key)
                if prior is not None:
                    y_exps = prior[0]
                elif low and (y_exps := low_rank_exponents(arr, y)) is not None:
                    yes[y_key] = (y_exps, None, None)
                else:
                    # sound size prefilter: exps(y) = exps(restriction) + {b + 1},
                    # where the leftover b = |mu_x| - |mu*| must be in exps(x)
                    restricted = euler_pattern(arr, h).values(y)
                    if sum(x) - sum(restricted) not in x_exps:
                        continue
                    r_exps = self.restriction_exponents(arr, h, restricted)
                    if r_exps is None or (y_exps := check_addition_step(x_exps, r_exps)) is None:
                        continue
                    yes[y_key] = (y_exps, form_keys(arr)[h], r_exps)
                yield y_exps, y

        path = self.walk(((0,) * arr.dim, (0,) * arr.n), additions, target.__eq__, dead)
        if path is None:
            no.add(key)
            return None
        return path[-1][0]


class InductionStep(NamedTuple):
    """One addition step of a certificate chain, which is its table row.

    ``exponents_before`` belong to the state without the added
    hyperplane, ``restriction_exponents`` to the Euler restriction of
    the state after the addition at that hyperplane.
    """

    exponents_before: tuple[int, ...]
    label: str
    restriction_exponents: tuple[int, ...]


class InductionReport(NamedTuple):
    verdict: str  # "yes" | "no" | "unknown"
    exponents: tuple[int, ...] | None
    steps: tuple[InductionStep, ...]
    base: tuple[tuple[str, int], ...]
    base_exponents: tuple[int, ...] | None
    nodes: int


def is_inductively_free(
    m: MultiArrangement,
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
    *,
    session: Session | None = None,
) -> InductionReport:
    """Decide inductive freeness, with a replayable certificate on Yes.

    The verdict "no" is exhaustive: every addition chain below the
    target multiplicity was explored (with memoization).  When the node
    budget runs out the verdict is "unknown".  Calls that pass the same
    ``session`` reuse each other's verdicts; without one the call gets a
    fresh session.
    """
    if session is None:
        session = Session()
    arr = m.arrangement
    engine = _Engine(session, budget, progress)
    state = m.mult
    try:
        exps = engine.decide(arr, state)
    except BudgetExceeded:
        return InductionReport("unknown", None, (), (), None, engine.nodes)
    if exps is None:
        return InductionReport("no", None, (), (), None, engine.nodes)

    # Each row is the memo entry its addition wrote: no search, no budget spent.
    yes = session.yes
    steps: list[InductionStep] = []
    cur = state
    while True:
        cur_exps, h0_key, r_exps = yes[state_key(arr, cur)]
        if h0_key is None:
            break
        h0 = form_keys(arr).index(h0_key)
        cur = cur[:h0] + (cur[h0] - 1,) + cur[h0 + 1 :]
        steps.append(InductionStep(yes[state_key(arr, cur)][0], arr.labels[h0], r_exps))
    steps.reverse()
    base = tuple((arr.labels[i], mu) for i, mu in enumerate(cur) if mu)
    return InductionReport("yes", exps, tuple(steps), base, cur_exps, engine.nodes)


class ObstructionReport(NamedTuple):
    """Result of scanning localizations for an inductive-freeness failure."""

    verdict: str  # "obstructed" | "clear" | "unknown"
    flat: Flat | None
    scanned: int


def localization_obstruction(m: MultiArrangement, budget: int = DEFAULT_BUDGET) -> ObstructionReport:
    """First rank-3 flat (canonical order) whose localization is not inductively free.

    Inductive freeness passes to localizations, so a single obstructed
    flat decides the whole multiarrangement negatively.  Flats of rank
    <= 2 are always clear and are skipped.
    """
    session = Session()
    scanned = 0
    unknown = False
    for flat in intersection_lattice(m.arrangement, 3):
        if flat.rank < 3:
            continue
        scanned += 1
        report = is_inductively_free(localize_multi(m, flat), budget, session=session)
        if report.verdict == "no":
            return ObstructionReport("obstructed", flat, scanned)
        unknown = unknown or report.verdict == "unknown"
    return ObstructionReport("unknown" if unknown else "clear", None, scanned)


class HereditaryReport(NamedTuple):
    verdict: str  # "yes" | "no" | "unknown"
    failed_flat: Flat | None
    checked: int


def hereditarily_inductively_free(
    arr: Arrangement,
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
) -> HereditaryReport:
    """Simple arrangement plus every proper restriction, all inductively free.

    The arrangement is its own restriction to the rank-0 flat, the first
    of the lattice, so one loop decides it first and ``failed_flat`` is
    None when it is the one that fails.  Restrictions are taken with
    simple multiplicity; chains starting at a simple multiarrangement
    only visit simple states, so this agrees with the classical notion
    for simple arrangements.
    """
    session = Session()
    for checked, flat in enumerate(intersection_lattice(arr, max(rank_of(arr) - 1, 0)), 1):
        res = restriction(arr, flat).arrangement
        report = is_inductively_free(simple_multi(res), budget, progress, session=session)
        if report.verdict != "yes":
            return HereditaryReport(report.verdict, flat if flat.rank else None, checked)
    return HereditaryReport("yes", None, checked)


class RefutationReport(NamedTuple):
    verdict: str  # "refuted" | "chain_found" | "unknown"
    explored: int
    dead_ends: int
    max_depth: int
    chain: tuple[str, ...] | None
    dead_end_digests: tuple[str, ...]
    digests_truncated: bool
    b2: int


_DIGEST_CAP = 10_000


def _digest(arr: Arrangement, state: tuple[int, ...], virtual: tuple[int, ...]) -> str:
    """Hash of a dead end: the text of its :func:`.arrangement.state_key` and
    virtual exponents, so equal content in any hyperplane order hashes alike.

    The builtin ``_sha2`` (``_sha256`` before 3.12) spares it OpenSSL.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(repr((state_key(arr, state), virtual)).encode()).hexdigest()[:16]


def e2(values: Sequence[int]) -> int:
    """The second elementary symmetric polynomial: the sum of v_i * v_j over i < j."""
    return (sum(values) ** 2 - sum(v * v for v in values)) // 2


def additive_refuter(
    m: MultiArrangement,
    exponents: tuple[int, ...] | list[int],
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
) -> RefutationReport:
    """Search for a free filtration compatible with the given exponents.

    An additively free (A, mu) is free with them, so b2 != e2 (:func:`local_b2`)
    refutes at the root, in one state; otherwise :func:`_deletion_walk` decides.
    """
    exps = tuple(sorted(exponents))
    if exps and exps[0] < 0:
        raise ValueError(f"exponents must be >= 0, got {exps[0]}")
    if sum(exps) != m.total:
        raise ValueError(f"exponents sum to {sum(exps)}, |mu| is {m.total}")
    if len(exps) != m.arrangement.dim:
        raise ValueError("need one (possibly zero) exponent per ambient dimension")
    b2 = local_b2(m)
    if b2 == e2(exps):
        return _deletion_walk(m, exps, b2, budget, progress)
    return RefutationReport("refuted" if budget >= 1 else "unknown", 1, 0, 0, None, (), False, b2)


def _deletion_walk(m: MultiArrangement, exps: tuple[int, ...], b2: int, budget: int = DEFAULT_BUDGET, progress=None) -> RefutationReport:
    """The refuter's walk down the deletion chains of (A, mu), for sorted ``exps``.

    Lowering H is admissible only if |mu*| of the Euler restriction at H
    equals the current total minus some virtual exponent v_j >= 1; that
    v_j drops by one.  Reaching the empty multiarrangement yields
    "chain_found" (a candidate filtration, not a freeness proof);
    exhausting all chains yields the sound verdict "refuted".  The
    verdict does not depend on the order of deletions; the chain does.
    ``b2`` is only reported.
    """
    engine = _Engine(Session(), budget, progress)
    arr = m.arrangement
    dead_ends = max_depth = 0
    digests: list[str] = []

    def deletions(_, node: tuple[tuple[int, ...], tuple[int, ...]]):
        """(h, child) of each deletion that passes the size test, in ascending h;
        a state with none is a dead end, recorded as the walk leaves it."""
        nonlocal dead_ends, max_depth
        state, virtual = node
        total = sum(state)
        max_depth = max(max_depth, m.total - total)
        passed = False
        for h, mu in enumerate(state):
            if not mu:
                continue
            target = total - sum(euler_pattern(arr, h).values(state))
            if target < 1 or target not in virtual:
                continue
            passed = True
            # lowering the first copy of target keeps virtual sorted; one arrangement
            # per run, so the raw state is as injective a key as state_key
            i = virtual.index(target)
            yield h, (state[:h] + (mu - 1,) + state[h + 1 :], virtual[:i] + (target - 1,) + virtual[i + 1 :])
        if not passed:
            dead_ends += 1
            if len(digests) < _DIGEST_CAP:
                digests.append(_digest(arr, state, virtual))

    chain = None
    try:
        path = engine.walk((None, (m.mult, exps)), deletions, lambda node: not any(node[0]), set())
        if path is not None:
            # the empty multiarrangement counts as explored, at depth |mu|
            engine.spend()
            max_depth = m.total
            # deletions from the top, reversed into build order
            chain = tuple(arr.labels[h] for h, _ in reversed(path))
        verdict = "refuted" if chain is None else "chain_found"
    except BudgetExceeded:
        verdict = "unknown"
    return RefutationReport(verdict, engine.nodes, dead_ends, max_depth, chain, tuple(digests), dead_ends > len(digests), b2)


def certificate(report: InductionReport) -> dict:
    """A search's answer as a JSON-ready table document, the one :func:`replay_table` reads.

    ``start_exponents`` and ``rows`` [exp', label, exp''] drive the
    replay; ``verdict``, ``exponents`` and ``base`` are claims it checks.
    """
    return {
        "verdict": report.verdict,
        "exponents": sorted(report.exponents) if report.exponents is not None else None,
        "base": [[label, mu] for label, mu in report.base],
        "start_exponents": list(report.base_exponents) if report.base_exponents is not None else None,
        "rows": [[list(before), label, list(restricted)] for before, label, restricted in report.steps],
    }


def emit_induction_table(report: InductionReport) -> str:
    """Render a "yes" certificate as a three-column induction table."""

    def braced(values) -> str:
        return "{" + ", ".join(map(str, values)) + "}"

    header = ("exp(A', mu')", "alpha", "exp(A'', mu*)")
    rows = [(braced(before), label, braced(restricted)) for before, label, restricted in report.steps]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c]) for c in range(3)]
    lines = []
    base_desc = ", ".join(f"{label}:{mu}" for label, mu in report.base) or "(empty)"
    lines.append(f"base [{base_desc}] with exponents {braced(report.base_exponents)}")
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*header))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append(fmt.format(*r))
    lines.append(f"final exponents {braced(report.exponents)}")
    return "\n".join(lines)


def replay_addition_rows(
    m_target: MultiArrangement,
    start_exponents: tuple[int, ...],
    rows: Sequence[tuple[tuple[int, ...], str, tuple[int, ...]]],
    *,
    session: Session | None = None,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, ...]:
    """Validate an addition table against the engine, row by row.

    Starts from the target multiplicity minus all row additions, checks
    the start exponents against the base, applies each row's addition,
    recomputes the Euler restriction of the target's own arrangement at
    the row's hyperplane (``euler_multiplicity``, a state with zeros), and
    checks both printed columns.  The base and every restriction of rank
    <= 2 get their exponents from ``rank2_exponents``; one of higher rank
    must be decided "yes" by a search on ``session`` whose chain is then
    replayed the same way, so each distinct restriction is searched once
    per session, within ``budget`` states or else BudgetExceeded.  A call
    without a session starts a fresh one.  Returns the final exponent
    multiset.  Raises ValueError on the first mismatch.
    """
    if session is None:
        session = Session()
    arr = m_target.arrangement
    state = list(m_target.mult)
    for i, (_, label, _) in enumerate(rows):
        if label not in arr.labels:
            raise ValueError(f"row {i}: no hyperplane labelled {label!r}")
        state[arr.index_of_label(label)] -= 1
    if any(v < 0 for v in state):
        raise ValueError("rows add more than the target multiplicity")
    current = tuple(sorted(start_exponents))
    try:
        base_exps = _replayed_exponents(MultiArrangement(arr, tuple(state)), session, budget)
    except ValueError as exc:
        raise ValueError(f"base: {exc}") from None
    if base_exps != current:
        raise ValueError(f"base: expected exponents {base_exps}, table says {current}")
    for i, (before, label, restricted) in enumerate(rows):
        if tuple(sorted(before)) != current:
            raise ValueError(f"row {i}: expected exponents {current}, table says {tuple(sorted(before))}")
        h0 = arr.index_of_label(label)
        state[h0] += 1
        computed = _replayed_exponents(euler_multiplicity(MultiArrangement(arr, tuple(state)), h0), session, budget)
        if tuple(sorted(restricted)) != computed:
            raise ValueError(f"row {i}: restriction exponents {computed}, table says {tuple(sorted(restricted))}")
        after = check_addition_step(current, computed)
        if after is None:
            raise ValueError(f"row {i}: containment fails: {current} vs {computed}")
        current = after
    return current


def _replayed_exponents(m: MultiArrangement, session: Session, budget: int) -> tuple[int, ...]:
    """exp(m), padded to its dimension, recomputed by a replay; m may hold zeros.

    Support rank <= 2 takes :func:`rank2_exponents`.  Higher rank must be
    inductively free: the replay's session decides it and its chain is replayed.
    """
    if (low := rank2_exponents(m)) is not None:
        return padded(low.exponents, m.arrangement.dim)
    report = is_inductively_free(m, budget, session=session)
    if report.verdict == "unknown":
        raise BudgetExceeded
    if report.verdict != "yes":
        raise ValueError(f"a rank-{rank_of(multi(*m).arrangement)} restriction is not inductively free ({report.verdict})")
    return replay_addition_rows(m, report.base_exponents, report.steps, session=session, budget=budget)


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def table_shape_error(doc) -> str | None:
    """What is malformed about a table document, or None if its shape is right."""
    if not isinstance(doc, dict):
        return f"expected a JSON object, got {type(doc).__name__}"
    start, rows = doc.get("start_exponents"), doc.get("rows")
    if start is None or rows is None:
        return "need 'start_exponents' and 'rows'"
    if not _int_list(start):
        return "'start_exponents' must be a list of integers"
    if not isinstance(rows, list):
        return "'rows' must be a list"
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3 and _int_list(row[0]) and isinstance(row[1], str) and _int_list(row[2])):
            return f"row {i}: expected [exponents, label, exponents]"
    for key in ("final_exponents", "exponents"):
        if doc.get(key) is not None and not _int_list(doc[key]):
            return f"'{key}' must be a list of integers"
    return None


def replay_table(
    m: MultiArrangement, doc, budget: int = DEFAULT_BUDGET
) -> tuple[list[tuple[tuple[int, ...], str, tuple[int, ...]]], tuple[int, ...]]:
    """Replay an addition-table document against m: its rows and final exponents.

    ``doc`` is a JSON object with integer ``start_exponents`` and rows
    ``[exponents, label, exponents]``, as :func:`certificate` writes them.
    Each claim it also makes must hold: the final exponents, as
    ``final_exponents`` or as a certificate's ``exponents`` (both when
    both are given), the ``verdict`` "yes", and the ``base``, m minus the
    rows' additions as [label, multiplicity] pairs in hyperplane order.
    Raises ValueError on a malformed document, a failed replay or a false
    claim, BudgetExceeded when a search of the replay runs past ``budget``.
    """
    problem = table_shape_error(doc)
    if problem is not None:
        raise ValueError(problem)
    rows = [(tuple(a), label, tuple(b)) for a, label, b in doc["rows"]]
    try:
        final = replay_addition_rows(m, tuple(doc["start_exponents"]), rows, budget=budget)
    except ValueError as exc:
        raise ValueError(f"replay failed: {exc}") from None
    for key in ("final_exponents", "exponents"):
        if (expected := doc.get(key)) is not None and tuple(sorted(expected)) != final:
            raise ValueError(f"replay ends at {final}, table claims {tuple(sorted(expected))}")
    if (verdict := doc.get("verdict", "yes")) != "yes":
        raise ValueError(f"the table's verdict {verdict!r} is not its replay's 'yes'")
    if (claimed := doc.get("base")) is not None:
        state = list(m.mult)
        for _, label, _ in rows:
            state[m.arrangement.index_of_label(label)] -= 1
        base = [[label, mu] for label, mu in zip(m.arrangement.labels, state) if mu]
        if claimed != base:
            raise ValueError(f"the table's base {claimed} is not its rows' base {base}")
    return rows, final
