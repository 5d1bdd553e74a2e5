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
target first, then index), and a global memo keyed by the canonical
(forms, multiplicities) content makes verdicts independent of the call
path.

Positive answers carry a replayable chain of addition steps; negative
answers are exhaustive (the whole reachable set below the target was
explored); a node budget bounds the search and exhaustion yields the
verdict "unknown", never a silent wrong answer.

The additive-freeness refuter walks deletion chains with "virtual
exponents": a deletion at H is admissible only when the Euler
restriction size |mu*| equals the sum of all but one virtual exponent,
and that leftover exponent is lowered by one.  If no chain reaches the
empty multiarrangement the input admits no free filtration at all, so
it is not additively free (and in particular not inductively free).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from . import linalg
from .arrangement import (
    Arrangement,
    Flat,
    MultiArrangement,
    hyperplane_flat,
    intersection_lattice,
    localize_multi,
    multi,
    rank_of,
    restriction,
    simple_multi,
)
from .rank2 import canonical_plane, common_value, euler_value_shortcut, plane_coordinates, plane_exponent_pair
from .scalars import Scalar

__all__ = [
    "BudgetExceeded",
    "InductionReport",
    "InductionStep",
    "ObstructionReport",
    "RefutationReport",
    "additive_refuter",
    "check_addition_step",
    "clear_memo",
    "emit_induction_table",
    "hereditarily_inductively_free",
    "is_inductively_free",
    "localization_obstruction",
    "replay_addition_rows",
    "table_rows",
]

DEFAULT_BUDGET = 1_000_000


class BudgetExceeded(Exception):
    """Raised internally when the node budget is spent."""


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


def _padded(values: tuple[int, ...] | list[int], size: int) -> tuple[int, ...]:
    if len(values) > size:
        raise ValueError(f"{len(values)} exponents will not fit in rank {size}")
    return tuple(sorted([0] * (size - len(values)) + list(values)))


# global memo, keyed by canonical content; verdicts are path-independent
_YES: dict[tuple, tuple[tuple[int, ...], tuple | None]] = {}
_NO: set[tuple] = set()


def clear_memo() -> None:
    """Drop the global search memo (mainly for isolating benchmarks)."""
    _YES.clear()
    _NO.clear()


class _Pattern:
    """Restriction data of the full parent arrangement at one hyperplane."""

    __slots__ = ("h0", "res_arr", "groups", "h0_lines", "member_lines", "restricted_keys")

    def __init__(self, ctx: _Context, h0: int) -> None:
        arr = ctx.arr
        self.h0 = h0
        res = restriction(arr, hyperplane_flat(arr, h0))
        self.res_arr = res.arrangement
        groups: list[list[int]] = [[] for _ in range(res.arrangement.n)]
        for parent, target in enumerate(res.trace):
            if target is not None:
                groups[target].append(parent)
        self.groups = tuple(tuple(g) for g in groups)
        # plane coordinates of each rank-2 localization {group + h0}
        self.h0_lines: list[tuple[Scalar, Scalar]] = []
        self.member_lines: list[dict[int, tuple[Scalar, Scalar]]] = []
        h0_form = arr.hyperplanes[h0]
        for members in self.groups:
            rows = [arr.hyperplanes[p].coeffs for p in members] + [h0_form.coeffs]
            *lines, h0_line = plane_coordinates(rows, arr.dim, arr.zeta_order)
            self.h0_lines.append(h0_line)
            self.member_lines.append(dict(zip(members, lines)))
        self.restricted_keys = tuple(f.sort_key() for f in res.arrangement.hyperplanes)


class _Context:
    """Per-arrangement caches shared by every search that touches it."""

    def __init__(self, arr: Arrangement) -> None:
        self.arr = arr
        self.n = arr.n
        self.dim = arr.dim
        self.order = arr.zeta_order
        self.form_keys = tuple(f.sort_key() for f in arr.hyperplanes)
        self.index_of_key = {k: i for i, k in enumerate(self.form_keys)}
        self._patterns: dict[int, _Pattern] = {}
        self._ranks: dict[frozenset[int], int] = {}
        self._euler_values: dict = {}
        self._restr_planes: dict = {}

    def state_key(self, state: tuple[int, ...]) -> tuple:
        content = tuple(sorted((self.form_keys[i], m) for i, m in enumerate(state) if m))
        return (self.dim, self.order, content)

    def support(self, state: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(state) if m)

    def rank(self, support: tuple[int, ...]) -> int:
        key = frozenset(support)
        cached = self._ranks.get(key)
        if cached is None:
            cached = linalg.rank([self.arr.hyperplanes[i].coeffs for i in support], self.dim)
            self._ranks[key] = cached
        return cached

    def pattern(self, h0: int) -> _Pattern:
        pat = self._patterns.get(h0)
        if pat is None:
            pat = _Pattern(self, h0)
            self._patterns[h0] = pat
        return pat

    def euler_values(self, state: tuple[int, ...], h0: int) -> list[tuple[int, int]]:
        """(restricted index, mu*) for the state's Euler restriction at h0."""
        pat = self.pattern(h0)
        m0 = state[h0]
        out: list[tuple[int, int]] = []
        for gid, members in enumerate(pat.groups):
            active = tuple((p, state[p]) for p in members if state[p])
            if not active:
                continue
            key = (h0, gid, m0, active)
            value = self._euler_values.get(key)
            if value is None:
                mults = tuple(m for _, m in active)
                value = euler_value_shortcut(m0, mults)
                if value is None:
                    lines = pat.member_lines[gid]
                    others = tuple((lines[p], m) for p, m in active)
                    value = common_value(pat.h0_lines[gid], m0, others, self.order)
                self._euler_values[key] = value
            out.append((gid, value))
        return out

    def restriction_size(self, state: tuple[int, ...], h0: int) -> int:
        return sum(v for _, v in self.euler_values(state, h0))

    def restricted_plane(self, h0: int, gids: tuple[int, ...]) -> dict[int, tuple[Scalar, Scalar]]:
        """2D coordinates for a rank-2 set of restricted hyperplanes."""
        key = (h0, gids)
        cached = self._restr_planes.get(key)
        if cached is None:
            res_arr = self.pattern(h0).res_arr
            rows = [res_arr.hyperplanes[g].coeffs for g in gids]
            cached = dict(zip(gids, plane_coordinates(rows, res_arr.dim, self.order)))
            self._restr_planes[key] = cached
        return cached


_CONTEXTS: dict[Arrangement, _Context] = {}


def _context(arr: Arrangement) -> _Context:
    ctx = _CONTEXTS.get(arr)
    if ctx is None:
        ctx = _Context(arr)
        _CONTEXTS[arr] = ctx
    return ctx


@dataclass
class _Engine:
    budget: int
    progress: Callable[[int], None] | None = None
    nodes: int = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded
        if self.progress is not None and self.nodes % 1000 == 0:
            self.progress(self.nodes)

    def candidate_order(self, ctx: _Context, x: tuple[int, ...], target: tuple[int, ...]) -> list[int]:
        """Addition candidates at x: largest deficit first, light planes
        before heavy ones on ties, then index.

        Keeping growth balanced mirrors how certificate chains for the
        known restriction multiarrangements proceed (a sweep of single
        additions first, the heavily weighted planes topped up last); a
        greedy unbalanced prefix tends to strand the walk in dead-end
        corridors and makes the search orders of magnitude slower.
        """
        return sorted(
            (i for i in range(ctx.n) if x[i] < target[i]),
            key=lambda i: (x[i] - target[i], target[i], i),
        )

    def low_rank_exponents(self, ctx: _Context, state: tuple[int, ...], support: tuple[int, ...], rk: int) -> tuple[int, ...]:
        if rk == 0:
            return (0,) * ctx.dim
        total = sum(state[i] for i in support)
        if rk == 1:
            return _padded((total,), ctx.dim)
        lines = plane_coordinates([ctx.arr.hyperplanes[i].coeffs for i in support], ctx.dim, ctx.order)
        canonical = canonical_plane(zip(lines, (state[i] for i in support)))
        pair = plane_exponent_pair(canonical, ctx.order)
        return _padded(pair, ctx.dim)

    def restriction_exponents(self, ctx: _Context, state: tuple[int, ...], h0: int) -> tuple[str, tuple[int, ...] | None]:
        """Verdict and exponents (padded to dim-1) of the Euler restriction."""
        pat = ctx.pattern(h0)
        values = ctx.euler_values(state, h0)
        gids = tuple(g for g, _ in values)
        sub_dim = ctx.dim - 1
        if len(gids) == 0:
            return "yes", (0,) * sub_dim
        if len(gids) == 1:
            return "yes", _padded((0, values[0][1]), sub_dim)
        restricted_rank = ctx.rank(ctx.support(state)) - 1
        if restricted_rank <= 2:
            coords = ctx.restricted_plane(h0, gids)
            plane = canonical_plane((coords[g], v) for g, v in values)
            pair = plane_exponent_pair(plane, ctx.order)
            return "yes", _padded(pair, sub_dim)
        # genuine recursion: the restriction still has rank >= 3
        mult = [0] * pat.res_arr.n
        for g, v in values:
            mult[g] = v
        sub = multi(pat.res_arr, mult)
        sub_ctx = _context(sub.arrangement)
        verdict, exps = self.decide(sub_ctx, sub.mult)
        return verdict, exps

    def decide(self, ctx: _Context, target: tuple[int, ...]) -> tuple[str, tuple[int, ...] | None]:
        key = ctx.state_key(target)
        hit = _YES.get(key)
        if hit is not None:
            return "yes", hit[0]
        if key in _NO:
            return "no", None
        support = ctx.support(target)
        rk = ctx.rank(support)
        if rk <= 2:
            self.spend()
            exps = self.low_rank_exponents(ctx, target, support, rk)
            _YES[key] = (exps, None)
            return "yes", exps

        # Chains grow upward from the zero vector inside the box
        # 0 <= x <= target, so every explored state already carries its
        # exponents and each edge needs one restriction solve.
        exps_of: dict[tuple[int, ...], tuple[int, ...]] = {}

        def established(x: tuple[int, ...]) -> tuple[int, ...] | None:
            e = exps_of.get(x)
            if e is None:
                prior = _YES.get(ctx.state_key(x))
                if prior is not None:
                    e = prior[0]
                    exps_of[x] = e
            return e

        def establish(x: tuple[int, ...], exps: tuple[int, ...], pred: tuple | None) -> None:
            exps_of[x] = exps
            _YES.setdefault(ctx.state_key(x), (exps, pred))

        zero = (0,) * ctx.n
        if established(zero) is None:
            establish(zero, (0,) * ctx.dim, None)
        # Lazy depth-first walk: a state's outgoing edges are validated on
        # demand, so a straight descent pays only for the edges it takes.
        # A state enters "visited" when first reached by a valid edge; an
        # edge rejected from one parent stays available from others.
        visited: set[tuple[int, ...]] = {zero}
        self.spend()
        stack: list[tuple[tuple[int, ...], object]] = [
            (zero, iter(self.candidate_order(ctx, zero, target)))
        ]
        while stack:
            x, pending = stack[-1]
            x_exps = established(x)
            assert x_exps is not None
            advanced = False
            for h in pending:
                if x[h] >= target[h]:
                    continue
                y = x[:h] + (x[h] + 1,) + x[h + 1 :]
                if y in visited:
                    continue
                y_exps = established(y)
                if y_exps is None:
                    y_support = ctx.support(y)
                    y_rk = ctx.rank(y_support)
                    if y_rk <= 2:
                        y_exps = self.low_rank_exponents(ctx, y, y_support, y_rk)
                        establish(y, y_exps, None)
                    else:
                        r_verdict, r_exps = self.restriction_exponents(ctx, y, h)
                        if r_verdict != "yes":
                            continue
                        assert r_exps is not None
                        y_exps = check_addition_step(x_exps, r_exps)
                        if y_exps is None:
                            continue
                        establish(y, y_exps, ctx.form_keys[h])
                if y == target:
                    return "yes", y_exps
                visited.add(y)
                self.spend()
                stack.append((y, iter(self.candidate_order(ctx, y, target))))
                advanced = True
                break
            if not advanced:
                stack.pop()
        _NO.add(key)
        return "no", None


@dataclass(frozen=True)
class InductionStep:
    """One addition step of a certificate chain.

    ``exponents_before`` belong to the state without the added
    hyperplane, ``restriction_exponents`` to the Euler restriction of
    the state after the addition at that hyperplane.
    """

    exponents_before: tuple[int, ...]
    label: str
    index: int
    restriction_exponents: tuple[int, ...]
    exponents_after: tuple[int, ...]


@dataclass(frozen=True)
class InductionReport:
    verdict: str  # "yes" | "no" | "unknown"
    exponents: tuple[int, ...] | None
    steps: tuple[InductionStep, ...]
    base: tuple[tuple[str, int], ...]
    base_exponents: tuple[int, ...] | None
    nodes: int
    budget: int

    @property
    def is_free(self) -> bool:
        return self.verdict == "yes"


def is_inductively_free(
    m: MultiArrangement,
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
) -> InductionReport:
    """Decide inductive freeness, with a replayable certificate on Yes.

    The verdict "no" is exhaustive: every addition chain below the
    target multiplicity was explored (with memoization).  When the node
    budget runs out the verdict is "unknown".
    """
    ctx = _context(m.arrangement)
    engine = _Engine(budget, progress)
    state = m.mult
    try:
        verdict, exps = engine.decide(ctx, state)
    except BudgetExceeded:
        return InductionReport("unknown", None, (), (), None, engine.nodes, budget)
    if verdict != "yes":
        return InductionReport("no", None, (), (), None, engine.nodes, budget)

    steps: list[InductionStep] = []
    cur = state
    while True:
        key = ctx.state_key(cur)
        cur_exps, h0_key = _YES[key]
        if h0_key is None:
            break
        h0 = ctx.index_of_key[h0_key]
        child = list(cur)
        child[h0] -= 1
        child_state = tuple(child)
        child_exps = _YES[ctx.state_key(child_state)][0]
        _, r_exps = engine.restriction_exponents(ctx, cur, h0)
        assert r_exps is not None
        steps.append(
            InductionStep(child_exps, m.arrangement.labels[h0], h0, r_exps, cur_exps)
        )
        cur = child_state
    steps.reverse()
    base = tuple((m.arrangement.labels[i], mu) for i, mu in enumerate(cur) if mu)
    base_exps = _YES[ctx.state_key(cur)][0]
    return InductionReport("yes", exps, tuple(steps), base, base_exps, engine.nodes, budget)


@dataclass(frozen=True)
class ObstructionReport:
    """Result of scanning localizations for an inductive-freeness failure."""

    verdict: str  # "obstructed" | "clear" | "unknown"
    flat: Flat | None
    flat_labels: tuple[str, ...]
    scanned: int
    unknown_flats: int


def localization_obstruction(
    m: MultiArrangement, rank_limit: int = 3, budget: int = DEFAULT_BUDGET
) -> ObstructionReport:
    """First flat (canonical order) whose localization is not inductively free.

    Inductive freeness passes to localizations, so a single obstructed
    flat decides the whole multiarrangement negatively.  Flats of rank
    <= 2 are always clear and are skipped.
    """
    arr = m.arrangement
    scanned = 0
    unknown = 0
    for flat in intersection_lattice(arr, rank_limit):
        if flat.rank < 3:
            continue
        scanned += 1
        report = is_inductively_free(localize_multi(m, flat), budget)
        if report.verdict == "no":
            labels = tuple(arr.labels[i] for i in flat.closed)
            return ObstructionReport("obstructed", flat, labels, scanned, unknown)
        if report.verdict == "unknown":
            unknown += 1
    return ObstructionReport("clear" if not unknown else "unknown", None, (), scanned, unknown)


@dataclass(frozen=True)
class HereditaryReport:
    verdict: str  # "yes" | "no" | "unknown"
    failed_flat: Flat | None
    checked: int


def hereditarily_inductively_free(
    arr: Arrangement,
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
) -> HereditaryReport:
    """Simple arrangement plus every proper restriction, all inductively free.

    Restrictions are taken with simple multiplicity; chains starting at
    a simple multiarrangement only visit simple states, so this agrees
    with the classical notion for simple arrangements.
    """
    checked = 0
    result = is_inductively_free(simple_multi(arr), budget, progress)
    checked += 1
    if result.verdict != "yes":
        return HereditaryReport(result.verdict, None, checked)
    top_rank = rank_of(arr)
    for flat in intersection_lattice(arr, top_rank - 1):
        if flat.rank == 0:
            continue
        res = restriction(arr, flat).arrangement
        report = is_inductively_free(simple_multi(res), budget, progress)
        checked += 1
        if report.verdict != "yes":
            return HereditaryReport(report.verdict, flat, checked)
    return HereditaryReport("yes", None, checked)


@dataclass(frozen=True)
class RefutationReport:
    verdict: str  # "refuted" | "chain_found" | "unknown"
    explored: int
    dead_ends: int
    max_depth: int
    chain: tuple[str, ...] | None
    dead_end_digests: tuple[str, ...]
    digests_truncated: bool
    budget: int


_DIGEST_CAP = 10_000


@dataclass
class _RefuterFrame:
    """One state on the refuter's deletion stack."""

    state: tuple[int, ...]
    virtual: tuple[int, ...]
    total: int
    next_h: int = 0  # first deletion index not tried yet
    admissible: bool = False
    child: tuple[int, tuple] | None = None  # (deleted index, memo key) being explored


def _digest(key: tuple, virtual: tuple[int, ...]) -> str:
    text = repr((key, virtual)).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def additive_refuter(
    m: MultiArrangement,
    exponents: tuple[int, ...] | list[int],
    budget: int = DEFAULT_BUDGET,
    progress: Callable[[int], None] | None = None,
) -> RefutationReport:
    """Search for a free filtration compatible with the given exponents.

    Walks deletion chains from (A, mu) downward.  Lowering H is
    admissible only if |mu*| of the Euler restriction at H equals the
    current total minus some virtual exponent v_j >= 1; that v_j drops
    by one.  Reaching the empty multiarrangement yields "chain_found"
    (a candidate filtration, not a freeness proof); exhausting all
    chains yields the sound verdict "refuted": no free filtration can
    exist, so (A, mu) is not additively free.

    Deletion candidates are tried in ascending hyperplane order; the
    verdict is order-independent, the particular chain found is not.
    """
    exps = tuple(sorted(exponents))
    if sum(exps) != m.total:
        raise ValueError(f"exponents sum to {sum(exps)}, |mu| is {m.total}")
    if len(exps) != m.arrangement.dim:
        raise ValueError("need one (possibly zero) exponent per ambient dimension")
    ctx = _context(m.arrangement)
    labels = m.arrangement.labels
    dead: set[tuple] = set()
    explored = dead_ends = max_depth = 0
    digests: list[str] = []
    truncated = False

    def enter(state: tuple[int, ...], virtual: tuple[int, ...]) -> _RefuterFrame:
        nonlocal explored, max_depth
        explored += 1
        if explored > budget:
            raise BudgetExceeded
        if progress is not None and explored % 1000 == 0:
            progress(explored)
        max_depth = max(max_depth, len(stack))
        return _RefuterFrame(state, virtual, sum(state))

    # Depth-first over deletion chains with an explicit stack, so chains
    # of any length fit; stack[i] is the state after i deletions, and
    # each frame's ``child`` is the deletion it is exploring.
    stack: list[_RefuterFrame] = []
    chain: tuple[str, ...] | None = None
    try:
        stack.append(enter(m.mult, exps))
        while stack:
            frame = stack[-1]
            if frame.total == 0:
                # deletions from the top, reversed into build order
                chain = tuple(labels[f.child[0]] for f in reversed(stack[:-1]))
                break
            state, virtual = frame.state, frame.virtual
            for h in range(frame.next_h, len(state)):
                if not state[h]:
                    continue
                target = frame.total - ctx.restriction_size(state, h)
                if target < 1 or target not in virtual:
                    continue
                frame.admissible = True
                lowered = list(virtual)
                lowered.remove(target)
                lowered.append(target - 1)
                nxt_virtual = tuple(sorted(lowered))
                child_state = state[:h] + (state[h] - 1,) + state[h + 1 :]
                memo_key = (ctx.state_key(child_state), nxt_virtual)
                if memo_key in dead:
                    continue
                frame.next_h = h + 1
                frame.child = (h, memo_key)
                stack.append(enter(child_state, nxt_virtual))
                break
            else:
                # every deletion from this state failed
                if not frame.admissible:
                    dead_ends += 1
                    if len(digests) < _DIGEST_CAP:
                        digests.append(_digest(ctx.state_key(state), virtual))
                    else:
                        truncated = True
                stack.pop()
                if stack:
                    dead.add(stack[-1].child[1])
    except BudgetExceeded:
        return RefutationReport("unknown", explored, dead_ends, max_depth, None, tuple(digests), truncated, budget)
    verdict = "refuted" if chain is None else "chain_found"
    return RefutationReport(verdict, explored, dead_ends, max_depth, chain, tuple(digests), truncated, budget)


def table_rows(report: InductionReport) -> list[list]:
    """Certificate steps as JSON-ready rows [exp', label, exp'']."""
    return [
        [list(s.exponents_before), s.label, list(s.restriction_exponents)]
        for s in report.steps
    ]


def emit_induction_table(report: InductionReport) -> str:
    """Render a certificate as a three-column induction table."""
    if report.verdict != "yes":
        return f"verdict: {report.verdict} (nodes explored: {report.nodes})"
    header = ("exp(A', mu')", "alpha", "exp(A'', mu*)")
    rows = [
        (
            "{" + ", ".join(map(str, s.exponents_before)) + "}",
            s.label,
            "{" + ", ".join(map(str, s.restriction_exponents)) + "}",
        )
        for s in report.steps
    ]
    widths = [max(len(header[c]), *(len(r[c]) for r in rows)) if rows else len(header[c]) for c in range(3)]
    lines = []
    base_desc = ", ".join(f"{label}:{mu}" for label, mu in report.base) or "(empty)"
    base_exps = "{" + ", ".join(map(str, report.base_exponents or ())) + "}"
    lines.append(f"base [{base_desc}] with exponents {base_exps}")
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*header))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append(fmt.format(*r))
    lines.append(f"final exponents {{{', '.join(map(str, report.exponents or ()))}}}")
    return "\n".join(lines)


def replay_addition_rows(
    m_target: MultiArrangement,
    start_exponents: tuple[int, ...],
    rows: list[tuple[tuple[int, ...], str, tuple[int, ...]]],
) -> tuple[int, ...]:
    """Validate an addition table against the engine, row by row.

    Starts from the target multiplicity minus all row additions, applies
    each row's addition, recomputes the Euler restriction exponents from
    scratch (via the public triple machinery, independently of the
    search caches), and checks both printed columns.  Returns the final
    exponent multiset.  Raises ValueError on the first mismatch.
    """
    from .rank2 import euler_multiplicity, rank2_exponents

    arr = m_target.arrangement
    state = list(m_target.mult)
    for _, label, _ in rows:
        state[arr.index_of_label(label)] -= 1
    if any(v < 0 for v in state):
        raise ValueError("rows add more than the target multiplicity")
    current = tuple(sorted(start_exponents))
    for i, (before, label, restricted) in enumerate(rows):
        if tuple(sorted(before)) != current:
            raise ValueError(f"row {i}: expected exponents {current}, table says {tuple(sorted(before))}")
        h0 = arr.index_of_label(label)
        state[h0] += 1
        stage = multi(arr, state)
        stage_h0 = stage.arrangement.index_of_label(label)
        em = euler_multiplicity(stage, stage_h0)
        pair = rank2_exponents(em)
        computed = _padded(pair.exponents, arr.dim - 1)
        if tuple(sorted(restricted)) != computed:
            raise ValueError(f"row {i}: restriction exponents {computed}, table says {tuple(sorted(restricted))}")
        after = check_addition_step(current, computed)
        if after is None:
            raise ValueError(f"row {i}: containment fails: {current} vs {computed}")
        current = after
    if tuple(state) != tuple(m_target.mult):
        raise ValueError("rows do not end at the target multiplicity")
    return current
