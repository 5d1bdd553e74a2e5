"""Bundled acceptance checks.

Every advertised guarantee of the package is pinned down by one check
in this module: the closed-form catalog exponents, the Ziegler counting
identity, the cross-derivation of the shipped fixtures from their
parents, the induction certificates with their frozen addition tables,
the negative and positive low-rank instances, Euler-multiplicity
consistency, the concentrated-multiplicity suite, and the refuter
regressions.  ``run_all`` drives them for the CLI's ``verify-paper``
subcommand and for the acceptance test suite, which asserts one check
per test so each appears as its own pass/fail line.

Checks recompute everything from scratch through the public API; they
never read expected values out of the search internals they are
validating.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .arrangement import (
    arrangement,
    concentrated_multiplicity,
    essentialize,
    free_exponents_from_charpoly,
    hyperplane_flat,
    intersection_lattice,
    localize_multi,
    restriction,
    simple_multi,
    ziegler_multiplicity,
    MultiArrangement,
)
from .catalog import (
    find_linear_isomorphism,
    intermediate,
    expected_exponents,
    parse_spec_string,
    shipped_fixture,
    shipped_fixture_names,
    shipped_table,
    shipped_table_names,
)
from .induction import (
    additive_refuter,
    clear_memo,
    is_inductively_free,
    localization_obstruction,
    replay_addition_rows,
)
from .rank2 import (
    canonical_plane,
    common_value,
    euler_multiplicity,
    euler_value_shortcut,
    rank2_exponents,
    reduce_to_plane,
    verify_witness,
)

__all__ = [
    "CheckResult",
    "EXTERNAL_DATA_NOTE",
    "check_ids",
    "resolve_only",
    "run_all",
    "run_check",
]

# The one computation the shipped data cannot feed: the additive-freeness
# refutations for ((G34,A1^2),kappa) and ((G34,A2),kappa) need the rank-5
# parents (G34,A1) and (G34,A2) to produce the kappa multiplicities, and
# those parents' defining forms have no published coordinate lists.  The
# pipeline itself is exercised one rank down (g33_a1 -> g33_a2_kappa); a
# user holding the rank-5 coefficients can run
#   multiarr refute --fixture parent.arr --ziegler <H0> --exponents ...
# without any code change.
EXTERNAL_DATA_NOTE = (
    "The additive-freeness refutations for ((G34,A1^2),kappa) and "
    "((G34,A2),kappa) require the rank-5 parent arrangements (G34,A1) "
    "and (G34,A2), whose defining coefficients are not published; the "
    "shipped data therefore cannot drive those two runs.  The identical "
    "pipeline works on user-supplied parent fixtures via "
    "`refute --fixture PARENT.arr --ziegler H0 --exponents ...` and is "
    "demonstrated one rank down on the shipped g33_a1."
)

RANDOM_SEED = 0x5EED_2613

# (parent fixture, label of H0 in the parent, expected Ziegler restriction)
FIXTURE_DERIVATIONS = (
    ("g33_a1", "a1", "g33_a2_kappa"),
    ("g34_a1sq", "a2", "g34_a1a2_kappa"),
    ("g34_a1sq", "a1", "g34_a3_kappa_1"),
    ("g34_a2", "a6", "g34_g333_kappa"),
    ("g34_a2", "a1", "g34_a3_kappa_2"),
)

TABLE_EXPONENTS = {
    "g33_a2_kappa": (7, 9, 11),
    "g34_a1a2_kappa": (13, 19, 23),
    "g34_a3_kappa_1": (13, 19, 23),
    "g34_g333_kappa": (13, 16, 19),
    "g34_a3_kappa_2": (13, 16, 19),
}


@dataclass(frozen=True)
class CheckResult:
    check: str
    name: str
    passed: bool
    detail: str
    seconds: float


def _catalog_specs(max_rank: int | None = None) -> list:
    specs = []
    for r in (2, 3, 4):
        for l in (2, 3, 4):
            if max_rank is not None and l > max_rank:
                continue
            for k in range(l + 1):
                specs.append(parse_spec_string(f"A:{r}:{l}:{k}"))
    return specs


def _check_catalog_exponents() -> tuple[bool, str]:
    bad = []
    specs = _catalog_specs()
    for spec in specs:
        arr = intermediate(spec)
        split = free_exponents_from_charpoly(arr)
        want = tuple(sorted(expected_exponents(spec)))
        if split != want:
            bad.append(f"{spec}: characteristic polynomial gives {split}, formula {want}")
    if bad:
        return False, "; ".join(bad)
    return True, f"{len(specs)} catalog arrangements: characteristic polynomial splits into the closed-form exponents"


def _check_ziegler_identity() -> tuple[bool, str]:
    rng = random.Random(RANDOM_SEED)
    pool = [intermediate(s) for s in _catalog_specs()]
    trials = 1000
    for t in range(trials):
        arr = rng.choice(pool)
        size = rng.randint(2, arr.n)
        picked = sorted(rng.sample(range(arr.n), size))
        sub = arrangement(
            arr.dim,
            arr.zeta_order,
            [arr.hyperplanes[i] for i in picked],
            [arr.labels[i] for i in picked],
        )
        h0 = rng.randrange(size)
        zm = ziegler_multiplicity(sub, h0)
        if zm.total != size - 1:
            return False, (
                f"trial {t}: sum(kappa) = {zm.total} but |A| - 1 = {size - 1} "
                f"(sub-arrangement {[arr.labels[i] for i in picked]} of {arr.labels[h0]})"
            )
    return True, f"{trials} random catalog sub-arrangements: sum(kappa) = |A| - 1 exactly"


def _multi_content(m: MultiArrangement) -> list:
    pairs = [(f, mu) for f, mu in zip(m.arrangement.hyperplanes, m.mult)]
    return sorted(pairs, key=lambda p: (p[0].sort_key(), p[1]))


def _check_fixture_derivation() -> tuple[bool, str]:
    bad = []
    for parent_name, h0_label, target_name in FIXTURE_DERIVATIONS:
        parent = shipped_fixture(parent_name)
        if set(parent.mult) != {1}:
            bad.append(f"{parent_name} is not simple")
            continue
        h0 = parent.arrangement.index_of_label(h0_label)
        zm = ziegler_multiplicity(parent.arrangement, h0)
        target = shipped_fixture(target_name)
        if _multi_content(zm) != _multi_content(target):
            bad.append(
                f"Ziegler restriction of {parent_name} at {h0_label} does not "
                f"reproduce {target_name} (content differs)"
            )
    if bad:
        return False, "; ".join(bad)
    return True, "all 5 shipped restrictions re-derived from their parents, exact form-level equality"


def _check_induction_tables() -> tuple[bool, str]:
    bad = []
    notes = []
    for name, want in TABLE_EXPONENTS.items():
        m = shipped_fixture(name)
        rep = is_inductively_free(m)
        got = tuple(sorted(rep.exponents)) if rep.exponents else None
        if rep.verdict != "yes" or got != want:
            bad.append(f"{name}: verdict {rep.verdict}, exponents {got}, expected yes {want}")
            continue
        notes.append(f"{name} {{{','.join(map(str, want))}}} ({len(rep.steps)} steps)")
    for name in shipped_table_names():
        payload = shipped_table(name)
        m = shipped_fixture(payload["fixture"])
        rows = [(tuple(a), lab, tuple(b)) for a, lab, b in payload["rows"]]
        try:
            final = replay_addition_rows(m, tuple(payload["start_exponents"]), rows)
        except ValueError as exc:
            bad.append(f"table {name}: replay failed: {exc}")
            continue
        if final != tuple(sorted(payload["final_exponents"])):
            bad.append(f"table {name}: replay ended at {final}, table says {payload['final_exponents']}")
    if bad:
        return False, "; ".join(bad)
    return True, (
        f"certificates: {', '.join(notes)}; all {len(shipped_table_names())} frozen addition tables replay row-exact"
    )


def _check_negative_instances() -> tuple[bool, str]:
    g333 = intermediate(parse_spec_string("A:3:3:0"))
    t0 = time.monotonic()
    rep = is_inductively_free(simple_multi(g333))
    dt = time.monotonic() - t0
    if rep.verdict != "no":
        return False, f"simple A:3:3:0 decided {rep.verdict}, expected no"
    if dt >= 10.0:
        return False, f"simple A:3:3:0 exhaustive no took {dt:.1f}s, bound is 10s"

    parent = intermediate(parse_spec_string("A:3:5:1"))
    zm = ziegler_multiplicity(parent, parent.index_of_label("H_{1,2}(1)"))
    obs = localization_obstruction(zm, rank_limit=3)
    if obs.verdict != "obstructed" or obs.flat is None or obs.flat.rank != 3:
        return False, f"A:3:5:1 Ziegler restriction: obstruction scan returned {obs.verdict}"
    loc = localize_multi(zm, obs.flat)
    if set(loc.mult) != {1}:
        return False, f"obstructing localization is not simple: {loc.mult}"
    iso = find_linear_isomorphism(essentialize(loc), simple_multi(g333))
    if iso is None:
        return False, "obstructing localization is not linearly isomorphic to A:3:3:0"
    return True, (
        f"simple A:3:3:0 exhaustively not inductively free ({rep.nodes} states, {dt:.2f}s); "
        f"Ziegler restriction of A:3:5:1 at H_{{1,2}}(1) obstructed by a rank-3 flat whose "
        f"localization is simple and linearly isomorphic to A:3:3:0 "
        f"({obs.scanned} flats scanned)"
    )


def _check_low_rank_positive() -> tuple[bool, str]:
    cases = (
        ("A:3:4:1", "H_{1,2}(1)", (4, 7, 7)),
        ("A:3:4:0", "H_{1,2}(1)", (4, 6, 7)),
    )
    notes = []
    for spec_text, label, want in cases:
        arr = intermediate(parse_spec_string(spec_text))
        zm = ziegler_multiplicity(arr, arr.index_of_label(label))
        rep = is_inductively_free(zm)
        got = tuple(sorted(rep.exponents)) if rep.exponents else None
        if rep.verdict != "yes" or got != want:
            return False, f"{spec_text} at {label}: verdict {rep.verdict}, exponents {got}, expected yes {want}"
        if sum(want) != zm.total:
            return False, f"{spec_text}: exponent sum {sum(want)} != |kappa| = {zm.total}"
        notes.append(f"{spec_text} -> {{{','.join(map(str, want))}}} (sum {sum(want)} = |A|-1)")
    return True, "; ".join(notes)


def _criteria_multiarrangements() -> list[MultiArrangement]:
    """Every multiarrangement the instance checks touch, for cross-checks."""
    out = [shipped_fixture(name) for name in shipped_fixture_names()]
    for parent_name, h0_label, _target in FIXTURE_DERIVATIONS:
        parent = shipped_fixture(parent_name)
        out.append(ziegler_multiplicity(parent.arrangement, parent.arrangement.index_of_label(h0_label)))
    g333 = intermediate(parse_spec_string("A:3:3:0"))
    out.append(simple_multi(g333))
    a51 = intermediate(parse_spec_string("A:3:5:1"))
    out.append(ziegler_multiplicity(a51, a51.index_of_label("H_{1,2}(1)")))
    for spec_text in ("A:3:4:1", "A:3:4:0"):
        arr = intermediate(parse_spec_string(spec_text))
        out.append(ziegler_multiplicity(arr, arr.index_of_label("H_{1,2}(1)")))
    return out


def _check_euler_consistency() -> tuple[bool, str]:
    localizations = 0
    shortcut_hits = 0
    witnesses = 0
    seen: set = set()
    for m in _criteria_multiarrangements():
        arr = m.arrangement
        for flat in intersection_lattice(arr, 2):
            if flat.rank != 2:
                continue
            loc = localize_multi(m, flat)
            plane = reduce_to_plane(loc)
            key = canonical_plane(plane)
            if key in seen:
                continue
            seen.add(key)
            localizations += 1
            for j, (line, m0) in enumerate(plane):
                others = tuple(plane[i] for i in range(len(plane)) if i != j)
                full = common_value(line, m0, others, arr.zeta_order)
                short = euler_value_shortcut(m0, tuple(mu for _, mu in others))
                if short is not None:
                    shortcut_hits += 1
                    if short != full:
                        return False, (
                            f"shortcut Euler value {short} != common-exponent value {full} "
                            f"at a rank-2 localization of {arr.labels[flat.closed[0]]}..."
                        )
            result = rank2_exponents(loc)
            witnesses += 1
            if not verify_witness(result, arr.zeta_order):
                return False, (
                    f"rank-2 witness failed divisibility/minimality at flat "
                    f"{[arr.labels[i] for i in flat.closed]} with multiplicities {loc.mult}"
                )
    return True, (
        f"{localizations} distinct rank-2 localizations: {shortcut_hits} closed-form Euler values "
        f"all agree with the common-exponent rule; {witnesses} solver witnesses pass "
        f"divisibility and degree minimality"
    )


def _expected_delta_exponents(simple_exps: Sequence[int], m0: int) -> tuple[int, ...]:
    rest = list(simple_exps)
    rest.remove(1)
    return tuple(sorted(rest + [m0]))


def _check_delta_suite() -> tuple[bool, str]:
    specs = _catalog_specs(max_rank=3)
    checked = 0
    yes_count = 0
    for spec in specs:
        arr = intermediate(spec)
        simple_rep = is_inductively_free(simple_multi(arr))
        if simple_rep.verdict == "unknown":
            return False, f"{spec}: simple verdict unknown at default budget"
        kappa_by_h0 = [ziegler_multiplicity(arr, h) for h in range(arr.n)]
        restrictions = [restriction(arr, hyperplane_flat(arr, h)) for h in range(arr.n)]
        for h0 in range(arr.n):
            for m0 in (1, 2, 3, 4):
                checked += 1
                d = concentrated_multiplicity(arr, h0, m0)
                em = euler_multiplicity(d, h0)
                if m0 == 1:
                    if set(em.mult) != {1}:
                        return False, f"{spec} H0={arr.labels[h0]}: Euler restriction of the simple multiplicity is not simple: {em.mult}"
                elif em.mult != kappa_by_h0[h0].mult:
                    return False, (
                        f"{spec} H0={arr.labels[h0]} m0={m0}: Euler restriction {em.mult} "
                        f"!= Ziegler kappa {kappa_by_h0[h0].mult}"
                    )
                for h in range(arr.n):
                    if h == h0:
                        continue
                    em_h = euler_multiplicity(d, h)
                    y0 = restrictions[h].trace[h0]
                    want = tuple(m0 if y == y0 else 1 for y in range(em_h.arrangement.n))
                    if em_h.mult != want:
                        return False, (
                            f"{spec} H0={arr.labels[h0]} m0={m0}: Euler restriction at "
                            f"{arr.labels[h]} is {em_h.mult}, not concentrated of weight {m0} at the trace of H0"
                        )
                rep = is_inductively_free(d)
                if rep.verdict != simple_rep.verdict:
                    return False, (
                        f"{spec} H0={arr.labels[h0]} m0={m0}: concentrated verdict {rep.verdict} "
                        f"!= simple verdict {simple_rep.verdict}"
                    )
                if rep.verdict == "yes":
                    yes_count += 1
                    want = _expected_delta_exponents(simple_rep.exponents, m0)
                    if tuple(sorted(rep.exponents)) != want:
                        return False, (
                            f"{spec} H0={arr.labels[h0]} m0={m0}: exponents {tuple(sorted(rep.exponents))}, "
                            f"expected {want}"
                        )
    return True, (
        f"{checked} concentrated multiplicities over {len(specs)} rank-<=3 catalog arrangements: "
        f"verdict always matches the simple one ({yes_count} certified with exponents "
        f"{{m0}} + (exp A - {{1}})), Euler restrictions concentrated as predicted, "
        f"kappa reproduced at H0 for every m0 >= 2"
    )


def _check_refuter_regressions() -> tuple[bool, str]:
    kappa = shipped_fixture("g33_a2_kappa")
    runs = []

    rep = additive_refuter(kappa, (7, 9, 11))
    runs.append(("g33_a2_kappa {7,9,11}", rep, "chain_found", 28))
    rep = additive_refuter(kappa, (7, 10, 10))
    runs.append(("g33_a2_kappa {7,10,10}", rep, "refuted", 1))
    g333 = simple_multi(intermediate(parse_spec_string("A:3:3:0")))
    rep = additive_refuter(g333, (1, 4, 4))
    runs.append(("simple A:3:3:0 {1,4,4}", rep, "refuted", 1))

    notes = []
    for label, rep, want_verdict, want_explored in runs:
        if rep.verdict != want_verdict:
            return False, f"{label}: verdict {rep.verdict}, frozen run says {want_verdict}"
        if rep.explored != want_explored:
            return False, f"{label}: explored {rep.explored} states, frozen run says {want_explored}"
        notes.append(f"{label} -> {rep.verdict} ({rep.explored} states)")
    return True, "; ".join(notes)


def _check_external_data() -> tuple[bool, str]:
    for needle in ("G34,A1^2", "G34,A2", "rank-5", "--ziegler"):
        if needle not in EXTERNAL_DATA_NOTE:
            return False, f"limitation note no longer mentions {needle!r}"
    # same pipeline, one rank down, on data we do have
    parent = shipped_fixture("g33_a1")
    h0 = parent.arrangement.index_of_label("a1")
    zm = ziegler_multiplicity(parent.arrangement, h0)
    rep = additive_refuter(zm, (7, 9, 11))
    if rep.verdict != "chain_found":
        return False, f"stand-in parent pipeline: refuter says {rep.verdict} on g33_a1 -> kappa with {{7,9,11}}"
    return True, (
        "rank-5 parents are documented as unavailable; the user-supplied-parent "
        "pipeline (fixture -> Ziegler restriction -> refuter) verified on g33_a1"
    )


_CHECKS: tuple[tuple[str, str, Callable[[], tuple[bool, str]]], ...] = (
    ("1", "catalog-exponents", _check_catalog_exponents),
    ("2", "ziegler-identity", _check_ziegler_identity),
    ("3", "fixture-derivation", _check_fixture_derivation),
    ("4", "tables", _check_induction_tables),
    ("5", "negative-instances", _check_negative_instances),
    ("6", "low-rank-positive", _check_low_rank_positive),
    ("7", "euler-consistency", _check_euler_consistency),
    ("8", "delta-suite", _check_delta_suite),
    ("9", "refuter-regressions", _check_refuter_regressions),
    ("10", "external-data", _check_external_data),
)


def check_ids() -> tuple[str, ...]:
    return tuple(num for num, _name, _fn in _CHECKS)


def resolve_only(only: Iterable[str]) -> tuple[str, ...]:
    """Map user tokens (numbers or name fragments) to check ids."""
    ids = []
    for token in only:
        token = token.strip().lower()
        matches = [num for num, name, _fn in _CHECKS if token == num or token in name]
        if not matches:
            known = ", ".join(f"{num}:{name}" for num, name, _fn in _CHECKS)
            raise ValueError(f"unknown check {token!r}; known: {known}")
        ids.extend(m for m in matches if m not in ids)
    return tuple(ids)


def run_check(check_id: str) -> CheckResult:
    for num, name, fn in _CHECKS:
        if num == check_id:
            t0 = time.monotonic()
            try:
                passed, detail = fn()
            except Exception as exc:  # noqa: BLE001 - a crash is a failed check
                passed, detail = False, f"crashed: {type(exc).__name__}: {exc}"
            return CheckResult(num, name, passed, detail, time.monotonic() - t0)
    raise ValueError(f"unknown check id {check_id!r}")


def run_all(only: Iterable[str] | None = None, threads: int = 1) -> tuple[CheckResult, ...]:
    """Run the acceptance checks, in order; results are scheduling-independent.

    ``threads`` > 1 fans the independent checks out over a thread pool;
    the shared memo tables only ever gain true facts, so the report is
    the same for any thread count.
    """
    ids = resolve_only(only) if only else check_ids()
    clear_memo()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = tuple(pool.map(run_check, ids))
    else:
        results = tuple(run_check(i) for i in ids)
    return results
