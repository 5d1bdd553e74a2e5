"""Bundled acceptance checks.

Every advertised guarantee of the package is pinned down by one check
in this module: the closed-form catalog exponents, the Ziegler counting
identity, the cross-derivation of the shipped fixtures from their
parents, the induction certificates and the frozen addition tables, all
replayed, the negative and positive low-rank instances,
Euler-multiplicity consistency, the concentrated-multiplicity suite,
and the refuter regressions.  ``run_all`` drives them for the CLI's ``verify-paper``
subcommand and for the acceptance test suite, which asserts one check
per test so each appears as its own pass/fail line.

Checks recompute everything from scratch through the public API; they
never read expected values out of the search internals they are
validating.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, NamedTuple, Sequence

from .arrangement import (
    arrangement,
    concentrated_multiplicity,
    essentialize,
    free_exponents_from_charpoly,
    intersection_lattice,
    localize_multi,
    simple_multi,
    state_key,
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
    Session,
    additive_refuter,
    certificate,
    e2,
    is_inductively_free,
    localization_obstruction,
    replay_table,
)
from .rank2 import (
    common_value,
    euler_multiplicity,
    euler_pattern,
    local_b2,
    plane_exponent_pair,
    rank2_exponents,
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

# Check 5: a simple arrangement that is not inductively free, and a
# Ziegler restriction (spec, label of H0) that a localization
# isomorphic to it obstructs
NEGATIVE_SIMPLE = "A:3:3:0"
NEGATIVE_ZIEGLER = ("A:3:5:1", "H_{1,2}(1)")
# Check 6: Ziegler restrictions (spec, label of H0) and their exponents
LOW_RANK_POSITIVE = (
    ("A:3:4:1", "H_{1,2}(1)", (4, 7, 7)),
    ("A:3:4:0", "H_{1,2}(1)", (4, 6, 7)),
)

TABLE_EXPONENTS = {
    "g33_a2_kappa": (7, 9, 11),
    "g34_a1a2_kappa": (13, 19, 23),
    "g34_a3_kappa_1": (13, 19, 23),
    "g34_g333_kappa": (13, 16, 19),
    "g34_a3_kappa_2": (13, 16, 19),
}


class CheckResult(NamedTuple):
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
        if state_key(*zm) != state_key(*target):
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
    cases = [(name, shipped_fixture(name), want) for name, want in TABLE_EXPONENTS.items()]
    cases.append(("simple A:2:4:4", simple_multi(intermediate(parse_spec_string("A:2:4:4"))), (1, 3, 5, 7)))
    replays = []
    for name, m, want in cases:
        rep = is_inductively_free(m)
        got = tuple(sorted(rep.exponents)) if rep.exponents else None
        if rep.verdict != "yes" or got != want:
            bad.append(f"{name}: verdict {rep.verdict}, exponents {got}, expected yes {want}")
            continue
        # the certificate just found must replay, like the frozen tables
        replays.append((f"{name}: certificate", m, certificate(rep)))
        notes.append(f"{name} {{{','.join(map(str, want))}}} ({len(rep.steps)} steps)")
    for name in shipped_table_names():
        payload = shipped_table(name)
        replays.append((f"table {name}", shipped_fixture(payload["fixture"]), payload))
    for name, m, doc in replays:
        try:
            _, final = replay_table(m, doc)
        except ValueError as exc:
            bad.append(f"{name}: {exc}")
            continue
        # a free (A, mu) has b2 = e2(exp) (Abe-Terao-Wakefield)
        b2 = local_b2(m)
        if b2 != e2(final):
            bad.append(f"{name}: b2 = {b2} != e2 = {e2(final)} of {final}")
    if bad:
        return False, "; ".join(bad)
    return True, (
        f"certificates replayed: {', '.join(notes)}; "
        f"all {len(shipped_table_names())} frozen addition tables replay row-exact"
    )


def _spec_ziegler(spec_text: str, label: str) -> MultiArrangement:
    arr = intermediate(parse_spec_string(spec_text))
    return ziegler_multiplicity(arr, arr.index_of_label(label))


def _check_negative_instances() -> tuple[bool, str]:
    simple = simple_multi(intermediate(parse_spec_string(NEGATIVE_SIMPLE)))
    t0 = time.monotonic()
    rep = is_inductively_free(simple)
    dt = time.monotonic() - t0
    if rep.verdict != "no":
        return False, f"simple {NEGATIVE_SIMPLE} decided {rep.verdict}, expected no"
    if dt >= 10.0:
        return False, f"simple {NEGATIVE_SIMPLE} exhaustive no took {dt:.1f}s, bound is 10s"

    spec_text, label = NEGATIVE_ZIEGLER
    zm = _spec_ziegler(spec_text, label)
    obs = localization_obstruction(zm)
    if obs.verdict != "obstructed" or obs.flat is None or obs.flat.rank != 3:
        return False, f"{spec_text} Ziegler restriction: obstruction scan returned {obs.verdict}"
    loc = essentialize(localize_multi(zm, obs.flat))
    if set(loc.mult) != {1}:
        return False, f"obstructing localization is not simple: {loc.mult}"
    iso = find_linear_isomorphism(loc, simple)
    if iso is None:
        return False, f"obstructing localization is not linearly isomorphic to {NEGATIVE_SIMPLE}"
    return True, (
        f"simple {NEGATIVE_SIMPLE} exhaustively not inductively free ({rep.nodes} states); "
        f"Ziegler restriction of {spec_text} at {label} obstructed by a rank-3 flat whose "
        f"localization is simple and linearly isomorphic to {NEGATIVE_SIMPLE} "
        f"({obs.scanned} flats scanned)"
    )


def _check_low_rank_positive() -> tuple[bool, str]:
    notes = []
    for spec_text, label, want in LOW_RANK_POSITIVE:
        zm = _spec_ziegler(spec_text, label)
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
    out.append(simple_multi(intermediate(parse_spec_string(NEGATIVE_SIMPLE))))
    out.append(_spec_ziegler(*NEGATIVE_ZIEGLER))
    out.extend(_spec_ziegler(spec_text, label) for spec_text, label, _ in LOW_RANK_POSITIVE)
    return out


def _check_euler_consistency() -> tuple[bool, str]:
    localizations = 0
    values = 0
    seen: set = set()
    for m in _criteria_multiarrangements():
        arr = m.arrangement
        for flat in intersection_lattice(arr, 2):
            if flat.rank != 2:
                continue
            loc = localize_multi(m, flat)
            result = rank2_exponents(loc)
            plane = result.plane
            if plane in seen:
                continue
            seen.add(plane)
            localizations += 1
            where = f"flat {[arr.labels[i] for i in flat.closed]} with multiplicities {[m.mult[i] for i in flat.closed]}"
            pair = plane_exponent_pair(plane, arr.zeta_order)
            if pair != result.exponents:
                return False, f"exponent pair {pair} != Saito-certified {result.exponents} at {where}"
            for j in range(len(plane)):
                common_value(plane, j, arr.zeta_order)  # raises unless a unique common exponent exists
            values += len(plane)
            if not verify_witness(result, arr.zeta_order):
                return False, f"rank-2 witness failed divisibility/minimality at {where}"
    return True, (
        f"{localizations} distinct rank-2 localizations: exponent pairs equal the Saito-certified ones, "
        f"{values} Euler values are unique common exponents, and every witness passes "
        f"divisibility and degree minimality"
    )


def _expected_delta_exponents(simple_exps: Sequence[int], m0: int) -> tuple[int, ...]:
    rest = list(simple_exps)
    rest.remove(1)
    return tuple(sorted(rest + [m0]))


def _check_delta_suite() -> tuple[bool, str]:
    specs = _catalog_specs(max_rank=3)
    # every concentrated multiplicity lies above the simple one, so the
    # searches of one arrangement walk many of the same states: one memo
    # serves the whole suite
    session = Session()
    checked = 0
    yes_count = 0
    for spec in specs:
        arr = intermediate(spec)
        simple_rep = is_inductively_free(simple_multi(arr), session=session)
        if simple_rep.verdict == "unknown":
            return False, f"{spec}: simple verdict unknown at default budget"
        kappa_by_h0 = [ziegler_multiplicity(arr, h) for h in range(arr.n)]
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
                    y0 = euler_pattern(arr, h).trace[h0]
                    want = tuple(m0 if y == y0 else 1 for y in range(em_h.arrangement.n))
                    if em_h.mult != want:
                        return False, (
                            f"{spec} H0={arr.labels[h0]} m0={m0}: Euler restriction at "
                            f"{arr.labels[h]} is {em_h.mult}, not concentrated of weight {m0} at the trace of H0"
                        )
                rep = is_inductively_free(d, session=session)
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
    g333 = simple_multi(intermediate(parse_spec_string("A:3:3:0")))
    cases = (
        ("g33_a2_kappa {7,9,11}", shipped_fixture("g33_a2_kappa"), (7, 9, 11), "chain_found", 28),
        ("g33_a2_kappa {7,10,10}", shipped_fixture("g33_a2_kappa"), (7, 10, 10), "refuted", 1),
        ("simple A:3:3:0 {1,4,4}", g333, (1, 4, 4), "refuted", 1),
        ("g34_g333_kappa {14,15,19}", shipped_fixture("g34_g333_kappa"), (14, 15, 19), "refuted", 1),
        ("g34_a1a2_kappa {14,18,23}", shipped_fixture("g34_a1a2_kappa"), (14, 18, 23), "refuted", 1),
    )
    notes = []
    for label, m, exps, want_verdict, want_explored in cases:
        rep = additive_refuter(m, exps)
        if rep.verdict != want_verdict:
            return False, f"{label}: verdict {rep.verdict}, frozen run says {want_verdict}"
        if rep.explored != want_explored:
            return False, f"{label}: explored {rep.explored} states, frozen run says {want_explored}"
        notes.append(f"{label} -> {rep.verdict} ({rep.explored} states, b2 {rep.b2} vs e2 {e2(exps)})")
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
    """Map user tokens (numbers or name fragments) to check ids; blank ones name none."""
    ids = []
    for token in filter(None, (t.strip().lower() for t in only)):
        matches = [num for num, name, _fn in _CHECKS if token == num or token in name]
        if not matches:
            known = ", ".join(f"{num}:{name}" for num, name, _fn in _CHECKS)
            raise ValueError(f"unknown check {token!r}; known: {known}")
        ids.extend(m for m in matches if m not in ids)
    if not ids:
        raise ValueError("no check named")
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


def run_all(only: Iterable[str] | None = None) -> tuple[CheckResult, ...]:
    """Run the acceptance checks, in order; each check owns its search memo."""
    ids = check_ids() if only is None else resolve_only(only)
    return tuple(run_check(i) for i in ids)
