"""Search engine verdicts, certificates, replay, and the refuter."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarr import arrangement as arrangement_module
from multiarr import induction, linalg, rank2
from multiarr.arrangement import MultiArrangement, arrangement, multi, rank_of, simple_multi, state_key, ziegler_multiplicity
from multiarr.catalog import (
    IntermediateSpec,
    expected_exponents,
    intermediate,
    load_fixture,
    parse_fixture,
    parse_spec_string,
    shipped_fixture,
    shipped_table,
)
from multiarr.induction import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Session,
    _Engine,
    _deletion_walk,
    _replayed_exponents,
    additive_refuter,
    certificate,
    check_addition_step,
    e2,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    localization_obstruction,
    replay_addition_rows,
    replay_table,
)
from multiarr.rank2 import (
    canonical_plane,
    common_value,
    euler_multiplicity,
    euler_pattern,
    indexed_plane,
    low_rank_exponents,
    padded,
    plane_exponent_pair,
    rank2_exponents,
)
from multiarr.scalars import one, zero, zeta

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def spec_simple(text: str):
    return simple_multi(intermediate(parse_spec_string(text)))


def test_addition_step_combinatorics() -> None:
    assert check_addition_step((1, 6, 7), (6, 7)) == (2, 6, 7)
    assert check_addition_step((1, 6, 7), (1, 7)) == (1, 7, 7)
    assert check_addition_step((1, 6, 7), (6, 6)) is None
    assert check_addition_step((0, 0, 0), (0, 0)) == (0, 0, 1)
    with pytest.raises(ValueError, match="one entry fewer"):
        check_addition_step((1, 2), (1, 2))


def test_braid_certificate() -> None:
    rep = is_inductively_free(spec_simple("A:2:3:0"))
    assert rep.verdict == "yes"
    assert tuple(sorted(rep.exponents)) == (1, 2, 3)
    assert rep.nodes == 6
    assert len(rep.steps) == 4
    # the chain is internally consistent step to step: each step's
    # addition leads to the next step's exponents, the last to the answer
    assert rep.steps[0].exponents_before == rep.base_exponents
    afters = [check_addition_step(s.exponents_before, s.restriction_exponents) for s in rep.steps]
    assert afters[:-1] == [s.exponents_before for s in rep.steps[1:]]
    assert afters[-1] == rep.exponents
    # a step is its table row
    assert certificate(rep)["rows"] == [[list(a), label, list(b)] for a, label, b in rep.steps]
    # base: a rank-2 seed whose multiplicities the steps complete
    assert sum(m for _, m in rep.base) + len(rep.steps) == 6


def test_memo_makes_repeats_free() -> None:
    session = Session()
    first = is_inductively_free(spec_simple("A:2:3:0"), session=session)
    again = is_inductively_free(spec_simple("A:2:3:0"), session=session)
    assert first.nodes > 0 and again.nodes == 0
    assert again.exponents == first.exponents
    # without a session every call starts cold, so counts are input-determined
    cold = [is_inductively_free(spec_simple("A:2:3:0")) for _ in range(2)]
    assert [rep.nodes for rep in cold] == [first.nodes, first.nodes]
    assert cold[0].steps == cold[1].steps == first.steps


def a342_kappa():
    arr = intermediate(parse_spec_string("A:3:4:2"))
    return ziegler_multiplicity(arr, arr.index_of_label("H_{1,2}(1)"))


def int_leaves(key) -> bool:
    """Whether a nested tuple holds plain ints and nothing else."""
    if isinstance(key, tuple):
        return all(int_leaves(k) for k in key)
    return type(key) is int


@pytest.mark.parametrize("make", [lambda: shipped_fixture("g33_a2_kappa"), a342_kappa], ids=["g33_a2_kappa", "A:3:4:2"])
def test_once_sorted_planes_are_canonical(make) -> None:
    m = make()
    session = Session()
    rep = is_inductively_free(m, session=session)
    assert rep.verdict == "yes"
    arr = m.arrangement
    rng = random.Random(6)
    # every pattern through a rank-2 flat asks indexed_plane for it under
    # the same key, the flat's sorted indices, so one plane object serves
    # them all; the search has built those its shortcuts missed on
    by_flat: dict[tuple[int, ...], list[int]] = {}
    for h0 in range(arr.n):
        pat = euler_pattern(arr, h0)
        assert pat.flats == tuple(tuple(sorted((*members, h0))) for members in pat.groups)
        for gid, flat in enumerate(pat.flats):
            assert all(pat.trace[p] == gid for p in flat if p != h0) and pat.trace[h0] is None
            by_flat.setdefault(flat, []).append(h0)
    assert all(through == list(flat) for flat, through in by_flat.items())
    assert any(len(flat) > 2 for flat in by_flat)
    hits = indexed_plane.cache_info().hits
    planes = []
    for flat in by_flat:
        lines = indexed_plane(arr, flat)
        assert indexed_plane(arr, flat) is lines
        assert sorted(p for _, p in lines) == list(flat)
        planes.append(lines)
    assert indexed_plane.cache_info().hits > hits + len(by_flat)
    # a rank-2 restriction reads the plane of its flat, the one through
    # the first two hyperplanes of its support, from the same cache
    state = m.mult
    for step in reversed(rep.steps):
        h0 = m.arrangement.index_of_label(step.label)
        values = euler_pattern(arr, h0).values(state)
        gids = tuple(g for g, v in enumerate(values) if v)
        if len(gids) > 1:
            sub = euler_pattern(arr, h0).arrangement
            pat = euler_pattern(sub, gids[0])
            flat = pat.flats[pat.trace[gids[1]]]
            assert set(gids) <= set(flat)
            hits = indexed_plane.cache_info().hits
            lines = indexed_plane(sub, flat)
            assert indexed_plane.cache_info().hits == hits + 1
            planes.append(lines)
        state = state[:h0] + (state[h0] - 1,) + state[h0 + 1 :]
    assert len(planes) > len(by_flat)
    for lines in planes:
        for _ in range(3):
            mults = [rng.randint(0, 3) for _ in lines]
            stored = tuple((line, mu) for (line, _), mu in zip(lines, mults) if mu)
            shuffled = list(stored)
            rng.shuffle(shuffled)
            assert stored == canonical_plane(shuffled)


@pytest.mark.parametrize(
    "make", [lambda: shipped_fixture("g33_a2_kappa"), lambda: spec_simple("A:2:4:4")], ids=["g33_a2_kappa", "A:2:4:4"]
)
def test_memo_keys_are_integer_content(make) -> None:
    m = make()
    session = Session()
    assert is_inductively_free(m, session=session).verdict == "yes"
    if m.arrangement.dim == 4:
        # rank 4: the restrictions are searched, and memoized under keys
        # of their own dimension
        assert {key[0] for key in session.yes} == {3, 4}
    preds = [pred for _, pred, _ in session.yes.values() if pred is not None]
    assert preds and session.yes
    assert all(int_leaves(key) for key in [*session.yes, *session.no, *preds])


def test_rows_read_in_a_reordered_arrangement_replay() -> None:
    # a memo row names its form by form key and records exponents of
    # content alone, so another hyperplane order of the same content reads
    # the same certificate off a shared session, and it replays there
    m = shipped_fixture("g33_a2_kappa")
    arr = m.arrangement
    perm = list(range(arr.n))
    random.Random(3).shuffle(perm)
    reordered = arrangement(arr.dim, arr.zeta_order, [arr.hyperplanes[i] for i in perm], [arr.labels[i] for i in perm])
    other = MultiArrangement(reordered, tuple(m.mult[i] for i in perm))
    session = Session()
    first = is_inductively_free(m, session=session)
    again = is_inductively_free(other, session=session)
    assert again.nodes == 0
    assert (again.steps, again.base_exponents) == (first.steps, first.base_exponents)
    assert sorted(again.base) == sorted(first.base)
    assert replay_addition_rows(other, again.base_exponents, again.steps) == first.exponents == (7, 9, 11)


def test_state_keys_follow_content_not_order() -> None:
    arr = shipped_fixture("g33_a2_kappa").arrangement
    perm = list(range(arr.n))
    random.Random(6).shuffle(perm)
    permuted = arrangement(arr.dim, arr.zeta_order, [arr.hyperplanes[i] for i in perm], [arr.labels[i] for i in perm])
    box = list(itertools.product(range(2), repeat=arr.n))
    keys = {state_key(arr, x) for x in box}
    assert len(keys) == len(box)
    for x in box[::97]:
        assert state_key(permuted, tuple(x[i] for i in perm)) == state_key(arr, x)


def test_state_keys_separate_fields() -> None:
    # (1, 0), (0, 1), (1, z) have the same integer numerators over Q(zeta_3)
    # and Q(zeta_6), so only the field in the key keeps their states apart
    def multis(order: int):
        o, z = one(order), zero(order)
        return multi(arrangement(2, order, [(o, z), (z, o), (o, zeta(order))]), [2, 1, 3])

    m3, m6 = multis(3), multis(6)
    assert state_key(*m3)[2] == state_key(*m6)[2] and state_key(*m3) != state_key(*m6)
    session = Session()
    assert is_inductively_free(m3, session=session).nodes == 1
    assert is_inductively_free(m3, session=session).nodes == 0
    assert is_inductively_free(m6, session=session).nodes == 1


@pytest.mark.parametrize("make", [lambda: shipped_fixture("g33_a2_kappa"), a342_kappa], ids=["g33_a2_kappa", "A:3:4:2"])
def test_memoized_sizes_along_deletion_paths_match_the_support(make) -> None:
    # a group's Euler value is memoized in its pattern under the
    # multiplicities of h0 and of the group's members; along random
    # deletion paths, as the refuter walks them, a size read through the
    # memo warmed by the states before must equal the Euler restriction
    # of the support
    m = make()
    arr = m.arrangement
    euler_pattern.cache_clear()
    rng = random.Random(8)
    lookups = 0
    for _ in range(4):
        state = m.mult
        while sum(state) > 1:
            d = rng.choice([i for i, mu in enumerate(state) if mu])
            state = state[:d] + (state[d] - 1,) + state[d + 1 :]
            support = multi(arr, state)
            for h in range(arr.n):
                if not state[h]:
                    continue
                em = euler_multiplicity(support, support.arrangement.index_of_label(arr.labels[h]))
                values = euler_pattern(arr, h).values(state)
                assert sum(values) == em.total
                assert sorted(v for v in values if v) == sorted(em.mult)
                lookups += len(values)
    # most lookups are memo hits
    assert 2 * sum(len(euler_pattern(arr, h)._values) for h in range(arr.n)) < lookups


@pytest.mark.parametrize(
    "make", [lambda: spec_simple("A:2:4:4"), lambda: spec_simple("A:3:4:4"), a342_kappa], ids=["A:2:4:4", "A:3:4:4", "A:3:4:2"]
)
def test_restriction_routes_agree(make) -> None:
    # the search's route (Euler values read through the pattern's memo,
    # the restriction searched as a state of the restricted arrangement,
    # zeros kept) against the replay route (euler_multiplicity of the support,
    # solved or searched and replayed on a session of its own)
    m = make()
    arr = m.arrangement
    engine = _Engine(Session(), DEFAULT_BUDGET)
    replay = Session()
    rng = random.Random(9)
    free = set()
    for _ in range(6):
        y = tuple(rng.randint(0, mu) for mu in m.mult)
        support = multi(arr, y)
        for h in (i for i, mu in enumerate(y) if mu):
            exps = engine.restriction_exponents(arr, h, euler_pattern(arr, h).values(y))
            em = euler_multiplicity(support, support.arrangement.index_of_label(arr.labels[h]))
            free.add(exps is not None)
            if exps is not None:
                assert _replayed_exponents(em, replay, DEFAULT_BUDGET) == exps
            else:
                with pytest.raises(ValueError, match="not inductively free"):
                    _replayed_exponents(em, replay, DEFAULT_BUDGET)
    assert True in free
    # a certificate's restriction exponents are derived from the memo's
    # exponent sets; the search route must give the same for every row
    rep = is_inductively_free(m, session=engine.session)
    assert rep.verdict == "yes" and rep.steps
    state = m.mult
    for step in reversed(rep.steps):
        h = arr.index_of_label(step.label)
        assert engine.restriction_exponents(arr, h, euler_pattern(arr, h).values(state)) == step.restriction_exponents
        state = state[:h] + (state[h] - 1,) + state[h + 1 :]


@pytest.mark.parametrize(
    "make", [a342_kappa, lambda: shipped_fixture("g33_a2_kappa"), lambda: spec_simple("A:2:4:4")], ids=["A:3:4:2", "g33_a2_kappa", "A:2:4:4"]
)
def test_low_rank_exponents_match_the_per_support_route(make) -> None:
    # the rank-2 flat through the first two hyperplanes of the support
    # against the route it replaced: the rank of the support, then the
    # plane of the support itself; in the top arrangement and in
    # restricted ones, on random states with zeros
    m = make()
    rng = random.Random(12)
    arrs = [m.arrangement] + [euler_pattern(m.arrangement, h0).arrangement for h0 in rng.sample(range(m.arrangement.n), 3)]
    ranks = []
    for arr in arrs:
        flats = [flat for h0 in range(arr.n) for flat in euler_pattern(arr, h0).flats]
        for _ in range(80):
            # a random support, or a random part of a rank-2 flat
            pool = rng.choice((range(arr.n), rng.choice(flats)))
            picked = set(rng.sample(pool, rng.randint(0, min(len(pool), 5))))
            state = tuple(rng.randint(1, 4) if i in picked else 0 for i in range(arr.n))
            support = [i for i in range(arr.n) if state[i]]
            rank = linalg.rank([arr.hyperplanes[i].coeffs for i in support], arr.dim)
            got = rank2.low_rank_exponents(arr, state)
            ranks.append((rank, len(support)))
            if rank >= 3:
                assert got is None
                continue
            if rank <= 1:
                want = (sum(state),)
            else:
                plane = tuple((line, state[i]) for line, i in indexed_plane(arr, tuple(support)))
                want = plane_exponent_pair(plane, arr.zeta_order)
            assert got == tuple(sorted((0,) * (arr.dim - len(want)) + want))
    assert {min(r, 3) for r, _ in ranks} == {0, 1, 2, 3}
    assert any(r == 2 and k > 2 for r, k in ranks)


def test_low_rank_questions_make_few_rrefs(monkeypatch) -> None:
    # the simple base of the g34_a3_kappa_1 table, searched with cold
    # caches: every rank question reads a rank-2 flat, whose plane is
    # one rref, where a rank per support took 10,674
    doc = shipped_table("g34_a3_kappa_1")
    m = shipped_fixture(doc["fixture"])
    state = list(m.mult)
    for _, label, _ in doc["rows"]:
        state[m.arrangement.index_of_label(label)] -= 1
    base = multi(m.arrangement, state)
    euler_pattern.cache_clear()
    indexed_plane.cache_clear()
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or rref(*args))
    rep = is_inductively_free(base)
    assert rep.verdict == "yes" and rep.nodes == 767
    assert len(calls) <= 200


def test_rank2_contexts_build_no_euler_pattern(monkeypatch) -> None:
    # a rank-2 restriction's low-rank questions read the one plane of the
    # whole arrangement; only the rank-3 top arrangement builds patterns
    built = []
    pattern = rank2.EulerPattern
    monkeypatch.setattr(rank2, "EulerPattern", lambda arr, h0: built.append(arr) or pattern(arr, h0))
    euler_pattern.cache_clear()
    rep = is_inductively_free(shipped_fixture("g33_a2_kappa"))
    euler_pattern.cache_clear()
    assert rep.verdict == "yes"
    assert len(built) == 14 and all(rank_of(arr) == 3 for arr in built)


def test_walk_contract() -> None:
    # a DAG in which d is reachable twice and the goal g three times
    graph = {"r": "abc", "a": "d", "b": "dg", "c": "g", "d": "", "g": ""}
    entered, offered = [], []

    def children(step, node):
        entered.append(node)
        for child in graph[node]:
            offered.append(child)
            yield node + child, child

    engine = _Engine(Session(), DEFAULT_BUDGET)
    dead: set[str] = set()
    path = engine.walk(("", "r"), children, "g".__eq__, dead)
    # the first goal's path, the goal itself not entered; c never offered
    assert path == [("rb", "b"), ("bg", "g")]
    assert entered == ["r", "a", "d", "b"] and engine.nodes == 4
    assert offered == ["a", "d", "b", "d", "g"] and dead == {"a", "d"}
    # no goal: each node entered once, then dead
    engine, dead, entered[:] = _Engine(Session(), DEFAULT_BUDGET), set(), []
    assert engine.walk(("", "r"), children, lambda node: False, dead) is None
    assert sorted(entered) == sorted(graph) and engine.nodes == len(graph) and dead == set(graph)
    # a goal at the root is answered without entering anything
    engine = _Engine(Session(), 0)
    assert engine.walk(("", "r"), children, "r".__eq__, set()) == [] and engine.nodes == 0
    engine = _Engine(Session(), 3)
    with pytest.raises(BudgetExceeded):
        engine.walk(("", "r"), children, "g".__eq__, set())
    assert engine.nodes == 4


def test_certificate_extraction_spends_no_budget() -> None:
    # rank 4: the chain's restrictions are rank-3 searches, which the
    # extraction finds in the session memo instead of searching again
    m = spec_simple("A:2:4:4")
    rep = is_inductively_free(m)
    assert rep.verdict == "yes" and rep.steps
    exact = is_inductively_free(m, budget=rep.nodes)
    assert exact.verdict == "yes"
    assert (exact.nodes, exact.steps, exact.exponents) == (rep.nodes, rep.steps, rep.exponents)
    assert is_inductively_free(m, budget=rep.nodes - 1).verdict == "unknown"


def test_g333_is_exhaustively_negative() -> None:
    rep = is_inductively_free(spec_simple("A:3:3:0"))
    assert rep.verdict == "no"
    assert rep.exponents is None and rep.steps == ()
    assert rep.nodes == 256


def test_budget_exhaustion_is_unknown_and_unpoisoned() -> None:
    session = Session()
    rep = is_inductively_free(spec_simple("A:3:3:0"), budget=10, session=session)
    assert rep.verdict == "unknown"
    assert rep.nodes == 11
    rep = is_inductively_free(spec_simple("A:3:3:0"), session=session)
    assert rep.verdict == "no"
    session = Session()
    rep = is_inductively_free(spec_simple("A:2:3:0"), budget=2, session=session)
    assert rep.verdict == "unknown"
    rep = is_inductively_free(spec_simple("A:2:3:0"), session=session)
    assert rep.verdict == "yes"


def test_progress_hook_fires_every_thousand_nodes() -> None:
    calls: list[int] = []
    rep = is_inductively_free(spec_simple("A:3:4:0"), budget=2500, progress=calls.append)
    assert rep.verdict == "unknown"
    assert calls == [1000, 2000]


def test_ziegler_restrictions_of_the_intermediate_family() -> None:
    arr = intermediate(parse_spec_string("A:3:4:0"))
    zm = ziegler_multiplicity(arr, arr.index_of_label("H_{1,2}(1)"))
    rep = is_inductively_free(zm)
    assert rep.verdict == "yes"
    assert tuple(sorted(rep.exponents)) == (4, 6, 7)
    assert sum(rep.exponents) == zm.total == arr.n - 1


def test_certificate_replays_row_by_row() -> None:
    arr = intermediate(parse_spec_string("A:3:4:0"))
    zm = ziegler_multiplicity(arr, arr.index_of_label("H_{1,2}(1)"))
    rep = is_inductively_free(zm)
    rows = list(rep.steps)
    final = replay_addition_rows(zm, rep.base_exponents, rows)
    assert final == tuple(sorted(rep.exponents))

    with pytest.raises(ValueError, match="expected exponents"):
        replay_addition_rows(zm, (1, 1, 1), rows)
    before, label, restricted = rows[-1]
    bad_columns = rows[:-1] + [(before, label, tuple(v + 1 for v in restricted))]
    with pytest.raises(ValueError):
        replay_addition_rows(zm, rep.base_exponents, bad_columns)
    with pytest.raises(ValueError):
        replay_addition_rows(zm, rep.base_exponents, rows[:-1])
    with pytest.raises(ValueError, match="add more than"):
        replay_addition_rows(zm, rep.base_exponents, rows + [rows[-1]])

    # the base is proven at every rank: without its first row the
    # certificate starts at a rank-3 base, which the replay searches
    state = list(zm.mult)
    for _, label, _ in rows[1:]:
        state[zm.arrangement.index_of_label(label)] -= 1
    assert rank_of(multi(zm.arrangement, state).arrangement) == 3
    assert replay_addition_rows(zm, rows[1][0], rows[1:]) == (4, 6, 7)
    with pytest.raises(ValueError, match="base: expected exponents"):
        replay_addition_rows(zm, (0, 0, 17), [])


@pytest.mark.parametrize("spec", ["A:2:4:4", "A:3:4:4"])
def test_replay_searches_each_restriction_once(monkeypatch, spec) -> None:
    # one replay runs on one session, so a rank >= 3 restriction equal in
    # content to one searched before is read from its memo
    m = spec_simple(spec)
    rep = is_inductively_free(m)
    doc = certificate(rep)
    calls: list[tuple[tuple, int]] = []
    search = induction.is_inductively_free

    def counted(sub, *args, **kwargs):
        report = search(sub, *args, **kwargs)
        calls.append((state_key(*sub), report.nodes))
        return report

    monkeypatch.setattr(induction, "is_inductively_free", counted)
    replay_table(m, doc)
    seen: set[tuple] = set()
    repeats = 0
    for key, nodes in calls:
        if key in seen:
            repeats += 1
            assert nodes == 0
        seen.add(key)
    assert repeats > 0


def test_replay_table_checks_the_document_shape() -> None:
    # the CLI checks the shape before it loads a fixture; the library checks it itself
    with pytest.raises(ValueError, match="^expected a JSON object, got list$"):
        replay_table(shipped_fixture("g33_a2_kappa"), [1, 2])


def test_replay_restricts_the_certificates_own_arrangement(monkeypatch) -> None:
    # every row's Euler restriction is read from the pattern of the
    # table's own arrangement at the row's hyperplane: one per label
    m = load_fixture(DATA / "a444_kappa.arr")
    doc = json.loads((DATA / "a444_kappa.json").read_text(encoding="utf-8"))
    built: list[tuple] = []
    pattern = rank2.EulerPattern
    monkeypatch.setattr(rank2, "EulerPattern", lambda arr, h0: built.append((arr, h0)) or pattern(arr, h0))
    euler_pattern.cache_clear()
    _, final = replay_table(m, doc)
    euler_pattern.cache_clear()
    assert final == (5, 9, 13)
    labels = {label for _, label, _ in doc["rows"]}
    assert len(labels) == 15
    assert all(arr is m.arrangement for arr, _ in built)
    assert sorted(h0 for _, h0 in built) == sorted(m.arrangement.index_of_label(label) for label in labels)


def test_replay_builds_no_copy(monkeypatch) -> None:
    # the base and every row's Euler restriction stay states of their
    # parents: no standalone copy is made, and no rank is taken
    m = load_fixture(DATA / "a444_kappa.arr")
    doc = json.loads((DATA / "a444_kappa.json").read_text(encoding="utf-8"))
    calls = []
    for module in (arrangement_module, induction, rank2):
        for name in ("multi", "rank_of"):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
    assert replay_table(m, doc)[1] == (5, 9, 13)
    assert calls == []


def test_replay_solves_each_euler_value_once(monkeypatch) -> None:
    # common_value runs once per (pattern, group, multiplicities), only for
    # groups of two or more members, and never again for a second replay:
    # the value is memoized in the pattern, not in a session
    m = load_fixture(DATA / "a444_kappa.arr")
    doc = json.loads((DATA / "a444_kappa.json").read_text(encoding="utf-8"))
    calls, solved = [], []
    value = rank2.EulerPattern.value

    def recorded(self, gid, mult):
        before = len(calls)
        out = value(self, gid, mult)
        if len(calls) > before:
            solved.append((self, gid, self.mults[gid](mult)))
        return out

    monkeypatch.setattr(rank2.EulerPattern, "value", recorded)
    monkeypatch.setattr(rank2, "common_value", lambda *args: calls.append(args) or common_value(*args))
    euler_pattern.cache_clear()
    assert replay_table(m, doc)[1] == (5, 9, 13)
    assert calls and len(calls) == len(solved) == len(set(solved))
    assert all(len(pat.groups[gid]) > 1 for pat, gid, _ in solved)
    assert replay_table(m, doc)[1] == (5, 9, 13)
    euler_pattern.cache_clear()
    assert len(calls) == len(solved)


def test_refuter_builds_no_two_line_plane(monkeypatch) -> None:
    # a flat of two lines gives its Euler values and its b2 term from the
    # multiplicities, so only flats of three or more lines get a plane
    asked = []
    build = rank2.indexed_plane
    monkeypatch.setattr(rank2, "indexed_plane", lambda arr, indices: asked.append(indices) or build(arr, indices))
    indexed_plane.cache_clear()
    euler_pattern.cache_clear()
    assert additive_refuter(shipped_fixture("g33_a2_kappa"), (7, 9, 11)).verdict == "chain_found"
    assert asked and all(len(indices) > 2 for indices in asked)
    assert build.cache_info().currsize == len(set(asked))


def test_table_rendering() -> None:
    rep = is_inductively_free(spec_simple("A:2:3:0"))
    text = emit_induction_table(rep)
    assert text.splitlines()[0].startswith("base [")
    assert "final exponents {1, 2, 3}" in text
    assert len(text.splitlines()) == len(rep.steps) + 4


def test_localization_obstruction_finds_the_failing_flat() -> None:
    obs = localization_obstruction(spec_simple("A:3:3:0"))
    assert obs.verdict == "obstructed"
    assert obs.flat is not None and obs.flat.rank == 3
    assert len(obs.flat.closed) == 9
    assert obs.scanned == 1
    clear = localization_obstruction(spec_simple("A:2:3:0"))
    assert clear.verdict == "clear" and clear.flat is None


def test_hereditary_verdicts() -> None:
    rep = hereditarily_inductively_free(intermediate(parse_spec_string("A:2:3:0")))
    assert rep.verdict == "yes"
    assert rep.checked == 14  # the arrangement, 6 rank-1 and 7 rank-2 flats
    rep = hereditarily_inductively_free(intermediate(parse_spec_string("A:3:3:0")))
    assert rep.verdict == "no"
    assert rep.failed_flat is None  # the arrangement itself already fails
    assert rep.checked == 1


def test_hereditary_of_a_rank_zero_arrangement() -> None:
    # no hyperplane: the arrangement itself is the only one to check
    arr = arrangement(2, 1, [])
    assert is_inductively_free(simple_multi(arr)).verdict == "yes"
    rep = hereditarily_inductively_free(arr)
    assert (rep.verdict, rep.failed_flat, rep.checked) == ("yes", None, 1)


# catalog arrangements of rank <= 3 only: an Euler restriction of a state
# orders its hyperplanes as the parent does, not as the support's copy,
# so in rank 4 the searches of rank-3 restrictions may walk in another
# order, and only the verdicts agree
SMALL_SPECS = [f"A:{r}:{l}:{k}" for r in (2, 3) for l in (2, 3) for k in range(l + 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.lists(st.integers(0, 2), min_size=15, max_size=15))
def test_a_state_and_its_copy_agree(text, mults) -> None:
    arr = intermediate(parse_spec_string(text))
    state = MultiArrangement(arr, tuple(mults[: arr.n]))
    copy = multi(*state)
    certified = rank2_exponents(state)
    assert certified == rank2_exponents(copy)
    low = low_rank_exponents(*state)
    assert low == low_rank_exponents(*copy)
    # the search's route against the certified one, on states check 7 never sees
    assert low == (None if certified is None else padded(certified.exponents, arr.dim))
    got, want = is_inductively_free(state, budget=2000), is_inductively_free(copy, budget=2000)
    assert (got.verdict, got.nodes, got.steps, got.base) == (want.verdict, want.nodes, want.steps, want.base)


def test_refuter_finds_the_known_chain() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    rep = additive_refuter(kappa, (7, 9, 11))
    assert rep.verdict == "chain_found"
    assert rep.explored == 28
    assert rep.chain is not None and len(rep.chain) == kappa.total == 27
    assert rep.dead_ends == 0 and rep.dead_end_digests == ()
    assert set(rep.chain) <= set(kappa.arrangement.labels)


def test_refuter_solves_few_planes(monkeypatch) -> None:
    # only planes past every closed form of plane_exponent_pair reach the
    # F_p proof, and here every one of them is balanced: no exact sweep
    calls, proofs = [], []
    solve, prove = rank2._order_basis, rank2._balanced_mod_p
    monkeypatch.setattr(rank2, "_order_basis", lambda *args: calls.append(args) or solve(*args))
    monkeypatch.setattr(rank2, "_balanced_mod_p", lambda *args: prove(*args) and not proofs.append(args))
    kappa = shipped_fixture("g33_a2_kappa")
    for exps, verdict, proven in (((7, 9, 11), "chain_found", 11), ((8, 8, 11), "refuted", 4)):
        # the Euler values are memoized in the patterns, so both caches start cold
        euler_pattern.cache_clear()
        plane_exponent_pair.cache_clear()
        calls.clear()
        proofs.clear()
        assert additive_refuter(kappa, exps).verdict == verdict
        assert (len(proofs), len(calls)) == (proven, 0), exps


def test_refuter_rejects_impossible_exponents_immediately() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    # b2 = 239 against e2(7, 10, 10) = 240 refutes at the root, with no walk
    rep = additive_refuter(kappa, (7, 10, 10))
    assert (rep.verdict, rep.explored, rep.dead_ends, rep.max_depth, rep.b2) == ("refuted", 1, 0, 0, 239)
    assert rep.dead_end_digests == () and not rep.digests_truncated
    # the walk alone finds the root a dead end
    rep = _deletion_walk(kappa, (7, 10, 10), 239)
    assert rep.verdict == "refuted"
    assert rep.explored == 1 and rep.dead_ends == 1
    assert len(rep.dead_end_digests) == 1 and not rep.digests_truncated
    # here b2 = e2(1, 4, 4) = 24, so the walk refutes
    rep = additive_refuter(spec_simple("A:3:3:0"), (1, 4, 4))
    assert rep.verdict == "refuted" and rep.explored == 1 and rep.dead_ends == 1
    assert rep.b2 == e2((1, 4, 4)) == 24


def test_refuter_pins_the_dead_end_digests() -> None:
    rep = _deletion_walk(shipped_fixture("g33_a2_kappa"), (8, 8, 11), 239)
    assert rep.verdict == "refuted"
    assert (rep.explored, rep.dead_ends) == (258, 49)
    digests = rep.dead_end_digests
    assert len(digests) == 49 and not rep.digests_truncated
    assert digests[:2] == ("3e27182ba4c3809c", "d4ec99bd0646f409")
    joined = hashlib.sha256(",".join(digests).encode()).hexdigest()
    assert joined == "45c9ed034e1f7f77ad5fe2acc2e6a8eb7c923a6b5067780e39945d854db40337"


def test_dead_end_digests_depend_on_content_only() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    arr = kappa.arrangement
    perm = list(range(arr.n))
    random.Random(4).shuffle(perm)
    reordered = arrangement(arr.dim, arr.zeta_order, [arr.hyperplanes[i] for i in perm], [arr.labels[i] for i in perm])
    copy = MultiArrangement(reordered, tuple(kappa.mult[i] for i in perm))
    digests = _deletion_walk(kappa, (8, 8, 11), 239).dead_end_digests
    copied = _deletion_walk(copy, (8, 8, 11), 239).dead_end_digests
    assert len(set(digests)) == 49 and set(copied) == set(digests)


def test_dead_end_digests_without_the_builtin_hash_module(monkeypatch) -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    builtin = _deletion_walk(kappa, (8, 8, 11), 239).dead_end_digests
    # a None entry makes the import fail, so _digest falls back to hashlib
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert _deletion_walk(kappa, (8, 8, 11), 239).dead_end_digests == builtin


def test_root_gate_agrees_with_the_walk_on_every_exponent_triple() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    b2 = rank2.local_b2(kappa)
    triples = [(a, b, 27 - a - b) for a in range(10) for b in range(a, 14) if b <= 27 - a - b]
    assert len(triples) == 75
    finished = 0
    for exps in triples:
        walk = _deletion_walk(kappa, exps, b2, budget=2_000)
        public = additive_refuter(kappa, exps, budget=2_000)
        if walk.verdict == "chain_found":
            assert b2 == e2(exps), exps
        if b2 != e2(exps):
            assert walk.verdict != "chain_found", exps
            assert (public.verdict, public.explored) == ("refuted", 1), exps
        if walk.verdict != "unknown":
            finished += 1
            assert public.verdict == walk.verdict, exps
    # {5,11,11} and {6,10,11} run past the budget; only {7,9,11} passes the gate
    assert finished == 73
    assert [exps for exps in triples if e2(exps) == b2] == [(7, 9, 11)]


def test_b2_matches_known_exponents() -> None:
    for name, exps in (("g33_a2_kappa", (7, 9, 11)), ("g34_g333_kappa", (13, 16, 19)), ("g34_a3_kappa_1", (13, 19, 23))):
        assert rank2.local_b2(shipped_fixture(name)) == e2(exps), name
    for r, ell in itertools.product((2, 3), (2, 3, 4)):
        for k in range(ell + 1):
            spec = IntermediateSpec(r, ell, k)
            assert rank2.local_b2(simple_multi(intermediate(spec))) == e2(expected_exponents(spec)), spec
    # the shipped refutations fail the identity at the root
    for name, exps, want in (
        ("g33_a2_kappa", (8, 8, 11), (239, 240)),
        ("g34_g333_kappa", (14, 15, 19), (759, 761)),
        ("g34_a1a2_kappa", (14, 18, 23), (983, 988)),
    ):
        rep = additive_refuter(shipped_fixture(name), exps)
        assert (rep.b2, e2(exps)) == want
        assert (rep.verdict, rep.explored, rep.dead_ends) == ("refuted", 1, 0)


def test_b2_closed_form_agrees_with_the_plane_route() -> None:
    # local_b2 reads two-line flats as (a, b) without a plane; every flat
    # through pair_for of its indexed plane must give the same sum
    rng = random.Random(7)
    inputs = [shipped_fixture(name) for name in ("g33_a2_kappa", "g34_g333_kappa")]
    for spec in ("A:2:3:1", "A:3:3:0", "A:3:4:2"):
        arr = intermediate(parse_spec_string(spec))
        inputs.append(multi(arr, [rng.randint(1, 4) for _ in range(arr.n)]))
    two_line = 0
    for m in inputs:
        arr = m.arrangement
        flats = {flat for h in range(arr.n) for flat in euler_pattern(arr, h).flats}
        two_line += sum(len(flat) == 2 for flat in flats)
        planes = (tuple((line, m.mult[p]) for line, p in indexed_plane(arr, flat)) for flat in flats)
        assert rank2.local_b2(m) == sum(d1 * d2 for d1, d2 in (rank2.pair_for(plane, arr.zeta_order) for plane in planes))
    assert two_line > 0


def test_refuter_validates_the_exponents() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    with pytest.raises(ValueError, match="sum to"):
        additive_refuter(kappa, (7, 9, 12))
    with pytest.raises(ValueError, match="per ambient dimension"):
        additive_refuter(kappa, (13, 14))
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        additive_refuter(kappa, (-1, 12, 16))
    assert additive_refuter(kappa, (0, 0, 27)).verdict == "refuted"


def test_refuter_walks_chains_deeper_than_the_recursion_limit() -> None:
    forms = ("(1, 0, 0)", "(0, 1, 0)", "(0, 0, 1)")
    boolean = parse_fixture("dim 3\nzeta 1\n" + "".join(f"form {f} mult 400\n" for f in forms))
    rep = additive_refuter(boolean, (400, 400, 400))
    assert rep.verdict == "chain_found"
    assert (rep.explored, rep.dead_ends, rep.max_depth) == (1201, 0, 1200)
    assert rep.chain is not None and len(rep.chain) == 1200


def test_refuter_budget() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    rep = additive_refuter(kappa, (7, 9, 11), budget=0)
    # the first state already overdraws a budget of 0
    assert (rep.verdict, rep.explored) == ("unknown", 1)
    # so does the root of a refutation by b2
    rep = additive_refuter(kappa, (8, 8, 11), budget=0)
    assert (rep.verdict, rep.explored, rep.b2) == ("unknown", 1, 239)
    assert additive_refuter(kappa, (8, 8, 11), budget=1).verdict == "refuted"
    # the walk alone runs out there, after 24 dead ends
    rep = _deletion_walk(kappa, (8, 8, 11), 239, budget=100)
    assert (rep.verdict, rep.explored, rep.dead_ends) == ("unknown", 101, 24)
