"""Search engine verdicts, certificates, replay, and the refuter."""

from __future__ import annotations

import pytest

from multiarr.arrangement import simple_multi, ziegler_multiplicity
from multiarr.catalog import intermediate, parse_fixture, parse_spec_string, shipped_fixture
from multiarr.induction import (
    additive_refuter,
    check_addition_step,
    clear_memo,
    emit_induction_table,
    hereditarily_inductively_free,
    is_inductively_free,
    localization_obstruction,
    replay_addition_rows,
    table_rows,
)


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
    clear_memo()
    rep = is_inductively_free(spec_simple("A:2:3:0"))
    assert rep.verdict == "yes" and rep.is_free
    assert tuple(sorted(rep.exponents)) == (1, 2, 3)
    assert rep.nodes == 6
    assert len(rep.steps) == 4
    # the chain is internally consistent step to step
    assert rep.steps[0].exponents_before == rep.base_exponents
    for a, b in zip(rep.steps, rep.steps[1:]):
        assert a.exponents_after == b.exponents_before
    assert rep.steps[-1].exponents_after == rep.exponents
    for s in rep.steps:
        assert check_addition_step(s.exponents_before, s.restriction_exponents) == s.exponents_after
    # base: a rank-2 seed whose multiplicities the steps complete
    assert sum(m for _, m in rep.base) + len(rep.steps) == 6


def test_memo_makes_repeats_free() -> None:
    clear_memo()
    first = is_inductively_free(spec_simple("A:2:3:0"))
    again = is_inductively_free(spec_simple("A:2:3:0"))
    assert first.nodes > 0 and again.nodes == 0
    assert again.exponents == first.exponents


def test_g333_is_exhaustively_negative() -> None:
    clear_memo()
    rep = is_inductively_free(spec_simple("A:3:3:0"))
    assert rep.verdict == "no" and not rep.is_free
    assert rep.exponents is None and rep.steps == ()
    assert rep.nodes == 256


def test_budget_exhaustion_is_unknown_and_unpoisoned() -> None:
    clear_memo()
    rep = is_inductively_free(spec_simple("A:3:3:0"), budget=10)
    assert rep.verdict == "unknown"
    assert rep.nodes == 11 and rep.budget == 10
    rep = is_inductively_free(spec_simple("A:3:3:0"))
    assert rep.verdict == "no"
    clear_memo()
    rep = is_inductively_free(spec_simple("A:2:3:0"), budget=2)
    assert rep.verdict == "unknown"
    rep = is_inductively_free(spec_simple("A:2:3:0"))
    assert rep.verdict == "yes"


def test_progress_hook_fires_every_thousand_nodes() -> None:
    clear_memo()
    calls: list[int] = []
    rep = is_inductively_free(spec_simple("A:3:4:0"), budget=2500, progress=calls.append)
    assert rep.verdict == "unknown"
    assert calls == [1000, 2000]
    clear_memo()


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
    rows = [(tuple(a), lab, tuple(b)) for a, lab, b in table_rows(rep)]
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


def test_table_rendering() -> None:
    rep = is_inductively_free(spec_simple("A:2:3:0"))
    text = emit_induction_table(rep)
    assert text.splitlines()[0].startswith("base [")
    assert "final exponents {1, 2, 3}" in text
    assert len(text.splitlines()) == len(rep.steps) + 4
    negative = is_inductively_free(spec_simple("A:3:3:0"))
    assert emit_induction_table(negative).startswith("verdict: no")


def test_localization_obstruction_finds_the_failing_flat() -> None:
    obs = localization_obstruction(spec_simple("A:3:3:0"))
    assert obs.verdict == "obstructed"
    assert obs.flat is not None and obs.flat.rank == 3
    assert len(obs.flat_labels) == 9
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


def test_refuter_finds_the_known_chain() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    rep = additive_refuter(kappa, (7, 9, 11))
    assert rep.verdict == "chain_found"
    assert rep.explored == 28
    assert rep.chain is not None and len(rep.chain) == kappa.total == 27
    assert rep.dead_ends == 0 and rep.dead_end_digests == ()
    assert set(rep.chain) <= set(kappa.arrangement.labels)


def test_refuter_rejects_impossible_exponents_immediately() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    rep = additive_refuter(kappa, (7, 10, 10))
    assert rep.verdict == "refuted"
    assert rep.explored == 1 and rep.dead_ends == 1
    assert len(rep.dead_end_digests) == 1 and not rep.digests_truncated
    rep = additive_refuter(spec_simple("A:3:3:0"), (1, 4, 4))
    assert rep.verdict == "refuted" and rep.explored == 1


def test_refuter_validates_the_exponents() -> None:
    kappa = shipped_fixture("g33_a2_kappa")
    with pytest.raises(ValueError, match="sum to"):
        additive_refuter(kappa, (7, 9, 12))
    with pytest.raises(ValueError, match="per ambient dimension"):
        additive_refuter(kappa, (13, 14))


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
    assert rep.verdict == "unknown" and rep.budget == 0
