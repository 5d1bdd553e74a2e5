"""Generated families, fixture files, shipped data, and isomorphism search."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarr.arrangement import (
    arrangement,
    characteristic_polynomial,
    hyperplane_flat,
    intersection_lattice,
    linear_form,
    localize_multi,
    multi,
    restriction,
    simple_multi,
    state_key,
)
from multiarr.catalog import (
    FixtureError,
    IntermediateSpec,
    expected_exponents,
    find_linear_isomorphism,
    format_fixture,
    intermediate,
    load_fixture,
    parse_fixture,
    parse_spec_string,
    restriction_type,
    shipped_fixture,
    shipped_fixture_names,
    shipped_table,
    shipped_table_names,
)
from multiarr.scalars import rational, zero

ALL_SPECS = [
    IntermediateSpec(r, ell, k) for r in (2, 3, 4) for ell in (2, 3, 4) for k in range(ell + 1)
]


def test_spec_validation() -> None:
    with pytest.raises(ValueError, match="r >= 2"):
        IntermediateSpec(1, 3, 0)
    with pytest.raises(ValueError, match="l >= 2"):
        IntermediateSpec(3, 1, 0)
    with pytest.raises(ValueError, match="0 <= k"):
        IntermediateSpec(3, 3, 4)
    assert IntermediateSpec(2, 3, 0).zeta_order == 1  # signs live in Q
    assert IntermediateSpec(4, 3, 0).zeta_order == 4


def test_spec_string_round_trip() -> None:
    for spec in ALL_SPECS:
        assert parse_spec_string(str(spec)) == spec
    for bad in ("A:3:3", "B:3:3:0", "A:3:x:0", "A:1:3:0", "A:3:3:9", ""):
        with pytest.raises(ValueError):
            parse_spec_string(bad)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
def test_intermediate_counts_and_labels(spec: IntermediateSpec) -> None:
    arr = intermediate(spec)
    assert arr.n == spec.count == spec.k + spec.r * spec.ell * (spec.ell - 1) // 2
    assert arr.dim == spec.ell
    assert len(set(arr.labels)) == arr.n
    assert all(arr.labels[i] == f"H_{i + 1}" for i in range(spec.k))
    assert all(lab.startswith("H_{") for lab in arr.labels[spec.k :])
    exps = expected_exponents(spec)
    assert sum(exps) == arr.n
    assert len(exps) == spec.ell


def test_expected_exponent_values() -> None:
    assert expected_exponents(IntermediateSpec(3, 4, 1)) == (1, 4, 7, 7)
    assert expected_exponents(IntermediateSpec(3, 3, 0)) == (1, 4, 4)
    assert expected_exponents(IntermediateSpec(2, 3, 0)) == (1, 2, 3)


@pytest.mark.parametrize("text", ["A:3:3:0", "A:3:3:2", "A:4:3:3", "A:2:4:2"])
def test_restriction_type_matches_the_restriction(text: str) -> None:
    spec = parse_spec_string(text)
    arr = intermediate(spec)
    for h in range(arr.n):
        predicted = intermediate(restriction_type(spec, h))
        actual = restriction(arr, hyperplane_flat(arr, h)).arrangement
        assert actual.n == predicted.n
        assert characteristic_polynomial(actual) == characteristic_polynomial(predicted)


def test_restriction_type_up_to_linear_isomorphism() -> None:
    # 47 pairs; in 17 restrictions no form has all coordinates nonzero in
    # the first basis of forms, so no projective frame exists there
    for text in ("A:2:4:0", "A:2:4:4", "A:3:4:1"):
        spec = parse_spec_string(text)
        arr = intermediate(spec)
        for h in range(arr.n):
            actual = simple_multi(restriction(arr, hyperplane_flat(arr, h)).arrangement)
            predicted = simple_multi(intermediate(restriction_type(spec, h)))
            assert_maps(actual, predicted, find_linear_isomorphism(actual, predicted))


def test_restriction_type_lookup() -> None:
    spec = parse_spec_string("A:3:3:1")
    assert restriction_type(spec, "H_1") == IntermediateSpec(3, 2, 2)
    with pytest.raises(IndexError):
        restriction_type(spec, 99)


def intermediate_sub_multis():
    arr = intermediate(parse_spec_string("A:3:3:0"))
    return st.lists(
        st.tuples(st.sampled_from(range(arr.n)), st.integers(1, 4)),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    ).map(
        lambda picks: multi(
            arrangement(
                arr.dim,
                arr.zeta_order,
                [arr.hyperplanes[i] for i, _ in picks],
            ),
            [m for _, m in picks],
        )
    )


@settings(max_examples=40)
@given(intermediate_sub_multis())
def test_fixture_format_round_trips(m) -> None:
    text = format_fixture(m, header="scratch\nsecond line")
    assert text.startswith("# scratch\n# second line\n")
    parsed = parse_fixture(text)
    assert state_key(*parsed) == state_key(*m)


def test_fixture_parsing_tolerates_comments() -> None:
    text = "\n".join(
        [
            "# a comment",
            "dim 2",
            "",
            "zeta 3",
            "form (1, z) mult 2  # trailing",
            "form (0, 1) mult 1",
        ]
    )
    m = parse_fixture(text)
    assert m.arrangement.n == 2
    assert m.mult == (2, 1)
    assert m.arrangement.zeta_order == 3


@pytest.mark.parametrize(
    ("text", "line", "needle"),
    [
        ("zeta 3\nform (1) mult 1", 2, "before dim/zeta"),
        ("dim 2\nzeta 3\nbogus x", 3, "unknown keyword"),
        ("dim 2\ndim 2", 2, "duplicate dim"),
        ("dim 2\nzeta 1\nzeta 1", 3, "duplicate zeta"),
        ("dim 2\nzeta 1001\nform (1, 0) mult 1", 2, "zeta must be at most 1000, got 1001"),
        ("dim x", 1, "needs an integer"),
        ("dim 2\nzeta 1\nform 1, 0 mult 1", 3, "expected form \\("),
        ("dim 0", 1, "must be positive"),
        ("dim 2\nzeta 1\nform (1) mult 1", 3, "expected 2 coefficients"),
        ("dim 2\nzeta 1\nform (1, 0) mult 0", 3, "must be positive"),
        ("dim 2\nzeta 1\nform (1, q) mult 1", 3, "bad scalar"),
        ("dim 2\nzeta 3\nform (1, z^\u00b2) mult 1", 3, "bad scalar"),
        ("dim 2\nzeta 1\nform (1, 0 mult 1", 3, "unterminated"),
        ("dim 2\nzeta 1\nform (1, 0)", 3, "mult"),
        ("dim 2\nzeta 1", 0, "no hyperplanes"),
        ("", 0, "missing dim or zeta"),
        ("dim 2\nzeta 1\nform (1, 0) mult 1\nform (2, 0) mult 1", 4, "coincides with the one on line 3"),
        ("dim 2\nzeta 1\nform (1, 1) mult 1\n# a comment\nform (0, 1) mult 2\n\nform (3, 3) mult 1", 7, "line 3: \\(1, 1\\)"),
        ("dim 2\nzeta 1\nform (0, 0) mult 1", 3, "zero linear form"),
        # misplaced parentheses: the coefficient count or the scalar
        # grammar rejects them, whichever sees them first
        ("dim 2\nzeta 1\nform ((1, 0)) mult 1", 3, None),
        ("dim 2\nzeta 1\nform (1), (0) mult 1", 3, None),
        ("dim 2\nzeta 1\nform (1, (0) mult 1", 3, None),
        ("dim 2\nzeta 1\nform (1, 0)) mult 1", 3, None),
    ],
)
def test_fixture_errors_carry_line_numbers(text: str, line: int, needle: str | None) -> None:
    with pytest.raises(FixtureError, match=needle) as exc:
        parse_fixture(text)
    assert exc.value.line == line


def test_nested_parentheses_in_a_coefficient() -> None:
    nested = parse_fixture("dim 2\nzeta 3\nform ((1 - z)*(1 + z), 1) mult 2\nform (0, 1) mult 1\n")
    flat = parse_fixture("dim 2\nzeta 3\nform (1 - z^2, 1) mult 2\nform (0, 1) mult 1\n")
    assert nested == flat


def test_load_fixture_from_disk(tmp_path) -> None:
    target = tmp_path / "tiny.arr"
    target.write_text("dim 2\nzeta 1\nform (1, 0) mult 3\n", encoding="utf-8")
    m = load_fixture(target)
    assert m.total == 3 and m.arrangement.dim == 2


def test_shipped_fixture_inventory() -> None:
    names = shipped_fixture_names()
    assert names == (
        "g33_a1",
        "g33_a2_kappa",
        "g34_a1a2_kappa",
        "g34_a1sq",
        "g34_a2",
        "g34_a3_kappa_1",
        "g34_a3_kappa_2",
        "g34_g333_kappa",
    )
    shapes = {name: (shipped_fixture(name).arrangement.n, shipped_fixture(name).total) for name in names}
    assert shapes == {
        "g33_a1": (28, 28),
        "g33_a2_kappa": (14, 27),
        "g34_a1a2_kappa": (30, 55),
        "g34_a1sq": (56, 56),
        "g34_a2": (49, 49),
        "g34_a3_kappa_1": (25, 55),
        "g34_a3_kappa_2": (25, 48),
        "g34_g333_kappa": (21, 48),
    }
    for name in names:
        assert shipped_fixture(name).arrangement.zeta_order == 3
    with pytest.raises(KeyError, match="g33_a1"):
        shipped_fixture("nope")


def test_shipped_tables() -> None:
    assert shipped_table_names() == (
        "g33_a2_kappa",
        "g34_a1a2_kappa",
        "g34_a3_kappa_1",
        "g34_a3_kappa_2",
        "g34_g333_kappa",
    )
    finals = {}
    for name in shipped_table_names():
        payload = shipped_table(name)
        assert payload["fixture"] == name
        assert len(payload["rows"]) >= 13
        for before, label, restricted in payload["rows"]:
            assert isinstance(label, str)
            assert len(before) == 3 and len(restricted) == 2
        finals[name] = tuple(sorted(payload["final_exponents"]))
    assert finals == {
        "g33_a2_kappa": (7, 9, 11),
        "g34_a1a2_kappa": (13, 19, 23),
        "g34_a3_kappa_1": (13, 19, 23),
        "g34_a3_kappa_2": (13, 16, 19),
        "g34_g333_kappa": (13, 16, 19),
    }
    with pytest.raises(KeyError, match="no shipped table"):
        shipped_table("nope")


def times(row, t):
    """The row vector ``row`` times the matrix ``t``."""
    return [sum((x * t_row[j] for x, t_row in zip(row, t)), zero(row[0].order)) for j in range(len(t[0]))]


def assert_maps(src, dst, t) -> None:
    """T sends the source forms onto the target forms, multiplicities included."""
    assert t is not None
    target = dict(zip(dst.arrangement.hyperplanes, dst.mult))
    images = {}
    for f, mu in zip(src.arrangement.hyperplanes, src.mult):
        image = linear_form(times(f.coeffs, t))
        assert target.get(image) == mu
        images[image] = mu
    assert images == target


def transformed_copy(m, t_rows):
    t = [[rational(c, m.arrangement.zeta_order) for c in row] for row in t_rows]
    forms = [times(f.coeffs, t) for f in m.arrangement.hyperplanes]
    arr = arrangement(m.arrangement.dim, m.arrangement.zeta_order, forms)
    return multi(arr, list(m.mult))


def test_fingerprint_and_isomorphism_under_a_linear_map() -> None:
    src = simple_multi(intermediate(parse_spec_string("A:3:3:0")))
    dst = transformed_copy(src, ((1, 1, 0), (0, 1, 0), (2, 0, 1)))
    t = find_linear_isomorphism(src, dst)
    assert t is not None
    # the returned matrix really maps the source forms onto the target set
    target = set(dst.arrangement.hyperplanes)
    for f in src.arrangement.hyperplanes:
        image = times(f.coeffs, t)
        lead = next(c for c in image if c)
        assert tuple(c * lead.inverse() for c in image) in {h.coeffs for h in target}


def test_isomorphism_respects_multiplicities() -> None:
    base = intermediate(parse_spec_string("A:3:3:0"))
    src = multi(base, [2] + [1] * (base.n - 1))
    same = multi(base, [2] + [1] * (base.n - 1))
    moved = multi(base, [1, 2] + [1] * (base.n - 2))
    assert find_linear_isomorphism(src, same) is not None
    assert find_linear_isomorphism(src, simple_multi(base)) is None
    # moving the heavy hyperplane to another root is a symmetry of this family
    assert find_linear_isomorphism(src, moved) is not None


def test_isomorphism_rejects_different_sizes() -> None:
    a = simple_multi(intermediate(parse_spec_string("A:3:3:0")))
    b = simple_multi(intermediate(parse_spec_string("A:3:3:1")))
    assert find_linear_isomorphism(a, b) is None


def test_window_specs_are_self_isomorphic() -> None:
    # in 16 of the 36, among them B4 (A:2:4:4), G(3,1,3) and G(4,1,4), no
    # form has all coordinates nonzero in the first basis of forms
    for spec in ALL_SPECS:
        m = simple_multi(intermediate(spec))
        assert_maps(m, m, find_linear_isomorphism(m, m))


def test_isomorphism_refuses_a_non_essential_source() -> None:
    arr = intermediate(parse_spec_string("A:3:3:0"))
    flat = next(f for f in intersection_lattice(arr, 2) if f.rank == 2)
    loc = multi(*localize_multi(simple_multi(arr), flat))
    with pytest.raises(ValueError, match="essentialize"):
        find_linear_isomorphism(loc, loc)


def det3(t) -> int:
    return sum(
        sign * t[0][p[0]] * t[1][p[1]] * t[2][p[2]]
        for p, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1))
    )


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(["A:2:3:0", "A:2:3:3", "A:3:3:0", "A:3:3:2", "A:4:3:0"]),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3), min_size=3, max_size=3).filter(det3),
    st.lists(st.integers(1, 3), min_size=12, max_size=12),
    st.randoms(use_true_random=False),
)
def test_isomorphism_found_under_a_random_linear_map(text, t_rows, mults, rng) -> None:
    # at most 12 forms in dim 3: an exhaustive "no" tries every candidate D
    arr = intermediate(parse_spec_string(text))
    src = multi(arr, mults[: arr.n])
    order = list(range(arr.n))
    rng.shuffle(order)
    shuffled = multi(arrangement(3, arr.zeta_order, [arr.hyperplanes[i] for i in order]), [src.mult[i] for i in order])
    dst = transformed_copy(shuffled, t_rows)
    assert_maps(src, dst, find_linear_isomorphism(src, dst))
    # 11 > 3 + 7, so (3, 7, 11) vanishes at no nonzero point whose
    # coordinates are 0 or roots of unity: it lies on no multiple point,
    # and every form of the family lies on one, so the lattices differ
    forms = list(shuffled.arrangement.hyperplanes)
    forms[rng.randrange(arr.n)] = linear_form([rational(c, arr.zeta_order) for c in (3, 7, 11)])
    perturbed = transformed_copy(multi(arrangement(3, arr.zeta_order, forms), list(shuffled.mult)), t_rows)
    assert find_linear_isomorphism(src, perturbed) is None
    assert find_linear_isomorphism(perturbed, src) is None
