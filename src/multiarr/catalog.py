"""Generated arrangement families, fixture files, and isomorphism search.

The intermediate family A^k_l(r) has defining polynomial
x_1 ... x_k * prod_{i<j, 0<=n<r} (x_i - zeta^n x_j), interpolating
between the full monomial reflection arrangement (k = l) and its
index-r subgroup's arrangement (k = 0).  Closed-form exponents and the
behaviour of restrictions within the family are provided alongside the
generator so they can be checked against the generic machinery.

Fixture files are line-oriented: `dim <l>`, `zeta <r>` with r at most
``scalars.MAX_ORDER``, then one `form (<scalar>, ...) mult <n>` line per
hyperplane; `#` starts a comment.  Coefficients are split at commas,
which no scalar contains, and each is checked by ``parse_scalar`` alone.
Hyperplanes keep file order and receive labels a1, a2, ... by position.

``find_linear_isomorphism`` searches in coordinates on a basis of source
forms and is complete: None means that no linear isomorphism exists.
"""

from __future__ import annotations

import functools
import json
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

from . import linalg
from .arrangement import (
    Arrangement,
    LinearForm,
    MultiArrangement,
    arrangement,
    linear_form,
    multi,
)
from .scalars import MAX_ORDER, Scalar, ScalarParseError, one, parse_scalar, zero, zeta

__all__ = [
    "FixtureError",
    "IntermediateSpec",
    "expected_exponents",
    "find_linear_isomorphism",
    "format_fixture",
    "intermediate",
    "load_fixture",
    "parse_fixture",
    "parse_spec_string",
    "restriction_type",
    "shipped_fixture",
    "shipped_fixture_names",
    "shipped_table",
    "shipped_table_names",
]


class IntermediateSpec(NamedTuple("IntermediateSpec", [("r", int), ("ell", int), ("k", int)])):
    """Parameters (r, l, k) of A^k_l(r); 0 <= k <= l, 2 <= r <= MAX_ORDER, l >= 2."""

    __slots__ = ()

    def __new__(cls, r: int, ell: int, k: int) -> IntermediateSpec:
        if r < 2:
            raise ValueError(f"need r >= 2, got {r}")
        if r > MAX_ORDER:
            raise ValueError(f"need r <= {MAX_ORDER}, got {r}")
        if ell < 2:
            raise ValueError(f"need l >= 2, got {ell}")
        if not 0 <= k <= ell:
            raise ValueError(f"need 0 <= k <= {ell}, got {k}")
        return super().__new__(cls, r, ell, k)

    @property
    def zeta_order(self) -> int:
        # r = 2 only needs the sign -1, which lives in plain Q
        return 1 if self.r == 2 else self.r

    @property
    def count(self) -> int:
        return self.k + self.r * self.ell * (self.ell - 1) // 2

    def __str__(self) -> str:
        return f"A:{self.r}:{self.ell}:{self.k}"


def parse_spec_string(text: str) -> IntermediateSpec:
    """Parse "A:r:l:k" (as used by the command line)."""
    parts = text.split(":")
    if len(parts) != 4 or parts[0] != "A":
        raise ValueError(f"expected A:r:l:k, got {text!r}")
    try:
        r, ell, k = (int(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"expected integers in A:r:l:k, got {text!r}") from None
    return IntermediateSpec(r, ell, k)


def _root_of_unity(spec: IntermediateSpec, n: int) -> Scalar:
    if spec.r == 2:
        return one(1) if n % 2 == 0 else -one(1)
    return zeta(spec.r, n)


@functools.lru_cache(maxsize=None)
def intermediate(spec: IntermediateSpec) -> Arrangement:
    """The arrangement A^k_l(r), coordinate forms first, labelled.

    Labels follow the H_i / H_{i,j}(z^n) naming, with the root of unity
    rendered through the scalar grammar, e.g. H_{1,2}(z^2).

    >>> intermediate(IntermediateSpec(3, 3, 0)).n
    9
    >>> intermediate(IntermediateSpec(3, 4, 1)).n
    19
    >>> intermediate(IntermediateSpec(3, 3, 3)).labels[:4]
    ('H_1', 'H_2', 'H_3', 'H_{1,2}(1)')
    """
    order = spec.zeta_order
    ell = spec.ell
    z, o = zero(order), one(order)
    forms: list[tuple[Scalar, ...]] = []
    labels: list[str] = []
    for i in range(spec.k):
        forms.append(tuple(o if j == i else z for j in range(ell)))
        labels.append(f"H_{i + 1}")
    for i, j in combinations(range(ell), 2):
        for n in range(spec.r):
            root = _root_of_unity(spec, n)
            forms.append(tuple(o if a == i else -root if a == j else z for a in range(ell)))
            labels.append(f"H_{{{i + 1},{j + 1}}}({root})")
    return arrangement(ell, order, forms, labels)


def expected_exponents(spec: IntermediateSpec) -> tuple[int, ...]:
    """Closed-form exponent multiset of A^k_l(r); sums to the count.

    >>> expected_exponents(IntermediateSpec(3, 4, 1))
    (1, 4, 7, 7)
    >>> expected_exponents(IntermediateSpec(3, 3, 0))
    (1, 4, 4)
    """
    r, ell, k = spec.r, spec.ell, spec.k
    exps = [1] + [i * r + 1 for i in range(1, ell - 1)] + [(ell - 1) * r - ell + k + 1]
    out = tuple(sorted(exps))
    assert sum(out) == spec.count
    return out


def restriction_type(spec: IntermediateSpec, h: int | str) -> IntermediateSpec:
    """The family member isomorphic to the restriction of A^k_l(r) at h.

    ``h`` is an index or label of :func:`intermediate`'s output.  The
    classification depends only on where the form sits relative to k:

    - k = 0: every restriction is A^1_{l-1}(r)
    - coordinate form, or k = l: A^{l-1}_{l-1}(r)
    - H_{i,j} with j <= k: A^{k-1}_{l-1}(r)
    - H_{i,j} with i <= k < j: A^k_{l-1}(r)
    - H_{i,j} with k < i < j: A^{k+1}_{l-1}(r)
    """
    arr = intermediate(spec)
    idx = arr.index_of_label(h) if isinstance(h, str) else h
    if not 0 <= idx < arr.n:
        raise IndexError(f"hyperplane {idx} not in {spec}")
    ell, k = spec.ell, spec.k
    if idx < k:
        return IntermediateSpec(spec.r, ell - 1, ell - 1)
    if k == 0:
        return IntermediateSpec(spec.r, ell - 1, 1)
    if k == ell:
        return IntermediateSpec(spec.r, ell - 1, ell - 1)
    pair = (idx - k) // spec.r
    i, j = list(combinations(range(1, ell + 1), 2))[pair]
    if j <= k:
        new_k = k - 1
    elif i <= k:
        new_k = k
    else:
        new_k = k + 1
    return IntermediateSpec(spec.r, ell - 1, new_k)


class FixtureError(ValueError):
    """A fixture file failed to parse; carries the offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_fixture(text: str) -> MultiArrangement:
    """Parse the line-oriented fixture format into a multiarrangement."""
    dim: int | None = None
    order: int | None = None
    form_lines: dict[LinearForm, int] = {}  # normalized form -> its line, in file order
    mults: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        keyword = fields[0]
        rest = fields[1] if len(fields) > 1 else ""
        if keyword == "dim":
            if dim is not None:
                raise FixtureError(lineno, "duplicate dim header")
            dim = _positive_int(rest, lineno, "dim")
        elif keyword == "zeta":
            if order is not None:
                raise FixtureError(lineno, "duplicate zeta header")
            order = _positive_int(rest, lineno, "zeta")
            if order > MAX_ORDER:
                raise FixtureError(lineno, f"zeta must be at most {MAX_ORDER}, got {order}")
        elif keyword == "form":
            if dim is None or order is None:
                raise FixtureError(lineno, "form before dim/zeta headers")
            form, mult = _parse_form_line(rest, lineno, dim, order)
            if form in form_lines:
                raise FixtureError(lineno, f"hyperplane coincides with the one on line {form_lines[form]}: {form}")
            form_lines[form] = lineno
            mults.append(mult)
        else:
            raise FixtureError(lineno, f"unknown keyword {keyword!r}")
    if dim is None or order is None:
        raise FixtureError(0, "missing dim or zeta header")
    if not form_lines:
        raise FixtureError(0, "no hyperplanes")
    return multi(arrangement(dim, order, list(form_lines)), mults)


def _positive_int(text: str, lineno: int, what: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise FixtureError(lineno, f"{what} needs an integer, got {text!r}") from None
    if value < 1:
        raise FixtureError(lineno, f"{what} must be positive")
    return value


def _parse_form_line(rest: str, lineno: int, dim: int, order: int) -> tuple[LinearForm, int]:
    rest = rest.strip()
    if not rest.startswith("("):
        raise FixtureError(lineno, "expected form (<scalar>, ...)")
    close = rest.rfind(")")
    if close < 0:
        raise FixtureError(lineno, "unterminated coefficient tuple")
    body, tail = rest[1:close], rest[close + 1 :].strip()
    if not tail.startswith("mult"):
        raise FixtureError(lineno, "expected trailing 'mult <n>'")
    mult = _positive_int(tail[4:], lineno, "mult")
    pieces = body.split(",")
    if len(pieces) != dim:
        raise FixtureError(lineno, f"expected {dim} coefficients, got {len(pieces)}")
    coeffs = []
    for piece in pieces:
        try:
            coeffs.append(parse_scalar(piece, order))
        except ScalarParseError as exc:
            raise FixtureError(lineno, f"bad scalar {piece.strip()!r}: {exc}") from exc
    try:
        return linear_form(coeffs), mult
    except ValueError as exc:
        raise FixtureError(lineno, str(exc)) from exc


def format_fixture(m: MultiArrangement, header: str | None = None) -> str:
    """Serialize a multiarrangement in the fixture format (round-trips)."""
    arr = m.arrangement
    lines = []
    if header:
        lines.extend(f"# {h}".rstrip() for h in header.splitlines())
    lines.append(f"dim {arr.dim}")
    lines.append(f"zeta {arr.zeta_order}")
    for form, mu in zip(arr.hyperplanes, m.mult):
        coeffs = ", ".join(str(c) for c in form.coeffs)
        lines.append(f"form ({coeffs}) mult {mu}")
    return "\n".join(lines) + "\n"


def load_fixture(path) -> MultiArrangement:
    """Load a fixture file from a filesystem path."""
    with open(path, encoding="utf-8") as fh:
        return parse_fixture(fh.read())


def shipped_fixture_names() -> tuple[str, ...]:
    files = Path(__file__).with_name("fixtures")
    return tuple(sorted(p.name[: -len(".arr")] for p in files.iterdir() if p.name.endswith(".arr")))


@functools.lru_cache(maxsize=None)
def shipped_fixture(name: str) -> MultiArrangement:
    """Load one of the fixtures shipped with the package, by stem name."""
    path = Path(__file__).with_name("fixtures") / f"{name}.arr"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no shipped fixture {name!r}; have {shipped_fixture_names()}") from None
    return parse_fixture(text)


def shipped_table_names() -> tuple[str, ...]:
    files = Path(__file__).with_name("tables")
    return tuple(sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json")))


@functools.lru_cache(maxsize=None)
def shipped_table(name: str) -> dict:
    """Load one of the frozen addition tables shipped with the package.

    The payload carries the fixture stem it certifies, the exponents of
    the starting multiarrangement, the expected final exponents, and the
    rows as [exponents-before, hyperplane label, restriction-exponents].
    """
    path = Path(__file__).with_name("tables") / f"{name}.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise KeyError(f"no shipped table {name!r}; have {shipped_table_names()}") from None
    missing = {"fixture", "start_exponents", "final_exponents", "rows"} - payload.keys()
    if missing:
        raise ValueError(f"table {name!r} lacks keys {sorted(missing)}")
    return payload


def find_linear_isomorphism(src: MultiArrangement, dst: MultiArrangement):
    """A matrix T with {src_i . T} = {dst_j} up to scalars, or None.

    T acts on coefficient rows; multiplicities must correspond.  None
    means that no such T exists; a source of rank below its dim raises
    ValueError (``arrangement.essentialize`` it first).

    Any T sends the first dim independent source forms S to independent
    dst forms D, scaled by some lambda, so the source form with
    S-coordinates s goes to the dst form with D-coordinates s_a*lambda_a,
    of the same support.  Every D from the matching multiplicity classes
    with the source's supports is tried.  lambda is fixed by connectors:
    forms, taken in order, whose support joins classes of coordinates.  A
    connector's image has its support and agrees with lambda up to one
    factor per joined class, which fixes those factors and merges the
    classes; lambda is 1 between the final classes.  Last, every image is
    looked up, with its multiplicity.

    Completeness: T's D is tried.  T's image of a connector is the unique
    dst form proportional to sum(s_a*lambda_a*D_a), a candidate, and
    taking it keeps lambda equal to T's up to one factor per class.  No
    form's support crosses two final classes, so that lambda sends every
    form where T does.
    """
    arr_s, arr_d = src.arrangement, dst.arrangement
    d = arr_s.dim
    rows_s = [f.coeffs for f in arr_s.hyperplanes]
    base, echelon, pivots = [], (), ()
    for i, row in enumerate(rows_s):
        ext = linalg.extend_echelon(echelon, pivots, row) if len(base) < d else None
        if ext is not None:
            (echelon, pivots), base = ext, base + [i]
    if len(base) < d:
        raise ValueError(f"the source has rank {len(base)} < dim {d}; essentialize it first")
    if (d, arr_s.zeta_order, arr_s.n, sorted(src.mult)) != (
        arr_d.dim,
        arr_d.zeta_order,
        arr_d.n,
        sorted(dst.mult),
    ):
        return None
    smat = [rows_s[i] for i in base]
    coords = linalg.coordinates(smat, rows_s)
    rows_d = [f.coeffs for f in arr_d.hyperplanes]
    shape = sorted((tuple(map(bool, c)), mu) for c, mu in zip(coords, src.mult))
    # each connector: (coordinates, multiplicity, [(a class it joins, that class's coordinates in its support)])
    connectors = []
    cls = list(range(d))
    for i, c in enumerate(coords):
        joined = {cls[a] for a in range(d) if c[a]}
        if len(joined) > 1:
            groups = [([a for a in range(d) if cls[a] == k], [a for a in range(d) if cls[a] == k and c[a]]) for k in joined]
            connectors.append((c, src.mult[i], groups))
            cls = [min(joined) if k in joined else k for k in cls]

    def fits(k: int, lam: list[Scalar], dco: list):
        """Every lambda that the connectors from the k-th on allow."""
        if k == len(connectors):
            yield lam
            return
        c, mu_c, groups = connectors[k]
        for e, mu in zip(dco, dst.mult):
            if mu != mu_c or any(bool(x) != bool(y) for x, y in zip(c, e)):
                continue
            new = list(lam)
            for members, support in groups:
                f = e[support[0]] / (c[support[0]] * lam[support[0]])
                if any(e[a] != f * c[a] * lam[a] for a in support[1:]):
                    break
                for a in members:
                    new[a] = lam[a] * f
            else:
                yield from fits(k + 1, new, dco)

    def place(chosen: list[int], echelon: tuple, pivots: tuple) -> tuple | None:
        if len(chosen) == d:
            dco = linalg.coordinates([rows_d[j] for j in chosen], rows_d)
            if sorted((tuple(map(bool, e)), mu) for e, mu in zip(dco, dst.mult)) != shape:
                return None
            index = {linear_form(e): mu for e, mu in zip(dco, dst.mult)}
            for lam in fits(0, [one(arr_s.zeta_order)] * d, dco):
                images = (linear_form([x * y for x, y in zip(c, lam)]) for c in coords)
                if all(index.get(im) == mu for im, mu in zip(images, src.mult)):
                    # T = S^-1 . diag(lambda) . D, the right half of rref([S | diag(lambda) . D])
                    scaled = [[x * y for y in rows_d[j]] for x, j in zip(lam, chosen)]
                    red, _ = linalg.rref([list(s) + row for s, row in zip(smat, scaled)], 2 * d)
                    return tuple(tuple(row[d:]) for row in red)
            return None
        for j, mu in enumerate(dst.mult):
            if mu != src.mult[base[len(chosen)]]:
                continue
            ext = linalg.extend_echelon(echelon, pivots, rows_d[j])
            found = None if ext is None else place(chosen + [j], *ext)
            if found is not None:
                return found
        return None

    return place([], (), ())
