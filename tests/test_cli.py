"""End-to-end command line behaviour: exit codes, JSON stability, piping."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest

from multiarr import verification
from multiarr.arrangement import state_key
from multiarr.catalog import parse_fixture, shipped_fixture, shipped_table
from multiarr.cli import main
from multiarr.rank2 import euler_multiplicity


DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, argv: list[str], stdin_text: str | None = None):
    if stdin_text is not None:
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    finally:
        if stdin_text is not None:
            sys.stdin = old_stdin
    out, err = capsys.readouterr()
    return code, out, err


def payload_of(out: str) -> dict:
    doc = json.loads(out)
    assert set(doc) == {"status", "payload"}
    return doc["payload"]


def test_lattice_human(capsys) -> None:
    code, out, _ = run_cli(capsys, ["lattice", "--spec", "A:3:3:0"])
    assert code == 0
    assert "9 hyperplanes in dimension 3" in out
    assert "flats per rank: 0: 1, 1: 9, 2: 12, 3: 1" in out


def test_lattice_rank_limit_json(capsys) -> None:
    code, out, _ = run_cli(capsys, ["lattice", "--spec", "A:3:3:0", "--max-rank", "1", "--json"])
    assert code == 0
    payload = payload_of(out)
    assert payload["counts"] == {"0": 1, "1": 9}
    assert all(f["rank"] <= 1 for f in payload["flats"])


def test_lattice_rejects_a_negative_rank_limit(capsys) -> None:
    code, out, err = run_cli(capsys, ["lattice", "--spec", "A:2:2:0", "--max-rank", "-1", "--json"])
    assert code == 1 and out == ""
    assert "max_rank must be >= 0" in err


def pin(argv: list[str], digest: str):
    """One byte-pin case, named by its command line so that a re-pin keeps the id."""
    return pytest.param(argv, digest, id=" ".join(argv))


# sha256 of the --json stdout, taken at the parent commit of the lattice
# builder that skips covered hyperplanes (the builder before it tried every
# hyperplane against every flat); the output must not depend on the route
@pytest.mark.parametrize(
    "argv, digest",
    [
        pin(["lattice", "--spec", "A:3:4:0"], "000738261f6f69b1a42fb5dd0bfb1e9b9b9842320d2a1b9bbe9692de039695ca"),
        pin(["lattice", "--spec", "A:2:4:4", "--max-rank", "2"], "2e0c2ff4abe74e3a815fd9d292ffcbf7e8f8d6696b43d8b93c34c97831e68ab5"),
        pin(["charpoly", "--spec", "A:3:4:0"], "a334f008617a640e31a49de2c4ea1bf264666cdd0474fd8bb9aa01419bbd6af7"),
        pin(["charpoly", "--spec", "A:2:4:4"], "9b65740bd32a61a0c62e52aafc6824bbd66c1379f0340fac25e27b3b720d412a"),
        # taken at the parent commit of the builder that looks covers up by
        # their closed sets: a shipped rank-4 fixture, a rank limit below the
        # top, and Q(zeta_60), of degree 16, where inverses run Euclid
        pin(["charpoly", "--fixture", "g34_a2"], "92cd5414d2dbe218d9c45eabc4a18b6f3f7f42ebd55674a84452e3a84f8d2aeb"),
        pin(["lattice", "--spec", "A:3:5:2", "--max-rank", "3"], "b22ed2a2c4cf6d3596837d96498bf7ce8ea99d8e250227c8674369fe890cf38f"),
        pin(["charpoly", "--spec", "A:60:2:0"], "577f41659f1972a161ed78c2a4037541a5ee2b6e2a23d7760a5697143a437d7c"),
    ],
)
def test_lattice_json_bytes_are_pinned(capsys, argv, digest) -> None:
    code, out, _ = run_cli(capsys, [*argv, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the --json stdout, taken at the parent commit of the integer
# numerator Scalars (which kept Fraction coefficients); A:5:3:0 runs over
# the degree-4 field Q(zeta_5)
@pytest.mark.parametrize(
    "argv, digest",
    [
        pin(["indfree", "--fixture", "g33_a2_kappa"], "239bf18c475ac91f74945d845ceee489d4320b860a7ed673f5f0a63bda69cc61"),
        pin(
            ["indfree", "--spec", "A:3:4:2", "--ziegler", "H_{1,2}(1)"],
            "0bcdedd5132450e3857b932c704da8137a7dd005dda9cfa939bb3b15aea02a73",
        ),
        pin(
            ["refute", "--fixture", "g33_a2_kappa", "--exponents", "7 9 11"],
            "a272e8e2d449be0264759c10347e94407bb5021d79d4fc8ad1475caf238bfd23",
        ),
        pin(["table", "--replay", "g33_a2_kappa"], "2cb9858fd69d57b8d05c6a9f049efa351ddebfe7325f5dc6a1d13b297c6d7f3a"),
        pin(["charpoly", "--spec", "A:5:3:0"], "c58d94016b3adca5dde2340f0ebb9860c830e45b9a5f2adf369ad2edc680357d"),
        # taken at the parent commit of the integer memo keys: A:2:4:4 has
        # rank 4, so its search shares memo keys across arrangements, and
        # hereditary runs 14 checks on one session
        pin(["indfree", "--spec", "A:2:4:4"], "e661d32e19ec65abb73274cc0e88af28eb340705e9a875e7daf299c55d6d8e86"),
        pin(["hereditary", "--spec", "A:2:3:0"], "a079a3be864485aa92a26fd289f0fe34b82d59fe2e001686304dbb6259c417c0"),
        # every refute pin was re-taken when b2 began to refute at the root:
        # these two end there (1 explored, 0 dead ends)
        pin(
            ["refute", "--fixture", "g33_a2_kappa", "--exponents", "8 8 11"],
            "3791c315e8130e8ad402196aa52e363b57fedfbb9aae3b8d87f8e3f83320ca6e",
        ),
        pin(
            ["refute", "--fixture", "g33_a2_kappa", "--exponents", "7 10 10"],
            "823c4461829b35a0292d64e674129f89a160ce655f5e10405fef562126138383",
        ),
        # taken at the parent commit of the searched Euler restrictions with
        # zero multiplicities kept: both recurse into rank-3 restrictions
        # whose support misses some restricted hyperplanes
        pin(["indfree", "--spec", "A:3:4:4"], "dc91622b62e3a695ae3d80e4f84360062765967376895e971a47461a545f76c8"),
        pin(["hereditary", "--spec", "A:2:4:4"], "c4e09cf841647234729c05987c3b83db2447d48d40893a4d8b2d0acf914549c1"),
        # a budget of 100 and two g34 inputs, all refuted at the root by b2;
        # the walk's own budget cut and exhaustive refutations are pinned in
        # test_induction
        pin(
            ["refute", "--fixture", "g33_a2_kappa", "--exponents", "8 8 11", "--budget", "100"],
            "3791c315e8130e8ad402196aa52e363b57fedfbb9aae3b8d87f8e3f83320ca6e",
        ),
        pin(
            ["refute", "--fixture", "g34_g333_kappa", "--exponents", "14 15 19"],
            "c50af52621e79e0450ddc4359919d40e5aa072fe41aa385f4fec8d7d5ddd165d",
        ),
        pin(
            ["refute", "--fixture", "g34_a1a2_kappa", "--exponents", "14 18 23"],
            "a3c478e9bd0d3bdff2b07c694f1a9f48413940e7dfdf27c5bc3b9a5c17fe2133",
        ),
        # taken at the parent commit of the shared depth-first walk: an
        # exhaustive no (256 nodes), an unknown inside a restricted
        # sub-search, a budget overdrawn by entering the empty state
        # (28 explored, depth 26), and a budget of 500 that b2 no longer needs
        pin(["indfree", "--spec", "A:3:3:0"], "a240e378ba00b0898518bf9503de019e04187890c3c11bccac468287e9cb3cc8"),
        pin(["indfree", "--spec", "A:3:4:4", "--budget", "20"], "e349f8e5d52479164bff297b1444732337b5df73046cd92e57a3a4de4f910a75"),
        pin(
            ["refute", "--fixture", "g33_a2_kappa", "--exponents", "7 9 11", "--budget", "27"],
            "3dc8ad1689ee63034eb42be33f4184a46a81960fc7d8988bab3567e0362c8aef",
        ),
        pin(
            ["refute", "--fixture", "g34_g333_kappa", "--budget", "500", "--exponents", "14 15 19"],
            "c50af52621e79e0450ddc4359919d40e5aa072fe41aa385f4fec8d7d5ddd165d",
        ),
        # taken at the parent commit of the zero and unit short-cuts: a search
        # of 486 nodes over the degree-4 field Q(zeta_5)
        pin(
            ["indfree", "--spec", "A:5:4:2", "--ziegler", "H_{1,2}(1)"],
            "61e870086674547911996ea0703e7d0c001d5f6599e9a276d7d4aac055b4a73f",
        ),
    ],
)
def test_scalar_json_bytes_are_pinned(capsys, argv, digest) -> None:
    code, out, _ = run_cli(capsys, [*argv, "--json"])
    # a refutation exits 2, an unknown 3, every other answer here 0
    assert code == {"refuted": 2, "unknown": 3}.get(json.loads(out)["status"], 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_refute_rejects_a_negative_exponent(capsys) -> None:
    argv = ["refute", "--fixture", "g33_a2_kappa", "--json", "--exponents"]
    code, out, err = run_cli(capsys, [*argv, "-1 12 16"])
    assert code == 1 and out == ""
    assert "exponents must be >= 0" in err
    code, out, _ = run_cli(capsys, [*argv, "0 0 27"])
    assert code == 2 and '"verdict":"refuted"' in out


# x, y, z, x+y+z: chi = t^3 - 4t^2 + 6t - 3 = (t - 1)(t^2 - 3t + 3), which is not free
_XYZ = "dim 3\nzeta 1\n" + "".join(f"form ({form}) mult 1\n" for form in ("1,0,0", "0,1,0", "0,0,1", "1,1,1"))


def test_charpoly_that_does_not_split(capsys) -> None:
    code, out, _ = run_cli(capsys, ["charpoly", "--fixture", "-"], _XYZ)
    assert code == 0
    assert out == "chi(<stdin>; t) = t^3 - 4*t^2 + 6*t - 3\ndoes not split into integer linear factors\n"
    code, out, _ = run_cli(capsys, ["charpoly", "--fixture", "-", "--json"], _XYZ)
    assert payload_of(out) == {"input": "<stdin>", "coefficients": [-3, 6, -4, 1], "exponents": None}


def test_charpoly_of_a_non_essential_arrangement(capsys) -> None:
    # x, y, x+y in dimension 3: chi = t(t - 1)(t - 2), so a zero
    # coefficient is skipped and 0 is an exponent
    fixture = "dim 3\nzeta 1\n" + "".join(f"form ({form}) mult 1\n" for form in ("1,0,0", "0,1,0", "1,1,0"))
    code, out, _ = run_cli(capsys, ["charpoly", "--fixture", "-"], fixture)
    assert code == 0
    assert out == "chi(<stdin>; t) = t^3 - 3*t^2 + 2*t\nsplits over Z with exponents {0, 1, 2}\n"


def test_charpoly_output(capsys) -> None:
    code, out, _ = run_cli(capsys, ["charpoly", "--spec", "A:3:3:0"])
    assert code == 0
    assert "chi(A:3:3:0; t) = t^3 - 9*t^2 + 24*t - 16" in out
    assert "exponents {1, 4, 4}" in out
    code, out, _ = run_cli(capsys, ["charpoly", "--spec", "A:3:3:0", "--json"])
    assert payload_of(out)["coefficients"] == [-16, 24, -9, 1]


def test_json_bytes_are_input_determined(capsys) -> None:
    def snap() -> str:
        code, out, _ = run_cli(capsys, ["indfree", "--spec", "A:2:3:0", "--json"])
        assert code == 0
        return out

    first, second = snap(), snap()
    assert first == second
    assert '"verdict":"yes"' in first


def test_negative_verdict_exit_code(capsys) -> None:
    code, out, _ = run_cli(capsys, ["indfree", "--spec", "A:3:3:0"])
    assert code == 2
    assert "not inductively free" in out


def test_long_searches_report_progress(capsys) -> None:
    # every 1000 states a line on stderr; stdout holds the answer alone
    code, out, err = run_cli(capsys, ["indfree", "--spec", "A:3:4:0", "--budget", "2500"])
    assert code == 3 and out == "A:3:4:0: undecided within the budget of 2500 states\n"
    assert err == "indfree A:3:4:0: 1000 states explored\nindfree A:3:4:0: 2000 states explored\n"


def test_budget_exit_code(capsys) -> None:
    code, out, _ = run_cli(capsys, ["indfree", "--spec", "A:3:3:0", "--budget", "1"])
    assert code == 3
    assert "undecided within the budget" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["indfree", "--spec", "A:2:3:0", "--budget", "0"],
        ["hereditary", "--spec", "A:2:3:0", "--budget", "-1"],
        ["table", "--spec", "A:2:3:0", "--budget", "0"],
        ["refute", "--fixture", "g33_a2_kappa", "--exponents", "8 8 11", "--budget", "-5"],
    ],
)
def test_budget_below_one_is_a_usage_error(capsys, argv) -> None:
    code, out, err = run_cli(capsys, [*argv, "--json"])
    assert code == 1 and out == ""
    assert "--budget: must be >= 1" in err


def test_a_closed_pipe_exits_one(monkeypatch) -> None:
    class ClosedPipe(io.StringIO):
        def write(self, text: str) -> int:
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["lattice", "--spec", "A:2:2:0"]) == 1


def test_usage_errors_exit_one(capsys) -> None:
    code, _, err = run_cli(capsys, ["no-such-command"])
    assert code == 1 and "usage" in err
    code, _, err = run_cli(capsys, ["lattice"])
    assert code == 1 and "need an input" in err
    code, _, err = run_cli(capsys, ["lattice", "--spec", "A:3:x:0"])
    assert code == 1 and "expected integers" in err
    code, _, err = run_cli(capsys, ["lattice", "--spec", "A:3:3:0", "--fixture", "g33_a1"])
    assert code == 1 and "not allowed with" in err
    code, _, err = run_cli(capsys, ["lattice", "--fixture", "/nope/missing.arr"])
    assert code == 1 and "neither a file nor a shipped fixture" in err
    # table only replays: the certificate comes from indfree
    code, out, err = run_cli(capsys, ["table", "--spec", "A:2:3:0"])
    assert code == 1 and out == "" and "usage" in err and "required: --replay" in err
    code, out, err = run_cli(capsys, ["indfree", "--spec", "A:2:3:0", "--budget", "x"])
    assert code == 1 and out == "" and "need an integer, got 'x'" in err and "Traceback" not in err
    code, out, err = run_cli(capsys, ["refute", "--fixture", "g33_a2_kappa", "--exponents", "7 9 x"])
    assert code == 1 and out == "" and err == "error: --exponents '7 9 x': need integers\n"


def test_hyperplane_resolution_variants(capsys) -> None:
    # same hyperplane three ways: printed label, 1-based position, respelled scalar
    by_label = run_cli(capsys, ["ziegler", "--spec", "A:3:3:0", "--h0", "H_{1,2}(-z - 1)", "--json"])
    by_position = run_cli(capsys, ["ziegler", "--spec", "A:3:3:0", "--h0", "3", "--json"])
    by_expr = run_cli(capsys, ["ziegler", "--spec", "A:3:3:0", "--h0", "H_{1,2}(z^2)", "--json"])
    assert by_label[0] == by_position[0] == by_expr[0] == 0
    assert by_label[1] == by_position[1] == by_expr[1]
    assert payload_of(by_label[1])["h0"] == "H_{1,2}(-z - 1)"


def test_coordinate_notation_resolves_through_its_form(capsys) -> None:
    # H_3 is the form x_3, the third hyperplane of x, y, z, x+y+z, whatever its label
    code, out, _ = run_cli(capsys, ["euler", "--fixture", "-", "--h0", "H_3", "--json"], _XYZ)
    assert code == 0 and payload_of(out)["h0"] == "a3"
    code, out, err = run_cli(capsys, ["euler", "--spec", "A:2:2:0", "--h0", "H_{1,3}(1)"])
    assert code == 1 and out == ""
    assert err == "error: H_{1,3}(1): coordinate pair out of range\n"


def test_hyperplane_resolution_failures(capsys) -> None:
    for h0 in ("H_9", "H_{1,2}(7)", "nonsense", "99", "\u00b2", "H_{1,2}(z^\u00b2)"):
        code, _, err = run_cli(capsys, ["ziegler", "--spec", "A:3:3:0", "--h0", h0])
        assert code == 1, h0
        assert "error:" in err


def test_superscript_digits_in_a_fixture_are_an_input_error(capsys) -> None:
    # '\u00b2' passes str.isdigit() but not int()
    fixture = "dim 2\nzeta 3\nform (1, z^\u00b2) mult 1\n"
    code, out, err = run_cli(capsys, ["charpoly", "--fixture", "-", "--json"], fixture)
    assert code == 1 and out == ""
    assert err.startswith("error: stdin: line 3: bad scalar")


def test_euler_output_is_a_fixture(capsys) -> None:
    code, out, _ = run_cli(capsys, ["euler", "--fixture", "g33_a2_kappa.arr", "--h0", "a1"])
    assert code == 0
    parsed = parse_fixture(out)
    direct = euler_multiplicity(shipped_fixture("g33_a2_kappa"), 0)
    assert state_key(*parsed) == state_key(*direct)


@pytest.mark.parametrize(
    "command, fixture",
    [("ziegler", "dim 1\nzeta 1\nform (1) mult 1\n"), ("euler", "dim 2\nzeta 1\nform (1,0) mult 2\n")],
    ids=["ziegler-of-a-line", "euler-of-a-double-line"],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_a_restriction_without_hyperplanes_is_no_fixture(capsys, command, fixture, json_flag) -> None:
    # the fixture reader rejects a file with no forms, so the writer prints none
    code, out, err = run_cli(capsys, [command, "--fixture", "-", "--h0", "a1", *json_flag], fixture)
    assert code == 1 and out == ""
    assert err.startswith("error: the ") and "at a1 has no hyperplanes" in err
    assert "indfree --ziegler H0 decides it" in err


def test_ziegler_pipes_into_refute(capsys) -> None:
    code, fixture_text, _ = run_cli(capsys, ["ziegler", "--fixture", "g33_a1", "--h0", "a1"])
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["refute", "--fixture", "-", "--exponents", "7 9 11", "--json"],
        stdin_text=fixture_text,
    )
    assert code == 0
    payload = payload_of(out)
    assert payload["verdict"] == "chain_found"
    assert len(payload["chain"]) == 27


def test_refute_negative_exit_code(capsys) -> None:
    code, out, _ = run_cli(capsys, ["refute", "--fixture", "g33_a2_kappa", "--exponents", "7,10,10"])
    assert code == 2
    assert "not additively free" in out
    code, _, err = run_cli(capsys, ["refute", "--fixture", "g33_a2_kappa", "--exponents", "1,2"])
    assert code == 1 and "error:" in err


def test_indfree_ziegler_shortcut(capsys) -> None:
    code, out, _ = run_cli(capsys, ["indfree", "--spec", "A:3:4:0", "--ziegler", "H_{1,2}(1)"])
    assert code == 0
    assert "exponents {4, 6, 7}" in out
    assert "final exponents {4, 6, 7}" in out
    code, _, err = run_cli(capsys, ["indfree", "--fixture", "g33_a2_kappa", "--ziegler", "a1"])
    assert code == 1 and "needs a simple input" in err


def test_ziegler_restriction_of_one_hyperplane_is_empty(capsys) -> None:
    # the restriction of the line to its one hyperplane is the empty
    # multiarrangement of dimension 0, whose exponents are ()
    line = "dim 1\nzeta 1\nform (1) mult 1\n"
    code, out, _ = run_cli(capsys, ["indfree", "--fixture", "-", "--ziegler", "a1", "--json"], stdin_text=line)
    assert code == 0
    payload = payload_of(out)
    assert (payload["verdict"], payload["exponents"], payload["start_exponents"]) == ("yes", [], [])
    assert (payload["base"], payload["rows"]) == ([], [])


def test_hereditary_requires_simple(capsys) -> None:
    code, out, _ = run_cli(capsys, ["hereditary", "--spec", "A:2:3:0"])
    assert code == 0 and "hereditarily inductively free" in out
    code, _, err = run_cli(capsys, ["hereditary", "--fixture", "g33_a2_kappa"])
    assert code == 1 and "needs a simple input" in err


def test_shipped_table_replay(capsys) -> None:
    code, out, _ = run_cli(capsys, ["table", "--replay", "g33_a2_kappa", "--json"])
    assert code == 0
    payload = payload_of(out)
    assert payload["rows"] == 13
    assert payload["final_exponents"] == [7, 9, 11]
    code, _, err = run_cli(capsys, ["table", "--replay", "nope"])
    assert code == 1 and "'nope' is neither a file nor a shipped table; shipped: g33_a2_kappa," in err


def test_replay_searches_keep_the_budget(capsys) -> None:
    # the base of this table is a rank-3 search of 1,089 states
    code, out, _ = run_cli(capsys, ["table", "--replay", "g34_a1a2_kappa", "--budget", "5", "--json"])
    assert code == 3
    assert json.loads(out) == {"status": "unknown", "payload": {"input": "g34_a1a2_kappa", "table": "g34_a1a2_kappa"}}
    code, out, _ = run_cli(capsys, ["table", "--replay", "g34_a1a2_kappa", "--budget", "5"])
    assert code == 3 and "undecided within the budget of 5 states" in out
    # a replay that searches nothing spends no budget
    argv = ["table", "--replay", str(DATA / "a444_kappa.json"), "--fixture", str(DATA / "a444_kappa.arr")]
    code, out, _ = run_cli(capsys, [*argv, "--budget", "1", "--json"])
    assert code == 0
    assert payload_of(out) == {
        "final_exponents": [5, 9, 13],
        "input": str(DATA / "a444_kappa.arr"),
        "rows": 20,
        "table": str(DATA / "a444_kappa.json"),
    }


def test_emitted_table_replays(capsys, tmp_path) -> None:
    code, out, _ = run_cli(capsys, ["indfree", "--spec", "A:2:3:0", "--json"])
    assert code == 0
    doc = tmp_path / "braid.json"
    doc.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["table", "--replay", str(doc)])
    assert code == 0
    assert "4 rows replayed" in out and "{1, 2, 3}" in out

    broken = json.loads(doc.read_text(encoding="utf-8"))
    broken["payload"]["rows"][0][2] = [9, 9]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken), encoding="utf-8")
    code, _, err = run_cli(capsys, ["table", "--replay", str(bad)])
    assert code == 1
    assert "replay failed" in err


@pytest.mark.parametrize(
    "claim, value, problem",
    [
        ("exponents", [1, 2, 3], "replay ends at (7, 9, 11), table claims (1, 2, 3)\n"),
        ("base", [["a1", 5]], "the table's base [['a1', 5]] is not its rows' base [['a5', 1], ['a8', 1]]\n"),
        ("verdict", "no", "the table's verdict 'no' is not its replay's 'yes'\n"),
    ],
    ids=["exponents", "base", "verdict"],
)
def test_a_certificate_with_a_false_claim_is_refused(capsys, tmp_path, claim, value, problem) -> None:
    code, out, _ = run_cli(capsys, ["indfree", "--fixture", "g33_a2_kappa", "--json"])
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    doc = json.loads(out)
    code, out, _ = run_cli(capsys, ["table", "--replay", str(path)])
    assert code == 0 and out == f"{path}: 25 rows replayed against g33_a2_kappa; final exponents {{7, 9, 11}}\n"
    doc["payload"][claim] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["table", "--replay", str(path)])
    assert code == 1 and out == ""
    assert err == f"error: {path}: {problem}"


def test_a_table_that_names_no_fixture_needs_an_input(capsys, tmp_path) -> None:
    path = tmp_path / "anonymous.json"
    path.write_text(json.dumps({"start_exponents": [1], "rows": []}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["table", "--replay", str(path)])
    assert code == 1 and out == ""
    assert err == "error: the table does not name its fixture; pass --fixture/--spec\n"
    code, out, _ = run_cli(capsys, ["table", "--replay", str(path), "--fixture", "-"], "dim 1\nzeta 1\nform (1) mult 1\n")
    assert code == 0 and out == f"{path}: 0 rows replayed against <stdin>; final exponents {{1}}\n"


def _with(**fields) -> dict:
    """The shipped g33_a2_kappa table with some fields replaced."""
    return {**shipped_table("g33_a2_kappa"), **fields}


def _a342_with_label(label: str) -> dict:
    """The frozen a342_kappa table, naming its fixture by path, with row 0 at ``label``."""
    doc = json.loads((DATA / "a342_kappa.json").read_text(encoding="utf-8"))
    doc["fixture"] = str(DATA / "a342_kappa.arr")
    doc["rows"][0][1] = label
    return doc


@pytest.mark.parametrize(
    "doc, problem",
    [
        ([1, 2], "expected a JSON object"),
        ({"payload": [1, 2]}, "expected a JSON object"),
        (_with(rows=[[[1, 6, 7], "a5"]]), "row 0"),
        (_with(rows=[[[1, 6, 7], 5, [6, 7]]]), "row 0"),
        (_with(rows=5), "'rows' must be a list"),
        (_with(start_exponents="x"), "'start_exponents'"),
        (_with(start_exponents=None), "need 'start_exponents' and 'rows'"),
        (_with(final_exponents=7), "'final_exponents'"),
        (_a342_with_label("zz"), "replay failed: row 0: no hyperplane labelled 'zz'\n"),
        (
            _with(rows=[[[1, 6, 8], "a5", [6, 7]], *shipped_table("g33_a2_kappa")["rows"][1:]]),
            "replay failed: row 0: expected exponents (1, 6, 7), table says (1, 6, 8)\n",
        ),
        (_with(final_exponents=[7, 9, 12]), "replay ends at (7, 9, 11), table claims (7, 9, 12)\n"),
        (_with(exponents=7), "'exponents' must be a list of integers"),
        # both exponent claims are checked, not only the first one present
        (_with(exponents=[1, 2, 3]), "replay ends at (7, 9, 11), table claims (1, 2, 3)\n"),
        (
            {"fixture": "A:3:3:0", "start_exponents": [1, 4, 4], "rows": []},
            "replay failed: base: a rank-3 restriction is not inductively free (no)\n",
        ),
    ],
    ids=[
        "list", "payload-list", "two-field-row", "int-label", "int-rows", "str-start", "no-start", "int-final",
        "unknown-label", "wrong-before", "wrong-final", "int-exponents", "false-exponents", "unfree-base",
    ],
)
def test_malformed_table_is_an_error_not_a_traceback(capsys, tmp_path, doc, problem) -> None:
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, ["table", "--replay", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ") and problem in err
    assert "Traceback" not in err


def test_failed_containment_is_an_error_not_a_traceback(capsys, tmp_path) -> None:
    # x, y, z, x+y+z is not free: adding x+y+z to the Boolean base gives a
    # restriction {1, 2} that is not contained in {1, 1, 1}
    fixture = tmp_path / "xyz.arr"
    fixture.write_text("dim 3\nzeta 1\n" + "".join(f"form ({form}) mult 1\n" for form in ("1,0,0", "0,1,0", "0,0,1", "1,1,1")), encoding="utf-8")
    table = tmp_path / "xyz.json"
    table.write_text(json.dumps({"start_exponents": [1, 1, 1], "rows": [[[1, 1, 1], "a4", [1, 2]]]}), encoding="utf-8")
    code, out, err = run_cli(capsys, ["table", "--replay", str(table), "--fixture", str(fixture)])
    assert code == 1 and out == ""
    assert err == f"error: {table}: replay failed: row 0: containment fails: (1, 1, 1) vs (1, 2)\n"


@pytest.mark.parametrize(
    "spec, rows, final",
    [
        pytest.param("A:3:4:2", 14, [4, 7, 8], id="indfree"),
        # Q(zeta_5) has degree 4: the witness route beyond the quadratic fields
        pytest.param("A:5:4:2", 22, [6, 11, 14], id="indfree A:5:4:2"),
    ],
)
def test_ziegler_certificates_replay(capsys, tmp_path, spec, rows, final) -> None:
    # the table of a Ziegler restriction names no fixture, so its replay
    # takes the same --spec and --ziegler as the command that printed it
    source = ["--spec", spec, "--ziegler", "H_{1,2}(1)"]
    code, out, _ = run_cli(capsys, ["indfree", *source, "--json"])
    assert code == 0
    doc = tmp_path / "zieg.json"
    doc.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["table", "--replay", str(doc), *source, "--json"])
    assert code == 0
    payload = payload_of(out)
    assert (payload["rows"], payload["final_exponents"]) == (rows, final)
    assert payload["input"] == f"Ziegler restriction of {spec} at H_{{1,2}}(1)"


# a subarrangement of A:2:4:0 that is inductively free, while its restriction to a8 is not
_HEREDITARY_FAILURE = "dim 4\nzeta 1\n" + "".join(
    f"form ({form}) mult 1\n"
    for form in (
        "1,-1,0,0", "1,1,0,0", "1,0,-1,0", "1,0,1,0", "1,0,0,-1",
        "1,0,0,1", "0,1,-1,0", "0,1,1,0", "0,1,0,1", "0,0,1,-1",
    )
)


def test_hereditary_negative_answers(capsys) -> None:
    code, out, _ = run_cli(capsys, ["hereditary", "--spec", "A:3:3:0", "--json"])
    assert code == 2
    assert payload_of(out) == {"checked": 1, "failed_flat": None, "input": "A:3:3:0", "verdict": "no"}
    code, out, _ = run_cli(capsys, ["hereditary", "--spec", "A:3:3:0"])
    assert code == 2 and out == "A:3:3:0: the arrangement itself fails (no)\n"

    argv = ["--fixture", "-", "--json"]
    code, out, _ = run_cli(capsys, ["indfree", *argv], stdin_text=_HEREDITARY_FAILURE)
    assert code == 0 and payload_of(out)["verdict"] == "yes"
    code, out, _ = run_cli(capsys, ["hereditary", *argv], stdin_text=_HEREDITARY_FAILURE)
    assert code == 2
    assert out == '{"payload":{"checked":9,"failed_flat":["a8"],"input":"<stdin>","verdict":"no"},"status":"refuted"}\n'
    code, out, _ = run_cli(capsys, ["hereditary", "--fixture", "-"], stdin_text=_HEREDITARY_FAILURE)
    assert code == 2 and out == "<stdin>: restriction to {a8} is not inductively free\n"


@pytest.mark.parametrize("option", ["--replay", "--fixture"])
def test_unreadable_input_file_is_an_error_not_a_traceback(capsys, tmp_path, option) -> None:
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe{")
    command = {"--replay": "table", "--fixture": "indfree"}[option]
    for path in (tmp_path, binary):
        code, out, err = run_cli(capsys, [command, option, str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ")


def test_rank4_table_round_trips(capsys, tmp_path) -> None:
    # every Euler restriction of this chain has rank 3, so the replay
    # decides each one afresh and replays that chain in turn
    code, out, _ = run_cli(capsys, ["indfree", "--spec", "A:2:4:4", "--json"])
    assert code == 0
    doc = tmp_path / "a244.json"
    doc.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["table", "--replay", str(doc), "--json"])
    assert code == 0
    assert payload_of(out)["final_exponents"] == [1, 3, 5, 7]

    broken = json.loads(doc.read_text(encoding="utf-8"))
    broken["payload"]["rows"][-1][2][0] += 1
    doc.write_text(json.dumps(broken), encoding="utf-8")
    code, _, err = run_cli(capsys, ["table", "--replay", str(doc)])
    assert code == 1 and "restriction exponents" in err


def test_verify_subset_and_unknown_check(capsys) -> None:
    code, out, _ = run_cli(capsys, ["verify-paper", "--only", "3"])
    assert code == 0
    assert "1/1 checks passed" in out
    code, out, _ = run_cli(capsys, ["verify-paper", "--only", "3,9", "--json"])
    assert code == 0
    payload = payload_of(out)
    assert {r["name"] for r in payload["results"]} == {"fixture-derivation", "refuter-regressions"}
    assert payload["passed"] is True
    code, _, err = run_cli(capsys, ["verify-paper", "--only", "nosuch"])
    assert code == 1
    assert "unknown check" in err
    for blank in (",", " "):
        code, out, err = run_cli(capsys, ["verify-paper", "--only", blank])
        assert code == 1 and not out
        assert err.startswith("error: ") and "no check named" in err


def test_verify_json_bytes_ignore_the_clock(capsys, monkeypatch) -> None:
    # two runs whose clocks tick at different rates, both well inside the
    # 10 s bound of check 5, must print the same payload
    def snap(tick: float) -> str:
        monkeypatch.setattr(verification, "time", types.SimpleNamespace(monotonic=itertools.count(0.0, tick).__next__))
        code, out, _ = run_cli(capsys, ["verify-paper", "--only", "5", "--json"])
        assert code == 0
        return out

    assert snap(0.25) == snap(3.0)


def test_help_documents_the_missing_parents(capsys) -> None:
    code, out, _ = run_cli(capsys, ["--help"])
    assert code == 0
    assert "rank-5 parent" in out


def fresh_python(code: str, stdin_text: str = "") -> subprocess.CompletedProcess:
    """Run ``code`` in a new isolated interpreter that imports ``multiarr`` from src.

    The child's address space is capped at 512 MB, so a regression that
    allocates without bound fails there instead of exhausting the host.
    """

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    return subprocess.run(
        [sys.executable, "-I", "-c", prelude + code],
        input=stdin_text,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
    )


def test_cli_import_loads_no_dataclasses_and_no_openssl() -> None:
    proc = fresh_python(
        "heavy = ('dataclasses', 'inspect', 'ast', 'hashlib', '_hashlib')\n"
        "before = set(sys.modules)\n"
        "import multiarr.cli\n"
        "print(sorted(m for m in heavy if m in sys.modules and m not in before))\n"
        "from multiarr.catalog import shipped_fixture\n"
        "from multiarr.induction import _deletion_walk\n"
        "rep = _deletion_walk(shipped_fixture('g33_a2_kappa'), (8, 8, 11), 239)\n"
        "print(len(rep.dead_end_digests), sorted(m for m in heavy if m in sys.modules and m not in before))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded, after = proc.stdout.splitlines()
    assert loaded == "[]"
    # the dead-end digests come from the builtin hash module, not OpenSSL
    assert after == "49 []"


@pytest.mark.parametrize(
    "argv, stdin_text, code, err",
    [
        (["charpoly", "--spec", "A:20000:2:0"], "", 1, "error: need r <= 1000, got 20000\n"),
        (["charpoly", "--fixture", "-"], "dim 1\nzeta 20000\nform (1) mult 1\n", 1, "error: stdin: line 2: zeta must be at most 1000, got 20000\n"),
        (["charpoly", "--fixture", "-"], "dim 1\nzeta 1000\nform (1) mult 1\n", 0, ""),
    ],
    ids=["spec", "fixture", "fixture-at-limit"],
)
def test_a_large_root_of_unity_order_is_an_input_error(argv, stdin_text, code, err) -> None:
    # each field of order r holds an r x deg(Phi_r) table: gigabytes at 20000
    proc = fresh_python(f"import multiarr.cli\nsys.exit(multiarr.cli.main({[*argv, '--json']!r}))", stdin_text)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert (proc.stdout == "") == bool(code)
