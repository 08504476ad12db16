import hashlib
import io
import json
import sys

import pytest

from jordanred import cli
from jordanred.algebra import ALG_C, ALG_O, ALG_R, AlgElement
from jordanred.cli import (build_betti, build_degree,
                           build_lie_dims, build_linear_spaces, build_orbits,
                           build_properties, build_verify_algebra,
                           build_verify_jordan, main)
from jordanred.jordan import JordanMatrix
from jordanred.reductions import OrbitClass, representative
from test_hardening import TALL, TALL_LINE_BUDGET_S, time_budget


def run_cli(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_degree_subcommand():
    code, out = run_cli(["degree", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["pass"] is True
    computed = [c["computed"] for c in payload["checks"]]
    assert computed.count(57) == 3  # both routes and the Schubert relation
    names = [c["name"] for c in payload["checks"]]
    assert any("blow-up" in n for n in names)


@pytest.mark.parametrize("a,euler", [(1, 4), (2, 13), (4, 37), (8, 121)])
def test_betti_subcommand(a, euler):
    code, out = run_cli(["betti", "--a", str(a), "--json"])
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["Euler characteristic"]["computed"] == euler


def test_bott_subcommand_flags_reference_discrepancies():
    code, out = run_cli(["bott", "--json"])
    # three reference values fail the internal cross-checks by design
    assert code == 1
    payload = json.loads(out)
    failing = {c["name"]: c for c in payload["checks"] if not c["pass"]}
    assert set(failing) == {"integral of c1 l^5",
                            "Euler number of the Calabi-Yau section",
                            "third Betti number of the section"}
    assert failing["integral of c1 l^5"]["computed"] == 171
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["integral of l^6 equals the degree"]["pass"] is True
    assert by_name["Riemann-Roch: chi(O_C(1)) is the section count"]["pass"] is True


def test_bott_rejects_degenerate_weights():
    code, _ = run_cli(["bott", "--weights", "0,1,2"])
    assert code == 2
    code, _ = run_cli(["bott", "--weights", "1,2"])
    assert code == 2


def test_lie_dims_subcommand():
    code, out = run_cli(["lie-dims", "--json"])
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["dim t(A) for a = 1,2,4,8"]["computed"] == [0, 2, 9, 28]
    assert by_name["dim so3(A) for a = 1,2,4,8"]["computed"] == [3, 8, 21, 52]
    assert by_name["dim U_a = ker pi for a = 1,2,4,8"]["computed"] == [7, 20, 70, 273]


def test_orbits_representative_suite():
    code, out = run_cli(["orbits", "--algebra", "C", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = [c["name"] for c in payload["checks"]]
    assert any("codim4" in n for n in names)


def test_orbits_line_file(tmp_path):
    from jordanred.algebra import ALG_O

    line = representative(ALG_O, OrbitClass.CODIM4)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(line.to_json()))
    code, out = run_cli(["orbits", "--line", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["line is a member"]["computed"] is True
    assert by_name["orbit"]["computed"] == "codim4"
    assert by_name["tangent dimension"]["computed"] == 24


def test_orbits_line_file_with_tall_entries(tmp_path):
    """A legal line of height 1e18 gets its full report within the budget."""
    line = representative(ALG_R, OrbitClass.OPEN0).basis_change(TALL + 3, 1, 1, TALL + 9)
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(line.to_json()))
    with time_budget(TALL_LINE_BUDGET_S):
        code, out = run_cli(["orbits", "--line", str(path), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit"] == "open"
    assert payload["rank_one_points"] == {"general": 3, "special": 0, "whole_line": False}


def test_orbits_line_file_non_member(tmp_path):
    from jordanred.algebra import ALG_C, AlgElement
    from jordanred.jordan import JordanMatrix
    from jordanred.reductions import ReductionLine

    zero = AlgElement.zero(ALG_C)
    bad = ReductionLine(JordanMatrix.diag(ALG_C, 0, 1, -1),
                        JordanMatrix(ALG_C, (0, 0, 0),
                                     (AlgElement.basis(ALG_C, 0), zero, zero)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out = run_cli(["orbits", "--line", str(path), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["checks"][0]["computed"] is False


def test_orbits_line_algebra_mismatch(tmp_path):
    from jordanred.algebra import ALG_C
    line = representative(ALG_C, OrbitClass.OPEN0)
    path = tmp_path / "line.json"
    path.write_text(json.dumps(line.to_json()))
    code, _ = run_cli(["orbits", "--algebra", "O", "--line", str(path)])
    assert code == 2


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _ = run_cli(["orbits", "--line", str(path)])
    assert code == 2
    code, _ = run_cli(["orbits", "--line", str(tmp_path / "missing.json")])
    assert code == 2


def _algebra_o_line():
    return representative(ALG_O, OrbitClass.OPEN0).to_json()


def _with_scalar(value):
    line = _algebra_o_line()
    line["X"]["c"][0] = value
    return line


def _with_diagonal(values):
    """The open line with X's diagonal replaced; traceless if the strings parse."""
    line = _algebra_o_line()
    line["X"]["c"] = values
    return line


def _with_coords(coords):
    """The open C line with the coordinates of X's entry x1 replaced."""
    line = representative(ALG_C, OrbitClass.OPEN0).to_json()
    line["X"]["x1"]["coords"] = coords
    return line


def _with_x(key, value):
    """The open O line with the field `key` of X replaced."""
    line = _algebra_o_line()
    line["X"][key] = value
    return line


def _with_y(matrix):
    """The open O line with Y replaced."""
    line = _algebra_o_line()
    line["Y"] = matrix
    return line


@pytest.mark.parametrize("text", [json.dumps(payload) for payload in [
    {"X": {"algebra": "O"}},
    [1, 2],
    _with_scalar("1/0"),
    {"X": _algebra_o_line()["X"]},
    {"X": "O", "Y": "O"},
    None,
    _with_scalar(["1", "2", "3"]),
    _with_scalar(1.5),
    _with_diagonal(["1e3", "1", "-1001"]),
    _with_diagonal(["1_0", "1", "-11"]),
    _with_diagonal({"1": 0, "-1": 0, "0": 0}),
    _with_coords({"1": "7", "0": "9"}),
    _with_coords("00"),
    _with_x("x1", AlgElement.one(ALG_C).to_json()),
    _with_y(representative(ALG_C, OrbitClass.OPEN0).to_json()["Y"]),
    _with_diagonal(["1", "-1"]),
    _with_x("x1", {"algebra": "O", "coords": ["1", "0", "0"]}),
    _with_x("algebra", "Q"),
    _with_diagonal(["1", "1", "1"]),
    _with_y(_algebra_o_line()["X"]),
]] + [
    # beyond the recursion limit of the JSON decoder, which json.dumps cannot write
    "[" * 100000 + "]" * 100000,
], ids=["missing-key", "list", "zero-denominator", "missing-Y", "string-matrix",
        "null", "three-part-scalar", "float-scalar", "exponent-scalar",
        "underscore-scalar", "object-diagonal", "object-coords", "string-coords",
        "entry-from-another-algebra", "X-and-Y-over-different-algebras",
        "two-diagonal-scalars", "3-of-8-coords", "unknown-algebra", "non-traceless-X",
        "Y-equal-to-X", "deeply-nested"])
def test_malformed_line_exit_code(tmp_path, capsys, text):
    path = tmp_path / "line.json"
    path.write_text(text)
    code = main(["orbits", "--line", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["betti", "--a", "3"],
    ["orbits", "--algebra", "Q"],
    ["bott", "--seed", "x"],
    ["nosuch"],
    [],
    ["degree", "--bogus"],
], ids=["bad-choice", "bad-algebra", "bad-seed", "unknown-subcommand", "no-subcommand",
        "unknown-option"])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_reports_are_deterministic():
    _, out1 = run_cli(["verify-algebra", "--algebra", "H", "--json", "--seed", "7"])
    _, out2 = run_cli(["verify-algebra", "--algebra", "H", "--json", "--seed", "7"])
    assert out1 == out2
    _, t1 = run_cli(["orbits", "--algebra", "C"])
    _, t2 = run_cli(["orbits", "--algebra", "C"])
    assert t1 == t2


ALL_REPORT_DIGESTS = {
    0: "c67d716908e9f837fc76065ffff43997fd835d7c7a46b75584d9b7353d727377",
    7: "fee1b6721424557397b14b6937e6a0359bdccce8f4b2800b94253e21627626eb",
    51: "c828435043aa57f43447dc442b945b22917a5af7f9ee98434996d7f36fbfe6ca",
}


@pytest.mark.parametrize("seed", sorted(ALL_REPORT_DIGESTS))
def test_all_report_digest_is_pinned(seed):
    """The seeded `all` report is byte-identical to the recorded one."""
    code, out = run_cli(["all", "--json", "--seed", str(seed)])
    assert code == 1  # the three bott red flags
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_REPORT_DIGESTS[seed]


# SHA-256 of the states of the generators of `all --seed 7` after the campaign.
CAMPAIGN_DRAW_DIGEST = "a958fbe238879d411007abc94df68e67622df9768502bf4c0345c58ac756b1ae"


def test_every_campaign_draw_is_pinned(monkeypatch):
    """Every campaign draws the same samples in the same order, so each of the
    20 per-algebra generators of `all` ends in its recorded state."""
    rngs = []
    real = cli.make_rng

    def make_rng(seed):
        rngs.append(real(seed))
        return rngs[-1]
    monkeypatch.setattr(cli, "make_rng", make_rng)
    cli.build_all(7)
    assert len(rngs) == 20
    states = json.dumps([r.getstate() for r in rngs])
    assert hashlib.sha256(states.encode()).hexdigest() == CAMPAIGN_DRAW_DIGEST


def test_verify_suites_pass():
    assert build_verify_algebra(None, 20570).ok
    assert build_verify_jordan("C", 20570).ok
    assert build_lie_dims(20570).ok
    assert build_orbits(None, None, 20570).ok
    assert build_linear_spaces(None, 20570).ok
    assert build_degree().ok
    assert build_betti(8).ok
    assert build_properties(20570).ok


class _UnequalElement(AlgElement):
    """An algebra element that equals nothing, so a unit-law sample of it fails."""

    __slots__ = ()

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True


def _counted(monkeypatch, name):
    """Wrap the report sampler `name` of the cli; return the list it appends to."""
    draws = []
    real = getattr(cli, name)

    def draw(tag, rng):
        draws.append(tag)
        return real(tag, rng)
    monkeypatch.setattr(cli, name, draw)
    return draws


def _assert_only_failure(clean, failed, name):
    """`failed` differs from `clean` in the check `name` alone, which fails."""
    assert clean.ok
    assert len(failed.checks) == len(clean.checks)
    assert [b.name for a, b in zip(clean.checks, failed.checks) if a != b] == [name]
    assert [c.name for c in failed.checks if not c.ok] == [name]


def test_a_failing_unit_law_sample_shifts_no_later_draw(monkeypatch):
    """Every unit-law sample is drawn, so the later samples stay in place."""
    draws = _counted(monkeypatch, "random_element")
    clean = build_verify_algebra("H", 7)
    expected = len(draws)
    counted = cli.random_element

    def first_fails(tag, rng):
        x = counted(tag, rng)
        return _UnequalElement._raw(tag, x.nr, x.ni, x.d) if len(draws) == 1 else x
    draws.clear()
    monkeypatch.setattr(cli, "random_element", first_fails)
    failed = build_verify_algebra("H", 7)
    assert len(draws) == expected
    _assert_only_failure(clean, failed, "H: 1 is a two-sided unit (random)")


def test_a_failing_cayley_hamilton_sample_shifts_no_later_draw(monkeypatch):
    """Every Cayley-Hamilton sample is drawn, so the later samples stay in place."""
    draws = _counted(monkeypatch, "random_jordan")
    clean = build_verify_jordan("C", 7)
    expected = len(draws)
    real = cli.cayley_hamilton_residual
    calls = []

    def first_fails(A):
        calls.append(A)
        return JordanMatrix.identity(A.tag) if len(calls) == 1 else real(A)
    draws.clear()
    monkeypatch.setattr(cli, "cayley_hamilton_residual", first_fails)
    failed = build_verify_jordan("C", 7)
    assert len(draws) == expected
    _assert_only_failure(clean, failed, "C: Cayley-Hamilton residual vanishes")


def test_text_rendering():
    code, out = run_cli(["degree", "--text"])
    assert code == 0
    assert "overall: pass" in out
    assert "[ok  ]" in out
