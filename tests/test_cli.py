import argparse
import contextlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lorentz
from lorentz import cli, matroids
from lorentz.certify import INERTIA_VIOLATION, Certificate, RayleighWitness
from lorentz.cli import build_parser, main
from lorentz.inertia import Inertia
from lorentz.measures import MeasureRayleighWitness, NegativeDependenceReport
from lorentz.poly import HomogPoly

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
CUBIC9 = {"n": 2, "d": 3, "terms": [
    {"exp": [3, 0], "num": "2", "den": "1"}, {"exp": [2, 1], "num": "12", "den": "1"},
    {"exp": [1, 2], "num": "18", "den": "1"}, {"exp": [0, 3], "num": "9", "den": "1"}]}
CUBIC10 = {"n": 2, "d": 3, "terms": [
    {"exp": [3, 0], "num": "2", "den": "1"}, {"exp": [2, 1], "num": "12", "den": "1"},
    {"exp": [1, 2], "num": "18", "den": "1"}, {"exp": [0, 3], "num": "10", "den": "1"}]}
U12 = {"n": 2, "bases": [[0], [1]]}
MU_U12 = {"n": 2, "atoms": [
    {"set": [], "num": "1", "den": "3"}, {"set": [0], "num": "1", "den": "3"},
    {"set": [1], "num": "1", "den": "3"}]}
NU = {"n": 2, "d": 2, "values": [
    {"exp": [2, 0], "num": "1", "den": "1"}, {"exp": [1, 1], "num": "0", "den": "1"},
    {"exp": [0, 2], "num": "1", "den": "1"}]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "good.json", CUBIC9)
    bad = write(tmp_path, "bad.json", CUBIC10)
    for extra in ([], ["--exhaustive"]):
        code, rep = run(capsys, "check", good, *extra)
        assert code == 0 and rep["verdict"] is True
    code, rep = run(capsys, "check", bad)
    assert code == 1 and rep["verdict"] is False
    assert rep["witness"]["failing_kind"] == "inertia_violation"


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"n": 2, "d"')
    code, rep = run(capsys, "check", str(path))
    assert code == 2 and "line 1" in rep["error"]


def test_check_missing_file(capsys):
    code, rep = run(capsys, "check", "/nonexistent/nope.json")
    assert code == 2 and "no such file" in rep["error"]


def test_determinism(tmp_path, capsys):
    path = write(tmp_path, "f.json", CUBIC9)
    outs = []
    for _ in range(2):
        code = main(["rayleigh", path, "--c", "4/3", "--trials", "30", "--seed", "5"])
        raw = capsys.readouterr().out
        doc = json.loads(raw)
        doc.pop("elapsed_ms")
        outs.append(json.dumps(doc, sort_keys=True))
        assert code == 0
    assert outs[0] == outs[1]


def test_seed_required_for_sampling(tmp_path, capsys):
    path = write(tmp_path, "f.json", CUBIC9)
    with pytest.raises(SystemExit) as exc:
        main(["rayleigh", path, "--c", "1", "--trials", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_strict(tmp_path, capsys):
    strictpoly = {"n": 2, "d": 3, "terms": [
        {"exp": [3, 0], "num": "1", "den": "1"}, {"exp": [2, 1], "num": "10", "den": "1"},
        {"exp": [1, 2], "num": "10", "den": "1"}, {"exp": [0, 3], "num": "1", "den": "1"}]}
    code, rep = run(capsys, "strict", write(tmp_path, "s.json", strictpoly))
    assert code == 0 and rep["verdict"] is True
    code, rep = run(capsys, "strict", write(tmp_path, "c.json", CUBIC9))
    assert code == 1


def test_hodge_riemann(tmp_path, capsys):
    path = write(tmp_path, "f.json", CUBIC9)
    code, rep = run(capsys, "hodge-riemann", path, "--point", "1,1", "--point", "2,1/3")
    assert code == 0
    assert all(o["inertia"]["n_plus"] == 1 for o in rep["result"]["points"])
    code, rep = run(capsys, "hodge-riemann", path, "--points", "5", "--seed", "3")
    assert code == 0 and len(rep["result"]["points"]) == 5
    code, rep = run(capsys, "hodge-riemann", path, "--points", "5")
    assert code == 2  # sampling without a seed
    code, rep = run(capsys, "hodge-riemann", path)
    assert code == 2 and rep["error"] == "give at least one --point or a --points count"


def test_rayleigh_violation(tmp_path, capsys):
    tight = {"n": 3, "d": 3, "terms": [
        {"exp": [3, 0, 0], "num": "4", "den": "3"}, {"exp": [2, 1, 0], "num": "1", "den": "1"},
        {"exp": [2, 0, 1], "num": "1", "den": "1"}, {"exp": [1, 1, 1], "num": "1", "den": "1"}]}
    path = write(tmp_path, "t.json", tight)
    code, rep = run(capsys, "rayleigh", path, "--c", "79/60", "--trials", "0",
                    "--seed", "0", "--point", "1,0,0")
    assert code == 1 and rep["witness"]["lhs"] == "4/3"
    code, rep = run(capsys, "rayleigh", path, "--c", "4/3", "--trials", "100", "--seed", "0")
    assert code == 0


def test_rayleigh_high_degree(tmp_path, capsys):
    # the scan is compiled without a stack frame per degree
    f = {"n": 2, "d": 3000, "terms": [_term([3000, 0]), _term([0, 3000])]}
    code, rep = run(capsys, "rayleigh", write(tmp_path, "f.json", f), "--c", "2", "--seed", "1",
                    "--trials", "1", "--point", "1,1")
    assert code == 0 and rep["verdict"] is True


def test_rayleigh_point_needs_every_coordinate(capsys):
    fano = str(GOLDEN_INPUTS / "fano_potts.json")
    code, rep = run(capsys, "rayleigh", fano, "--c", "2", "--seed", "1", "--trials", "0",
                    "--point", "1,1")
    assert code == 2
    assert rep == {"command": ["rayleigh"], "error": "point has length 2, expected 8"}


def test_hodge_riemann_point_needs_every_coordinate(capsys):
    code, rep = run(capsys, "hodge-riemann", str(GOLDEN_INPUTS / "fano_potts.json"),
                    "--point", "1,1")
    assert code == 2
    assert rep == {"command": ["hodge-riemann"], "error": "point has length 2, expected 8"}


_CUBIC9, _MU = str(GOLDEN_INPUTS / "cubic9.json"), str(GOLDEN_INPUTS / "mu_u24.json")
_RAYLEIGH = ["rayleigh", _CUBIC9, "--c", "1", "--seed", "1"]
_HODGE = ["hodge-riemann", _CUBIC9, "--seed", "1"]
# One row per count option and out-of-range value; a new count option adds its rows.
_COUNT_ROWS = [
    (_RAYLEIGH + ["--trials", "-1"], "trials must be nonnegative"),
    (_RAYLEIGH + ["--trials", "3", "--max-den", "-1"], "max_den must be positive"),
    (_RAYLEIGH + ["--trials", "3", "--max-den", "0"], "max_den must be positive"),
    (_HODGE + ["--points", "-1"], "points must be nonnegative"),
    (_HODGE + ["--points", "2", "--max-den", "-1"], "max_den must be positive"),
    (_HODGE + ["--points", "2", "--max-den", "0"], "max_den must be positive"),
    (["measure", "report", _MU, "--seed", "1", "--trials", "-1"], "trials must be nonnegative"),
    # checked before an explicit point is: a refuting point must not hide a bad count
    (["rayleigh", str(GOLDEN_INPUTS / "zero_diag_cubic.json"), "--c", "1", "--seed", "1",
      "--trials", "-5", "--max-den", "0", "--point", "0,0,1,0,1,1"],
     "trials must be nonnegative"),
    (["hodge-riemann", str(GOLDEN_INPUTS / "cubic10.json"), "--max-den", "0", "--point", "1,1"],
     "max_den must be positive"),
]


@pytest.mark.parametrize("argv, message", _COUNT_ROWS,
                         ids=[" ".join([argv[0]] + argv[-2:]) for argv, _ in _COUNT_ROWS])
def test_count_option_out_of_range(capsys, argv, message):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    command = argv[:next(k for k, w in enumerate(argv) if w.endswith(".json"))]
    assert json.loads(out) == {"command": command, "error": message}  # exactly one object


_U23 = str(GOLDEN_INPUTS / "u23_basis.json")


@pytest.mark.parametrize("command, path, n", [(["operator", "exclusion"], _U23, 3),
                                              (["measure", "exclusion"], _MU, 4)])
@pytest.mark.parametrize("i, j, named", [("0", "9", "j=9"), ("0", "-1", "j=-1"),
                                         ("9", "1", "i=9"), ("-2", "0", "i=-2")])
def test_exclusion_index_out_of_range(capsys, command, path, n, i, j, named):
    code = main([*command, path, "--i", i, "--j", j, "--theta", "1/3"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"command": command,   # exactly one object
                               "error": f"index {named} out of range for n={n}"}


def test_mconvex_commands(tmp_path, capsys):
    path = write(tmp_path, "nu.json", NU)
    code, rep = run(capsys, "mconvex", "function", path)
    assert code == 0
    bad = dict(NU)
    bad["values"] = [{"exp": [2, 0], "num": "0", "den": "1"},
                     {"exp": [1, 1], "num": "1", "den": "1"},
                     {"exp": [0, 2], "num": "0", "den": "1"}]
    code, rep = run(capsys, "mconvex", "function", write(tmp_path, "bad.json", bad))
    assert code == 1 and rep["witness"] is not None
    code, rep = run(capsys, "mconvex", "set", write(tmp_path, "set.json", bad))
    assert code == 0  # the domain itself is M-convex


def test_genpoly(tmp_path, capsys):
    path = write(tmp_path, "nu.json", NU)
    code, rep = run(capsys, "genpoly", path, "--q", "1/2", "--kind", "f", "--certify")
    assert code == 0
    assert rep["result"]["poly"]["d"] == 2
    bad = {"n": 2, "d": 2, "values": [{"exp": [2, 0], "num": "0", "den": "1"},
                                      {"exp": [1, 1], "num": "1", "den": "1"},
                                      {"exp": [0, 2], "num": "0", "den": "1"}]}
    code, rep = run(capsys, "genpoly", write(tmp_path, "b.json", bad),
                    "--q", "1/2", "--certify")
    assert code == 1


def test_operator_commands(tmp_path, capsys):
    poly = write(tmp_path, "p.json", {"n": 1, "d": 2, "terms": [
        {"exp": [2], "num": "1", "den": "1"}]})
    code, rep = run(capsys, "operator", "polarize", poly, "--kappa", "2")
    assert code == 0
    assert rep["result"]["poly"]["terms"] == [{"exp": [1, 1], "num": "1", "den": "1"}]
    lifted = write(tmp_path, "lift.json", rep["result"]["poly"])
    code, rep = run(capsys, "operator", "project", lifted, "--kappa", "2")
    assert code == 0 and rep["result"]["poly"]["terms"][0]["exp"] == [2]
    code, rep = run(capsys, "operator", "normalize", poly)
    assert code == 0 and rep["result"]["poly"]["terms"][0]["den"] == "2"
    sq4 = write(tmp_path, "sq4.json", {"n": 1, "d": 2, "terms": [
        {"exp": [2], "num": "2", "den": "1"}]})  # normalized coefficient 4
    code, rep = run(capsys, "operator", "power", sq4, "--p", "1/2")
    assert code == 0 and rep["result"]["exact"] is True
    code, rep = run(capsys, "operator", "power", poly, "--p", "1/2")
    assert code == 0 and rep["result"]["exact"] is False  # sqrt(2) is irrational
    code, rep = run(capsys, "operator", "nuij", write(tmp_path, "sq.json", {
        "n": 2, "d": 2, "terms": [{"exp": [2, 0], "num": "1", "den": "1"},
                                  {"exp": [1, 1], "num": "2", "den": "1"},
                                  {"exp": [0, 2], "num": "1", "den": "1"}]}),
        "--theta", "1", "--certify")
    assert code == 0
    table = write(tmp_path, "t.json", {"kappa": [1], "ell": 0, "images": [
        {"exp": [0], "poly": {"n": 1, "d": 0, "terms": [{"exp": [0], "num": "1", "den": "1"}]}},
        {"exp": [1], "poly": {"n": 1, "d": 1, "terms": [{"exp": [1], "num": "1", "den": "1"}]}}]})
    code, rep = run(capsys, "operator", "symbol", table, "--certify")
    assert code == 0
    code, rep = run(capsys, "operator", "apply", table, poly)
    assert code == 2  # degree cap violated


def test_matroid_commands(tmp_path, capsys):
    u12 = write(tmp_path, "u12.json", U12)
    code, rep = run(capsys, "matroid", "validate", u12)
    assert code == 0
    code, rep = run(capsys, "matroid", "validate",
                    write(tmp_path, "bad.json", {"n": 4, "bases": [[0, 1], [2, 3]]}))
    assert code == 1 and rep["witness"]["witness"] is not None
    k4 = write(tmp_path, "k4.json", {"vertices": 4, "edges": [
        [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]})
    code, rep = run(capsys, "matroid", "mason", k4)
    assert code == 0 and rep["result"]["independence_counts"] == [1, 6, 15, 16]
    code, rep = run(capsys, "matroid", "basis-poly", u12, "--certify")
    assert code == 0
    code, rep = run(capsys, "matroid", "potts", u12, "--q", "1/2", "--certify")
    assert code == 0
    code, rep = run(capsys, "matroid", "indep-poly", u12, "--certify")
    assert code == 0
    code, rep = run(capsys, "matroid", "tutte", u12, "--x", "2", "--y", "2")
    assert code == 0 and rep["result"]["value"] == "4"
    code, rep = run(capsys, "matroid", "tutte", u12, "--section-q", "1")
    assert code == 0 and rep["result"]["section"] == ["1", "2", "1"]
    assert rep["result"]["ultra_log_concave"] is True
    code, rep = run(capsys, "matroid", "tutte", u12)
    assert code == 2
    vecs = write(tmp_path, "v.json", {"dim": 2, "vectors": [["1", "0"], ["0", "1"], ["1", "1"]]})
    code, rep = run(capsys, "matroid", "zonotope", vecs, "--certify")
    assert code == 0 and len(rep["result"]["poly"]["terms"]) == 3


def test_mmatrix_commands(tmp_path, capsys):
    mat = write(tmp_path, "a.json", {"n": 2, "rows": [["1", "-1"], ["0", "1"]]})
    code, rep = run(capsys, "mmatrix", "recognize", mat)
    assert code == 0
    bad = write(tmp_path, "b.json", {"n": 2, "rows": [["1", "-2"], ["-2", "1"]]})
    code, rep = run(capsys, "mmatrix", "recognize", bad)
    assert code == 1
    code, rep = run(capsys, "mmatrix", "charpoly", mat, "--certify")
    assert code == 0 and rep["result"]["poly"]["d"] == 2


def test_matrix_float_entries_are_input_errors(tmp_path, capsys):
    # 1e-400 would be read as 0 and the large float rounded, so neither is accepted
    doc = '{"n": 2, "rows": [[1e-400, -1], [-1, 123456789012345678901234567890.0]]}'
    path = tmp_path / "a.json"
    path.write_text(doc)
    code, rep = run(capsys, "mmatrix", "charpoly", str(path))
    assert code == 2
    assert rep["error"].startswith("matrix.rows[0][0]: expected a rational string or an integer")


def test_measure_commands(tmp_path, capsys):
    mu = write(tmp_path, "mu.json", MU_U12)
    code, rep = run(capsys, "measure", "lorentzian", mu)
    assert code == 0
    code, rep = run(capsys, "measure", "report", mu, "--c", "2", "--trials", "30",
                    "--seed", "5")
    assert code == 0
    assert rep["result"]["report"]["pairwise_holds"] is True
    code, rep = run(capsys, "measure", "field", mu, "--x", "3,3")
    assert code == 0
    code, rep = run(capsys, "measure", "exclusion", mu, "--i", "0", "--j", "1",
                    "--theta", "1/2")
    assert code == 0
    pos = write(tmp_path, "pos.json", {"n": 2, "atoms": [
        {"set": [], "num": "1", "den": "2"}, {"set": [0, 1], "num": "1", "den": "2"}]})
    code, rep = run(capsys, "measure", "lorentzian", pos)
    assert code == 1
    unnorm = write(tmp_path, "un.json", {"n": 1, "atoms": [
        {"set": [], "num": "3", "den": "1"}, {"set": [0], "num": "1", "den": "1"}]})
    code, rep = run(capsys, "measure", "lorentzian", unnorm)
    assert code == 2
    code, rep = run(capsys, "measure", "lorentzian", unnorm, "--normalize")
    assert code == 0


def test_roundtrip_command(tmp_path, capsys):
    path = write(tmp_path, "f.json", CUBIC9)
    code, rep = run(capsys, "roundtrip", path)
    assert code == 0 and rep["verdict"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "d": 1, "terms": [
        {"exp": [1], "num": "1", "den": "0"}]}))
    code, rep = run(capsys, "roundtrip", str(bad))
    assert code == 2


def test_roundtrip_names_a_document_as_its_command_does(tmp_path, capsys):
    path = write(tmp_path, "f.json", {"n": "x", "d": 1, "terms": []})
    errors = {run(capsys, command, path)[1]["error"] for command in ("roundtrip", "check")}
    assert errors == {"polynomial: key 'n' should be int"}


def test_float_flag(tmp_path, capsys):
    path = write(tmp_path, "u12.json", U12)
    code, rep = run(capsys, "matroid", "tutte", path, "--x", "1/2", "--y", "2", "--float")
    assert code == 0
    assert rep["result"]["value"]["float"] == pytest.approx(float(rep_value(rep)))


def test_float_flag_beyond_float_range(tmp_path, capsys):
    big = "-1" + "0" * 400
    path = write(tmp_path, "f.json", {"n": 2, "d": 1, "terms": [_term([1, 0], big),
                                                              _term([0, 1])]})
    code = main(["check", path, "--float"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    rep = json.loads(out)   # exactly one object
    assert rep["witness"]["detail"]["coefficient"] == {"rat": big, "float": None}


def _emitted(capsys, value, float_mode: bool):
    """``value`` as the report writer prints it."""
    assert cli._emit({"value": value}, 0, float_mode) == 0
    return json.loads(capsys.readouterr().out)["value"]


@pytest.mark.parametrize("float_mode", [False, True])
def test_records_encode_to_exactly_their_fields(capsys, float_mode):
    def r(num, den=1):
        x = Fraction(num, den)
        return {"rat": str(x), "float": float(x)} if float_mode else str(x)

    sig = Inertia(2, 1, 0)
    cert = Certificate(False, (1, 0, 1), INERTIA_VIOLATION,
                       {"inertia": sig, "all_failures": [[(1, 0, 1), sig], [(0, 2, 0), sig]]})
    sig_json = {"n_plus": 2, "n_minus": 1, "n_zero": 0}
    half, third = Fraction(1, 2), Fraction(-1, 3)
    measure_wit = MeasureRayleighWitness(0, 2, (half, Fraction(3)), Fraction(5, 4), third)
    measure_wit_json = {"i": 0, "j": 2, "point": [r(1, 2), r(3)], "lhs": r(5, 4),
                        "rhs": r(-1, 3)}
    cases = [
        (sig, sig_json),
        (cert, {"verdict": False, "failing_alpha": [1, 0, 1],
                "failing_kind": INERTIA_VIOLATION, "is_zero": False,
                "detail": {"inertia": sig_json,
                           "all_failures": [[[1, 0, 1], sig_json], [[0, 2, 0], sig_json]]}}),
        (Certificate(True), {"verdict": True, "failing_alpha": None, "failing_kind": None,
                             "detail": {}, "is_zero": False}),
        (RayleighWitness((0, 1), 0, 1, (half, Fraction(7)), Fraction(9, 2), third),
         {"alpha": [0, 1], "i": 0, "j": 1, "point": [r(1, 2), r(7)], "lhs": r(9, 2),
          "rhs": r(-1, 3)}),
        (measure_wit, measure_wit_json),
        (NegativeDependenceReport(False, ((0, 1),), Fraction(2), True, (), False, 3,
                                  measure_wit, None, 40, 7),
         {"pnc_holds": False, "pnc_failures": [[0, 1]], "pairwise_c": r(2),
          "pairwise_holds": True, "pairwise_failures": [], "ulc_holds": False,
          "ulc_failing_k": 3, "c_rayleigh_witness": measure_wit_json,
          "strongly_rayleigh_witness": None, "trials": 40, "seed": 7}),
    ]
    for record, expected in cases:
        assert _emitted(capsys, record, float_mode) == expected, record


def test_a_fraction_beyond_the_float_range_has_no_float(capsys):
    big = Fraction(-10 ** 400, 3)
    assert _emitted(capsys, [big], True) == [{"rat": str(big), "float": None}]
    assert _emitted(capsys, [big], False) == [str(big)]


@pytest.mark.parametrize("value", [{1, 2}, HomogPoly(1, 1, {(1,): 1}), Inertia, 1j],
                         ids=["set", "poly", "record_class", "complex"])
@pytest.mark.parametrize("float_mode", [False, True])
def test_other_values_are_not_written(capsys, value, float_mode):
    # a value the report has no encoding for is a bug, not a repr in the report
    with pytest.raises(TypeError):
        cli._emit({"value": value}, 0, float_mode)
    assert capsys.readouterr().out == ""


def rep_value(rep):
    from fractions import Fraction
    return Fraction(rep["result"]["value"]["rat"])


def test_genpoly_kind_g(tmp_path, capsys):
    nu0 = {"n": 2, "d": 2, "values": [
        {"exp": [2, 0], "num": "0", "den": "1"}, {"exp": [1, 1], "num": "0", "den": "1"},
        {"exp": [0, 2], "num": "0", "den": "1"}]}
    path = write(tmp_path, "nu0.json", nu0)
    code, rep = run(capsys, "genpoly", path, "--q", "1/2", "--kind", "g", "--certify")
    assert code == 0
    terms = {tuple(t["exp"]): t["num"] for t in rep["result"]["poly"]["terms"]}
    assert terms == {(0, 2): "1", (1, 1): "4", (2, 0): "1"}


def test_operator_power_high_root(tmp_path, capsys):
    # 2**(1/8000) to 128 bits: an 8000-th root of a number of 128 * 8000 bits
    path = write(tmp_path, "lin.json", {"n": 2, "d": 1, "terms": [
        {"exp": [1, 0], "num": "2", "den": "1"}, {"exp": [0, 1], "num": "1", "den": "1"}]})
    code, rep = run(capsys, "operator", "power", path, "--p", "1/8000")
    assert code == 0 and rep["result"]["exact"] is False
    terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
             for t in rep["result"]["poly"]["terms"]}
    c = terms[(1, 0)]
    assert c ** 8000 <= 2 < (c + Fraction(1, 1 << 128)) ** 8000


def test_operator_power_refuses_a_huge_root(tmp_path, capsys):
    path = write(tmp_path, "lin.json", {"n": 2, "d": 1, "terms": [
        {"exp": [1, 0], "num": "2", "den": "1"}, {"exp": [0, 1], "num": "3", "den": "1"}]})
    code = main(["operator", "power", path, "--p", f"1/{10 ** 400}"])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {
        "command": ["operator", "power"],
        "error": "an inexact power needs the denominator of p to be at most 10000"}


def test_genpoly_irrational_power_rejected(tmp_path, capsys):
    halfval = {"n": 2, "d": 2, "values": [
        {"exp": [2, 0], "num": "1", "den": "2"}, {"exp": [1, 1], "num": "0", "den": "1"},
        {"exp": [0, 2], "num": "1", "den": "2"}]}
    path = write(tmp_path, "h.json", halfval)
    code, rep = run(capsys, "genpoly", path, "--q", "1/2")
    assert code == 2 and "irrational" in rep["error"]
    code, rep = run(capsys, "genpoly", path, "--q", "1/4")
    assert code == 0  # 1/4 is an exact square


def test_genpoly_q_beyond_float_range(tmp_path):
    # half-integer values need the exact square root of q = 10**400
    halfval = {"n": 2, "d": 2, "values": [
        {"exp": [2, 0], "num": "1", "den": "2"}, {"exp": [1, 1], "num": "0", "den": "1"},
        {"exp": [0, 2], "num": "3", "den": "2"}]}
    path = write(tmp_path, "h.json", halfval)
    src = str(Path(lorentz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "lorentz.cli", "genpoly", path, "--q", str(10**400)],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    rep = json.loads(proc.stdout)
    terms = {tuple(t["exp"]): t["num"] for t in rep["result"]["poly"]["terms"]}
    assert terms == {(2, 0): str(10**200 // 2), (1, 1): "1", (0, 2): str(10**600 // 2)}


@pytest.mark.parametrize("argv, command, message", [
    (["check"], ["check"], "the following arguments are required: poly"),
    (["operator", "polarize", "f.json", "--kappa", "1,x"], ["operator", "polarize"],
     "argument --kappa: invalid _int_list_arg value: '1,x'"),
    (["no-such-command"], [], "argument command: invalid choice: 'no-such-command'"),
    ([], [], "the following arguments are required: command"),
    (["check", "f.json", "--bogus"], [], "unrecognized arguments: --bogus"),
])
def test_usage_error_is_one_json_report(argv, command, message):
    src = str(Path(lorentz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "lorentz.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stderr == ""
    rep = json.loads(proc.stdout)
    assert set(rep) == {"command", "error"}
    assert rep["command"] == command and rep["error"].startswith(message)


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: lorentz check")


@pytest.mark.parametrize("subverb", ["validate", "basis-poly"])
@pytest.mark.parametrize("doc", [[1, 2], 5, None])
def test_matroid_document_not_an_object(tmp_path, capsys, subverb, doc):
    path = write(tmp_path, "doc.json", doc)
    code, rep = run(capsys, "matroid", subverb, path)
    assert code == 2 and "must be a JSON object" in rep["error"]


def test_validate_empty_basis_list_is_refuted(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {"n": 2, "bases": []})
    code, rep = run(capsys, "matroid", "validate", path)
    assert code == 1 and "at least one basis" in rep["witness"]["reason"]


@pytest.mark.parametrize("section, ok", [
    ([1, 3, 3, 1], True),
    ([1, 0, 0, 1], False),      # ultra log-concave, but with internal zeros
    ([-1, 3, 3, 1], False),     # ultra log-concave, but with a negative entry
])
def test_tutte_section_verdict(tmp_path, capsys, monkeypatch, section, ok):
    monkeypatch.setattr(matroids, "tutte_section",
                        lambda m, q: [Fraction(c) for c in section])
    path = write(tmp_path, "free3.json", {"n": 3, "bases": [[0, 1, 2]]})
    code, rep = run(capsys, "matroid", "tutte", path, "--section-q", "1/2")
    assert code == 0 and rep["result"]["ultra_log_concave"] is ok


def _term(exp, num="1"):
    return {"exp": exp, "num": num, "den": "1"}


@pytest.mark.parametrize("argv, doc, path", [
    (["check"], {"n": 2, "d": 2, "terms": [_term([[1], [1]])]}, "polynomial.terms[0].exp[0]"),
    (["check"], {"n": 2, "d": 2, "terms": [_term([1, 1], [1])]}, "polynomial.terms[0].num"),
    (["check"], {"n": 2, "d": 2, "terms": [_term([1, 1], 0.5), _term([2, 0])]},
     "polynomial.terms[0].num"),
    (["check"], {"n": 2, "d": 2, "terms": [_term([1.5, 1.5])]}, "polynomial.terms[0].exp[0]"),
    (["check"], {"n": 2, "d": 2, "terms": [_term([True, 1])]}, "polynomial.terms[0].exp[0]"),
    (["mconvex", "set"], {"n": 2, "d": 2, "values": [_term([2, 0.0])]},
     "function.values[0].exp[1]"),
    (["matroid", "basis-poly"], {"n": 2, "bases": [[[0]]]}, "matroid.bases[0][0]"),
    (["matroid", "basis-poly"], {"n": 2, "bases": [0]}, "matroid.bases[0]"),
    (["matroid", "basis-poly"], {"vertices": 2, "edges": [[0]]}, "graph.edges[0]"),
    (["matroid", "basis-poly"], {"vertices": 2, "edges": [0]}, "graph.edges[0]"),
    (["measure", "lorentzian"], {"n": 2, "atoms": [{"set": [[0]], "num": "1", "den": "1"}]},
     "measure.atoms[0].set[0]"),
    (["operator", "symbol"], {"kappa": [[1]], "ell": 0, "images": []}, "operator.kappa[0]"),
    (["matroid", "validate"], {"n": 2, "bases": [[0.5], [1]]}, "matroid.bases[0][0]"),
    (["matroid", "validate"], {"n": 2, "bases": [[0], ["1"]]}, "matroid.bases[1][0]"),
    (["matroid", "validate"], {"n": 2, "bases": [[0], [True]]}, "matroid.bases[1][0]"),
    (["matroid", "validate"], {"n": 2, "bases": [0, 1]}, "matroid.bases[0]"),
    (["matroid", "validate"], {"n": True, "bases": [[0]]}, "matroid"),
    (["matroid", "validate"], {"n": 3, "bases": 5}, "matroid"),
    (["matroid", "validate"], {"n": 3, "bases": True}, "matroid"),
    (["matroid", "validate"], {"n": -1, "bases": [[]]}, "matroid"),
    (["matroid", "validate"], {"n": -2, "bases": []}, "matroid"),
    (["matroid", "validate"], {"vertices": -3, "edges": []}, "graph"),
    (["matroid", "basis-poly"], {"vertices": -3, "edges": []}, "graph"),
    (["measure", "lorentzian"], {"n": -1, "atoms": [{"set": [], "num": "1", "den": "1"}]},
     "measure"),
    (["mconvex", "set"], {"n": -1, "d": 2, "values": []}, "function"),
    (["mconvex", "function"], {"n": -1, "d": 2, "values": []}, "function"),
    (["mconvex", "function"], {"n": 2, "d": -1, "values": []}, "function"),
    (["genpoly", "--q", "1"], {"n": -1, "d": 2, "values": []}, "function"),
    (["genpoly", "--q", "1"], {"n": 2, "d": -1, "values": []}, "function"),
    (["matroid", "validate"], {"n": 3, "bases": [[0, 1], [0, 0, 2]]}, "matroid.bases[1]"),
    (["matroid", "basis-poly"], {"n": 3, "bases": [[0, 1], [0, 0, 2]]}, "matroid.bases[1]"),
    (["measure", "lorentzian"], {"n": 1, "atoms": [{"set": [0, 0], "num": "1", "den": "1"}]},
     "measure.atoms[0].set"),
    # a missing or falsy bases is not an empty family
    (["matroid", "validate"], {"n": 3}, "matroid"),
    (["matroid", "validate"], {"n": 3, "bases": None}, "matroid"),
    (["matroid", "validate"], {"n": 3, "bases": False}, "matroid"),
    (["matroid", "validate"], {"n": 3, "bases": 0}, "matroid"),
    (["matroid", "validate"], {"n": 3, "bases": ""}, "matroid"),
])
def test_malformed_document_is_one_json_report(tmp_path, capsys, argv, doc, path):
    code = main([*argv, write(tmp_path, "doc.json", doc)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    rep = json.loads(out)
    assert set(rep) == {"command", "error"} and rep["error"].startswith(path + ":")


def test_repeated_set_element_is_refused(tmp_path, capsys):
    doc = write(tmp_path, "m.json", {"n": 3, "bases": [[0, 1], [0, 2, 0]]})
    code, rep = run(capsys, "matroid", "validate", doc)
    assert code == 2 and rep["error"] == "matroid.bases[1]: repeated element 0"
    doc = write(tmp_path, "mu.json", {"n": 2, "atoms": [
        {"set": [1, 0, 1], "num": "1", "den": "1"}]})
    code, rep = run(capsys, "measure", "lorentzian", doc)
    assert code == 2 and rep["error"] == "measure.atoms[0].set: repeated element 1"
    # a graph edge may still be a loop
    doc = write(tmp_path, "g.json", {"vertices": 2, "edges": [[0, 0], [0, 1]]})
    code, rep = run(capsys, "matroid", "validate", doc)
    assert code == 0 and rep["result"]["matroid"] == {"n": 2, "bases": [[1]]}


def test_graph_touching_over_256_vertices_is_refused(tmp_path, capsys):
    # the edge-set DP labels each touched vertex with one byte: 130 disjoint
    # edges touch 260 vertices, and their 2^130 edge sets could not be held
    doc = write(tmp_path, "g.json", {"vertices": 261,
                                     "edges": [[2 * k, 2 * k + 1] for k in range(130)]})
    code, rep = run(capsys, "matroid", "potts", doc, "--q", "2")
    assert code == 2 and rep["error"] == "graph: 260 vertices touched by 130 edges, more than 256"


@contextlib.contextmanager
def _no_digit_limit():
    """No limit on the digits of an int <-> str conversion inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_coefficients_beyond_the_digit_limit(tmp_path, capsys):
    # CPython converts at most 4,300 digits between int and str by default
    big = {"n": 2, "d": 2, "terms": [_term([1, 1], "1" + "0" * 4999)]}
    path = write(tmp_path, "big.json", big)
    for argv in (["check", path], ["roundtrip", path]):
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["verdict"] is True
    a, b = "1" * 2501, "9" * 2501
    table = write(tmp_path, "t.json", {"kappa": [1], "ell": 0, "images": [
        {"exp": [1], "poly": {"n": 1, "d": 1, "terms": [_term([1], a)]}}]})
    poly = write(tmp_path, "p.json", {"n": 1, "d": 1, "terms": [_term([1], b)]})
    code, rep = run(capsys, "operator", "apply", table, poly)
    assert code == 0
    [term] = rep["result"]["poly"]["terms"]
    with _no_digit_limit():
        assert int(term["num"]) == int(a) * int(b)
    # a 4,401-digit denominator makes q**(1/den) irrational, not a float overflow
    nu = write(tmp_path, "nu.json", {"n": 1, "d": 1, "values": [
        {"exp": [1], "num": "1", "den": "1" + "0" * 4400}]})
    code, rep = run(capsys, "genpoly", nu, "--q", "2")
    assert code == 2 and "irrational" in rep["error"]


def test_genpoly_refuses_a_power_beyond_the_bound(tmp_path, capsys):
    # q**nu(a) for a 4,401-digit nu(a) would not finish; q = 1 has every power
    nu = write(tmp_path, "nu.json", {"n": 1, "d": 1, "values": [
        {"exp": [1], "num": "1" + "0" * 4400, "den": "1"}]})
    code = main(["genpoly", nu, "--q", "2"])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {
        "command": ["genpoly"], "error": "a power q**nu(a) would take more than 300000 bits"}
    code, rep = run(capsys, "genpoly", nu, "--q", "1")
    assert code == 0 and rep["result"]["poly"]["terms"] == [_term([1])]


def test_main_restores_the_digit_limit(tmp_path, capsys):
    path = write(tmp_path, "f.json", CUBIC9)
    before = sys.get_int_max_str_digits()
    try:
        for limit in (5000, before):
            sys.set_int_max_str_digits(limit)
            assert run(capsys, "check", path)[0] == 0
            assert sys.get_int_max_str_digits() == limit
            with pytest.raises(SystemExit):
                main(["check"])
            capsys.readouterr()
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)


def _leaves(parser, words=()):
    """(command words, parser) of every leaf command under ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, (*words, name))


# a value for every required option of a leaf command
_REQUIRED = {"--c": "1", "--i": "0", "--j": "1", "--kappa": "1,1", "--p": "1", "--q": "1",
             "--seed": "1", "--theta": "1/3", "--x": "1,1"}


def test_every_command_names_itself(tmp_path, capsys):
    # an input error inside a leaf names every command word, as its success report does
    missing = str(tmp_path / "missing.json")
    for words, parser in _leaves(build_parser()):
        commands, rest = [words], []
        for a in parser._actions:
            if a.choices and not a.option_strings:  # mconvex takes its subverb as a positional
                commands = [(*words, c) for c in a.choices]
            elif not a.option_strings:
                rest.append(missing)
            elif a.required:
                rest += [a.option_strings[0], _REQUIRED[a.option_strings[0]]]
        for command in commands:
            code = main([*command, *rest])
            rep = json.loads(capsys.readouterr().out)
            assert code == 2
            assert rep == {"command": list(command), "error": f"{missing}: no such file"}


def test_command_table(capsys):
    leaves = list(_leaves(build_parser()))
    certifying = []
    for words, parser in leaves:
        with pytest.raises(SystemExit) as exc:
            main([*words, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lorentz " + " ".join(words))
        flags = {s for a in parser._actions for s in a.option_strings}
        assert "--float" in flags
        if "--certify" in flags:
            certifying.append(" ".join(words))
    assert len(leaves) == 29
    assert sorted(certifying) == sorted(
        ["genpoly", "mmatrix charpoly"]
        + [f"matroid {v}" for v in ("basis-poly", "potts", "indep-poly", "zonotope")]
        + [f"operator {v}" for v in ("symbol", "apply", "polarize", "project", "normalize",
                                     "multiaffine", "power", "exclusion", "nuij")])


def test_repeated_calls_keep_no_state(tmp_path, capsys):
    # The parser is built once per process; a second call must not see the
    # first call's repeatable --point values.
    path = write(tmp_path, "f.json", CUBIC9)
    for point in (["1,2", "3,1"], ["1/2,5"]):
        argv = ["hodge-riemann", path]
        for p in point:
            argv += ["--point", p]
        code, rep = run(capsys, *argv)
        assert code == 0
        assert [q["point"] for q in rep["result"]["points"]] == [p.split(",") for p in point]
