"""Golden CLI reports: each case must print the recorded report, apart from
the nondeterministic ``elapsed_ms`` member, and exit with the recorded code.

A report is one line of canonical JSON; the recorded ones are kept indented
so that their diffs read line by line.  A case passes when its output, with
the ``"elapsed_ms": ..., `` member cut out, equals byte for byte
``json.dumps(recorded, sort_keys=True) + "\n"`` of the parsed recorded
report, so ``1`` still differs from ``1.0`` and ``true`` from ``1``.

Inputs live in ``golden/inputs`` and every case runs with ``golden/`` as the
working directory, so the input paths in the reports are the same on every
machine.  The recorded reports are in ``golden/reports`` (one file per case)
and the exit codes in ``golden/exit_codes.json``.  Record them with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

(the named cases only, or every case) only when a change alters a report on
purpose or adds a case, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lorentz
from lorentz.certify import INERTIA_VIOLATION
from lorentz.cli import main
from lorentz.inertia import Inertia
from lorentz.measures import partition_homogenized
from lorentz.matroids import independence_counts
from lorentz.serialize import (function_from_dict, load_document, load_matroid,
                               matroid_to_dict, measure_from_dict, poly_from_dict)

from faddeev_leverrier import char_poly_inertia
from poly_oracles import first_rayleigh_violation, hessian, moved, support_alphas

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = GOLDEN / "reports"
EXIT_CODES = GOLDEN / "exit_codes.json"
# sorted keys put "inputs" after "elapsed_ms", so a comma always follows it
ELAPSED = re.compile(r'"elapsed_ms": [-+.0-9eE]+, ')

CASES = {
    # genpoly: both kinds, with and without certification
    "genpoly_f": ["genpoly", "inputs/nu_half.json", "--q", "1/4"],
    "genpoly_f_certify": ["genpoly", "inputs/nu_half.json", "--q", "1/4", "--certify"],
    "genpoly_g": ["genpoly", "inputs/nu_half.json", "--q", "1/4", "--kind", "g"],
    "genpoly_g_certify": ["genpoly", "inputs/nu_half.json", "--q", "1/4", "--kind", "g",
                          "--certify"],
    "genpoly_f_q9_certify": ["genpoly", "inputs/nu_half.json", "--q", "9", "--certify"],
    "genpoly_irrational_root": ["genpoly", "inputs/nu_half.json", "--q", "2"],
    # operator: every subverb
    "operator_symbol": ["operator", "symbol", "inputs/table.json"],
    "operator_symbol_certify": ["operator", "symbol", "inputs/table.json", "--certify"],
    "operator_apply": ["operator", "apply", "inputs/table.json", "inputs/lin2.json"],
    "operator_apply_certify": ["operator", "apply", "inputs/table.json", "inputs/lin2.json",
                               "--certify"],
    "operator_apply_over_cap": ["operator", "apply", "inputs/table.json", "inputs/q2.json"],
    "operator_polarize": ["operator", "polarize", "inputs/q2.json", "--kappa", "2,1"],
    "operator_polarize_certify": ["operator", "polarize", "inputs/q2.json", "--kappa", "2,1",
                                  "--certify"],
    "operator_project": ["operator", "project", "inputs/u23_basis.json", "--kappa", "2,1"],
    "operator_project_not_multiaffine": ["operator", "project", "inputs/q2.json",
                                         "--kappa", "1,1"],
    "operator_normalize_certify": ["operator", "normalize", "inputs/cubic9.json",
                                   "--certify"],
    "operator_multiaffine": ["operator", "multiaffine", "inputs/cubic9.json"],
    "operator_multiaffine_certify": ["operator", "multiaffine", "inputs/u23_basis.json",
                                     "--certify"],
    "operator_power_inexact": ["operator", "power", "inputs/cubic9.json", "--p", "1/2"],
    "operator_power_exact_certify": ["operator", "power", "inputs/squares.json", "--p", "1/2",
                                     "--certify"],
    "operator_exclusion_certify": ["operator", "exclusion", "inputs/u23_basis.json",
                                   "--i", "0", "--j", "1", "--theta", "1/3", "--certify"],
    "operator_exclusion_same_index": ["operator", "exclusion", "inputs/u23_basis.json",
                                      "--i", "0", "--j", "0", "--theta", "1/3"],
    "operator_nuij_certify": ["operator", "nuij", "inputs/cubic9.json", "--theta", "1/2",
                              "--certify"],
    # matroid constructions
    "matroid_basis_poly_certify": ["matroid", "basis-poly", "inputs/fano.json", "--certify"],
    "matroid_basis_poly": ["matroid", "basis-poly", "inputs/k4_graph.json"],
    "matroid_potts": ["matroid", "potts", "inputs/fano.json", "--q", "1/2"],
    "matroid_potts_certify": ["matroid", "potts", "inputs/u23.json", "--q", "1/2",
                              "--certify"],
    "matroid_potts_q2_certify": ["matroid", "potts", "inputs/u23.json", "--q", "2",
                                 "--certify"],
    "matroid_potts_q0": ["matroid", "potts", "inputs/u23.json", "--q", "0"],
    "matroid_indep_poly": ["matroid", "indep-poly", "inputs/loop_u12.json"],
    "matroid_indep_poly_certify": ["matroid", "indep-poly", "inputs/u24.json", "--certify"],
    "matroid_zonotope": ["matroid", "zonotope", "inputs/vectors.json"],
    "matroid_zonotope_certify": ["matroid", "zonotope", "inputs/vectors.json", "--certify"],
    "matroid_mason_fano": ["matroid", "mason", "inputs/fano.json"],
    "matroid_mason_k4_float": ["matroid", "mason", "inputs/k4_graph.json", "--float"],
    "matroid_mason_loop": ["matroid", "mason", "inputs/loop_u12.json"],
    "matroid_mason_free3": ["matroid", "mason", "inputs/free3.json"],
    "matroid_tutte_xy": ["matroid", "tutte", "inputs/fano.json", "--x", "2", "--y", "3"],
    "matroid_tutte_bases": ["matroid", "tutte", "inputs/k4_graph.json", "--x", "1",
                            "--y", "1"],
    "matroid_tutte_section": ["matroid", "tutte", "inputs/fano.json", "--section-q", "1/2"],
    "matroid_tutte_section_q1": ["matroid", "tutte", "inputs/k4_graph.json",
                                 "--section-q", "1"],
    "matroid_tutte_section_q0": ["matroid", "tutte", "inputs/loop_u12.json",
                                 "--section-q", "0"],
    "matroid_tutte_section_q2": ["matroid", "tutte", "inputs/u23.json", "--section-q", "2"],
    "matroid_tutte_no_point": ["matroid", "tutte", "inputs/u23.json"],
    "matroid_validate": ["matroid", "validate", "inputs/u24.json"],
    "matroid_validate_exchange": ["matroid", "validate", "inputs/not_matroid.json"],
    "matroid_validate_bad_n": ["matroid", "validate", "inputs/bad_n.json"],
    # a multigraph with a loop (edge 3), a parallel pair (edges 1, 2) and an
    # isolated vertex (4), through every matroid command that reads a graph
    "matroid_potts_multigraph": ["matroid", "potts", "inputs/multigraph.json", "--q", "1/2"],
    "matroid_indep_poly_multigraph_certify": ["matroid", "indep-poly",
                                              "inputs/multigraph.json", "--certify"],
    "matroid_mason_multigraph": ["matroid", "mason", "inputs/multigraph.json"],
    "matroid_tutte_multigraph_xy": ["matroid", "tutte", "inputs/multigraph.json",
                                    "--x", "2", "--y", "3"],
    "matroid_tutte_section_multigraph": ["matroid", "tutte", "inputs/multigraph.json",
                                         "--section-q", "1/2"],
    "matroid_basis_poly_multigraph": ["matroid", "basis-poly", "inputs/multigraph.json"],
    "matroid_validate_multigraph": ["matroid", "validate", "inputs/multigraph.json"],
    # graphs a loader refuses, through a rank-table command and validate
    "matroid_potts_graph_edge_out_of_range": ["matroid", "potts",
                                              "inputs/graph_edge_out_of_range.json",
                                              "--q", "1/2"],
    "matroid_validate_graph_edge_out_of_range": ["matroid", "validate",
                                                 "inputs/graph_edge_out_of_range.json"],
    "matroid_potts_graph_negative_vertices": ["matroid", "potts",
                                              "inputs/graph_negative_vertices.json",
                                              "--q", "1/2"],
    "matroid_validate_graph_negative_vertices": ["matroid", "validate",
                                                 "inputs/graph_negative_vertices.json"],
    # a document with both bases and edges is its basis list in every command
    "matroid_validate_mixed_document": ["matroid", "validate", "inputs/mixed_bases_edges.json"],
    "matroid_mason_mixed_document": ["matroid", "mason", "inputs/mixed_bases_edges.json"],
    # M-matrices
    "mmatrix_charpoly": ["mmatrix", "charpoly", "inputs/m3.json"],
    "mmatrix_charpoly_certify": ["mmatrix", "charpoly", "inputs/m3.json", "--certify"],
    "mmatrix_charpoly_certify_refuted": ["mmatrix", "charpoly", "inputs/not_m.json",
                                         "--certify"],
    "mmatrix_recognize": ["mmatrix", "recognize", "inputs/not_m.json"],
    # a singular M-matrix whose first one-element minor is 0, and an n = 6
    # draw of random_m_matrix(6, seed=13) with slack 0 and rational entries
    "mmatrix_recognize_singular": ["mmatrix", "recognize", "inputs/singular_m3.json"],
    "mmatrix_charpoly_certify_singular": ["mmatrix", "charpoly", "inputs/singular_m3.json",
                                          "--certify"],
    "mmatrix_charpoly_m6_slack0": ["mmatrix", "charpoly", "inputs/m6_slack0.json"],
    # measures
    "measure_lorentzian": ["measure", "lorentzian", "inputs/mu_u12.json"],
    "measure_lorentzian_refuted": ["measure", "lorentzian", "inputs/mu_gap.json"],
    "measure_report": ["measure", "report", "inputs/mu_u24.json", "--trials", "40",
                       "--seed", "3"],
    "measure_report_float": ["measure", "report", "inputs/mu_u24.json", "--trials", "40",
                             "--seed", "3", "--float"],
    "measure_report_not_ulc": ["measure", "report", "inputs/mu_gap.json", "--trials", "40",
                               "--seed", "1"],
    "measure_field": ["measure", "field", "inputs/mu_u12.json", "--x", "1,2"],
    "measure_field_nonpositive": ["measure", "field", "inputs/mu_u12.json", "--x", "0,2"],
    "measure_exclusion": ["measure", "exclusion", "inputs/mu_u12.json", "--i", "0",
                          "--j", "1", "--theta", "1/4"],
    "measure_exclusion_same_index": ["measure", "exclusion", "inputs/mu_u12.json",
                                     "--i", "1", "--j", "1", "--theta", "1/4"],
    # check and strict
    "check_pass": ["check", "inputs/cubic9.json"],
    "check_inertia": ["check", "inputs/cubic10.json"],
    "check_negative_coefficient": ["check", "inputs/negcoef.json"],
    "check_support": ["check", "inputs/gap.json"],
    "check_exhaustive": ["check", "inputs/many_fail.json", "--exhaustive"],
    "check_float": ["check", "inputs/many_fail.json", "--float"],
    "strict_cubic9": ["strict", "inputs/cubic9.json"],
    "strict_inertia": ["strict", "inputs/cubic10.json"],
    "strict_missing_coefficient": ["strict", "inputs/q2.json"],
    "strict_singular": ["strict", "inputs/rank_one_cubic.json"],
    # witnesses of the exchange check and of singular, zero-diagonal Hessians
    "mconvex_set_not_m_convex": ["mconvex", "set", "inputs/not_m_convex_domain.json"],
    # a whole box slice {0 <= x <= (2, 1, 3, 2), |x| = 4}, and the same slice
    # without its point (1, 1, 1, 1): as a domain and as a support
    "mconvex_set_box_slice": ["mconvex", "set", "inputs/box_slice_domain.json"],
    "mconvex_set_box_slice_hole": ["mconvex", "set", "inputs/box_slice_hole_domain.json"],
    "check_support_box_slice_hole": ["check", "inputs/box_slice_hole_poly.json"],
    "check_exhaustive_zero_diagonal": ["check", "inputs/zero_diag_cubic.json",
                                       "--exhaustive"],
    "hodge_riemann_fano_potts": ["hodge-riemann", "inputs/fano_potts.json",
                                 "--point", "1,1,1,1,1,1,1,1",
                                 "--point", "1,2,1/2,3,1,1,2,1/7"],
    # Rayleigh: refuted at an explicit point, refuted by sampling, not refuted
    "rayleigh_point_refuted": ["rayleigh", "inputs/zero_diag_cubic.json", "--c", "1",
                               "--seed", "1", "--point", "0,0,1,0,1,1"],
    "rayleigh_sampled_refuted": ["rayleigh", "inputs/fano_potts.json", "--c", "1/2",
                                 "--seed", "2", "--trials", "20"],
    "rayleigh_sampled_refuted_float": ["rayleigh", "inputs/fano_potts.json", "--c", "1/2",
                                       "--seed", "2", "--trials", "20", "--float"],
    "rayleigh_searched": ["rayleigh", "inputs/cubic9.json", "--c", "4/3", "--seed", "1",
                          "--trials", "30", "--point", "1,2"],
    # the Fano basis polynomial at c = 2, as the benchmark runs it: every
    # quadratic derivative is Lorentzian
    "rayleigh_fano_basis_searched": ["rayleigh", "inputs/fano_basis_poly.json", "--c", "2",
                                     "--seed", "1", "--trials", "200"],
    # refuted at c = 1 in alpha e_1, after the Lorentzian quadratics at e_2 and e_4
    "rayleigh_sampled_refuted_c1": ["rayleigh", "inputs/zero_diag_cubic.json", "--c", "1",
                                    "--seed", "1", "--trials", "20"],
    # c < 0 also checks the alphas with |alpha| = d-1: here alpha = 0 of x0 + x1
    "rayleigh_negative_c": ["rayleigh", "inputs/lin.json", "--c", "-1", "--seed", "1",
                            "--trials", "5", "--point", "1,1"],
    # M-convex functions, roundtrip, sampled Hodge-Riemann points
    "mconvex_function": ["mconvex", "function", "inputs/nu_half.json"],
    "mconvex_function_not_m_convex": ["mconvex", "function",
                                      "inputs/not_m_convex_domain.json"],
    # an M-convex domain (all of simplex(3, 3)) whose values break the local
    # exchange inequality: separable convex values raised by 5/2 at (1, 1, 1)
    "mconvex_function_exchange_refuted": ["mconvex", "function",
                                          "inputs/nu_exchange_refuted.json"],
    "roundtrip_graph": ["roundtrip", "inputs/k4_graph.json"],
    # roundtrip of every other document kind, through its writer
    "roundtrip_poly": ["roundtrip", "inputs/cubic9.json"],
    "roundtrip_function": ["roundtrip", "inputs/nu_half.json"],
    "roundtrip_matroid": ["roundtrip", "inputs/u23.json"],
    "roundtrip_matrix": ["roundtrip", "inputs/m3.json"],
    "roundtrip_measure": ["roundtrip", "inputs/mu_u12.json"],
    "roundtrip_operator": ["roundtrip", "inputs/table.json"],
    "roundtrip_vectors": ["roundtrip", "inputs/vectors.json"],
    "hodge_riemann_sampled": ["hodge-riemann", "inputs/cubic10.json", "--points", "3",
                              "--seed", "1"],
    "hodge_riemann_sampled_float": ["hodge-riemann", "inputs/cubic10.json", "--points", "3",
                                    "--seed", "1", "--float"],
    "hodge_riemann_sampled_no_seed": ["hodge-riemann", "inputs/cubic10.json",
                                      "--points", "3"],
    # input errors: a missing file, invalid JSON, a missing second file, JSON
    # nested deeper than the decoder recurses, an operator image given twice
    "check_missing_file": ["check", "inputs/missing.json"],
    "check_invalid_json": ["check", "inputs/invalid.json"],
    "check_deep_nesting": ["check", "inputs/deep_terms.json"],
    "roundtrip_operator_duplicate_image": ["roundtrip", "inputs/table_duplicate_image.json"],
    "operator_apply_missing_poly": ["operator", "apply", "inputs/table.json",
                                    "inputs/missing.json"],
    # a decimal exponent of five digits or more, in a rational flag and in a
    # matrix entry: Fraction would build a 300,000-digit integer
    "rayleigh_huge_exponent_c": ["rayleigh", "inputs/cubic9.json", "--c", "1e300000",
                                 "--seed", "1", "--trials", "5"],
    "mmatrix_recognize_huge_exponent": ["mmatrix", "recognize",
                                        "inputs/huge_exponent_matrix.json"],
}


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and report of one CLI run from golden/, without elapsed_ms."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(buf):
            try:
                code = main(argv)
            except SystemExit as exc:   # a usage error, reported by the parser
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, ELAPSED.sub("", buf.getvalue())


def recorded(name: str) -> str:
    """The recorded report of a case as the one line the CLI prints."""
    report = json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))
    return json.dumps(report, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, report = run_case(CASES[name])
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert report == recorded(name)


@pytest.mark.parametrize("name", ["rayleigh_sampled_refuted", "measure_report",
                                  "hodge_riemann_sampled"])
def test_report_does_not_depend_on_hash_seed(name):
    # the compiled scans take their order from dict and set iteration
    src = str(Path(lorentz.__file__).resolve().parent.parent)
    reports = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-m", "lorentz.cli", *CASES[name]],
                              capture_output=True, text=True, env=env, cwd=GOLDEN, timeout=60)
        assert proc.returncode == json.loads(EXIT_CODES.read_text())[name]
        reports.add(ELAPSED.sub("", proc.stdout))
    assert reports == {recorded(name)}


def _inertia_refutations() -> list[str]:
    # the cases whose recorded certificate fails on the inertia of a Hessian;
    # a case not recorded yet is left out, so that importing this module to
    # record it does not fail
    names = []
    for name in sorted(CASES):
        path = REPORTS / f"{name}.json"
        if not path.exists():
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        cert = report.get("result", {}).get("certificate")
        if cert and cert["failing_kind"] == INERTIA_VIOLATION:
            names.append(name)
    return names


@pytest.mark.parametrize("name", _inertia_refutations())
def test_reported_inertias_match_char_poly(name):
    # every inertia a refutation reports (all of them under --exhaustive),
    # recomputed from the characteristic polynomial of the Fraction Hessian
    _, report = run_case(CASES[name])
    result = json.loads(report)["result"]
    f = poly_from_dict(result.get("poly")
                       or json.loads((GOLDEN / CASES[name][1]).read_text(encoding="utf-8")))
    cert = result["certificate"]
    failures = cert["detail"].get("all_failures",
                                  [[cert["failing_alpha"], cert["detail"]["inertia"]]])
    assert failures[0] == [cert["failing_alpha"], cert["detail"]["inertia"]]
    for alpha, sig in failures:
        assert Inertia(**sig) == char_poly_inertia(f.quadratic_hessian_after(tuple(alpha)))


def _recorded_cases(command: str) -> list[str]:
    """The cases of a command whose recorded report holds a result, for the
    tests that re-check its figures; unrecorded cases are left out."""
    return [name for name in sorted(CASES) if CASES[name][0] == command
            and (REPORTS / f"{name}.json").exists()
            and json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8")).get("result")]


def _recorded_result(name: str) -> dict:
    return json.loads((REPORTS / f"{name}.json").read_text(encoding="utf-8"))["result"]


def _input(name: str, k: int = 1):
    return json.loads((GOLDEN / CASES[name][k]).read_text(encoding="utf-8"))


def _rat(x) -> Fraction:
    """A rational of a recorded report: its exact string, or under --float
    the {"rat", "float"} pair, whose float is the nearest one to the rational."""
    if isinstance(x, str):
        return Fraction(x)
    r = Fraction(x["rat"])
    assert x == {"rat": x["rat"], "float": float(r)}
    return r


@pytest.mark.parametrize("name", _recorded_cases("hodge-riemann"))
def test_hodge_riemann_inertias_match_char_poly(name):
    # each point's inertia, from the characteristic polynomial of the
    # Fraction Hessian at that point
    f = poly_from_dict(_input(name))
    for entry in _recorded_result(name)["points"]:
        point = [_rat(x) for x in entry["point"]]
        assert Inertia(**entry["inertia"]) == char_poly_inertia(hessian(f, point))


def _rayleigh_witness_holds(f, c: Fraction, alpha, i: int, j: int, point, wit: dict) -> None:
    """The witness is the Fraction reference's violation at its point, with
    the sides it reports: d^alpha f * d^(alpha+e_i+e_j) f and
    c * d^(alpha+e_i) f * d^(alpha+e_j) f."""
    alpha, point = tuple(alpha), tuple(point)
    assert first_rayleigh_violation(f, c, [point], [(alpha, i, j)]) == (alpha, i, j, point)

    def at(*ks):
        beta = tuple(a + ks.count(k) for k, a in enumerate(alpha))
        return f.derive(beta).eval(point) if sum(beta) <= f.degree else 0

    assert (_rat(wit["lhs"]), _rat(wit["rhs"])) == (at() * at(i, j), c * at(i) * at(j))


@pytest.mark.parametrize("name", [name for name in _recorded_cases("rayleigh")
                                  if "violation" in _recorded_result(name)])
def test_rayleigh_witness_by_fraction_reference(name):
    wit = _recorded_result(name)["violation"]
    argv = CASES[name]
    c = Fraction(argv[argv.index("--c") + 1])
    _rayleigh_witness_holds(poly_from_dict(_input(name)), c, wit["alpha"], wit["i"], wit["j"],
                            map(_rat, wit["point"]), wit)


def test_rayleigh_c1_witness_follows_a_skipped_alpha():
    # at c >= 1 the scan skips the alphas whose quadratic d^alpha f has a
    # Hessian of n_plus <= 1; this witness comes after such an alpha
    name = "rayleigh_sampled_refuted_c1"
    f = poly_from_dict(_input(name))
    skipped = [alpha for alpha in support_alphas(f)
               if char_poly_inertia(hessian(f.derive(alpha))).n_plus <= 1]
    assert any(alpha < tuple(_recorded_result(name)["violation"]["alpha"]) for alpha in skipped)


@pytest.mark.parametrize("name", [name for name in _recorded_cases("measure")
                                  if CASES[name][1] == "report"])
def test_measure_report_witnesses_by_fraction_reference(name):
    # a witness at w is the check (alpha = 0, i + 1, j + 1) of the
    # homogenized Z at (1, w): at c over the positive orthant, at 1 signed
    report = _recorded_result(name)["report"]
    f = partition_homogenized(measure_from_dict(_input(name, 2)))
    witnesses = [(report["c_rayleigh_witness"], _rat(report["pairwise_c"])),
                 (report["strongly_rayleigh_witness"], Fraction(1))]
    assert any(wit for wit, _ in witnesses)
    for wit, c in witnesses:
        if wit is not None:
            _rayleigh_witness_holds(f, c, (0,) * f.nvars, wit["i"] + 1, wit["j"] + 1,
                                    [Fraction(1), *map(_rat, wit["point"])], wit)


def _exchange_witness(name: str):
    """The points or values a case's input holds, and its exchange witness:
    (alpha, beta, i) of a point set, or (alpha, beta) of a function."""
    _, report = run_case(CASES[name])
    wit = json.loads(report)["witness"]
    doc = json.loads((GOLDEN / CASES[name][-1]).read_text(encoding="utf-8"))
    if "bases" in doc:          # matroid validate: sets of elements
        def vec(s):
            return tuple(int(e in s) for e in range(doc["n"]))
        alpha, beta, i = wit["witness"]
        return {vec(s) for s in doc["bases"]}, (vec(alpha), vec(beta), i)
    if "terms" in doc:          # check: the support of the polynomial
        detail = wit["detail"]
        return set(poly_from_dict(doc).support()), (*map(tuple, detail["pair"]), detail["index"])
    nu = function_from_dict(doc)
    if len(wit) == 3:           # mconvex set: (alpha, beta, i) of the domain
        return set(nu.values), (tuple(wit[0]), tuple(wit[1]), wit[2])
    return nu.values, tuple(map(tuple, wit))


def test_mixed_document_is_the_same_basis_list_in_every_command():
    # bases and edges in one document: validate, mason and roundtrip (through
    # detect_kind) all read the 3-element basis list, not the 2-edge graph
    path = str(GOLDEN / CASES["matroid_validate_mixed_document"][2])
    kind, m = load_document(path)
    assert kind == "matroid" and m == load_matroid(path) == load_matroid(path, ranked=True)
    assert matroid_to_dict(m) == {"n": 3, "bases": [[0], [1]]}
    code, report = run_case(CASES["matroid_validate_mixed_document"])
    assert code == 0 and json.loads(report)["result"]["matroid"] == matroid_to_dict(m)
    code, report = run_case(CASES["matroid_mason_mixed_document"])
    assert json.loads(report)["result"]["independence_counts"] == independence_counts(m)
    code, report = run_case(["roundtrip", CASES["matroid_validate_mixed_document"][2]])
    assert code == 0 and json.loads(report)["verdict"] is True


@pytest.mark.parametrize("name", ["check_support", "mconvex_set_not_m_convex",
                                  "matroid_validate_exchange", "mconvex_set_box_slice_hole",
                                  "check_support_box_slice_hole"])
def test_set_exchange_witness_by_brute_force(name):
    # alpha_i > beta_i, and no j with alpha_j < beta_j puts alpha - e_i + e_j in the set
    points, (alpha, beta, i) = _exchange_witness(name)
    assert alpha in points and beta in points and alpha[i] > beta[i]
    assert not any(alpha[j] < beta[j] and moved(alpha, i, j) in points
                   for j in range(len(alpha)))


@pytest.mark.parametrize("name", ["mconvex_function_not_m_convex",
                                  "mconvex_function_exchange_refuted"])
def test_function_exchange_witness_by_brute_force(name):
    # no i with alpha_i > beta_i and j with alpha_j < beta_j satisfies
    # nu(alpha) + nu(beta) >= nu(alpha - e_i + e_j) + nu(beta - e_j + e_i),
    # where a point outside the domain is at +infinity
    values, (alpha, beta) = _exchange_witness(name)
    assert alpha in values and beta in values
    n = len(alpha)
    assert not any(moved(alpha, i, j) in values and moved(beta, j, i) in values and
                   values[alpha] + values[beta] >=
                   values[moved(alpha, i, j)] + values[moved(beta, j, i)]
                   for i in range(n) if alpha[i] > beta[i]
                   for j in range(n) if alpha[j] < beta[j])


def record(names: list[str]) -> None:
    """Record the report and exit code of each named case, or of every case."""
    REPORTS.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text()) if names else {}
    for name in names or sorted(CASES):
        codes[name], report = run_case(CASES[name])
        indented = json.dumps(json.loads(report), sort_keys=True, indent=2) + "\n"
        (REPORTS / f"{name}.json").write_text(indented, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:])
