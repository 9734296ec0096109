"""Mutation check of the exact core and the report writer: one-token
mutants of ``certify``, ``cli``, ``inertia``, ``matroids``, ``mconvex``,
``measures``, ``mmatrix``, ``operators``, ``poly`` and ``serialize``, each run
against the tier-1 tests.

    python tests/mutants.py SCRATCH_DIR [NAME ...]

The checkout (without ``.git``) is copied to SCRATCH_DIR, which must lie
outside it.  For each mutant, or for each NAME given, the copy gets that one
edit, the tier-1 tests run there (``python -m pytest -x -q`` with the copy's
``src`` on the path) and the file is restored.  A mutant is killed when the
tests fail or time out; one that survives is a missing test.  The report is
one line per mutant and the exit code is 1 when any survives.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    module: str         # under src/lorentz
    old: str            # must occur exactly once in the module
    new: str


MUTANTS = [
    # the c-Rayleigh plan: which alphas and pairs are checked
    Mutant("plan_keep_zero_pairs", "certify.py", "+ 1,) + up[i][j + 1:] in above",
           "+ 1,) + up[i][j + 1:] not in above"),
    Mutant("plan_signed_at_c0", "certify.py", "signed = c < 0", "signed = c <= 0"),
    Mutant("plan_one_degree_more", "certify.py", "below[2 - signed:]", "below[1 - signed:]"),
    Mutant("plan_zero_at_degree_one", "certify.py", "if d > 1 and f.nums", "if d > 0 and f.nums"),
    Mutant("plan_zero_checked_twice", "certify.py", "if size and c >=", "if c >="),
    # the paper's Rayleigh bound: which alphas it leaves out
    Mutant("bound_strict", "certify.py", "c >= 2 - Fraction(2, d - size)",
           "c > 2 - Fraction(2, d - size)"),
    Mutant("bound_total_degree", "certify.py", "Fraction(2, d - size)", "Fraction(2, d)"),
    Mutant("bound_beta_above_strictly", "certify.py", "map(ge, beta, alpha)", "map(gt, beta, alpha)"),
    Mutant("bound_support_inverted", "certify.py", "support))[0]", "support))[1]"),
    Mutant("measure_bound_strict", "measures.py", "cf >= 2 - Fraction(2, n)", "cf > 2 - Fraction(2, n)"),
    # the Lorentzian scan and the support Hessians
    Mutant("lorentzian_n_plus_2", "certify.py", "if sig.n_plus > 1:", "if sig.n_plus > 2:"),
    Mutant("strict_one_zero", "certify.py", "or sig.n_zero != 0:", "or sig.n_zero > 1:"),
    Mutant("hessian_diagonal", "certify.py", "e[j] - (i == j)", "e[j] + (i == j)"),
    # the integer c-Rayleigh scan
    Mutant("scan_lhs_times_c", "certify.py", "map(mul, values[a], den)", "map(mul, values[a], num)"),
    Mutant("scan_early_return_at_1", "certify.py", "if x == 0:\n", "if x == 1:\n"),
    Mutant("scan_keeps_hit_point", "certify.py", "del col[x:]", "del col[x + 1:]"),
    Mutant("sides_top_derivative", "certify.py", "if sum(beta) <= f.degree", "if sum(beta) < f.degree"),
    Mutant("chunks_triple", "certify.py", "min(2 * size, _CHUNK)", "min(3 * size, _CHUNK)"),
    # Hodge-Riemann in columns and the shared monomial table
    Mutant("hodge_diagonal_weight", "certify.py", "(e[i] - (i == j)) * e[j]", "(e[i] + (i == j)) * e[j]"),
    Mutant("hodge_zero_coordinate", "certify.py", "if any(x <= 0 for x in us[-1]):",
           "if any(x < 0 for x in us[-1]):"),
    Mutant("hodge_chunk_slice", "certify.py", "points[start:start + _CHUNK]",
           "points[start:start + _CHUNK - 1]"),
    Mutant("hodge_weight_one", "certify.py", "if k != 1:", "if k > 2:"),
    Mutant("table_parent_one", "certify.py", "self.steps.append((m, k))", "self.steps.append((0, k))"),
    Mutant("hodge_no_division", "certify.py", "if i <= j:", "if i < 0:"),
    # exact inertia
    Mutant("inertia_sign_swap", "inertia.py", "(piv > 0) != (prev > 0)", "(piv > 0) == (prev > 0)"),
    Mutant("inertia_live_all", "inertia.py", "enumerate(a) if any(row)", "enumerate(a) if all(row)"),
    Mutant("inertia_no_prev", "inertia.py", "prev = piv", "prev = 1"),
    Mutant("inertia_zero_diagonal", "inertia.py", "a[i][p] += a[i][q]", "a[i][p] -= a[i][q]"),
    Mutant("dominance_weak", "inertia.py", "2 * abs(row[i]) <= sum", "2 * abs(row[i]) < sum"),
    Mutant("dominance_sign_no_prev", "inertia.py", "counts[(a[i][i] > 0) != (prev > 0)]",
           "counts[a[i][i] < 0]"),
    Mutant("dominance_stop_off", "inertia.py", "if not row[i] or", "if True or"),
    # the exact matrix type and the M-matrix minors
    Mutant("entry_bool_stays", "mmatrix.py", "x if type(x) is int else", "x if isinstance(x, int) else"),
    Mutant("symmetry_unchecked", "inertia.py", "if ent != tuple(zip(*ent)):", "if ent != ent:"),
    Mutant("minor_child_unscaled", "mmatrix.py", "scale * scaled[p][0]", "scale"),
    Mutant("m_matrix_zero_off_diagonal", "mmatrix.py", "a.entries[i][j] > 0", "a.entries[i][j] >= 0"),
    # the matroid rank tables: greedy extension and the graph's component labels
    Mutant("rank_table_or", "matroids.py", "[r + g for r, g", "[r | g for r, g"),
    Mutant("graph_merge_inverted", "matroids.py", "(old is not new)", "(old is new)"),
    # M-convex sets and functions
    Mutant("slice_guard_off", "mconvex.py", ") == len(ps.points):", ") >= len(ps.points):"),
    Mutant("slice_count", "mconvex.py", "run[max(0, k - cap)]", "run[max(0, k - cap + 1)]"),
    Mutant("shadow_or", "mconvex.py", "any(reduce(and_, r)", "any(reduce(or_, r)"),
    # alpha - e_i with alpha_i = 0 has no shadow in rows (dropping the guard where rows are
    # collected only adds codes of no real shadow, whose rows are 0), so drop it at the rebuild
    Mutant("shadow_guard_off", "mconvex.py", "if a else 0", "if True else 0"),
    Mutant("shadow_decision_inverted", "mconvex.py", "if not any(reduce", "if any(reduce"),
    Mutant("of_from_a_set", "mconvex.py", "degree, frozenset(points)", "degree, frozenset(set(points))"),
    Mutant("exchange_last_beta", "mconvex.py", "((b & -b).bit_length() - 1", "(b.bit_length() - 1"),
    Mutant("function_strict_exchange", "mconvex.py", "<= val[a] + val[b]", "< val[a] + val[b]"),
    # the integer-numerator polynomial: reduction, summing, evaluation and the writer
    Mutant("of_skips_gcd_2", "poly.py", ") > 1:\n", ") > 2:\n"),
    Mutant("summed_scale_inverted", "poly.py", "{e: c * (den // d)", "{e: c * (d // den)"),
    Mutant("summed_repeats_overwrite", "poly.py", "nums[e] += c", "nums[e] = c"),
    Mutant("eval_scale_once", "poly.py", "self.den * scale ** self.degree", "self.den * scale"),
    Mutant("writer_no_gcd", "serialize.py", "g = math.gcd(c, den)", "g = math.gcd(c, 1)"),
    # measures as integer numerators over their sum, and the operators that step in integers
    Mutant("measure_no_gcd", "measures.py", "g = math.gcd(*nums)", "g = 1"),
    Mutant("pair_no_den", "measures.py", "joint[i][j] * mu.den * c", "joint[i][j] * c"),
    Mutant("field_not_normalized", "measures.py", "scaled, normalize=True)", "scaled, normalize=False)"),
    Mutant("exclusion_moves_all", "measures.py", "out.get(swapped, 0) + p * c",
           "out.get(swapped, 0) + q * c"),
    Mutant("rank_over_one", "measures.py", "Fraction(c, mu.den)", "Fraction(c, 1)"),
    Mutant("nuij_no_den", "operators.py", "den *= q", "den *= 1"),
    Mutant("nuij_no_rescale", "operators.py", "{e: q * c for", "{e: c for"),
    Mutant("power_raw_coefficient", "operators.py", "Fraction(a * factorial_of(e), f.den)",
           "Fraction(a, f.den)"),
    # the input rules the CLI leaves to the library: which matroid documents are
    # graphs, validate's refutation by the loader's cause, and one rational wording
    Mutant("load_edges_win", "serialize.py", 'if "edges" in obj and "bases" not in obj:',
           'if "edges" in obj:'),
    Mutant("validate_cause_inverted", "cli.py", "if not isinstance(cause,", "if isinstance(cause,"),
    Mutant("build_from_none", "serialize.py", '{exc}") from exc', '{exc}") from None'),
    Mutant("rational_zero_division_escapes", "poly.py", "except (ValueError, ZeroDivisionError)",
           "except (ValueError,)"),
    # the report writer's hook: Fractions under --float, and result records
    Mutant("hook_float_inverted", "cli.py", "if not float_mode:", "if float_mode:"),
    Mutant("hook_float_range", "cli.py", "abs(x) <= sys.float_info.max",
           "abs(x) >= sys.float_info.max"),
    Mutant("hook_fields_of_instance", "cli.py", "getattr(type(x), \"__dataclass_fields__\"",
           "getattr(x, \"__dataclass_fields__\""),
    Mutant("hook_refuses_records", "cli.py", "if fields is None:", "if fields is not None:"),
    Mutant("hook_class_values", "cli.py", "getattr(x, name) for", "getattr(type(x), name) for"),
]


def run_tests(copy: Path) -> tuple[bool, float]:
    """Whether the tier-1 tests pass in ``copy``, and the seconds they took."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"], cwd=copy, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
        passed = proc.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False
    return passed, time.perf_counter() - t0


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    copy = Path(argv[0]).resolve() / "lorentz"
    if copy.is_relative_to(ROOT):
        raise SystemExit("SCRATCH_DIR must lie outside the checkout")
    chosen = [m for m in MUTANTS if not argv[1:] or m.name in argv[1:]]
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
    for m in chosen:
        text = (copy / "src" / "lorentz" / m.module).read_text()
        if text.count(m.old) != 1:
            raise SystemExit(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times in {m.module}")
    passed, secs = run_tests(copy)
    if not passed:
        raise SystemExit("the unmutated copy fails its tests")
    print(f"unmutated: pass in {secs:.0f} s", flush=True)
    survivors = []
    for m in chosen:
        path = copy / "src" / "lorentz" / m.module
        text = path.read_text()
        path.write_text(text.replace(m.old, m.new))
        try:
            passed, secs = run_tests(copy)
        finally:
            path.write_text(text)
        print(f"{m.name}: {'SURVIVED' if passed else 'killed'} in {secs:.0f} s", flush=True)
        if passed:
            survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
