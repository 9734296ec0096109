import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import (ExchangeError, HomogPoly, Matroid, PointSet, matroids,
                     serialize, basis_generating_poly, cycle_matroid,
                     independence_counts, independent_set_poly,
                     is_lorentzian, is_m_convex_set, matroid_from_bases,
                     potts_poly, tutte, tutte_section, zonotope_volume_poly)
from lorentz.catalog import NAMES, load
from lorentz.cli import main
from lorentz.matroids import (_independent_flags, _rank_table,
                              independent_set_masks, normalize_counts,
                              ranked_cycle_matroid)
from lorentz.poly import first_ulc_failure
from generators import random_small_matroid, uniform_matroid
from poly_oracles import bivariate_restriction, rank, rank_mask, substitute


def test_catalog_loads():
    mats = {name: load(name) for name in NAMES}
    assert set(mats) == set(NAMES)
    assert len(load("fano").bases) == 28
    assert len(load("mk4").bases) == 16
    with pytest.raises(KeyError, match="unknown catalog matroid 'k5'"):
        load("k5")


def test_matroid_from_bases():
    u24 = matroid_from_bases(4, combinations(range(4), 2))
    assert len(u24.bases) == 6
    with pytest.raises(ExchangeError) as err:
        matroid_from_bases(4, [[0, 1], [2, 3]])
    assert err.value.witness is not None
    with pytest.raises(ExchangeError):
        matroid_from_bases(2, [])
    with pytest.raises(ExchangeError):
        matroid_from_bases(3, [[0], [1, 2]])
    # a negative size is refused before the basis list is read
    for n, bases in ((-1, [[]]), (-2, [])):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            matroid_from_bases(n, bases)


def test_matroid_needs_a_basis():
    with pytest.raises(ValueError, match="at least one basis"):
        Matroid(2, [])


def test_rank():
    u24 = load("u24")
    assert rank(u24, []) == 0
    assert rank(u24, [0, 1, 2]) == 2
    k4 = load("mk4")
    assert rank(k4, range(6)) == 3
    with pytest.raises(ValueError):
        rank(u24, [7])


def test_independence_counts():
    assert independence_counts(load("u24")) == [1, 4, 6]
    assert independence_counts(load("mk4")) == [1, 6, 15, 16]
    assert independence_counts(load("free3")) == [1, 3, 3, 1]
    assert independence_counts(load("loop_u12")) == [1, 2]


def test_basis_generating_poly():
    u23 = load("u23")
    assert basis_generating_poly(u23) == HomogPoly(
        3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert basis_generating_poly(load("u12")) == HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    fano = basis_generating_poly(load("fano"))
    assert len(fano.terms) == 28
    assert is_lorentzian(fano).verdict


def test_potts_poly():
    u12 = load("u12")
    for q in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        z = potts_poly(u12, q)
        assert z == HomogPoly(3, 2, {(2, 0, 0): 1, (1, 1, 0): 1 / q,
                                     (1, 0, 1): 1 / q, (0, 1, 1): 1 / q})
    free1 = uniform_matroid(1, 1)
    assert potts_poly(free1, 1) == HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        potts_poly(u12, 0)


def test_potts_limit_is_independent_set_poly():
    # Z_{q,M}(w0, q w) has coefficient q^(|A| - rk A): 1 on independent sets,
    # a positive power of q otherwise
    for name in ("u12", "u24", "mk4"):
        m = load(name)
        q = Fraction(1, 1000)
        z = potts_poly(m, q)
        dil = [[Fraction(0)] * (m.n + 1) for _ in range(m.n + 1)]
        dil[0][0] = Fraction(1)
        for i in range(1, m.n + 1):
            dil[i][i] = q
        zq = substitute(z, dil)
        ind = independent_set_poly(m)
        for e in zq.support() | ind.support():
            if e in ind.terms:
                assert zq.coeff(e) == 1
            else:
                assert 0 < zq.coeff(e) <= q


def test_independent_set_poly():
    free1 = uniform_matroid(1, 1)
    assert independent_set_poly(free1) == HomogPoly(2, 1, {(1, 0): 1, (0, 1): 1})
    u12 = load("u12")
    assert independent_set_poly(u12) == HomogPoly(
        3, 2, {(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1})
    assert len(independent_set_poly(load("mk4")).terms) == 38


def test_mason():
    for name in NAMES:
        m = load(name)
        assert first_ulc_failure(independence_counts(m), m.n) is None
    # equality throughout on uniform and free matroids
    for m in (load("u24"), load("free3"), uniform_matroid(3, 6)):
        seq = normalize_counts(independence_counts(m), m.n)
        for k in range(1, len(seq) - 1):
            assert seq[k] * seq[k] == seq[k - 1] * seq[k + 1]
    # strict somewhere for M(K4): counts (1,6,15,16), k=2 gives 1 > 4/5
    mk4 = load("mk4")
    seq = normalize_counts(independence_counts(mk4), mk4.n)
    assert seq[2] ** 2 > seq[1] * seq[3]


def test_tutte():
    u12 = load("u12")
    assert tutte(u12, 2, 2) == 4
    assert tutte_section(u12, 1) == [1, 2, 1]
    for name in NAMES:
        m = load(name)
        assert tutte(m, 1, 1) == len(m.bases)


def test_tutte_section_ulc():
    def ulc_no_internal_zeros(seq):
        n = len(seq) - 1
        support = [k for k, c in enumerate(seq) if c != 0]
        if support and support != list(range(support[0], support[-1] + 1)):
            return False
        return all(seq[k] ** 2 * comb(n, k - 1) * comb(n, k + 1)
                   >= seq[k - 1] * seq[k + 1] * comb(n, k) ** 2
                   for k in range(1, n))

    for name in NAMES:
        m = load(name)
        for q in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            assert ulc_no_internal_zeros(tutte_section(m, q))
    with pytest.raises(ValueError):
        tutte_section(load("u12"), 2)


def test_cycle_matroid():
    k4 = cycle_matroid(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    assert k4 == load("mk4")
    # disconnected graph: bases are maximal forests
    two_edges = cycle_matroid(4, [[0, 1], [2, 3]])
    assert independence_counts(two_edges) == [1, 2, 1]
    # loops never appear in bases
    loopy = cycle_matroid(2, [[0, 1], [1, 1]])
    assert independence_counts(loopy) == [1, 1]
    with pytest.raises(ValueError, match="vertices must be nonnegative"):
        cycle_matroid(-3, [])


def test_basis_support_matches_set_check():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 5)
        d = rng.randint(1, n)
        fam = [s for s in combinations(range(n), d) if rng.random() < 0.6]
        if not fam:
            continue
        points = PointSet(n, d, [tuple(1 if i in s else 0 for i in range(n))
                                 for s in fam])
        ok_set, _ = is_m_convex_set(points)
        try:
            matroid_from_bases(n, fam)
            ok_matroid = True
        except ExchangeError:
            ok_matroid = False
        assert ok_set == ok_matroid


def test_bivariate_collapse_equals_mason_data():
    # setting w_1 = ... = w_n = v in the independent-set polynomial gives
    # the sequence I_k as bivariate coefficients
    m = load("mk4")
    f = independent_set_poly(m)
    merge = [[Fraction(0)] * 2 for _ in range(m.n + 1)]
    merge[0][0] = Fraction(1)
    for i in range(1, m.n + 1):
        merge[i][1] = Fraction(1)
    g = substitute(f, merge)
    counts = independence_counts(m)
    coeffs = bivariate_restriction(g, 1, 0)
    for k, ik in enumerate(counts):
        assert coeffs[k] == ik


def test_zonotope():
    assert zonotope_volume_poly([[1, 0], [0, 1]]) == HomogPoly(2, 2, {(1, 1): 1})
    z = zonotope_volume_poly([[1, 0], [0, 1], [1, 1]])
    assert z == HomogPoly(3, 2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert is_lorentzian(z).verdict
    with pytest.raises(ValueError):
        zonotope_volume_poly([[1, 0], [1]])
    with pytest.raises(ValueError, match="need at least one vector"):
        zonotope_volume_poly([])
    rng = random.Random(62)
    for _ in range(10):
        d = rng.randint(1, 3)
        vecs = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(d, d + 3))]
        assert is_lorentzian(zonotope_volume_poly(vecs)).verdict


def test_potts_certifies_lorentzian_small():
    # the remaining catalog matroids; u24, mk4, fano run in the acceptance suite
    for q in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        for name in ("u12", "u23", "free3", "loop_u12"):
            assert is_lorentzian(potts_poly(load(name), q)).verdict


@settings(max_examples=100)
@given(st.randoms(use_true_random=False),
       st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda q: q > 0))
def test_matroid_constructions_are_lorentzian(rng, q):
    # the basis generating polynomial and, for 0 < q <= 1, the homogenized
    # multivariate Tutte polynomial of a matroid are Lorentzian
    m = random_small_matroid(rng)
    assert is_lorentzian(basis_generating_poly(m)).verdict
    assert is_lorentzian(potts_poly(m, q)).verdict


def test_independent_set_poly_lorentzian():
    for name in ("u12", "u23", "u24", "free3", "loop_u12", "mk4"):
        assert is_lorentzian(independent_set_poly(load(name))).verdict


def _random_graphs(count=50, seed=63):
    """(vertices, edges) of seeded random multigraphs, with loops, parallel
    edges and rank-0 (all-loop) graphs among them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.randint(1, 5)
        out.append((v, [[rng.randrange(v), rng.randrange(v)]
                        for _ in range(rng.randint(1, 8))]))
    assert any(cycle_matroid(v, edges).rank_full == 0 for v, edges in out)
    assert any(u == w for _, edges in out for u, w in edges)
    assert any(len({tuple(sorted(e)) for e in edges}) < len(edges) for _, edges in out)
    return out


def _random_graph_matroids():
    return [cycle_matroid(v, edges) for v, edges in _random_graphs()]


# no edges, only loops, isolated vertices, more vertices than a byte labels,
# and more than memory could hold one entry for: only touched vertices count
GRAPH_EDGE_CASES = [
    (0, []), (3, []),
    (2, [[0, 0], [1, 1], [1, 1]]),
    (6, [[0, 1], [1, 2], [2, 0], [1, 2]]),
    (300, [[299, 256], [256, 0], [0, 299], [150, 151], [151, 152], [152, 150],
           [298, 298], [10, 20], [20, 255], [299, 150]]),
    (10 ** 12, [[0, 10 ** 12 - 1], [10 ** 12 - 1, 5], [5, 0], [7, 7]]),
]


def _rank_table_by_subsets(m):
    """The rank table the way it was built before the greedy extension: |S|
    when S is independent, and otherwise the largest rank[S - i] over i in S."""
    flags = _independent_flags(m)
    ranks = [0] * len(flags)
    for mask in range(1, len(flags)):
        if flags[mask]:
            ranks[mask] = mask.bit_count()
        else:
            best, rest = 0, mask
            while rest:
                low = rest & -rest
                r = ranks[mask ^ low]
                if r > best:
                    best = r
                rest ^= low
            ranks[mask] = best
    return ranks


def _table_matroids():
    mats = [uniform_matroid(r, n) for n in range(11) for r in range(n + 1)]
    mats += [uniform_matroid(3, 12), uniform_matroid(6, 12)]
    mats += [load(name) for name in NAMES]
    return mats + _random_graph_matroids()


def test_rank_table_matches_basis_scan():
    # the table and the four subset scans that read it, each against a
    # reference that scans the basis list for every mask
    for m in _table_matroids():
        n, rfull = m.n, m.rank_full
        ranks = [rank_mask(m, mask) for mask in range(1 << n)]
        assert _rank_table(m) == ranks, m
        sizes = [bin(mask).count("1") for mask in range(1 << n)]
        assert independent_set_masks(m) == [
            mask for mask in range(1 << n) if ranks[mask] == sizes[mask]]
        q = Fraction(2, 3)
        assert potts_poly(m, q) == HomogPoly(n + 1, n, {
            (n - sizes[mask],) + tuple(mask >> i & 1 for i in range(n)): q ** -ranks[mask]
            for mask in range(1 << n)})
        x, y = Fraction(1, 2), Fraction(0)
        assert tutte(m, x, y) == sum(
            (x - 1) ** (rfull - r) * (y - 1) ** (k - r) for r, k in zip(ranks, sizes))
        for q in (Fraction(0), Fraction(1, 2)):
            section = [Fraction(0)] * (n + 1)
            for r, k in zip(ranks, sizes):
                section[k] += q ** (rfull - r)
            assert tutte_section(m, q) == section


def test_greedy_rank_table_matches_subset_reference():
    for m in _table_matroids():
        assert _rank_table(m) == _rank_table_by_subsets(m), m
        assert _rank_table(m) is _rank_table(m)     # built once, then kept


def test_graph_rank_table_matches_cycle_matroid():
    # the subset DP against the basis enumeration, its greedy table, the
    # reference table and the basis scan
    for v, edges in _random_graphs() + GRAPH_EDGE_CASES:
        ranked, plain = ranked_cycle_matroid(v, edges), cycle_matroid(v, edges)
        assert ranked == plain and ranked.basis_sets() == plain.basis_sets()
        assert repr(ranked) == repr(plain)
        reference = [rank_mask(plain, mask) for mask in range(1 << plain.n)]
        assert _rank_table(ranked) == reference, (v, edges)
        assert _rank_table(plain) == _rank_table_by_subsets(plain) == reference


def test_graph_loaders_raise_the_same_errors():
    for v, edges in ((-3, []), (-1, [[0, 1]]), (3, [[0, 3]]), (3, [(1, 2), (2, -1)]),
                     (300, [[299, 300]]), (2, [[0.5, 1]]), (2, [[0]])):
        errors = []
        for make in (cycle_matroid, ranked_cycle_matroid):
            with pytest.raises((ValueError, TypeError, IndexError)) as err:
                make(v, edges)
            errors.append((err.type, str(err.value)))
        assert errors[0] == errors[1], (v, edges)


def test_graph_rank_table_reads_no_basis_list(monkeypatch):
    # the four 2^m scans read the DP's table: no downward closure of the bases
    def refuse(m):
        raise AssertionError("independent flags built")

    monkeypatch.setattr(matroids, "_independent_flags", refuse)
    m = ranked_cycle_matroid(4, [[0, 1], [1, 2], [2, 0], [2, 3], [3, 3]])
    assert independence_counts(m) == [1, 4, 6, 3]
    assert potts_poly(m, Fraction(1, 2)).terms
    assert tutte(m, 1, 1) == len(m.bases) == 3
    assert tutte_section(m, 1)[-1] == 1


def test_only_rank_table_commands_skip_the_basis_enumeration(tmp_path, monkeypatch, capsys):
    # potts, indep-poly, mason and tutte build a graph's matroid by the subset
    # DP; validate, basis-poly and roundtrip still enumerate its bases
    calls = []

    def spy(*args):
        calls.append(args)
        return cycle_matroid(*args)

    monkeypatch.setattr(serialize, "cycle_matroid", spy)
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2],
                                                         [1, 3], [2, 3]]}))
    for argv in (["potts", "--q", "1/2"], ["indep-poly"], ["mason"],
                 ["tutte", "--x", "2", "--y", "3"], ["tutte", "--section-q", "1/2"]):
        assert main(["matroid", argv[0], str(path), *argv[1:]]) == 0
    assert calls == []
    for argv in (["matroid", "validate"], ["matroid", "basis-poly"], ["roundtrip"]):
        assert main([*argv, str(path)]) == 0
    assert len(calls) == 3
    capsys.readouterr()
