import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lorentz import HomogPoly, poly, serialize
from lorentz.catalog import load
from lorentz.matroids import potts_poly
from lorentz.mconvex import DiscreteFunction
from lorentz.measures import Measure
from lorentz.mmatrix import SquareMatrix
from lorentz.operators import OperatorTable, polarize
from lorentz.serialize import (LoadError, dumps_canonical, function_from_dict,
                               function_to_dict, load_document, load_matroid,
                               matrix_from_dict, matrix_to_dict,
                               matroid_from_dict, matroid_to_dict,
                               measure_from_dict, measure_to_dict,
                               operator_from_dict, operator_to_dict,
                               poly_from_dict, poly_to_dict, roundtrip,
                               vectors_from_dict, vectors_to_dict)
from lorentz.matroids import ExchangeError


def test_poly_roundtrip():
    f = HomogPoly(2, 3, {(3, 0): Fraction(2, 7), (0, 3): Fraction(-9, 4)})
    assert poly_from_dict(poly_to_dict(f)) == f


def test_poly_rejects_zero_denominator():
    with pytest.raises(LoadError, match="zero denominator"):
        poly_from_dict({"n": 2, "d": 2, "terms": [{"exp": [2, 0], "num": "1", "den": "0"}]})


def test_poly_rejects_degree_mismatch():
    with pytest.raises(LoadError):
        poly_from_dict({"n": 2, "d": 2, "terms": [{"exp": [1, 0], "num": "1", "den": "1"}]})


def test_poly_merges_duplicate_terms():
    f = poly_from_dict({"n": 1, "d": 1, "terms": [
        {"exp": [1], "num": "1", "den": "2"}, {"exp": [1], "num": "1", "den": "2"}]})
    assert f == HomogPoly(1, 1, {(1,): 1})


def test_poly_drops_zero_coefficients():
    f = poly_from_dict({"n": 1, "d": 2, "terms": [{"exp": [2], "num": "0", "den": "3"}]})
    assert f.is_zero()


def _term(exp, num="1", den="1"):
    return {"exp": exp, "num": num, "den": den}


@pytest.mark.parametrize("doc, message", [
    ({"n": 2, "d": 2, "terms": [_term([2, 0]), _term([1, 0, 1])]},
     "polynomial: exponent (1, 0, 1) has length 3, expected 2"),
    ({"n": 2, "d": 2, "terms": [_term([3, -1])]},
     "polynomial: negative exponent in (3, -1)"),
    ({"n": 2, "d": 2, "terms": [_term([1, 0])]},
     "polynomial: exponent (1, 0) has degree 1, expected 2"),
    ({"n": -1, "d": 2, "terms": []},
     "polynomial: nvars and degree must be nonnegative"),
    ({"n": 2, "d": -2, "terms": [_term([1, 1])]},
     "polynomial: nvars and degree must be nonnegative"),
    ({"n": 2, "d": 2, "terms": [_term([2, 0], "1", "0")]},
     "polynomial.terms[0]: zero denominator"),
    ({"n": 2, "d": 2, "terms": [_term([1, 0]), _term([True, 1])]},
     "polynomial.terms[1].exp[0]: expected an integer, got true"),
    # a malformed later term is named before an earlier term of the wrong length
    ({"n": 2, "d": 2, "terms": [_term([2]), _term([1, 1], "1", 0)]},
     "polynomial.terms[1]: zero denominator"),
], ids=["length", "negative_entry", "degree", "negative_n", "negative_d",
        "zero_denominator", "bool_exponent", "parse_before_shape"])
def test_poly_refusals_keep_their_messages(doc, message):
    with pytest.raises(LoadError) as err:
        poly_from_dict(doc)
    assert str(err.value) == message


def test_poly_sums_duplicate_exponents_and_drops_zero_sums():
    f = poly_from_dict({"n": 2, "d": 1, "terms": [
        _term([1, 0], "1", "2"), _term([0, 1], "3"), _term([1, 0], "-1", "2"),
        _term([0, 1], 2, "5"), _term([1, 0], "0")]})
    assert f.terms == {(0, 1): Fraction(17, 5)}
    assert f == HomogPoly(2, 1, {(0, 1): Fraction(17, 5)})


def _reference_terms(doc):
    """The terms as a loader that builds one ``Fraction`` per term reads them."""
    terms = {}
    for t in doc["terms"]:
        e, c = tuple(t["exp"]), Fraction(int(t["num"]), int(t["den"]))
        terms[e] = terms[e] + c if e in terms else c
    return {e: c for e, c in terms.items() if c}


def test_poly_loader_shares_repeated_pairs():
    # ("1", "-3") and ("-1", "3") are different pairs of one value
    doc = {"n": 3, "d": 2, "terms": [
        _term([2, 0, 0], "2", "4"), _term([1, 1, 0], "1", "-3"), _term([0, 2, 0], "-1", "3"),
        _term([0, 1, 1], "2", "4"), _term([1, 0, 1], "-1", "3"), _term([0, 0, 2], "1", "-3"),
        _term([2, 0, 0], "2", "4"), _term([1, 1, 0], "-1", "3"), _term([0, 1, 1], "1", "-3")]}
    f = poly_from_dict(doc)
    ref = _reference_terms(doc)
    assert f.terms == ref and list(f.terms) == list(ref)
    assert list(f.terms.values()) == list(ref.values())
    # repeated exponents still sum
    assert f.terms[2, 0, 0] == 1 and f.terms[1, 1, 0] == Fraction(-2, 3)
    assert f.terms[0, 1, 1] == Fraction(1, 6)


@pytest.mark.parametrize("terms, message", [
    ([_term([2, 0], "1", "3"), _term([1, 1], "1", "3"), _term([0, 2], "1", "0")],
     "polynomial.terms[2]: zero denominator"),
    ([_term([2, 0], "1", "2"), _term([1, 1], "5", "0"), _term([0, 2], "5", "0")],
     "polynomial.terms[1]: zero denominator"),
], ids=["after_a_repeated_pair", "first_of_a_repeated_pair"])
def test_poly_loader_names_a_bad_pair_at_its_own_term(terms, message):
    with pytest.raises(LoadError) as err:
        poly_from_dict({"n": 2, "d": 2, "terms": terms})
    assert str(err.value) == message


def test_poly_loader_fast_path_builds_no_fraction():
    # the lifted Fano Potts polynomial: 3,432 terms, one value per Potts term's lift
    f = potts_poly(load("fano"), Fraction(3, 7))
    doc = poly_to_dict(polarize(f, f.var_degree_caps()))
    pairs = {(t["num"], t["den"]) for t in doc["terms"]}
    assert len(doc["terms"]) == 3432 and len(pairs) == 8
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    with mock.patch.object(serialize, "Fraction", counting), \
            mock.patch.object(poly, "Fraction", counting):
        g = poly_from_dict(doc)
    assert built == []
    assert g.terms == _reference_terms(doc)


def _reference_rows(den, nums):
    return [{"exp": list(e), "num": str(Fraction(c, den).numerator),
             "den": str(Fraction(c, den).denominator)} for e, c in sorted(nums.items())]


@pytest.mark.parametrize("den, nums", [
    (3, [2] * 4),                       # one numerator: its strings are shared
    (6, [4, 4, 3, -4]),                 # equal rows, and rows that reduce differently
    (15 * 10 ** 30, [-21, 21, -15 * 10 ** 30, 5 * 10 ** 60]),
], ids=["shared", "equal_distinct", "signed"])
def test_exp_rows_match_reference(den, nums):
    exps = [(0, 2, 1), (3, 0, 0), (1, 1, 1), (0, 0, 3), (2, 1, 0), (1, 0, 2), (0, 3, 0)]
    # a discrete function's value may be 0
    table = dict(zip(exps, nums + [-7, -7, 0]))
    assert serialize._exp_rows(den, table) == _reference_rows(den, table)
    f = HomogPoly(3, 3, {e: Fraction(c, den) for e, c in table.items()})
    assert poly_to_dict(f) == {"n": 3, "d": 3, "terms": _reference_rows(f.den, f.nums)}
    assert poly_to_dict(f)["terms"] == [row for row in _reference_rows(den, table)
                                        if row["num"] != "0"]


def test_function_roundtrip():
    nu = DiscreteFunction(2, 2, {(2, 0): Fraction(1, 3), (1, 1): 4})
    assert function_from_dict(function_to_dict(nu)) == nu
    with pytest.raises(LoadError, match="duplicate"):
        function_from_dict({"n": 1, "d": 1, "values": [
            {"exp": [1], "num": "1", "den": "1"}, {"exp": [1], "num": "2", "den": "1"}]})


def test_matroid_roundtrip():
    for name in ("u24", "fano"):
        m = load(name)
        assert matroid_from_dict(matroid_to_dict(m)) == m
    with pytest.raises(LoadError):
        matroid_from_dict({"n": 4, "bases": [[0, 1], [2, 3]]})


@pytest.mark.parametrize("bases, cause", [
    ([[0, 1], [2, 3]], ExchangeError), ([], ExchangeError), ([[0], [0, 1]], ExchangeError),
    ([[4]], ValueError)])
def test_matroid_refusal_keeps_its_cause(bases, cause):
    # matroid validate tells a refuted family from a malformed one by the cause
    with pytest.raises(LoadError) as err:
        matroid_from_dict({"n": 4, "bases": bases})
    assert type(err.value.__cause__) is cause
    assert str(err.value) == f"matroid: {err.value.__cause__}"


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "doc.json: document root must be a JSON object"),
    ({"n": 3}, "matroid: missing key 'bases'"),
    ({"vertices": 3}, "matroid: missing key 'n'"),
    ({"vertices": 3, "edges": [[0, 3]]}, "graph: edge (0, 3) out of range"),
])
def test_load_matroid_refusals(tmp_path, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(LoadError) as err:
        load_matroid(str(path))
    assert str(err.value).endswith(message)


def test_matrix_roundtrip():
    a = SquareMatrix([["1/2", "-3"], ["0", "7/5"]])
    assert matrix_from_dict(matrix_to_dict(a)) == a
    with pytest.raises(LoadError):
        matrix_from_dict({"n": 2, "rows": [["1", "2"]]})
    with pytest.raises(LoadError):
        matrix_from_dict({"n": 1, "rows": [["1/0"]]})


@pytest.mark.parametrize("text", ["0.5", "2.0", "1e-400", "1.2345678901234567890123e29",
                                  "true", "null", '["1"]', '{"num": "1"}'],
                         ids=["float", "integral_float", "underflow", "rounded", "bool",
                              "null", "list", "object"])
def test_matrix_and_vector_entries_must_be_strings_or_integers(text):
    # JSON reading has already rounded a float: 1e-400 arrives as 0.0
    entry = json.loads(text)
    expected = f"expected a rational string or an integer, got {json.dumps(entry)}"
    with pytest.raises(LoadError) as err:
        matrix_from_dict({"n": 2, "rows": [["1", "2"], ["3", entry]]})
    assert str(err.value) == f"matrix.rows[1][1]: {expected}"
    with pytest.raises(LoadError) as err:
        vectors_from_dict({"dim": 2, "vectors": [["1", "0"], [entry, "1"]]})
    assert str(err.value) == f"vectors.vectors[1][0]: {expected}"


def test_matrix_and_vector_entries_read_integers_exactly():
    big = 123456789012345678901234567890
    assert matrix_from_dict({"n": 2, "rows": [[big, "-1/3"], [-1, "7"]]}) == \
        SquareMatrix([[big, Fraction(-1, 3)], [-1, 7]])
    assert vectors_from_dict({"dim": 2, "vectors": [[big, "1/2"]]}) == [[big, Fraction(1, 2)]]


@pytest.mark.parametrize("text, reason", [
    ("1/0", "Fraction(1, 0)"), ("1/x", "Invalid literal for Fraction: '1/x'")])
def test_bad_rational_entry_is_worded_by_as_fraction(text, reason):
    with pytest.raises(LoadError) as err:
        matrix_from_dict({"n": 1, "rows": [[text]]})
    assert str(err.value) == f"matrix.rows[0][0]: bad rational {text!r}: {reason}"


def test_vectors_to_dict_refuses_an_empty_configuration():
    with pytest.raises(LoadError, match="^vectors: empty configuration$"):
        vectors_to_dict([])


def test_measure_roundtrip():
    mu = Measure(2, {0: Fraction(1, 4), 3: Fraction(3, 4)})
    assert measure_from_dict(measure_to_dict(mu)) == mu
    with pytest.raises(LoadError, match="duplicate"):
        measure_from_dict({"n": 1, "atoms": [
            {"set": [0], "num": "1", "den": "2"}, {"set": [0], "num": "1", "den": "2"}]})


def test_operator_roundtrip():
    t = OperatorTable((2,), 0, {(1,): HomogPoly(1, 1, {(1,): Fraction(2, 3)}),
                                (2,): HomogPoly(1, 2, {(2,): 1})})
    assert operator_from_dict(operator_to_dict(t)) == t
    assert t != OperatorTable((2,), 1, {(1,): HomogPoly(1, 2, {(2,): 1})})


def test_operator_loader_refuses_a_repeated_image():
    # the second image of [1, 0] would replace the first without a word
    lin = [{"n": 2, "d": 1, "terms": [{"exp": e, "num": "1", "den": "1"}]} for e in ([0, 1], [1, 0])]
    doc = {"kappa": [1, 1], "ell": 0,
           "images": [{"exp": [1, 0], "poly": lin[0]}, {"exp": [1, 0], "poly": lin[1]}]}
    with pytest.raises(LoadError, match=r"^operator\.images\[1\]: duplicate image \[1, 0\]$"):
        operator_from_dict(doc)
    doc["images"][1]["exp"] = [0, 1]
    assert operator_from_dict(doc).images[(0, 1)] == poly_from_dict(lin[1])


def test_load_document_and_roundtrip(tmp_path):
    docs = {
        "p.json": poly_to_dict(HomogPoly(2, 2, {(1, 1): Fraction(1, 2)})),
        "m.json": matroid_to_dict(load("u23")),
        "g.json": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
        "a.json": matrix_to_dict(SquareMatrix([["2", "-1"], ["-1", "2"]])),
        "mu.json": measure_to_dict(Measure(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})),
        "v.json": {"dim": 2, "vectors": [["1", "0"], ["0", "1"]]},
        "t.json": operator_to_dict(OperatorTable((1,), 0, {(1,): HomogPoly(1, 1, {(1,): 2})})),
    }
    for name, doc in docs.items():
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert roundtrip(str(path)), name
    kind, obj = load_document(str(tmp_path / "g.json"))
    assert kind == "graph" and obj.rank_full == 2


def test_load_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "d"')
    with pytest.raises(LoadError, match="line 1"):
        load_document(str(bad))
    unknown = tmp_path / "u.json"
    unknown.write_text('{"x": 1}')
    with pytest.raises(LoadError, match="kind"):
        load_document(str(unknown))
    with pytest.raises(LoadError, match="missing.json: no such file$"):
        load_document(str(tmp_path / "missing.json"))
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(LoadError, match="^document root must be a JSON object$"):
        roundtrip(str(listed))


@pytest.mark.parametrize("text", [
    '{"n": 1, "d": 1, "terms": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"n": 1, "d": 1, "terms": [{"exp": ' + "[" * 3000 + "]" * 3000 + ', "num": "1", "den": "1"}]}',
    '{"a": ' * 3000 + "1" + "}" * 3000], ids=["terms", "exp", "objects"])
def test_load_json_refuses_deep_nesting(tmp_path, text):
    # the decoder recurses once per level, so a small document can exhaust the stack
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    with pytest.raises(LoadError, match="deep.json: the document is nested too deeply$"):
        serialize.load_json(str(deep))


def test_dumps_canonical_is_stable():
    doc = poly_to_dict(HomogPoly(2, 2, {(1, 1): Fraction(1, 2), (2, 0): 3}))
    assert dumps_canonical(doc) == dumps_canonical(json.loads(dumps_canonical(doc)))


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 100, max_value=2 ** 100),
    st.floats(), st.sampled_from([0.0, -0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
    st.sampled_from(["é", "☃", "\U0001f600", "\ud800", 'quote " and \\ slash']))

_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.lists(st.integers() | st.booleans()),
        st.dictionaries(st.text(), children),
        st.dictionaries(st.integers() | st.booleans(), children)),
    max_leaves=15)


@given(_JSON_TREES)
def test_dumps_canonical_matches_json_dumps(x):
    # one line: sorted keys, the default separators, ASCII escapes
    text = dumps_canonical(x)
    assert text == json.dumps(x, sort_keys=True) + "\n"
    assert "\n" not in text[:-1] and text.isascii()


@pytest.mark.parametrize("doc", [
    Fraction(1, 2), {"a": [1, Fraction(1, 2)]}, [{"b": Fraction(1)}], {(0, 1): 1}, {1, 2},
])
def test_dumps_canonical_rejects_other_types(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True)
    with pytest.raises(TypeError):
        dumps_canonical(doc)
