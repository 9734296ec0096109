"""Every leaf command on mutated documents and flags keeps the CLI's promise:
exit code 0, 1 or 2, exactly one JSON object on stdout, written as one line
of canonical JSON, nothing on stderr, and no traceback.

Each example starts from small golden inputs, applies a few mutations (a
node replaced, a list entry repeated, a key dropped, a node nested 5,000
lists deep, the text cut short) and draws every flag from a short list of
good and bad values.  Integers of more than 4,300 digits go into
coefficients, discrete-function values, weights, matrix and vector entries,
rational flags, seeds and ``--max-den``.  The rational flags and points also
get ``1e300000`` and ``1e-300000``, whose decimal exponents are refused as
input errors.  Sizes, exponents, indices, counts and the denominators of
rational flags stay small: the work they set is not budgeted yet
(``operator power --p a/b`` takes b-th roots).
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentz import cli
from lorentz.cli import build_parser, main

from test_cli import GOLDEN_INPUTS, _leaves, _no_digit_limit

LEAVES = dict(_leaves(build_parser()))
BIG_TEXT = "1" + "0" * 4400
BIG = 10 ** 4400

# the golden inputs each positional argument is drawn from
DOCS = {"poly": ["cubic9", "q2", "lin2", "squares"], "function": ["nu_half"],
        "table": ["table"], "matrix": ["m3"], "measure": ["mu_u12"],
        "input": ["u23", "loop_u12", "k4_graph", "multigraph", "vectors"]}
ALL_DOCS = sorted({name for names in DOCS.values() for name in names})

# flag values: good ones, then bad ones
FRACTIONS = ["1", "1/2", "1/4", "2", "3/7", BIG_TEXT, "0", "-1", "x", "1/0", "-" + BIG_TEXT,
             "1e300000", "1e-300000"]
POINTS = ["1,1", "1/2,3", "2,1/3", "0,1", BIG_TEXT + ",1", "-1,1", "1", "1,1,1", "a,b",
          "1e300000,1", "1,1e-300000"]
KAPPAS = ["1,1", "2,1", "2,2", "3,3", "0", "-1,1", "1,x", "1,1,1"]
INTS = {"seed": ["0", "7", "-3", BIG_TEXT], "max_den": ["3", "1", BIG_TEXT, "0"],
        "trials": ["3", "0", "-1"], "points": ["2", "0", "-1"]}
SMALL_INTS = ["0", "1", "2", "-1", "9", "x"]

SMALL = st.one_of(st.integers(-2, 4),
                  st.sampled_from([0.5, True, None, "1", "x", "1/2", "", [], {}, [0]]))
HUGE = st.sampled_from([BIG, -BIG, BIG_TEXT, "-" + BIG_TEXT])
# a node nested deeper than the JSON decoder recurses, 10 KB of text; json.dumps
# cannot write it either, so the document holds NEST until its text is made
NEST = "\x00nest"
DEEP = "[" * 5000 + "]" * 5000


def _sites(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _sites(value, (*path, key))


def _huge_ok(path: tuple) -> bool:
    """Whether a value of thousands of digits may replace the node at ``path``."""
    return bool(path) and path[-1] in ("num", "den") or "rows" in path or "vectors" in path


def _mutate(draw, doc):
    """``doc`` with one node replaced, nested deeply, or dropped, or one list entry repeated."""
    path = draw(st.sampled_from(list(_sites(doc))))
    if not path:
        return copy.deepcopy(draw(SMALL))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    how = draw(st.sampled_from(["replace", "repeat", "drop", "nest"]))
    if how == "repeat" and isinstance(node, list) and node:
        node.append(copy.deepcopy(draw(st.sampled_from(node))))
    elif how == "drop" and isinstance(parent, dict):
        del parent[path[-1]]
    elif how == "nest":
        parent[path[-1]] = NEST
    else:
        value = draw(st.one_of(SMALL, HUGE) if _huge_ok(path) else SMALL)
        parent[path[-1]] = copy.deepcopy(value)     # the strategy's lists stay as they are
    return doc


def _document_text(draw, names) -> str:
    doc = json.loads((GOLDEN_INPUTS / f"{draw(st.sampled_from(names))}.json").read_text())
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        doc = _mutate(draw, doc)
    with _no_digit_limit():     # the document may hold a huge JSON integer
        text = json.dumps(doc).replace(json.dumps(NEST), DEEP)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _values(action) -> list[str]:
    if action.choices is not None:
        return [*action.choices, "bogus"]
    return {cli._fraction_arg: FRACTIONS, cli._point_arg: POINTS,
            cli._int_list_arg: KAPPAS}.get(action.type) or INTS.get(action.dest, SMALL_INTS)


def _argv(draw, words: tuple, tmp: Path) -> list[str]:
    argv = list(words)
    for action in LEAVES[words]._actions:
        if not action.option_strings:
            if action.choices is not None:
                argv.append(draw(st.sampled_from(_values(action))))
            else:
                path = tmp / f"{action.dest}.json"
                names = ALL_DOCS if words == ("roundtrip",) else DOCS[action.dest]
                path.write_text(_document_text(draw, names))
                argv.append(str(path))
            continue
        if isinstance(action, argparse._HelpAction):
            continue
        flag = action.option_strings[0]
        # --trials is always given, so that an example stays cheap
        most = 2 if isinstance(action, argparse._AppendAction) else 1
        times = 1 if action.required or flag == "--trials" else draw(st.integers(0, most))
        for _ in range(times):
            argv.append(flag)
            if action.nargs != 0:
                argv.append(draw(st.sampled_from(_values(action))))
    return argv


@pytest.mark.parametrize("words", list(LEAVES), ids=" ".join)
@settings(max_examples=16)
@given(data=st.data())
def test_every_command_keeps_the_exit_code_promise(words, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(data.draw, words, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # a usage error, reported by the parser
                code = exc.code
    assert code in (0, 1, 2), argv
    assert err.getvalue() == "", argv
    with _no_digit_limit():     # so may the report (the seed)
        report = json.loads(out.getvalue())
        assert isinstance(report, dict), argv
        assert out.getvalue() == json.dumps(report, sort_keys=True) + "\n", argv
