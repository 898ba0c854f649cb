import copy
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from helpers import (
    deep_chain_sheaf,
    densify,
    fixed_twisted_cycle_sheaf,
    incidence_report_reference,
    random_dag_poset,
    random_sheaf,
    sections_report_reference,
    seeded_rng,
    single_stalk_sheaf,
)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posheaf import cli as cli_module
from posheaf import io as posheaf_io
from posheaf import nsd, spectral
from posheaf.cli import cli
from posheaf.errors import ParseError, SchemaError, brief
from posheaf.io import (
    canonical_json,
    inputs_digest,
    map_entries,
    parse_sheaf,
    scalar_from_string,
    scalar_to_string,
    serialize_sheaf,
)
from posheaf.linalg import QQ, RR, prime_field
from posheaf.sheaf import constant_sheaf, cycle_poset, mobius_sheaf, path_poset
from posheaf.spectral import NORMALIZATIONS

GOLDEN = Path(__file__).parent / "golden"


def _run(argv) -> tuple[int, dict, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli(argv)
    text = buffer.getvalue()
    return code, json.loads(text) if text else {}, text


def test_scalar_literals_roundtrip():
    assert scalar_to_string(scalar_from_string("3/4", QQ), QQ) == "3/4"
    assert scalar_to_string(scalar_from_string("-2/4", QQ), QQ) == "-1/2"
    assert scalar_to_string(scalar_from_string("5", QQ), QQ) == "5"
    f5 = prime_field(5)
    assert scalar_to_string(scalar_from_string("7", f5), f5) == "2"
    assert scalar_from_string("0.25", RR) == 0.25


def test_scalar_from_string_rejects_non_finite_reals():
    for literal in ("nan", "inf", "-inf", "Infinity", "1e400", None):
        with pytest.raises(SchemaError):
            scalar_from_string(literal, RR)


def test_canonical_json_floats_17g():
    assert canonical_json({"x": 0.1}) == '{"x":0.10000000000000001}'
    assert canonical_json([1, "a", None, True]) == '[1,"a",null,true]'
    assert canonical_json([-0.0, 5e-324, 1.0, np.float64(0.1)]) == (
        "[-0,4.9406564584124654e-324,1,0.10000000000000001]")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_json_writes_a_float_as_scalar_to_string_does(x):
    # a float takes the encoder's first test and a numpy scalar, a float
    # subclass, the general one: both give scalar_to_string's text
    text = scalar_to_string(x, RR)
    assert canonical_json([x]) == canonical_json([np.float64(x)]) == f"[{text}]"


def test_canonical_json_rejects_non_finite_numpy_floats():
    for value in (np.float64("nan"), np.float64("inf"), np.float64("-inf")):
        with pytest.raises(SchemaError, match="non-finite"):
            canonical_json({"a": [value]})


# every code point, lone surrogates included, and the characters JSON escapes
_STRINGS = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    '\x00\x1f\x7f"\\/\u00e9\u2028\ud800\udfff\U0001f600'))
_FLOAT_FREE = st.recursive(
    st.none() | st.booleans() | st.integers() | _STRINGS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_STRINGS, kids),
    max_leaves=20)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_FLOAT_FREE)
def test_canonical_json_matches_json_dumps_without_floats(tree):
    assert canonical_json(tree) == json.dumps(tree, separators=(",", ":"))


_AWKWARD = ['', 'a"b', 'back\\slash', 'tab\tnew\nline\x00\x1f\x7f', '\u00e9\u2028',
            '\ud800', '\U0001f600', '/']


@pytest.mark.parametrize("obj", [
    _AWKWARD, tuple(_AWKWARD), [_AWKWARD, ["0", "1/2"], []],
    [0, -1, 2**70, -(2**70)], (7,), [[1, 0], [0, 1]],
    [], (), [True, 1], [1, False], ["a", 1], [1, "a"], [None, "a"], [[], "a"],
    {"rows": [["@", "g0"], [-3, 4]], "flags": [True, False]},
])
def test_canonical_json_lists_of_strs_or_ints_match_json_dumps(obj):
    # lists of strs, of ints, empty and mixed (bools among ints included)
    # are written as json.dumps writes them
    assert canonical_json(obj) == json.dumps(obj, separators=(",", ":"))


def test_canonical_json_writes_bools_as_json_and_keys_as_strings():
    assert canonical_json([True, 1, False, 0]) == "[true,1,false,0]"
    assert canonical_json({1: "a"}) == '{"1":"a"}'


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("nest", [
    lambda v: v, lambda v: [1, v], lambda v: (v,), lambda v: {"a": [0.5, {"b": v}]},
])
def test_canonical_json_rejects_non_finite_floats_anywhere(value, nest):
    with pytest.raises(SchemaError, match="non-finite"):
        canonical_json(nest(value))


@pytest.mark.parametrize("value, name", [
    (Fraction(1, 2), "Fraction"), (np.int64(1), "int64"), ({1}, "set"), (b"x", "bytes"),
])
def test_canonical_json_names_the_type_it_cannot_serialize(value, name):
    with pytest.raises(SchemaError, match=f"cannot serialize {name}$"):
        canonical_json({"x": [value]})


def _canonical_json_calls(monkeypatch, argv) -> tuple[int, int]:
    """The exit status of argv and its number of canonical_json calls."""
    # as the benchmark's tracer does: wrap every name in io and cli that is
    # the function, so recursion through any of them would count more calls
    calls = []
    original = posheaf_io.canonical_json

    def counted(obj):
        calls.append(obj)
        return original(obj)

    for module in (posheaf_io, cli_module):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    status, _, _ = _run(argv)
    return status, len(calls)


def test_a_wrapped_canonical_json_is_called_once_per_report(monkeypatch):
    argv = ["incidence", str(GOLDEN / "triangle_full.json")]
    assert _canonical_json_calls(monkeypatch, argv) == (0, 1)


def test_a_wrapped_canonical_json_is_called_once_per_sections_report(monkeypatch):
    argv = ["sections", str(GOLDEN / "triangle_full.json")]
    assert _canonical_json_calls(monkeypatch, argv) == (0, 1)


def test_a_str_subclass_is_quoted_not_written_verbatim():
    class Text(str):
        pass

    assert canonical_json([Text("[1]")]) == '["[1]"]'


def _report_reference(sheaf, command: str, path) -> str:
    """The dense report text the reference gives for the document at path."""
    reference = {"incidence": incidence_report_reference,
                 "sections": sections_report_reference}[command]
    frame = {"command": command, "inputs_digest": inputs_digest(path.read_bytes())}
    return canonical_json(frame | reference(sheaf)) + "\n"


def _densified(sheaf, command: str, text: str) -> str:
    """A report's text with its sparse matrix or section basis written dense."""
    report = json.loads(text)
    body = report[command]
    if command == "incidence":
        body["matrix"] = densify(body["matrix"], len(body["labels"]))
    else:
        body["basis"] = densify(body["basis"], sum(map(sheaf.stalk, body["layout"])))
    return canonical_json(report) + "\n"


@pytest.mark.parametrize("field", [QQ, prime_field(7), prime_field(2**31 - 1)], ids=str)
@pytest.mark.parametrize("command", ["incidence", "sections"])
def test_dense_reports_equal_their_dense_references_on_random_sheaves(tmp_path, field, command):
    rng = seeded_rng(37)
    path = tmp_path / "doc.json"
    signs = set()
    for _ in range(12):
        path.write_text(serialize_sheaf(random_sheaf(random_dag_poset(rng), rng, field)))
        sheaf = parse_sheaf(path.read_text())
        status, _, text = _run([command, str(path)])
        assert (status, _densified(sheaf, command, text)) == (
            0, _report_reference(sheaf, command, path))
        signs |= {c for c in "-/" if c in text}
    if field == QQ and command == "sections":
        assert signs == {"-", "/"}  # negative and fractional entries were printed


@pytest.mark.parametrize("command", ["incidence", "sections"])
@pytest.mark.parametrize("elements, covers, stalks, maps", [
    ([], [], {}, {}),
    (["x"], [], {"x": 0}, {}),
    (["a", "b"], [["a", "b"]], {"a": 0, "b": 2}, {"a<b": []}),
    (["a", "b", "c"], [["a", "b"], ["c", "b"]], {"a": 1, "b": 0, "c": 2},
     {"a<b": [], "c<b": []}),
])
def test_dense_reports_equal_their_dense_references_at_the_edges(tmp_path, command, elements,
                                                                 covers, stalks, maps):
    # an empty poset, and elements with a stalk of dimension 0
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"field": "Q", "elements": elements, "covers": covers,
                                "stalks": stalks, "maps": maps}))
    sheaf = parse_sheaf(path.read_text())
    status, _, text = _run([command, str(path)])
    assert (status, _densified(sheaf, command, text)) == (
        0, _report_reference(sheaf, command, path))


@pytest.mark.parametrize("command, sheaf, size", [
    ("incidence", fixed_twisted_cycle_sheaf, 100),
    ("sections", single_stalk_sheaf, 60),
], ids=["incidence twisted C100", "sections stalk 60"])
def test_report_bytes_at_twice_the_size(tmp_path, command, sheaf, size):
    # the nonzeros double here, while a dense matrix or basis would grow
    # about fourfold
    printed = []
    for n in (size, 2 * size):
        path = tmp_path / f"doc{n}.json"
        path.write_text(serialize_sheaf(sheaf(n)))
        status, _, text = _run([command, str(path)])
        assert status == 0
        printed.append(len(text.encode("utf-8")))
    assert printed[1] < 2.2 * printed[0]


def test_parse_serialize_roundtrip_minimal_document():
    doc = serialize_sheaf(constant_sheaf(path_poset(2), 1, QQ))
    sheaf = parse_sheaf(doc)
    assert len(sheaf.poset) == 3
    assert serialize_sheaf(sheaf) == doc


@pytest.mark.parametrize("field", [QQ, prime_field(2**31 - 1), RR], ids=str)
def test_parse_sheaf_inverts_serialize_sheaf_on_random_sheaves(field):
    rng = seeded_rng(28)
    shapes = set()
    for _ in range(30):
        s = random_sheaf(random_dag_poset(rng), rng, field)
        back = parse_sheaf(serialize_sheaf(s))
        assert (back.poset, back.poset.topo_order) == (s.poset, s.poset.topo_order)
        assert (back.field, back.stalk_dim, back.edge_map) == (s.field, s.stalk_dim, s.edge_map)
        shapes |= {(m.rows, m.cols) for m in s.edge_map.values()}
    # 0-dimensional stalks give 0 x k and k x 0 maps
    assert any(r == 0 < c for r, c in shapes) and any(c == 0 < r for r, c in shapes)


def test_mobius_roundtrip_byte_identical():
    doc = serialize_sheaf(mobius_sheaf(4, QQ))
    assert serialize_sheaf(parse_sheaf(doc)) == doc


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(ParseError) as err:
        parse_sheaf("{broken")
    assert "line 1" in str(err.value)


# covers a<b, c<d and a<d, and only the map a<b: two maps are missing
_TWO_MAPS_MISSING = {
    "field": "Q",
    "elements": ["a", "b", "c", "d"],
    "covers": [["a", "b"], ["c", "d"], ["a", "d"]],
    "stalks": {"a": 1, "b": 1, "c": 1, "d": 1},
    "maps": {"a<b": ["1"]},
}


def test_parse_missing_map_names_the_edge():
    doc = json.loads(serialize_sheaf(constant_sheaf(path_poset(2), 1, QQ)))
    del doc["maps"]["v0<e0"]
    with pytest.raises(SchemaError) as err:
        parse_sheaf(json.dumps(doc))
    assert "maps: missing v0<e0" in str(err.value)
    # of two missing maps, the first cover in declaration order is named
    with pytest.raises(SchemaError, match="^maps: missing a<d$"):
        parse_sheaf(json.dumps(_TWO_MAPS_MISSING))


def test_parse_schema_errors():
    base = json.loads(serialize_sheaf(constant_sheaf(path_poset(2), 1, QQ)))
    broken = dict(base)
    del broken["field"]
    with pytest.raises(SchemaError):
        parse_sheaf(json.dumps(broken))
    broken = json.loads(json.dumps(base))
    broken["stalks"].pop("v0")
    with pytest.raises(SchemaError):
        parse_sheaf(json.dumps(broken))
    broken = json.loads(json.dumps(base))
    broken["maps"]["v0<e0"] = ["1", "2"]
    with pytest.raises(SchemaError):
        parse_sheaf(json.dumps(broken))


_THREE_CHAIN = {"field": "Q", "elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]],
                "stalks": {"a": 1, "b": 1, "c": 1}, "maps": {"a<b": ["1"], "b<c": ["1"]}}


@pytest.mark.parametrize("faults, code, message", [
    # a non-string element, after an element holding "<"
    ({"elements": ["a", "b", "c", "x<y", 7]}, "SchemaError",
     "elements: must be an array of strings"),
    # an element holding "<", after a duplicate element
    ({"elements": ["a", "a", "b", "c", "x<y"]}, "SchemaError", "elements: bad identifier 'x<y'"),
    # a malformed cover, after a cover with an unknown endpoint
    ({"covers": [["a", "b"], ["b", "zz"], ["b"]]}, "SchemaError",
     "covers: must be an array of [a, b] string pairs"),
    # an unknown endpoint, after a cycle
    ({"covers": [["a", "b"], ["b", "c"], ["c", "a"], ["a", "zz"]]}, "UnknownElement",
     "cover endpoint 'zz' is not a declared element"),
    # a missing stalk, after an unknown stalk key
    ({"stalks": {"zz": 1, "a": 1, "c": 1}}, "SchemaError", "stalks: missing b"),
    # a non-Hasse map key, and a missing map
    ({"maps": {"a<c": ["1"], "b<c": ["1"]}}, "SchemaError", "maps: a<c is not a Hasse edge"),
    # a wrong entry count, and a bad literal in the same map
    ({"maps": {"a<b": ["1/0", "1"], "b<c": ["1"]}}, "SchemaError",
     "maps: a<b needs 1 row-major entries"),
    # a bad literal, before a wrong entry count and a bad key
    ({"maps": {"a<b": ["1/0"], "b<c": ["1", "2"], "zz": ["1"]}}, "SchemaError",
     "maps: bad scalar literal '1/0': Fraction(1, 0)"),
    # a JSON array, before a bad literal in the same map
    ({"stalks": {"a": 2, "b": 1, "c": 1}, "maps": {"a<b": [["1"], "1/0"], "b<c": ["1"]}},
     "SchemaError", "maps: bad scalar literal ['1']: an array is not a scalar"),
    # a key with two "<", before a key that is no Hasse edge
    ({"maps": {"a<b": ["1"], "a<b<c": ["1"], "a<c": ["1"]}}, "SchemaError",
     "maps: bad key 'a<b<c'"),
])
def test_parse_sheaf_reports_the_first_of_two_faults(faults, code, message):
    with pytest.raises(Exception) as caught:
        parse_sheaf(json.dumps({**_THREE_CHAIN, **faults}))
    assert (type(caught.value).__name__, str(caught.value)) == (code, message)


@pytest.mark.parametrize("command, doc", [
    ("betti", {"field": "Q", "elements": ["a"], "covers": [],
               "stalks": {"a": True}, "maps": {}}),
    ("validate", {"field": "R", "elements": ["a", "b"], "covers": [["a", "b"]],
                  "stalks": {"a": 1, "b": 1}, "maps": {"a<b": [True]}}),
    ("betti", {"field": "Q", "elements": ["1", "2"], "covers": [[1, 2]],
               "stalks": {"1": 1, "2": 1}, "maps": {"1<2": ["1"]}}),
])
def test_cli_rejects_json_values_of_the_wrong_type(tmp_path, command, doc):
    # a boolean stalk dimension or map entry, and a number as a cover endpoint
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    status, report, text = _run([command, str(path)])
    assert status == 1
    assert len(text.splitlines()) == 1
    assert report["error"]["code"] == "SchemaError"


def test_cli_usage_errors_exit_two():
    assert cli([]) == 2
    code, _, _ = _run(["betti", "--method", "nonsense", str(GOLDEN / "mobius_c4.json")])
    assert code == 2


def test_cli_domain_error_reports_code():
    missing = GOLDEN / "missing-file.json"
    code, report, _ = _run(["betti", str(missing)])
    assert code == 1
    assert report["error"]["code"] == "IOError"
    # the OSError's own text, as pathlib's read of the file gives it too
    with pytest.raises(OSError) as refused:
        missing.read_bytes()
    assert report["error"]["message"] == str(refused.value)


def test_cli_sections_and_betti(tmp_path):
    doc = GOLDEN / "path_constant.json"
    code, report, _ = _run(["sections", str(doc)])
    assert code == 0
    assert report["sections"]["dim"] == 1
    code, report, _ = _run(["betti", "--method", "roos", str(doc)])
    assert report["betti"] == [1, 0]


def test_cli_validate_reports_violations(tmp_path):
    # triangle with inconsistent edge-to-face maps
    doc = {
        "field": "Q",
        "elements": ["1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"],
        "covers": [
            ["1", "1,2"], ["2", "1,2"], ["1", "1,3"], ["3", "1,3"],
            ["2", "2,3"], ["3", "2,3"], ["1,2", "1,2,3"], ["1,3", "1,2,3"],
            ["2,3", "1,2,3"],
        ],
        "stalks": {e: 1 for e in ["1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]},
        "maps": {
            "1<1,2": ["1"], "2<1,2": ["1"], "1<1,3": ["1"], "3<1,3": ["1"],
            "2<2,3": ["1"], "3<2,3": ["1"], "1,2<1,2,3": ["1"],
            "1,3<1,2,3": ["1"], "2,3<1,2,3": ["2"],
        },
    }
    path = tmp_path / "triangle_bad.json"
    path.write_text(json.dumps(doc))
    code, report, _ = _run(["validate", str(path)])
    assert code == 0
    assert report["ok"] is False
    assert len(report["violations"]) == 2
    assert report["noncommutativity"] > 0
    code, report, _ = _run(["validate", str(GOLDEN / "triangle_full.json")])
    assert report["ok"] is True


def test_cli_classify_reports_empty_maps_on_an_empty_poset(tmp_path):
    # an empty poset is graded and a cell poset, with nothing to rank: {} not null
    path = tmp_path / "empty.json"
    path.write_text('{"field":"Q","elements":[],"covers":[],"stalks":{},"maps":{}}')
    code, report, _ = _run(["classify", str(path)])
    assert code == 0
    assert report["classification"] == {"graded": True, "rank": {}, "homology_cell": True,
                                        "morse_cell": True, "cell_dims": {}}


def test_cli_exact_commands_reject_real_documents(tmp_path):
    doc = json.loads(serialize_sheaf(constant_sheaf(path_poset(2), 1, QQ)))
    doc["field"] = "R"
    doc["maps"] = {k: ["1.0" for _ in v] for k, v in doc["maps"].items()}
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    for command in (["validate"], ["sections"], ["betti"], ["incidence"], ["classify"]):
        code, report, _ = _run(command + [str(path)])
        assert code == 1
        assert report["error"]["code"] == "FieldMismatch"
    # spectrum and diffuse accept R documents
    code, report, _ = _run(["spectrum", "--degree", "0", str(path)])
    assert code == 0
    assert report["spectrum"]["harmonic_dim"] == 1
    code, report, _ = _run(["diffuse", "--steps", "12", str(path)])
    assert code == 0


def test_cli_real_commands_name_the_real_field_rule(tmp_path):
    doc = tmp_path / "fp.json"
    doc.write_text((GOLDEN / "cycle4_constant.json").read_text().replace('"Q"', '"Fp:7"'))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_GOOD_PARAMS))
    for argv in (["spectrum", str(doc)], ["diffuse", str(doc)],
                 ["nsd-forward", str(doc), str(params)]):
        code, report, _ = _run(argv)
        assert (code, report["error"]) == (1, {
            "code": "FieldMismatch",
            "message": "real_sheaf_complex requires a rational or real field, got Fp:7"})


def test_cli_spectrum_cycle5_closed_form():
    import math

    code, report, _ = _run(
        ["spectrum", "--degree", "0", "--norm", "none", str(GOLDEN / "cycle5_constant.json")]
    )
    assert code == 0
    expected = sorted(2 - 2 * math.cos(2 * math.pi * k / 5) for k in range(5))
    got = report["spectrum"]["eigenvalues"]
    assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-9


def test_cli_diffuse_summary():
    code, report, _ = _run(
        ["diffuse", "--eta", "0.1", "--steps", "30", str(GOLDEN / "cycle4_constant.json")]
    )
    assert code == 0
    trace = report["trace"]
    assert trace["energies_last"] <= trace["energies_first"]
    assert trace["distance_last"] <= 1e-6


def test_cli_nsd_forward_and_learn(tmp_path):
    doc = GOLDEN / "cycle4_constant.json"
    rng = seeded_rng(1)
    params = {
        "X": rng.standard_normal((4, 2)).tolist(),
        "W1": [[1.0]],
        "W2": rng.standard_normal((2, 2)).tolist(),
        "eta": 0.1,
        "norm": "weak",
    }
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(params))
    code, report, _ = _run(["nsd-forward", str(doc), str(params_path)])
    assert code == 0
    assert np.array(report["output"]).shape == (4, 2)

    signals = {"signals": [[1.0, -1.0, 1.0, -1.0]]}
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps(signals))
    code, report, _ = _run(
        ["learn", str(doc), str(signals_path), "--iters", "40", "--seed", "3"]
    )
    assert code == 0
    history = report["learn"]["loss_history"]
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_cli_diffuse_and_learn_pass_every_flag_to_the_library(tmp_path, monkeypatch):
    # every flag differs from the CLI's and the library's default, so a
    # keyword that cmd_diffuse or cmd_learn drops changes the report
    doc = GOLDEN / "cycle4_constant.json"
    sheaf = parse_sheaf(doc.read_text())
    lap = spectral.laplacian(spectral.real_sheaf_complex(sheaf), 0, "none")
    trace = spectral.heat_diffusion(lap, np.ones(4), eta=0.05, steps=7, mode="continuous")
    code, report, _ = _run(["diffuse", str(doc), "--eta", "0.05", "--steps", "7",
                            "--mode", "continuous"])
    assert code == 0
    assert report["trace"] == {
        "degree": 0, "normalization": "none", "eta": 0.05, "steps": 7, "mode": "continuous",
        "energies_first": trace.energies[0], "energies_last": trace.energies[-1],
        "distance_first": trace.distances[0], "distance_last": trace.distances[-1],
        "limit": trace.limit.tolist(),
    }

    signals = seeded_rng(11).standard_normal((3, 8))
    side = tmp_path / "signals.json"
    side.write_text(json.dumps({"signals": signals.tolist()}))
    result = nsd.learn_sheaf(sheaf.poset, signals, lr=0.5, iters=5, d=2, seed=7)
    code, report, _ = _run(["learn", str(doc), str(side), "--lr", "0.5", "--iters", "5",
                            "--d", "2", "--seed", "7"])
    assert code == 0
    assert report["learn"] == {
        "d": 2, "loss_history": result.loss_history, "field": "R",
        "maps": map_entries(result.sheaf, float),
    }


@pytest.mark.parametrize("lr", ["1e300", "1e308"])
def test_cli_learn_rejects_steps_too_large_for_floats(tmp_path, lr):
    # the step used to overflow in the projection, which then sent every
    # edge map to zero (loss 0) and printed a RuntimeWarning
    signals_path = tmp_path / "signals.json"
    signals_path.write_text(json.dumps({"signals": [[1, -1, 1, -1]]}))
    argv = [sys.executable, "-m", "posheaf.cli", "learn", str(GOLDEN / "cycle4_constant.json"),
            str(signals_path), "--lr", lr, "--iters", "2", "--seed", "0"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    learned = json.loads(done.stdout)["learn"]
    assert all(any(float(x) for x in entries) for entries in learned["maps"].values())
    history = learned["loss_history"]
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_cli_huge_rational_entry_is_an_overflow_report(tmp_path):
    doc = json.loads(serialize_sheaf(constant_sheaf(cycle_poset(4), 1, QQ)))
    doc["maps"][sorted(doc["maps"])[0]] = [str(10 ** 400)]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    # the message names the stage, whatever type holds the rational entry
    status, report, text = _run(["spectrum", str(path)])
    assert status == 1
    assert text == ('{"command":"spectrum","error":{"code":"OverflowOnConvert",'
                    '"message":"laplacian: an entry beyond the double range"}}\n')


def test_cli_runs_on_a_chain_longer_than_the_recursion_limit(tmp_path):
    # c0 < ... < c1499 < x and y < x: the map for c0 < x composes 1,501
    # covers, and its path search once recursed once per step
    sheaf = deep_chain_sheaf()
    assert len(sheaf.poset.elements) > sys.getrecursionlimit()
    path = tmp_path / "deep.json"
    path.write_text(serialize_sheaf(sheaf))
    status, report, _ = _run(["betti", str(path)])
    assert (status, report["betti"]) == (0, [1, 0])
    status, report, _ = _run(["spectrum", str(path)])
    assert (status, report["spectrum"]["harmonic_dim"]) == (0, 1)


def _bad_literal(literal: str, why: str) -> tuple[str, str]:
    return "SchemaError", f"maps: bad scalar literal {literal}: {why}"


_BETTI_ONE = ("betti", [1])
_NO_INT = "invalid literal for int() with base 10: "
_NO_FLOAT = "could not convert string to float: "
# entry -> the outcome of betti over Q, Fp:5 and R: (code, message) for an
# error report, ("betti", vector) for a report; a JSON value that is not a
# string or a number is refused in the library's words on every field
_LITERAL_OUTCOMES = {
    '"1/0"': (_bad_literal("'1/0'", "Fraction(1, 0)"),
              _bad_literal("'1/0'", _NO_INT + "'1/0'"),
              _bad_literal("'1/0'", _NO_FLOAT + "'1/0'")),
    "[1]": (_bad_literal("[1]", "an array is not a scalar"),) * 3,
    '{"x": 1}': (_bad_literal("{'x': 1}", "an object is not a scalar"),) * 3,
    "null": (_bad_literal("None", "null is not a scalar"),) * 3,
    "true": (_bad_literal("True", "a boolean is not a scalar"),) * 3,
    "0.5": (_BETTI_ONE, _bad_literal("0.5", _NO_INT + "'0.5'"),
            ("FieldMismatch", "betti requires an exact field, got R")),
    '" 2/4 "': (_BETTI_ONE, _bad_literal("' 2/4 '", _NO_INT + "' 2/4 '"),
                _bad_literal("' 2/4 '", _NO_FLOAT + "' 2/4 '")),
}


def _expected_report(outcome, raw: bytes) -> str:
    if outcome[0] == "betti":
        report = {"command": "betti", "inputs_digest": hashlib.sha256(raw).hexdigest(),
                  "method": "minimal", "betti": outcome[1]}
    else:
        report = {"command": "betti", "error": {"code": outcome[0], "message": outcome[1]}}
    return json.dumps(report, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("entry", _LITERAL_OUTCOMES)
@pytest.mark.parametrize("position, field", enumerate(["Q", "Fp:5", "R"]))
@pytest.mark.parametrize("copies", [1, 4])
def test_cli_betti_report_of_each_map_entry_kind_is_pinned(tmp_path, entry, position, field,
                                                           copies):
    # four copies fill a 2x2 map with one literal: it is parsed once, and a
    # bad one still gives the one report its first copy gives
    dim = 1 if copies == 1 else 2
    doc = _two_element_document(field=field, stalks={"a": dim, "b": dim},
                                maps={"a<b": [json.loads(entry)] * copies})
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    outcome = _LITERAL_OUTCOMES[entry][position]
    if outcome == _BETTI_ONE and copies > 1:
        outcome = ("betti", [2])
    status, _, text = _run(["betti", str(path)])
    assert (status, text) == (int(outcome[0] != "betti"),
                              _expected_report(outcome, path.read_bytes()))


def test_parse_sheaf_shares_one_value_per_literal_and_reports_the_first_bad_entry():
    doc = _two_element_document(stalks={"a": 2, "b": 2},
                                maps={"a<b": ["1/2", "2/4", "1/2", "-3"]})
    (x, y), (z, w) = parse_sheaf(json.dumps(doc)).edge_map[("a", "b")].data
    assert (x, y, z, w) == (Fraction(1, 2),) * 3 + (-3,)
    assert x is z and x is not y  # one value per distinct string, not per value
    for entries, message in [
        (["1/2", [1], "1/2", [1]], "[1]: an array is not a scalar"),
        (["1/2", "1/0", "1/0", {"x": 1}], "'1/0': Fraction(1, 0)"),
        ([0.5, "0.5", 0.5, None], "None: null is not a scalar"),
    ]:
        doc["maps"]["a<b"] = entries
        with pytest.raises(SchemaError) as caught:
            parse_sheaf(json.dumps(doc))
        assert str(caught.value) == f"maps: bad scalar literal {message}"


@pytest.mark.parametrize("literal, why", [
    ("1e5000", "exponent beyond 4300"),
    ("1e-5000", "exponent beyond 4300"),
    ("1e10000000", "exponent beyond 4300"),
    ("-1.5E+00010000000", "exponent beyond 4300"),
    ("0e99999", "exponent beyond 4300"),
    ("1e" + "9" * 5000, "exponent beyond 4300"),
    ("1e4300", "more than 4300 digits"),
    ("1e-4300", "more than 4300 digits"),
    ("0." + "1" * 4300, "more than 4300 digits"),
])
def test_rational_literals_with_a_term_beyond_4300_digits_are_refused_at_once(literal, why):
    start = time.perf_counter()
    with pytest.raises(SchemaError) as caught:
        scalar_from_string(literal, QQ)
    assert time.perf_counter() - start < 1.0
    assert str(caught.value) == f"maps: bad scalar literal {brief(repr(literal))}: {why}"


def test_rational_literals_up_to_4300_digits_still_parse():
    assert scalar_from_string("1e4299", QQ) == 10 ** 4299
    assert scalar_from_string("-1.5e4299", QQ) == -15 * 10 ** 4298
    assert scalar_from_string("1e-4299", QQ) == Fraction(1, 10 ** 4299)
    assert scalar_from_string("9" * 4300, QQ) == 10 ** 4300 - 1


def test_scalar_to_string_refuses_a_rational_it_cannot_print():
    assert scalar_to_string(Fraction(10 ** 4300 - 1, 7), QQ) == f"{10 ** 4300 - 1}/7"
    for value in (Fraction(10 ** 4300), Fraction(1, 10 ** 4300)):
        with pytest.raises(SchemaError, match="^cannot print a rational with more than 4300"):
            scalar_to_string(value, QQ)


def test_cli_sections_whose_value_has_6000_digits_is_a_schema_error_report(tmp_path):
    # the section over a is 1, over c 10^6000; a literal 1e5000 is refused
    doc = {"field": "Q", "elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]],
           "stalks": {"a": 1, "b": 1, "c": 1}}
    path = tmp_path / "doc.json"
    for maps, message in [
        ({"a<b": ["1e3000"], "b<c": ["1e3000"]},
         "cannot print a rational with more than 4300 digits"),
        ({"a<b": ["1e5000"], "b<c": ["1"]},
         "maps: bad scalar literal '1e5000': exponent beyond 4300"),
    ]:
        path.write_text(json.dumps({**doc, "maps": maps}))
        status, _, text = _run(["sections", str(path)])
        assert (status, text) == (1, json.dumps(
            {"command": "sections", "error": {"code": "SchemaError", "message": message}},
            separators=(",", ":")) + "\n")


@pytest.mark.parametrize("literal, message", [
    ("1e400", "deviation: an entry beyond the double range"),
    ("1e200", "deviation: squared norm beyond the double range"),
])
def test_cli_validate_of_a_deviation_beyond_the_doubles_is_an_overflow_report(tmp_path, literal,
                                                                             message):
    # the diamond a<b<d, a<c<d with one huge map: its two paths differ by it
    doc = {"field": "Q", "elements": ["a", "b", "c", "d"],
           "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
           "stalks": {"a": 1, "b": 1, "c": 1, "d": 1},
           "maps": {"a<b": [literal], "a<c": ["1"], "b<d": ["1"], "c<d": ["1"]}}
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(doc))
    status, report, text = _run(["validate", str(path)])
    assert status == 1 and len(text.splitlines()) == 1
    assert report["error"] == {"code": "OverflowOnConvert", "message": message}


def test_cli_validate_of_a_noncommutativity_beyond_the_doubles_is_an_overflow_report(tmp_path):
    # two disjoint diamonds whose deviations, about 1e308 each, are finite
    # alone and sum beyond the doubles
    covers = [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]
    doc = {"field": "Q", "elements": ["a", "b", "c", "d", "a2", "b2", "c2", "d2"],
           "covers": covers + [[x + "2", y + "2"] for x, y in covers],
           "stalks": {e: 1 for e in ["a", "b", "c", "d", "a2", "b2", "c2", "d2"]},
           "maps": {f"{x}{n}<{y}{n}": ["1e154" if x + y == "ab" else "1"]
                    for x, y in covers for n in ("", "2")}}
    path = tmp_path / "diamonds.json"
    path.write_text(json.dumps(doc))
    status, report, text = _run(["validate", str(path)])
    assert status == 1 and len(text.splitlines()) == 1
    assert report["error"] == {"code": "OverflowOnConvert",
                               "message": "noncommutativity: sum of deviations beyond the double range"}


def test_cli_reports_are_deterministic():
    doc = str(GOLDEN / "cycle4_constant.json")
    _, _, first = _run(["spectrum", "--degree", "0", doc])
    _, _, second = _run(["spectrum", "--degree", "0", doc])
    assert first == second


def test_prime_field_document_roundtrip(tmp_path):
    sheaf = mobius_sheaf(4, prime_field(2))
    doc = serialize_sheaf(sheaf)
    assert '"field":"Fp:2"' in doc
    path = tmp_path / "mobius_f2.json"
    path.write_text(doc)
    code, report, _ = _run(["sections", str(path)])
    assert code == 0
    assert report["sections"]["dim"] == 1


def _real_cycle_document(tmp_path, literal: str) -> str:
    """Constant real sheaf on C4 with one map entry replaced by the literal."""
    doc = json.loads(serialize_sheaf(constant_sheaf(cycle_poset(4), 1, QQ)))
    doc["field"] = "R"
    doc["maps"] = {k: ["1.0" for _ in v] for k, v in doc["maps"].items()}
    doc["maps"][sorted(doc["maps"])[0]] = [literal]
    path = tmp_path / "real.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _nsd_params(tmp_path, norm="weak") -> str:
    path = tmp_path / "params.json"
    path.write_text(json.dumps(
        {"X": [[1.0]] * 4, "W1": [[1.0]], "W2": [[1.0]], "eta": 0.1, "norm": norm}
    ))
    return str(path)


@pytest.mark.parametrize("command", ["spectrum", "diffuse", "nsd-forward"])
@pytest.mark.parametrize("literal, code", [
    ("1e200", "OverflowOnConvert"),
    ("nan", "SchemaError"),
    ("inf", "SchemaError"),
    ("-inf", "SchemaError"),
    ("1e400", "SchemaError"),
    # a JSON integer beyond the double range used to end in an OverflowError
    pytest.param(10 ** 400, "SchemaError", id="int-10^400"),
])
def test_cli_non_finite_real_documents_report_one_error(tmp_path, command, literal, code):
    argv = [command, _real_cycle_document(tmp_path, literal)]
    if command == "nsd-forward":
        argv.append(_nsd_params(tmp_path))
    status, _, text = _run(argv)
    assert status == 1
    lines = text.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["code"] == code


@pytest.mark.parametrize("norm", ["bogus", 3, "Weak"])
def test_cli_nsd_forward_unknown_norm(tmp_path, norm):
    doc = str(GOLDEN / "cycle4_constant.json")
    status, report, _ = _run(["nsd-forward", doc, _nsd_params(tmp_path, norm)])
    assert status == 1
    assert report["error"]["code"] == "ShapeMismatch"


def test_cli_unserializable_report_is_an_error_report(monkeypatch):
    monkeypatch.setattr(cli_module, "cmd_validate", lambda sheaf, args: {"x": float("inf")})
    status, report, text = _run(["validate", str(GOLDEN / "path_constant.json")])
    assert status == 1
    assert len(text.splitlines()) == 1
    assert report["error"]["code"] == "SchemaError"


_GOOD_PARAMS = {"X": [[1.0]] * 4, "W1": [[1.0]], "W2": [[1.0]]}


@pytest.mark.parametrize("command, payload", [
    ("nsd-forward", {**_GOOD_PARAMS, "X": [[1.0], [1.0, 2.0], [1.0], [1.0]]}),
    ("nsd-forward", {**_GOOD_PARAMS, "W1": [["a"]]}),
    ("nsd-forward", {**_GOOD_PARAMS, "W2": [[True]]}),
    ("nsd-forward", {**_GOOD_PARAMS, "W2": [[10 ** 400]]}),
    ("nsd-forward", {**_GOOD_PARAMS, "X": [[float("nan")]] * 4}),
    ("nsd-forward", {**_GOOD_PARAMS, "X": "1.0"}),
    ("nsd-forward", {"X": [[1.0]] * 4, "W1": [[1.0]]}),
    ("nsd-forward", {**_GOOD_PARAMS, "eta": [1]}),
    ("nsd-forward", {**_GOOD_PARAMS, "eta": "0.1"}),
    ("nsd-forward", {**_GOOD_PARAMS, "eta": float("inf")}),
    ("diffuse", {"x0": ["a", 1.0, 1.0, 1.0]}),
    ("diffuse", {"x0": [[1.0], [1.0, 1.0], 1.0, 1.0]}),
    ("diffuse", {"x0": [None] * 4}),
    ("diffuse", {}),
    ("learn", {"signals": [[1.0, "x", 1.0, -1.0]]}),
    ("learn", {"signals": [[1.0, -1.0], [1.0]]}),
    ("learn", {"signals": 5.0}),
    ("learn", {"signals": [1.0, -1.0, 1.0, -1.0]}),
    ("learn", {}),
])
def test_cli_bad_params_and_state_files_report_one_schema_error(tmp_path, command, payload):
    doc = str(GOLDEN / "cycle4_constant.json")
    path = tmp_path / "side.json"
    path.write_text(json.dumps(payload))
    argv = {
        "nsd-forward": [command, doc, str(path)],
        "learn": [command, doc, str(path), "--iters", "2"],
    }.get(command, [command, doc, "--x0", str(path)])
    status, _, text = _run(argv)
    assert status == 1
    lines = text.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["code"] == "SchemaError"


@pytest.mark.parametrize("command, fault, side, code, message", [
    ("betti", {"covers": {}}, None, "SchemaError",
     "covers: must be an array of [a, b] string pairs"),
    ("betti", {"stalks": []}, None, "SchemaError", "stalks: must be an object"),
    ("betti", {"maps": []}, None, "SchemaError", "maps: must be an object"),
    ("betti", {"field": "Fp:x"}, None, "SchemaError", "field: bad prime in 'Fp:x'"),
    ("nsd-forward", {}, {**_GOOD_PARAMS, "W2": [1.0]}, "ShapeMismatch", "W2 must be a matrix"),
    ("nsd-forward", {}, {**_GOOD_PARAMS, "eta": -0.5}, "DimensionMismatch",
     "step size must be nonnegative"),
    ("diffuse", {}, {"x0": [1.0, 2.0]}, "DimensionMismatch",
     "state has shape (2,), Laplacian is 4"),
], ids=["covers-object", "stalks-array", "maps-array", "field-Fp-x", "W2-vector",
        "eta-negative", "x0-length"])
def test_cli_malformed_documents_and_side_files_report_code_and_message(
        tmp_path, command, fault, side, code, message):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**json.loads((GOLDEN / "cycle4_constant.json").read_text()),
                               **fault}))
    argv = [command, str(doc)]
    if side is not None:
        path = tmp_path / "side.json"
        path.write_text(json.dumps(side))
        argv += [str(path)] if command == "nsd-forward" else ["--x0", str(path)]
    status, report, text = _run(argv)
    assert status == 1 and len(text.splitlines()) == 1
    assert report["error"] == {"code": code, "message": message}


@pytest.mark.parametrize("command, payload", [
    ("diffuse", {"x0": [1e308, -1e308, 1e308, -1e308]}),
    ("nsd-forward", {**_GOOD_PARAMS, "eta": 1e308}),
    ("nsd-forward", {**_GOOD_PARAMS, "eta": 10 ** 308}),
    ("nsd-forward", {**_GOOD_PARAMS, "W1": [[1e308]], "W2": [[1e308]]}),
    ("learn", {"signals": [[1e200, -1e200, 1e200, -1e200]]}),
])
def test_cli_overflow_is_reported_by_the_stage_that_overflows(tmp_path, command, payload):
    # each of these used to get past its stage with a RuntimeWarning: to the
    # encoder's SchemaError, or to an exit 0 with saturated NSD outputs
    side = tmp_path / "side.json"
    side.write_text(json.dumps(payload))
    doc = str(GOLDEN / "cycle4_constant.json")
    argv = {
        "diffuse": [command, _real_cycle_document(tmp_path, "1.0"), "--x0", str(side)],
        "nsd-forward": [command, doc, str(side)],
        "learn": [command, doc, str(side), "--iters", "2"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "posheaf.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 300
    assert json.loads(lines[0])["error"]["code"] == "OverflowOnConvert"


def test_cli_learn_runs_on_signals_whose_raw_gradient_overflows(tmp_path):
    # the loss of these signals is finite and its gradient's squared norm is
    # not; the learner descends on the signals scaled by a power of two, so it
    # learns the maps of the same signals at unit scale
    reports = []
    for scale in (1e80, 1.0):
        side = tmp_path / "signals.json"
        side.write_text(json.dumps({"signals": [[scale, -scale, scale, -scale],
                                                [scale, scale, -scale, scale]]}))
        status, report, _ = _run(["learn", str(GOLDEN / "cycle4_constant.json"), str(side),
                                  "--iters", "2"])
        assert status == 0
        reports.append(report["learn"])
    assert reports[0]["maps"] == reports[1]["maps"]
    assert reports[0]["loss_history"] == pytest.approx(
        [loss * 1e160 for loss in reports[1]["loss_history"]], rel=1e-12)


def test_cli_nsd_forward_saturates_a_large_negative_pre_activation_quietly(tmp_path):
    # exp(1000) overflows to inf inside the logistic, whose limit 0 is the answer
    side = tmp_path / "params.json"
    side.write_text(json.dumps({**_GOOD_PARAMS, "X": [[-1000.0]] * 4}))
    status, report, _ = _run(["nsd-forward", str(GOLDEN / "cycle4_constant.json"), str(side)])
    assert (status, report["output"]) == (0, [[0]] * 4)


def test_cli_error_reports_cut_a_huge_echoed_number(tmp_path):
    huge = 10 ** 400
    doc = str(GOLDEN / "cycle4_constant.json")
    side = tmp_path / "side.json"
    fp_doc = tmp_path / "fp.json"
    fp_doc.write_text(Path(doc).read_text().replace('"Q"', f'"Fp:{huge}"'))
    cases = [
        (["spectrum", _real_cycle_document(tmp_path, huge)], None, "SchemaError"),
        (["nsd-forward", doc, str(side)], {**_GOOD_PARAMS, "X": [[huge]] * 4}, "SchemaError"),
        (["learn", doc, str(side), "--iters", "2"], {"signals": [[1, huge, 1, 1]]},
         "SchemaError"),
        (["betti", str(fp_doc)], None, "FieldMismatch"),
    ]
    for argv, payload, code in cases:
        if payload is not None:
            side.write_text(json.dumps(payload))
        status, report, text = _run(argv)
        assert (status, report["error"]["code"]) == (1, code), argv
        assert "(401 characters)" in report["error"]["message"], argv
        assert len(text.encode()) < 300, argv


_LONG = "x" * 1000


def _two_element_document(**changes) -> dict:
    doc = {"field": "Q", "elements": ["a", "b"], "covers": [["a", "b"]],
           "stalks": {"a": 1, "b": 1}, "maps": {"a<b": ["1"]}}
    return {**doc, **changes}


def _long_pair(maps) -> dict:
    return _two_element_document(elements=["a", _LONG], covers=[["a", _LONG]],
                                 stalks={"a": 1, _LONG: 1}, maps=maps)


@pytest.mark.parametrize("doc, code", [
    pytest.param(_two_element_document(elements=[_LONG, _LONG], covers=[]),
                 "DuplicateElement", id="duplicate"),
    pytest.param(_two_element_document(covers=[[_LONG, "b"]]), "UnknownElement",
                 id="unknown-cover-source"),
    pytest.param(_two_element_document(covers=[["a", _LONG]]), "UnknownElement",
                 id="unknown-cover-target"),
    pytest.param(_two_element_document(elements=[_LONG], covers=[[_LONG, _LONG]]),
                 "CycleDetected", id="reflexive-cover"),
    pytest.param(_two_element_document(elements=["a", _LONG + "<"]), "SchemaError",
                 id="bad-identifier"),
    pytest.param(_two_element_document(elements=[_LONG], covers=[], stalks={}),
                 "SchemaError", id="missing-stalk"),
    pytest.param(_two_element_document(elements=[_LONG], covers=[], stalks={_LONG: -1}),
                 "SchemaError", id="bad-dimension"),
    pytest.param(_two_element_document(stalks={"a": 1, "b": 1, _LONG: 1}), "SchemaError",
                 id="unknown-stalk"),
    pytest.param(_two_element_document(maps={_LONG: ["1"]}), "SchemaError", id="bad-map-key"),
    pytest.param(_two_element_document(maps={"a<b": ["1"], f"b<{_LONG}": ["1"]}),
                 "SchemaError", id="not-a-hasse-edge"),
    pytest.param(_long_pair({f"a<{_LONG}": []}), "SchemaError", id="entry-count"),
    pytest.param(_long_pair({}), "SchemaError", id="missing-map"),
])
def test_cli_error_reports_cut_a_long_identifier(tmp_path, doc, code):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    status, report, text = _run(["betti", str(path)])
    assert (status, report["error"]["code"]) == (1, code)
    assert "... (100" in report["error"]["message"]
    assert len(text.splitlines()) == 1 and len(text.encode()) < 300


@pytest.mark.parametrize("command", ["spectrum", "diffuse"])
def test_cli_real_maps_whose_products_underflow_still_report(tmp_path, command):
    # on the filled triangle the d^2 check multiplies 1e-200 by 1e-200, which
    # rounds to 0.0 in a column its row does not hold yet
    vertices, edges = ["1", "2", "3"], ["1,2", "1,3", "2,3"]
    covers = [[v, e] for e in edges for v in e.split(",")] + [[e, "1,2,3"] for e in edges]
    doc = {"field": "R", "elements": vertices + edges + ["1,2,3"], "covers": covers,
           "stalks": {e: 1 for e in vertices + edges + ["1,2,3"]},
           "maps": {f"{a}<{b}": ["1e-200"] for a, b in covers}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    status, report, text = _run([command, str(path)])
    assert status == 0 and len(text.splitlines()) == 1 and report["command"] == command


# the 5,001-digit integer passes CPython's int-string limit, so json.loads
# raises a plain ValueError
_UNREADABLE = {"not-utf8": b"\xff\xfe{}", "deep": b"[" * 100_000,
               "long-int": b"[1" + b"0" * 5000 + b"]"}


@pytest.mark.parametrize("content", _UNREADABLE.values(), ids=_UNREADABLE.keys())
@pytest.mark.parametrize("target", ["document", "x0", "params", "signals"])
def test_cli_undecodable_or_deeply_nested_files_are_parse_errors(tmp_path, target, content):
    # each case used to end in a UnicodeDecodeError, RecursionError or
    # ValueError traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    doc = str(GOLDEN / "cycle4_constant.json")
    argv = {
        "document": ["betti", str(bad)],
        "x0": ["diffuse", doc, "--x0", str(bad)],
        "params": ["nsd-forward", doc, str(bad)],
        "signals": ["learn", doc, str(bad), "--iters", "2"],
    }[target]
    status, report, text = _run(argv)
    assert status == 1 and len(text.splitlines()) == 1
    assert report == {"command": argv[0], "error": report["error"]}
    assert report["error"]["code"] == "ParseError"


def test_cli_module_reports_an_undecodable_document_without_a_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(_UNREADABLE["not-utf8"])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-m", "posheaf.cli", "betti", str(bad)],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 1 and done.stderr == b""
    assert json.loads(done.stdout)["error"]["code"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ["learn", "--d", "0"],
    ["learn", "--d", "-1"],
    ["learn", "--lr", "nan"],
    ["learn", "--lr", "inf"],
    ["learn", "--lr", "0"],
    ["learn", "--lr", "-1"],
    ["learn", "--iters", "-1"],
    ["learn", "--seed", "-1"],
    ["diffuse", "--steps", "-1"],
])
def test_cli_out_of_range_flags_are_usage_errors(tmp_path, argv):
    # learn --d 0 on an empty signal used to end in an IndexError traceback
    signals = tmp_path / "s.json"
    signals.write_text(json.dumps({"signals": [[]]}))
    doc = str(GOLDEN / "cycle4_constant.json")
    files = [doc, str(signals)] if argv[0] == "learn" else [doc]
    code, text = _run_quietly(argv[:1] + files + argv[1:])
    assert code == 2 and text == ""


@pytest.mark.parametrize("flags", [
    ["--eta", "nan"],
    ["--eta", "nan", "--mode", "continuous"],
    ["--eta", "inf", "--mode", "continuous"],
    ["--eta", "inf"],
    ["--eta=-0.5"],
])
def test_cli_diffuse_rejects_non_finite_step_sizes_at_the_diffusion_stage(flags):
    code, report, _ = _run(["diffuse", str(GOLDEN / "cycle4_constant.json")] + flags)
    assert code == 1 and report["error"]["code"] == "UnstableStepSize"


@pytest.mark.parametrize("document, eta, mode", [
    ("cycle4", "1e15", "continuous"),
    ("cycle4", "1e300", "continuous"),
    ("cycle4", "1e308", "continuous"),
    ("point", "1e308", "continuous"),
    ("point", "1e308", "discrete"),
])
def test_cli_diffuse_with_a_huge_step_size_does_not_grow(tmp_path, document, eta, mode):
    # rounding leaves zero eigenvalues of cycle4 slightly negative, and the
    # point's Laplacian is the 1 x 1 zero matrix
    path = GOLDEN / "cycle4_constant.json"
    if document == "point":
        path = tmp_path / "point.json"
        path.write_text(json.dumps(
            {"field": "R", "elements": ["a"], "covers": [], "stalks": {"a": 1}, "maps": {}}))
    status, report, text = _run(["diffuse", str(path), "--eta", eta, "--mode", mode])
    assert status == 0 and len(text.splitlines()) == 1
    trace = report["trace"]
    assert trace["energies_last"] <= trace["energies_first"]
    assert trace["distance_last"] <= trace["distance_first"]


def test_cli_valid_x0_and_integer_eta_still_run(tmp_path):
    doc = str(GOLDEN / "cycle4_constant.json")
    x0 = tmp_path / "x0.json"
    x0.write_text(json.dumps({"x0": [1, 0, 0, 0]}))
    status, report, _ = _run(["diffuse", doc, "--x0", str(x0)])
    assert status == 0 and report["trace"]["steps"] == 100
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**_GOOD_PARAMS, "eta": 0, "norm": "none"}))
    status, report, _ = _run(["nsd-forward", doc, str(params)])
    assert status == 0 and np.array(report["output"]).shape == (4, 1)


def _learn_argv(tmp_path, *flags) -> list[str]:
    signals = tmp_path / "signals.json"
    signals.write_text(json.dumps({"signals": [[1.0, -1.0, 1.0, -1.0]]}))
    return ["learn", str(GOLDEN / "cycle4_constant.json"), str(signals), "--iters", "5",
            *flags]


def test_cli_learn_reads_its_seed_from_argv_alone(monkeypatch, tmp_path):
    # no --seed is seed 0, whatever the environment holds
    monkeypatch.delenv("POSHEAF_SEED", raising=False)
    _, _, seed0 = _run(_learn_argv(tmp_path, "--seed", "0"))
    assert seed0 != _run(_learn_argv(tmp_path, "--seed", "3"))[2]
    for value in (None, "3", "x"):
        if value is not None:
            monkeypatch.setenv("POSHEAF_SEED", value)
        status, _, text = _run(_learn_argv(tmp_path))
        assert (status, text) == (0, seed0)


@pytest.mark.parametrize("norm", [
    pytest.param("x" * 1000, id="norm-string"),
    pytest.param(list(range(2000)), id="norm-list"),
])
def test_cli_error_reports_cut_long_side_input(tmp_path, norm):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**_GOOD_PARAMS, "norm": norm}))
    status, report, text = _run(["nsd-forward", str(GOLDEN / "cycle4_constant.json"),
                                 str(params)])
    assert (status, report["error"]["code"]) == (1, "ShapeMismatch")
    assert "characters)" in report["error"]["message"]
    assert len(text.splitlines()) == 1 and len(text.encode()) < 300


@pytest.mark.parametrize("command, params", [
    ("spectrum", None),
    ("diffuse", None),
    ("nsd-forward", _GOOD_PARAMS),
    ("nsd-forward", {**_GOOD_PARAMS, "eta": 0.1, "norm": "strong"}),
])
def test_cli_lapack_failure_is_a_no_convergence_report(monkeypatch, tmp_path, command, params):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    argv = [command, str(GOLDEN / "cycle4_constant.json")]
    if params is not None:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        argv.append(str(path))
    status, report, text = _run(argv)
    assert status == 1 and len(text.splitlines()) == 1
    assert report["error"]["code"] == "NoConvergence"


def _suspended_circle_document(tmp_path, field: str, **maps: str) -> str:
    """x, y < u, v < t with 1-dimensional stalks; every map is 1 unless given
    (keyword ``x_u`` is the map x<u)."""
    covers = [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v"), ("u", "t"), ("v", "t")]
    doc = {
        "field": field,
        "elements": ["x", "y", "u", "v", "t"],
        "covers": [list(c) for c in covers],
        "stalks": {e: 1 for e in "xyuvt"},
        "maps": {f"{a}<{b}": [maps.get(f"{a}_{b}", "1")] for a, b in covers},
    }
    path = tmp_path / f"suspension_{field}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("maps, real_code", [
    ({"v_t": "2"}, "NotAComplex"),
    ({"x_u": "0.30000000000000004", "x_v": "0.3"}, None),
])
def test_cli_spectrum_checks_d_squared_with_a_tolerance_over_r_and_exactly_over_q(
        tmp_path, maps, real_code):
    status, report, text = _run(["spectrum", _suspended_circle_document(tmp_path, "R", **maps)])
    if real_code is None:
        assert status == 0 and report["spectrum"]["harmonic_dim"] == 1
    else:
        assert status == 1 and len(text.splitlines()) == 1
        assert report["error"] == {
            "code": real_code, "message": "d_1 . d_0 residual exceeds tolerance"}
    status, report, _ = _run(["spectrum", _suspended_circle_document(tmp_path, "Q", **maps)])
    assert status == 1 and report["error"]["code"] == "NotAComplex"


@pytest.mark.parametrize("k", [-20, -26, -40])
def test_cli_spectrum_d_squared_tolerance_over_r_scales_with_the_maps(tmp_path, k):
    # every map scaled by 2^k, v<t still twice the others: d_1 . d_0 != 0
    maps = {edge: repr(math.ldexp(1.0, k)) for edge in ("x_u", "x_v", "y_u", "y_v", "u_t")}
    document = _suspended_circle_document(tmp_path, "R", v_t=repr(math.ldexp(2.0, k)), **maps)
    status, report, _ = _run(["spectrum", document])
    assert status == 1 and report["error"]["code"] == "NotAComplex"


def test_cli_spectrum_of_subnormal_laplacians(tmp_path):
    # maps of 1.234e-160 give a Laplacian of subnormals: unnormalized it still
    # has its Betti number, but no normalization can invert its diagonal
    doc = json.loads((GOLDEN / "path_constant.json").read_text())
    doc["maps"] = {key: ["1.234e-160"] * len(entries) for key, entries in doc["maps"].items()}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    status, report, _ = _run(["spectrum", str(path), "--norm", "none"])
    assert status == 0 and report["spectrum"]["harmonic_dim"] == 1
    for norm in ("weak", "strong"):
        status, report, text = _run(["spectrum", str(path), "--norm", norm])
        assert status == 1 and len(text.splitlines()) == 1
        assert report["error"]["code"] == "OverflowOnConvert"


@pytest.mark.parametrize("entry", ["1e-160", "1e154", "1e300"])
def test_cli_never_hands_the_eigensolver_a_non_finite_matrix(monkeypatch, tmp_path, entry):
    # every stage that overflows says so itself, before LAPACK sees an inf or a nan
    eigh = spectral._eigh

    def finite_eigh(a):
        assert np.isfinite(a).all()
        return eigh(a)

    monkeypatch.setattr(spectral, "_eigh", finite_eigh)
    doc = json.loads((GOLDEN / "cycle4_constant.json").read_text())
    doc["field"] = "R"
    doc["maps"] = {key: [entry] * len(entries) for key, entries in doc["maps"].items()}
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(_GOOD_PARAMS))
    runs = [["spectrum", str(path), "--norm", norm] for norm in NORMALIZATIONS]
    runs += [["diffuse", str(path), "--mode", mode] for mode in ("discrete", "continuous")]
    runs.append(["nsd-forward", str(path), str(params)])
    for argv in runs:
        status, report, _ = _run(argv)
        assert status == 0 or report["error"]["code"] == "OverflowOnConvert", argv


def test_golden_documents_regenerate_byte_identically():
    # run_path does not run the script as __main__, so nothing is written
    tool = runpy.run_path(str(GOLDEN.parent.parent / "tools" / "make_goldens.py"))
    documents, commands = tool["DOCUMENTS"], tool["COMMANDS"]
    committed = {p.name[:-len(".report.json")] for p in GOLDEN.glob("*.report.json")}
    assert set(documents) == set(commands) == committed
    for name, sheaf in documents.items():
        assert serialize_sheaf(sheaf) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        report = json.loads((GOLDEN / f"{name}.report.json").read_text(encoding="utf-8"))
        assert commands[name][0] == report["command"]


def _run_quietly(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Property test of the CLI contract on mutated golden documents.
# ---------------------------------------------------------------------------

_BIG = "__1e400__"  # replaced by the bare literal 1e400 in the document text
# integers stay small: an unbounded stalk dimension would allocate, not fail
_SWAP_VALUES = [None, True, False, 0, -1, 2, 2.5, "", "x", "R", "Fp:3", "Fp:4", "v0",
                "a<b", [], {}, [1], ["1", "2"], {"a": 1}, float("nan"), float("inf"),
                float("-inf"), _BIG]
_NON_FINITE = [float("nan"), float("inf"), float("-inf"), _BIG, "nan", "inf", "1e400"]
# finite numbers at the edges of the doubles: subnormal, tiny, near the square
# roots of the extremes, and huge
_MAGNITUDES = [5e-324, 1e-300, 1e-160, 1e-154, 1e154, 1e300, 1e308]
_SIDE_FILES = {
    "params": {"X": [[1.0]] * 4, "W1": [[1.0]], "W2": [[1.0]], "eta": 0.1, "norm": "weak"},
    "signals": {"signals": [[1.0, -1.0, 1.0, -1.0]]},
    "x0": {"x0": [1.0, 0.0, 0.0, 0.0]},
}
_ARGVS = [
    ["validate", "{doc}"],
    ["classify", "{doc}"],
    ["sections", "{doc}"],
    ["betti", "{doc}", "--method", "roos"],
    ["betti", "{doc}", "--method", "cellular"],
    ["betti", "{doc}", "--method", "minimal"],
    ["incidence", "{doc}"],
    ["spectrum", "{doc}", "--norm", "weak"],
    ["spectrum", "{doc}", "--norm", "strong"],
    ["diffuse", "{doc}", "--steps", "5", "--x0", "{x0}"],
    ["nsd-forward", "{doc}", "{params}"],
    ["learn", "{doc}", "{signals}", "--iters", "2", "--seed", "0"],
]


def _nodes(obj, path=()):
    yield path, obj
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _nodes(value, path + (i,))


def _replace(root, path, value):
    if not path:
        return value
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return root


def _magnify(data, doc):
    """The magnitude mutation: each map entry and side-file number, at even
    odds, becomes plus or minus one finite magnitude at the edge of the
    doubles."""
    magnitude = data.draw(st.sampled_from(_MAGNITUDES))
    for path, node in list(_nodes(doc)):
        number = type(node) is float or (path[:1] == ("maps",) and type(node) is str)
        if number and data.draw(st.booleans()):
            value = data.draw(st.sampled_from([magnitude, -magnitude]))
            doc = _replace(doc, path, repr(value) if type(node) is str else value)
    return doc


def _mutate(data, doc):
    """One mutation: a deleted key, a swapped type, a truncated map or array,
    an unknown field, or a non-finite literal."""
    kind = data.draw(st.sampled_from(["delete", "swap", "truncate", "unknown", "non-finite"]))
    nodes = list(_nodes(doc))
    if kind == "delete" or kind == "unknown":
        dicts = [(path, node) for path, node in nodes if isinstance(node, dict)]
        if not dicts:
            return doc
        path, node = data.draw(st.sampled_from(dicts))
        if kind == "delete" and node:
            del node[data.draw(st.sampled_from(sorted(node)))]
        elif kind == "unknown":
            node[data.draw(st.sampled_from(["unknown", "v9", "v0<e9", "extra"]))] = (
                copy.deepcopy(data.draw(st.sampled_from(_SWAP_VALUES))))
        return doc
    if kind == "truncate":
        sized = [(path, node) for path, node in nodes if isinstance(node, (dict, list)) and node]
        if not sized:
            return doc
        path, node = data.draw(st.sampled_from(sized))
        keep = data.draw(st.integers(0, len(node) - 1))
        if isinstance(node, dict):
            truncated = dict(list(node.items())[:keep])
        else:
            truncated = node[:keep]
        return _replace(doc, path, truncated)
    path, _ = data.draw(st.sampled_from(nodes))
    pool = _SWAP_VALUES if kind == "swap" else _NON_FINITE
    return _replace(doc, path, copy.deepcopy(data.draw(st.sampled_from(pool))))


def _document_text(doc) -> str:
    return json.dumps(doc).replace(json.dumps(_BIG), "1e400")


_GOLDEN_DOCUMENTS = sorted(p for p in GOLDEN.glob("*.json") if not p.name.endswith(".report.json"))
# the flags of each subcommand, and the values a mutated flag may take; no
# value parses as a count above 2, so no mutated --steps or --iters runs long
_FLAGS = {
    "betti": ["--method"],
    "spectrum": ["--degree", "--norm"],
    "diffuse": ["--degree", "--norm", "--eta", "--steps", "--mode", "--x0"],
    "learn": ["--lr", "--iters", "--d", "--seed"],
}
_FLAG_VALUES = ["-1", "0", "2", "3.5", "1e308", "nan", "inf", "", "abc", "strong", "minimal"]


def _mutate_flags(data, argv):
    """Sometimes replace the value of one flag of the subcommand, or append it."""
    flags = _FLAGS.get(argv[0])
    if not flags or not data.draw(st.booleans()):
        return argv
    flag = data.draw(st.sampled_from(flags))
    value = data.draw(st.sampled_from(_FLAG_VALUES))
    if flag in argv and data.draw(st.booleans()):
        i = argv.index(flag)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [flag, value]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_cli_contract_holds_on_mutated_golden_documents(data):
    # Every subcommand exits 0, 1 or 2; on 0 or 1 it prints exactly one JSON
    # line, a report or an error report with a code, and on 2 nothing.
    argv = _mutate_flags(data, data.draw(st.sampled_from(_ARGVS)))
    texts = {"doc": data.draw(st.sampled_from(_GOLDEN_DOCUMENTS)).read_text()}
    texts.update({name: json.dumps(body) for name, body in _SIDE_FILES.items()})
    target = data.draw(st.sampled_from(["doc"] + [a[1:-1] for a in argv[2:] if a[:1] == "{"]))
    doc = json.loads(texts[target])
    # magnitudes alone: a structural mutation would stop most runs before the
    # numeric stages
    if data.draw(st.booleans()):
        doc = _magnify(data, doc)
    else:
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(data, doc)
    texts[target] = _document_text(doc)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(text)
        code, out = _run_quietly([a.format(**paths) for a in argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        report = json.loads(out)
        assert report["command"] == argv[0]
        assert ("error" in report) == (code == 1)
        if code == 1:
            assert report["error"]["code"]
            # each numeric stage reports its own overflow before the encoder's guard
            assert report["error"]["message"] != "reports cannot contain non-finite floats"


@pytest.mark.parametrize("case", ["validate-golden", "two-maps-missing"])
def test_cli_stdout_does_not_depend_on_the_hash_seed(tmp_path, case):
    if case == "validate-golden":
        argv = ["validate", str(GOLDEN / "triangle_violations.json")]
    else:
        doc = tmp_path / "missing.json"
        doc.write_text(json.dumps(_TWO_MAPS_MISSING))
        argv = ["betti", str(doc)]
    stdout = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
               "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-m", "posheaf.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        stdout.append(done.stdout)
    assert stdout[0] == stdout[1] != b""
