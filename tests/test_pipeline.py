import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
from conftest import clear_library_caches
from k3walls import cli, families, linalg, pipeline, roots, walls
from k3walls import strata as st
from k3walls.errors import InvalidTwist, SchemaError
from test_walls import WRONG_SIGNATURE_CASES

ELLIPTIC_DOC = {
    "picard": {"basis": ["sigma", "f"], "gram": [[-2, 1], [1, 0]]},
    "polarization": [1, 3],
    "mukai_vector": {"r": 2, "c1": [1, 3], "s": 1},
}


def a1_doc(alpha=None):
    inst = families.generate_example(families.ExampleSpec("A", 1, 1, 1))
    return pipeline.instance_document(inst, alpha_scale=alpha)


def test_round_trip_idempotent():
    doc = a1_doc(alpha=1)
    once = pipeline.serialize_instance(pipeline.parse_instance(doc))
    twice = pipeline.serialize_instance(pipeline.parse_instance(once))
    assert json.dumps(once) == json.dumps(twice)
    assert json.dumps(once, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_rational_codec():
    assert pipeline.rational_to_json(4) == 4
    assert pipeline.rational_to_json(Fraction(4, 2)) == 2
    assert pipeline.rational_to_json(Fraction(-3, 4)) == "-3/4"
    assert pipeline.rational_from_json("7/2", "$") == Fraction(7, 2)
    assert pipeline.rational_from_json("4", "$") == 4
    with pytest.raises(SchemaError):
        pipeline.rational_from_json("x/y", "$")
    with pytest.raises(SchemaError):
        pipeline.rational_from_json(1.5, "$")
    with pytest.raises(SchemaError):
        pipeline.rational_from_json("1/0", "$")


def test_schema_errors_name_fields():
    bad = {"picard": {"basis": ["a", "b"], "gram": [[0, 1], [2, 0]]},
           "polarization": [1, 0],
           "mukai_vector": {"r": 1, "c1": [0, 0], "s": 0}}
    with pytest.raises(SchemaError) as exc:
        pipeline.parse_instance(bad)
    assert "picard.gram" in str(exc.value)

    with pytest.raises(SchemaError) as exc:
        pipeline.parse_instance({"polarization": [1]})
    assert "picard" in str(exc.value)

    doc = a1_doc()
    doc["mukai_vector"]["c1"] = [1]
    with pytest.raises(SchemaError) as exc:
        pipeline.parse_instance(doc)
    assert "mukai_vector.c1" in str(exc.value)

    doc = a1_doc()
    doc["unknown"] = 1
    with pytest.raises(SchemaError) as exc:
        pipeline.parse_instance(doc)
    assert "unknown" in str(exc.value)

    doc = a1_doc()
    doc["strata"][0]["mult"] = 0
    with pytest.raises(SchemaError) as exc:
        pipeline.parse_instance(doc)
    assert "strata[0].mult" in str(exc.value)

    doc = a1_doc()
    doc["strata"] = []
    with pytest.raises(SchemaError) as exc:
        pipeline.parse_instance(doc)
    assert str(exc.value) == "$.strata: must be non-empty when present"


#: Each object of the contract: its path, how to reach it, and its required keys.
CONTRACT_OBJECTS = [
    ("$", lambda doc: doc, ("picard", "polarization", "mukai_vector")),
    ("$.picard", lambda doc: doc["picard"], ("basis", "gram")),
    ("$.mukai_vector", lambda doc: doc["mukai_vector"], ("r", "c1", "s")),
    ("$.strata[0]", lambda doc: doc["strata"][0], ("u", "mult")),
    ("$.strata[0].u", lambda doc: doc["strata"][0]["u"], ("r", "c1", "s")),
    ("$.alpha", lambda doc: doc["alpha"], ("c1",)),
]


@pytest.mark.parametrize("path, reach, required", CONTRACT_OBJECTS,
                         ids=[path for path, _, _ in CONTRACT_OBJECTS])
def test_schema_errors_for_missing_and_unexpected_keys(path, reach, required):
    # An unexpected key is reported before a missing one at the same level.
    def error(edit):
        doc = a1_doc(alpha=1)
        edit(reach(doc))
        with pytest.raises(SchemaError) as exc:
            pipeline.parse_instance(doc)
        return str(exc.value)

    for key in required:
        assert error(lambda obj: obj.pop(key)) == f"{path}.{key}: missing"
    unexpected = f"{path}.x: unexpected key"
    assert error(lambda obj: obj.update(x=1)) == unexpected
    assert error(lambda obj: (obj.pop(required[0]), obj.update(x=1))) == unexpected


#: Each integer or rational vector of the contract: its path, and how to reach it.
CONTRACT_VECTORS = [
    ("$.picard.gram[1]", lambda doc: doc["picard"]["gram"][1]),
    ("$.mukai_vector.c1", lambda doc: doc["mukai_vector"]["c1"]),
    ("$.strata[0].u.c1", lambda doc: doc["strata"][0]["u"]["c1"]),
    ("$.alpha.c1", lambda doc: doc["alpha"]["c1"]),
]
_NOT_AN_INTEGER = [(True, "bool"), (1.0, "float"), ("1", "str"), ("1/2", "str")]
_NOT_A_RATIONAL = [(False, "expected a rational, got a boolean"),
                   (2.5, "expected an integer or 'p/q' string, got float")]


@pytest.mark.parametrize("path, reach", CONTRACT_VECTORS, ids=[p for p, _ in CONTRACT_VECTORS])
@pytest.mark.parametrize("k", [0, 1])
def test_schema_errors_name_the_entry_of_a_vector(path, reach, k):
    # Rows and vectors of ints skip the entry by entry walk, which runs only to name the
    # entry at fault: the messages stay those of that walk.
    def error(value):
        doc = a1_doc(alpha=1)
        reach(doc)[k] = value
        with pytest.raises(SchemaError) as exc:
            pipeline.parse_instance(doc)
        return str(exc.value)

    if path == "$.picard.gram[1]":
        for value, kind in _NOT_AN_INTEGER:
            assert error(value) == f"{path}[{k}]: expected an integer, got {kind}"
    else:
        for value, message in _NOT_A_RATIONAL:
            assert error(value) == f"{path}[{k}]: {message}"


def test_alpha_constraint_violation_is_domain_error():
    doc = a1_doc()
    doc["alpha"] = {"c1": [1, 0]}  # (c1, H) != 0
    parsed = pipeline.parse_instance(doc)
    with pytest.raises(InvalidTwist):
        parsed.twist()


def test_report_wall_only():
    report = pipeline.pipeline_classify(pipeline.parse_instance(ELLIPTIC_DOC))
    assert report["validation"] is None
    assert report["finite"] is None
    assert report["walls"]["count"] == 2
    assert report["walls"]["origin_count"] == 0
    assert report["chamber"] is None


def test_report_full():
    report = pipeline.pipeline_classify(pipeline.parse_instance(a1_doc(alpha=1)))
    assert report["validation"] == {"ok": True, "violations": []}
    assert report["affine"]["type"] == "A~1"
    assert report["finite"]["type"] == "A1"
    assert report["marks"] == [1, 1]
    assert report["dual_graph"]["labels"] == ["C1"]
    assert report["psi_plus_count"] == 1
    assert report["chamber"]["generic"] is True
    assert report["chamber"]["weyl_word"] == []
    assert report["chamber"]["slope_condition"] is True
    assert "assumed" in report["caveat"]


def test_report_deterministic():
    blobs = set()
    for _ in range(5):
        report = pipeline.pipeline_classify(pipeline.parse_instance(a1_doc(alpha=1)))
        blobs.add(pipeline.dumps_report(report))
    assert len(blobs) == 1


_TEXT = (hst.text(max_size=6)
         | hst.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", "\u2028", "\U0001f600"])
         | hst.builds("{}/{}".format, hst.integers(), hst.integers(1)))
_SCALARS = (hst.none() | hst.booleans() | _TEXT | hst.integers(-9, 9)
            | hst.integers(-2 ** 200, 2 ** 200) | hst.integers(2 ** 64, 2 ** 80))
_JSON_VALUES = hst.recursive(
    _SCALARS,
    lambda inner: (hst.lists(inner, max_size=4) | hst.lists(inner, max_size=3).map(tuple)
                   | hst.dictionaries(_TEXT, inner, max_size=4)
                   | hst.lists(hst.integers(), max_size=5)
                   | hst.lists(hst.integers(-2, 2) | hst.booleans(), max_size=5)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_report_writer_against_stdlib(value):
    assert pipeline.dumps_report(value) == oracles.dumps_report_stdlib(value)


def _row_of(keys, kinds):
    """Dicts with the keys ``keys`` in this order, the value at each key drawn from its kind."""
    return hst.tuples(*kinds).map(lambda values: dict(zip(keys, values)))


# A kind is the strategy of one column: every row draws the value at one key from it.  The
# uniform kinds reach the writer's column paths, the mixed ones its value by value path.
_INT_ROWS = hst.integers(1, 4).map(
    lambda n: hst.lists(hst.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n))
_COLUMN_KINDS = hst.recursive(
    hst.sampled_from([hst.integers(-9, 9), hst.integers(2 ** 64, 2 ** 80), hst.booleans(),
                      hst.none(), _TEXT, hst.just([]), hst.lists(hst.integers(-9, 9), max_size=3),
                      hst.lists(hst.integers(-2, 2) | hst.booleans(), min_size=1, max_size=3),
                      hst.lists(hst.integers(), max_size=3).map(tuple), _SCALARS])
    | _INT_ROWS,
    lambda inner: hst.lists(hst.tuples(_TEXT, inner), max_size=4, unique_by=lambda kv: kv[0])
    .map(lambda pairs: _row_of([k for k, _ in pairs], [kind for _, kind in pairs])),
    max_leaves=8)
_ROWS = hst.lists(hst.tuples(_TEXT, _COLUMN_KINDS), min_size=1, max_size=5,
                  unique_by=lambda kv: kv[0]).flatmap(
    lambda pairs: hst.lists(_row_of([k for k, _ in pairs], [kind for _, kind in pairs]),
                            min_size=2, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_ROWS, hst.integers(0, 2))
def test_report_writer_on_rows_against_stdlib(rows, depth):
    """Rows of dicts sharing one key order, as a report's wall list is, at any depth."""
    value = rows
    for _ in range(depth):
        value = {"walls": value, "count": len(rows)}
    assert pipeline.dumps_report(value) == oracles.dumps_report_stdlib(value)


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), collections.OrderedDict(r=1),
                                 type("Text", (str,), {})("x"), {1: 2}, [1, 2.0], (1, 2.0)],
                         ids=["float", "fraction", "dict-subclass", "str-subclass", "int-key",
                              "float-in-int-row", "float-in-tuple"])
@pytest.mark.parametrize("where", ["u.r", "u.c1", "pairing_with_v"])
def test_report_writer_rejects_one_bad_row_of_a_column(bad, where):
    rows = [{"u": {"r": k, "c1": [k, -k], "s": 0}, "pairing_with_v": 0} for k in range(4)]
    row = rows[2]["u"] if where.startswith("u.") else rows[2]
    row[where.removeprefix("u.")] = bad
    with pytest.raises(TypeError):
        pipeline.dumps_report({"walls": {"vectors": rows}})


@pytest.mark.parametrize("make_bad", [
    lambda row: collections.OrderedDict(row),
    lambda row: {**row, "u": collections.OrderedDict(row["u"])},
    lambda row: {**row, 1: 0},
    lambda row: {**row, "u": {0: 0, "c1": [0, 0], "s": 0}},
], ids=["row-subclass", "u-subclass", "row-int-key", "u-int-key"])
def test_report_writer_rejects_one_bad_dict_in_a_column(make_bad):
    rows = [{"u": {"r": k, "c1": [k, -k], "s": 0}, "pairing_with_v": 0} for k in range(4)]
    rows[2] = make_bad(rows[2])
    with pytest.raises(TypeError):
        pipeline.dumps_report(rows)


def test_wall_json_is_mukai_to_json_of_the_wall():
    for family, n in families.SWEEP_TYPES:
        parsed = pipeline.parse_instance(pipeline.instance_document(
            families.generate_example(families.ExampleSpec(family, n, 3, 3))))
        wall_list = walls.enumerate_walls(parsed.lattice, parsed.polarization, parsed.v)
        rows = [pipeline._wall_json(w) for w in wall_list]
        assert rows == [{"u": pipeline.mukai_to_json(w.u), "pairing_with_v": w.pairing_with_v}
                        for w in wall_list], (family, n)
        assert pipeline.dumps_report(rows) == oracles.dumps_report_stdlib(rows)


def test_report_writer_on_sweep_reports():
    for family, n in families.SWEEP_TYPES:
        doc = pipeline.instance_document(
            families.generate_example(families.ExampleSpec(family, n, 2, 2)), alpha_scale=1)
        parsed = pipeline.parse_instance(doc)
        bare = pipeline.ParsedInstance(parsed.lattice, parsed.polarization, parsed.v, None, None)
        for report in (pipeline.pipeline_classify(parsed), pipeline.pipeline_classify(bare)):
            assert pipeline.dumps_report(report) == oracles.dumps_report_stdlib(report)
    for index in (0, 1):  # the reflect payload, as the CLI writes it
        out = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(json.dumps(ELLIPTIC_DOC))), \
                contextlib.redirect_stdout(out):
            assert cli.main(["reflect", "-", "--u-index", str(index)]) == 0
        assert out.getvalue() == oracles.dumps_report_stdlib(json.loads(out.getvalue()))


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, {1: 2}, [1, 2.0],
                                   {"a": [True, {"b": float("nan")}]},
                                   [type("Text", (str,), {})("x")],
                                   collections.OrderedDict(a=1)],
                         ids=["float", "fraction", "set", "int-key", "nested-float",
                              "deep-nan", "str-subclass", "dict-subclass"])
def test_report_writer_rejects_non_json_values(value):
    with pytest.raises(TypeError):
        pipeline.dumps_report(value)


def test_one_classification_pass_per_report(monkeypatch):
    # The report classifies its stratum once; Psi-sets and chamber location
    # read the diagrams it holds.  A second pass creeping back in fails here
    # before it shows up as time.  The caches start cold, so node deletion,
    # memoized per diagram and node, reaches classify_finite.
    inst = families.generate_example(families.ExampleSpec("A", 3, 1, 1))
    doc = pipeline.instance_document(inst, alpha_scale=1)
    clear_library_caches()
    calls = {}

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def refuse(self):
        raise AssertionError("the report built the Psi-sets only to count them")

    count(roots, "classify_affine")
    count(roots, "classify_finite")
    count(st, "cartan_matrix_of")
    monkeypatch.setattr(st.SingularityReport, "psi_sets", refuse)
    report = pipeline.pipeline_classify(pipeline.parse_instance(doc))
    assert report["finite"]["type"] == "A3"
    assert report["psi_plus_count"] == 6
    assert report["chamber"]["weyl_word"] == []
    assert calls == {"classify_affine": 1, "classify_finite": 1, "cartan_matrix_of": 1}


def _degrees(diagram):
    """The degrees of the basic invariants, whose product is the Weyl group order."""
    n = diagram.rank
    if diagram.family == "A":
        return list(range(2, n + 2))
    if diagram.family == "D":
        return list(range(2, 2 * n - 1, 2)) + [n]
    return list(roots._E_DEGREES[n])


def test_psi_count_on_every_sweep_type():
    # The count-only path against the Psi-sets it no longer builds, and both
    # against |Phi_+| = sum (d_i - 1) over the degrees of the Weyl group.
    for family, n in families.SWEEP_TYPES:
        inst = families.generate_example(families.ExampleSpec(family, n, 1, 1))
        parsed = pipeline.parse_instance(pipeline.instance_document(inst))
        report = pipeline.pipeline_classify(parsed)
        result = st.classify_singularity(parsed.stratum_data())
        degrees = _degrees(result.finite)
        assert math.prod(degrees) == roots.weyl_group_order(result.finite)
        assert report["psi_plus_count"] == len(result.psi_sets()[0]) == sum(
            d - 1 for d in degrees), (family, n)


def test_psi_count_formula_matches_root_tree():
    # The report counts |Phi_+| as n h / 2, h the sum of the affine marks (the
    # Coxeter number), instead of building the root tree; the two agree on every
    # sweep type (A~1 included) and on the larger types D~19..29 and A~19..39.
    types = (families.SWEEP_TYPES + [("D", n) for n in range(19, 30)]
             + [("A", n) for n in range(19, 40)])
    for family, n in types:
        affine = roots.classify_affine(roots.standard_affine_matrix(family, n))
        finite = roots.delete_node(affine, 0)
        assert finite.rank * sum(affine.marks) // 2 == len(roots.root_tree(finite)), (family, n)


def test_weyl_word_through_the_pipeline():
    # Shuffled strata, deleted node 2 and a twist whose retained pairings have
    # mixed signs: the chamber data of the report must be the reduction of
    # those pairings in the finite diagram of the retained Gram matrix, both
    # written out here from the document's own numbers.
    inst = families.generate_example(families.ExampleSpec("A", 3, 1, 1))
    gram = inst.lattice.gram
    strata = tuple(inst.stratum().strata[k] for k in (2, 0, 3, 1))
    deleted = 2
    pairings = [3, -2, 5]
    target = [-sum(m * t for m, t in zip(inst.marks[1:], pairings))] + pairings
    d = linalg.solve_rational([list(r) for r in gram], target)
    doc = pipeline.serialize_instance(pipeline.ParsedInstance(
        inst.lattice, inst.polarization, inst.v, strata, tuple(d)))
    report = pipeline.pipeline_classify(pipeline.parse_instance(doc), deleted_node=deleted)

    v = (inst.v.r, inst.v.c1, inst.v.s)
    alpha = (0, tuple(d), Fraction(oracles.mukai_pairing(gram, (0, d, 0), (0, v[1], 0))) / v[0])
    retained = [(u.r, u.c1, u.s) for k, (u, _) in enumerate(strata) if k != deleted]
    values = [oracles.mukai_pairing(gram, u, alpha) for u in retained]
    assert min(values) < 0 < max(values)
    cartan = roots.CartanMatrix([[-oracles.mukai_pairing(gram, x, y) for y in retained]
                                 for x in retained])
    word, reduced, on_wall = roots.reduce_to_fundamental(roots.classify_finite(cartan), values)
    assert word
    chamber = report["chamber"]
    assert chamber["weyl_word"] == list(word)
    assert chamber["reduced_values"] == [pipeline.rational_to_json(t) for t in reduced]
    assert chamber["on_chamber_wall"] is on_wall


def test_dot_output(a2_instance):
    rep = st.classify_singularity(a2_instance.stratum())
    dot = pipeline.dot_graph(rep.dual_graph)
    assert dot.startswith("graph dual_graph {")
    assert '"C1" -- "C2" [label="1"];' in dot
    assert dot.endswith("}\n")


def cli_env(env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, stdin_text=None, env_extra=None):
    return subprocess.run([sys.executable, "-m", "k3walls.cli", *args],
                          input=stdin_text, capture_output=True, text=True,
                          env=cli_env(env_extra))


def test_cli_example_classify_pipe(tmp_path):
    out = run_cli(["example", "--family", "A", "--n", "2", "--r", "1", "--a", "1",
                   "--alpha", "1"])
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["picard"]["gram"] == [[0, 3, 3], [3, 0, 3], [3, 3, 0]]
    res = run_cli(["classify", "-"], stdin_text=out.stdout)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["finite"]["type"] == "A2"
    assert report["chamber"]["generic"] is True

    path = tmp_path / "inst.json"
    path.write_text(out.stdout)
    res_text = run_cli(["classify", str(path), "--format", "text"])
    assert res_text.returncode == 0
    assert "singularity type: A2" in res_text.stdout


def test_cli_walls_and_reflect(tmp_path):
    path = tmp_path / "elliptic.json"
    path.write_text(json.dumps(ELLIPTIC_DOC))
    res = run_cli(["walls", str(path)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["walls"]["count"] == 2
    res = run_cli(["reflect", str(path), "--u-index", "0"])
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["reflected"]["r"] == 1
    assert "unchanged" in payload["note"]


def test_cli_reflect_origin_wall_is_domain_error(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(a1_doc()))
    res = run_cli(["reflect", str(path), "--u-index", "0"])
    assert res.returncode == 3
    assert "UOnUPrime" in res.stderr


def test_cli_schema_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"picard"')
    res = run_cli(["walls", str(path)])
    assert res.returncode == 2
    assert "schema error" in res.stderr
    path.write_text(json.dumps({"picard": {"basis": ["a"], "gram": [[1]]},
                                "polarization": [1],
                                "mukai_vector": {"r": 1, "c1": [0], "s": 0}}))
    res = run_cli(["walls", str(path)])
    assert res.returncode == 2
    res = run_cli(["example", "--family", "E", "--n", "9", "--r", "1", "--a", "1"])
    assert res.returncode == 2
    assert res.stderr.startswith("schema error: arguments: ") and "Traceback" not in res.stderr


def _main_in_process(text, command):
    """``cli.main`` on ``text`` as stdin: (exit code, stderr)."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([command, "-"])
    return code, err.getvalue()


def test_cli_rational_strings_outside_the_schema():
    # Only a JSON integer or a "p/q" string is a rational; Fraction() would also
    # take these, and the exponent builds an integer of 332 million bits.
    for text in ("1e100000000", "1.5", "1_000", "0x10", " 1 / 2"):
        doc = dict(ELLIPTIC_DOC, mukai_vector={"r": 2, "c1": [1, 3], "s": text})
        code, err = _main_in_process(json.dumps(doc), "classify")
        assert code == 2, (text, err)
        assert "mukai_vector.s" in err and "malformed rational" in err
    doc = dict(ELLIPTIC_DOC, mukai_vector={"r": 2, "c1": [1, 3], "s": " +1/1 "})
    assert _main_in_process(json.dumps(doc), "walls")[0] == 0


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter has no integer digit limit")
def test_cli_integer_literal_past_the_digit_limit():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    text = json.dumps(ELLIPTIC_DOC).replace('"s": 1', '"s": ' + digits)
    assert digits in text
    code, err = _main_in_process(text, "classify")
    assert code == 2, err
    assert "invalid JSON" in err


def test_cli_nesting_past_the_recursion_limit():
    code, err = _main_in_process("[" * (sys.getrecursionlimit() + 100), "walls")
    assert code == 2, err
    assert "invalid JSON" in err


def test_cli_dual_graph(tmp_path):
    inst = tmp_path / "a2.json"
    doc = run_cli(["example", "--family", "A", "--n", "2", "--r", "1", "--a", "1"])
    inst.write_text(doc.stdout)
    out_path = tmp_path / "graph.dot"
    res = run_cli(["dual-graph", str(inst), "--dot", str(out_path)])
    assert res.returncode == 0
    text = out_path.read_text()
    assert '"C1" -- "C2" [label="1"];' in text
    res = run_cli(["dual-graph", str(inst)])
    assert res.returncode == 0 and "graph dual_graph" in res.stdout


def test_cli_input_not_utf8_is_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    res = run_cli(["walls", str(path)])
    assert res.returncode == 2, res.stderr
    assert "cannot read input" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("target", ["missing-dir/x.dot", "."], ids=["missing-dir", "directory"])
def test_cli_dual_graph_unwritable_dot_is_schema_error(tmp_path, target):
    inst = tmp_path / "a2.json"
    inst.write_text(json.dumps(pipeline.instance_document(
        families.generate_example(families.ExampleSpec("A", 2, 1, 1)))))
    res = run_cli(["dual-graph", str(inst), "--dot", str(tmp_path / target)])
    assert res.returncode == 2, res.stderr
    assert "--dot" in res.stderr and "Traceback" not in res.stderr


def test_cli_chamber_with_alpha_file(tmp_path):
    inst = tmp_path / "a1.json"
    inst.write_text(json.dumps(a1_doc()))
    alpha_path = tmp_path / "alpha.json"
    doc = a1_doc(alpha=1)
    alpha_path.write_text(json.dumps(doc["alpha"]))
    res = run_cli(["chamber", str(inst), "--alpha-file", str(alpha_path)])
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["chamber"] is not None
    missing = run_cli(["chamber", str(inst)])
    assert missing.returncode == 2


def test_cli_deterministic_across_hash_seeds(tmp_path):
    inst = tmp_path / "a2.json"
    doc = run_cli(["example", "--family", "A", "--n", "2", "--r", "1", "--a", "1",
                   "--alpha", "1"])
    inst.write_text(doc.stdout)
    outputs = set()
    for seed in ("0", "1", "31337"):
        res = run_cli(["classify", str(inst)], env_extra={"PYTHONHASHSEED": seed})
        assert res.returncode == 0
        outputs.add(res.stdout)
    assert len(outputs) == 1


def test_cli_invalid_mukai_vector_is_domain_error(tmp_path):
    bad = {"non-primitive": {"r": 4, "c1": [2, 6], "s": 2},
           "rank-zero": {"r": 0, "c1": [0, 1], "s": 1},
           "non-integral": {"r": 2, "c1": [1, 3], "s": "1/2"}}
    for name, vector in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(ELLIPTIC_DOC, mukai_vector=vector)))
        for command in ("walls", "classify"):
            res = run_cli([command, str(path)])
            assert res.returncode == 3, (name, command, res.stderr)
            assert "InvalidMukaiVector" in res.stderr and "Traceback" not in res.stderr
    # dual-graph validates the stratum without a wall search: a rank <= 0 v is
    # one stratum violation, not a failure inside H^ = delta(H).
    a2 = pipeline.instance_document(families.generate_example(families.ExampleSpec("A", 2, 1, 1)))
    for k, r in enumerate((0, "0/5", -3)):
        path = tmp_path / f"a2-rank{k}.json"
        path.write_text(json.dumps(dict(a2, mukai_vector=dict(a2["mukai_vector"], r=r))))
        res = run_cli(["dual-graph", str(path)])
        assert res.returncode == 3, (r, res.stderr)
        assert "expected > 0" in res.stderr and "Traceback" not in res.stderr


def test_cli_wrong_signature_is_domain_error(tmp_path):
    for k, (gram, h, c1) in enumerate(WRONG_SIGNATURE_CASES):
        for r in (1, 2):
            path = tmp_path / f"case{k}-r{r}.json"
            path.write_text(json.dumps({
                "picard": {"basis": [f"e{i}" for i in range(len(gram))], "gram": gram},
                "polarization": list(h),
                "mukai_vector": {"r": r, "c1": list(c1), "s": 0}}))
            for command in ("walls", "classify"):
                res = run_cli([command, str(path)])
                assert res.returncode == 3, (k, r, command, res.stderr)
                assert "WrongSignature" in res.stderr and "Traceback" not in res.stderr


def test_cli_delete_node_out_of_range(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(run_cli(["example", "--family", "A", "--n", "2", "--r", "1",
                             "--a", "1", "--alpha", "1"]).stdout)
    for command in ("classify", "chamber", "dual-graph"):
        for node in ("7", "-1"):
            res = run_cli([command, str(path), "--delete-node", node])
            assert res.returncode == 3, (command, node, res.stderr)
            assert "NodeOutOfRange" in res.stderr and "Traceback" not in res.stderr


def test_cli_example_over_rank_cap_is_domain_error():
    res = run_cli(["example", "--family", "A", "--n", str(families.EXAMPLE_N_CAP + 1),
                   "--r", "1", "--a", "1"])
    assert res.returncode == 3, res.stderr
    assert "CapExceeded" in res.stderr and "Traceback" not in res.stderr


def test_cli_example_alpha_uses_rational_grammar():
    # The scale follows the documents' rational grammar: no decimals, no digit
    # separators, and no exponent that would build a huge integer first.
    base = ["example", "--family", "A", "--n", "2", "--r", "1", "--a", "1", "--alpha"]
    for scale in ("1.5", "1_0", "1e10000000"):
        res = run_cli(base + [scale])
        assert res.returncode == 2, (scale, res.stderr)
        assert "--alpha" in res.stderr and "Traceback" not in res.stderr
    res = run_cli(base + ["1/2"])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["alpha"]


def test_cli_over_wall_rank_cap_is_domain_error(tmp_path):
    # primitive isotropic: (1, r + 1)^2 = 2r = 2 * r * s on the elliptic lattice
    r = walls.WALL_RANK_CAP + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(ELLIPTIC_DOC,
                                    mukai_vector={"r": r, "c1": [1, r + 1], "s": 1})))
    for command in ("walls", "classify"):
        res = run_cli([command, str(path)])
        assert res.returncode == 3, (command, res.stderr)
        assert "CapExceeded" in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("family, n, r, a, alpha", [("A", 64, 1, 1, "1"), ("E", 8, 2, 3, None)],
                         ids=["A64-alpha", "E8"])
def test_cli_example_json_is_the_stdlib_indent_bytes(family, n, r, a, alpha):
    # One writer for every JSON output: example's bytes are the ones
    # json.dumps(doc, indent=2) gave before it went through dumps_report.
    argv = ["example", "--family", family, "--n", str(n), "--r", str(r), "--a", str(a)]
    if alpha is not None:
        argv += ["--alpha", alpha]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    inst = families.generate_example(families.ExampleSpec(family, n, r, a))
    doc = pipeline.instance_document(inst, alpha_scale=None if alpha is None else int(alpha))
    assert out.getvalue() == json.dumps(doc, indent=2) + "\n"


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


def _full_device():
    return os.open("/dev/full", os.O_WRONLY)


UNWRITABLE_STDOUT = [pytest.param(_closed_pipe, id="closed-pipe"),
                     pytest.param(_full_device, id="full-device",
                                  marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                           reason="no /dev/full"))]


@pytest.mark.parametrize("open_stdout", UNWRITABLE_STDOUT)
@pytest.mark.parametrize("command", ["walls", "classify", "chamber", "reflect", "dual-graph",
                                     "example", "example-text"])
def test_cli_unwritable_stdout_is_schema_error(tmp_path, command, open_stdout):
    a1 = tmp_path / "a1.json"
    a1.write_text(json.dumps(a1_doc(alpha=1)))
    elliptic = tmp_path / "elliptic.json"
    elliptic.write_text(json.dumps(ELLIPTIC_DOC))
    example = ["example", "--family", "A", "--n", "1", "--r", "1", "--a", "1"]
    argv = {"walls": ["walls", str(a1)], "classify": ["classify", str(a1)],
            "chamber": ["chamber", str(a1)], "reflect": ["reflect", str(elliptic), "--u-index", "0"],
            "dual-graph": ["dual-graph", str(a1)], "example": example,
            "example-text": example + ["--format", "text"]}[command]
    stdout = open_stdout()
    try:
        res = subprocess.run([sys.executable, "-m", "k3walls.cli", *argv], stdout=stdout,
                             stderr=subprocess.PIPE, text=True, env=cli_env())
    finally:
        os.close(stdout)
    assert res.returncode == 2, res.stderr
    assert res.stderr.count("\n") == 1 and "cannot write" in res.stderr, res.stderr
    assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr
