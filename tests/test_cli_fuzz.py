"""Exit-code contract of the CLI under mutated input documents and failed writes.

Valid A~2 and D~4 documents (with strata and alpha) are mutated by
hypothesis: values replaced by wrong types, floats, bools, ``"1/0"`` and
other junk, keys and list entries dropped, strata duplicated.  Whatever the
document, ``cli.main`` run in-process must return 0, 2 or 3 and let no
exception escape.  The same holds when argparse's help cannot reach stdout
or an error line cannot reach stderr.  A bad argument is one short schema
error line, without argparse's usage block.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from k3walls import cli, families, pipeline
from test_pipeline import UNWRITABLE_STDOUT, cli_env

SEED_DOCS = {
    name: pipeline.instance_document(
        families.generate_example(families.ExampleSpec(family, n, 1, 1)), alpha_scale=1)
    for name, family, n in (("A~2", "A", 2), ("D~4", "D", 4))
}

JUNK = (None, True, False, 0, -1, 2, 10 ** 6, 1.5, -0.0, "1/0", "3/2", "x", "",
        [], {}, [1], {"r": 1})

#: Stands in a command for the path of a file holding the A~2 document's alpha.
ALPHA_FILE = "<alpha file>"

COMMANDS = (("walls",), ("classify",), ("classify", "--format", "text"), ("chamber",),
            ("chamber", "--alpha-file", ALPHA_FILE), ("dual-graph",), ("reflect", "--u-index", "0"))


@pytest.fixture(scope="module")
def alpha_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("alpha") / "alpha.json"
    path.write_text(json.dumps(SEED_DOCS["A~2"]["alpha"]), encoding="utf-8")
    return str(path)


def _slots(node, out):
    """Every ``(container, key)`` pair of a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


def _mutate(doc, data):
    kind = data.draw(hst.sampled_from(("replace", "replace", "drop", "duplicate", "whole")))
    if kind == "whole":
        return copy.deepcopy(data.draw(hst.sampled_from(JUNK)))
    strata = doc.get("strata") if isinstance(doc, dict) else None
    if kind == "duplicate" and isinstance(strata, list) and strata:
        strata.append(copy.deepcopy(data.draw(hst.sampled_from(strata))))
        return doc
    slots = _slots(doc, [])
    if not slots:
        return doc
    container, key = data.draw(hst.sampled_from(slots))
    if kind == "drop":
        del container[key]
    else:
        container[key] = copy.deepcopy(data.draw(hst.sampled_from(JUNK)))
    return doc


@settings(max_examples=150, deadline=None)
@given(hst.sampled_from(sorted(SEED_DOCS)), hst.sampled_from(COMMANDS),
       hst.integers(1, 3), hst.data())
def test_cli_exit_contract_on_mutated_documents(alpha_file, seed, command, mutations, data):
    doc = copy.deepcopy(SEED_DOCS[seed])
    for _ in range(mutations):
        doc = _mutate(doc, data)
    argv = [command[0], "-", *(alpha_file if a == ALPHA_FILE else a for a in command[1:])]
    code, _, err = _main(argv, json.dumps(doc))
    assert code in (0, 2, 3), (code, err)


def _main(argv, stdin=""):
    """``cli.main(argv)`` in-process on ``stdin``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("doc", [[1, 2], [[1, 2]], "x", [], [1]], ids=json.dumps)
def test_chamber_with_alpha_file_on_a_non_object_is_schema_error(alpha_file, doc):
    # dict(doc) once raised TypeError or ValueError here, or made keys of pairs.
    code, out, err = _main(["chamber", "-", "--alpha-file", alpha_file], json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == f"schema error: $: expected an object, got {type(doc).__name__}\n"


@pytest.mark.parametrize("alpha, message", [
    ({**SEED_DOCS["A~2"]["alpha"], "bogus": 1}, "$.bogus: unexpected key"),
    ({"bogus": 1}, "$.c1: alpha file must be an object with a c1 list"),
    ([1, 2], "$.c1: alpha file must be an object with a c1 list"),
], ids=["extra-key", "no-c1", "list"])
def test_chamber_alpha_file_keeps_the_alpha_contract(tmp_path, alpha, message):
    # The alpha file is the document's alpha object: a key beside c1 is a schema error there
    # as it is in the document, where it exited 0 once.
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alpha), encoding="utf-8")
    code, out, err = _main(["chamber", "-", "--alpha-file", str(path)],
                           json.dumps(SEED_DOCS["A~2"]))
    assert (code, out) == (2, "")
    assert err == f"schema error: {message}\n"


NINES = "9" * 5000  # past the interpreter's int-to-str digit limit


@pytest.mark.parametrize("argv", [
    ["example", "--family", "A", "--n", "1", "--r", NINES, "--a", "1"],
    ["example", "--family", "A", "--n", "x", "--r", "1", "--a", "1"],
    ["example", "--family", "A", "--n", "1", "--r", "1", "--a", "1.5"],
    ["example", "--family", "B" * 5000, "--n", "1", "--r", "1", "--a", "1"],
    ["example", "--family", "A"],
    ["classify", "-", "--delete-node", "x"],
    ["chamber", "-", "--delete-node", NINES],
    ["dual-graph", "-", "--delete-node", ""],
    ["reflect", "-", "--u-index", "1.5"],
    ["reflect", "-"],
    ["walls", "-", "--format", "xml\nyaml"],
    ["walls", "-", "--bogus", NINES, "a\nb"],
    [NINES],
    [],
], ids=lambda argv: " ".join(a[:12] for a in argv) or "no-arguments")
def test_cli_argument_error_is_one_schema_error_line(argv):
    code, out, err = _main(argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("schema error: arguments: ") and err.count("\n") == 1, err
    assert len(err) < 200 and "usage:" not in err and NINES[:200] not in err, err


def test_cli_argument_error_as_a_process():
    res = subprocess.run([sys.executable, "-m", "k3walls.cli", "example", "--family", "A",
                          "--n", "1", "--r", NINES, "--a", "1"],
                         capture_output=True, text=True, env=cli_env())
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "schema error: arguments: argument --r: expected an integer\n"


def _run_cli(argv, stream, fd):
    """Run the CLI as a process with ``stream`` ("stdout" or "stderr") on ``fd``, which
    it closes, and the other stream piped."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: fd}
    try:
        return subprocess.run([sys.executable, "-m", "k3walls.cli", *argv], text=True,
                              env=cli_env(), **streams)
    finally:
        os.close(fd)


@pytest.mark.parametrize("open_stdout", UNWRITABLE_STDOUT)
@pytest.mark.parametrize("argv", [["--help"], ["walls", "--help"]], ids=" ".join)
def test_cli_help_to_unwritable_stdout_is_schema_error(argv, open_stdout):
    res = _run_cli(argv, "stdout", open_stdout())
    assert res.returncode == 2, res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith(
        "schema error: stdout: cannot write"), res.stderr


@pytest.mark.parametrize("open_stderr", UNWRITABLE_STDOUT)
@pytest.mark.parametrize("argv, code", [
    (["walls", "missing.json"], 2),
    (["example", "--family", "A", "--n", "65", "--r", "1", "--a", "1"], 3),
], ids=("schema", "domain"))
def test_cli_error_line_to_unwritable_stderr_keeps_exit_code(tmp_path, argv, code, open_stderr):
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    res = _run_cli(argv, "stderr", open_stderr())
    assert (res.returncode, res.stdout) == (code, "")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_example_with_huge_r_a_is_cap_exceeded(fmt):
    # r * a of 6,000 digits once built the instance and then failed to print
    # it past the interpreter's int-to-str digit limit, with a traceback.
    nines = "9" * 3000
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["example", "--family", "A", "--n", "1", "--r", nines, "--a", nines,
                         "--format", fmt])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith("domain error: CapExceeded: r * a has more than")
