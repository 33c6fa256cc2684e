"""Exit-code contract of the CLI under mutated input documents and failed writes.

Valid A~2 and D~4 documents (with strata and alpha) are mutated by
hypothesis: values replaced by wrong types, floats, bools, ``"1/0"`` and
other junk, keys and list entries dropped, strata duplicated.  Whatever the
document, ``cli.main`` run in-process must return 0, 2 or 3 and let no
exception escape.  The same holds when argparse's help cannot reach stdout
or an error line cannot reach stderr.
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

COMMANDS = (("walls",), ("classify",), ("classify", "--format", "text"), ("chamber",),
            ("dual-graph",), ("reflect", "--u-index", "0"))


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
def test_cli_exit_contract_on_mutated_documents(seed, command, mutations, data):
    doc = copy.deepcopy(SEED_DOCS[seed])
    for _ in range(mutations):
        doc = _mutate(doc, data)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command[0], "-", *command[1:]])
    assert code in (0, 2, 3), (code, err.getvalue())


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
