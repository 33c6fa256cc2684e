"""Record the SHA-256 digest of every operation's output in the population.

Run from the repository root:

    python3 perfbench/make_digests.py

It rewrites ``perfbench/digests.json`` from the library in ``src/``, after
checking that the benchmark's own input documents equal
``pipeline.instance_document`` byte for byte.  The table pins the reports of
the commit it was made at; regenerate it only when a change deliberately
alters report bytes.  Takes a few minutes (every document is classified).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from k3walls import cli, families, pipeline, strata  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.population import (POPULATION, make_document, picard_rank,  # noqa: E402
                                  spec_key)
from perfbench.workloads import CLI_COMMANDS  # noqa: E402

TABLES = ("example", "classify", "dot", "psi", "classify-text", "walls")
CLI_ONLY = ("classify-text", "walls")


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.getvalue()


def main():
    tables = {name: {} for name in TABLES}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        for spec in POPULATION:
            family, n, r, a = spec
            key = spec_key(spec)
            instance = families.generate_example(families.ExampleSpec(family, n, r, a))
            doc = pipeline.instance_document(instance, alpha_scale=1)
            own = make_document(instance.affine_matrix.entries, instance.marks, r, a)
            if json.dumps(own) != json.dumps(doc):
                raise RuntimeError(f"{key}: benchmark document differs from the library's")
            bare = pipeline.instance_document(instance)
            tables["example"][key] = json.dumps(bare, indent=2) + "\n"
            report = pipeline.dumps_report(pipeline.pipeline_classify(pipeline.parse_instance(doc)))
            tables["classify"][key] = report
            data = pipeline.parse_instance(bare).stratum_data()
            result = strata.classify_singularity(data)
            tables["dot"][key] = pipeline.dot_graph(result.dual_graph)
            tables["psi"][key] = checks.psi_text(*strata.psi_sets(data))
            if picard_rank(spec) <= 9:
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
                for kind in ("classify-json", "classify-text", "walls", "dual-graph"):
                    head, table = CLI_COMMANDS[kind]
                    text = cli_stdout(head + [path])
                    if table in CLI_ONLY:
                        tables[table][key] = text
                    elif text != tables[table][key]:
                        raise RuntimeError(f"{key}: CLI {kind} differs from the in-process output")
            print(key, flush=True)
    out = {name: {key: checks.digest(text) for key, text in table.items()}
           for name, table in tables.items()}
    with open(ROOT / "perfbench" / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
