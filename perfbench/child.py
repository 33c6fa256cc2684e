"""One traced ``k3walls`` CLI process, for the traced cli-small run.

    python3 perfbench/child.py OUT.json [k3walls cli arguments ...]

Times ``import k3walls.cli``, wraps the library functions with the tracer,
runs ``k3walls.cli.main`` on the arguments and writes the import time, the
per-function summary and the spans to ``OUT.json``.  The exit code and the
standard streams are those of the CLI.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def main(out, argv):
    start = time.perf_counter()
    from k3walls import cli
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "summary": tracer.summary(),
                       "spans": tracer.spans()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
