"""The CLI's output, byte for byte, on a recorded corpus of argument vectors.

``tests/data/cli_corpus.json`` lists argvs, each with the exit code, stdout
and stderr that ``heunic.cli.run`` gave for it.  A change that means to
alter some outputs re-records them with

    PYTHONPATH=src python tests/test_cli_corpus.py

and the diff of the JSON then shows exactly which argvs changed.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from heunic.cli import run

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"


def record(argv):
    """{argv, code, stdout, stderr} of one in-process run; argparse writes
    help and usage errors to sys.stdout and sys.stderr, so both are captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv), out, err).code
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


ENTRIES = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_is_as_recorded(entry):
    assert record(entry["argv"]) == entry


if __name__ == "__main__":
    entries = [record(e["argv"]) for e in ENTRIES]
    # one argv a line, so that a diff of the file lists the argvs that changed
    lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
