"""Start-up: what ``import heunic`` and ``import heunic.cli`` load.

A name that a module imports lazily is missing only in a process that has
not loaded it some other way, so every check here runs in a fresh
interpreter.  ``-S`` keeps ``site`` from loading modules of its own first.
"""

import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heunic
from heunic.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def fresh(script: str):
    """The JSON that ``script`` prints last, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "heunic.cli", *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    report = run(argv, out=out, err=err)
    return report.code, out.getvalue(), err.getvalue()


def test_import_heunic_loads_no_submodule():
    loaded = fresh("import json, sys\n"
                   "before = set(sys.modules)\n"
                   "import heunic\n"
                   "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    assert "heunic" in loaded
    assert [m for m in loaded if m.startswith("heunic.")] == []


def test_import_cli_loads_only_what_every_command_needs():
    deferred = ["heunic.identities", "heunic.relations", "json", "csv", "decimal", "fractions"]
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import heunic.cli\n"
              "loaded = set(sys.modules) - before\n"
              "import json\n"
              f"print(json.dumps(sorted(loaded & set({deferred!r}))))\n")
    assert fresh(script) == []


def test_only_eval_result_is_a_dataclass_after_import_cli():
    # the parameter records are named tuples; EvalResult stays a dataclass
    script = ("import json, sys\n"
              "import heunic.cli\n"
              "classes = {k for name, module in list(sys.modules.items())\n"
              "           if name.startswith('heunic') for k in vars(module).values()\n"
              "           if isinstance(k, type) and hasattr(k, '__dataclass_fields__')}\n"
              "print(json.dumps(sorted(f'{k.__module__}.{k.__qualname__}' for k in classes\n"
              "                        if k.__module__.startswith('heunic'))))\n")
    assert fresh(script) == ["heunic.series.EvalResult"]


def test_every_public_name_resolves_and_is_listed():
    script = ("import json, heunic\n"
              "names = list(heunic.__all__)\n"
              "missing = [n for n in names if getattr(heunic, n, None) is None]\n"
              "unlisted = sorted(set(names) - set(dir(heunic)))\n"
              "series = heunic.series.__name__\n"
              "try:\n"
              "    heunic.no_such_name\n"
              "    unknown = 'resolved'\n"
              "except AttributeError as exc:\n"
              "    unknown = str(exc)\n"
              "print(json.dumps([names, missing, unlisted, series, unknown]))\n")
    names, missing, unlisted, series, unknown = fresh(script)
    assert names == heunic.__all__
    assert len(names) == len(set(names)) > 0
    assert missing == []
    assert unlisted == []
    assert series == "heunic.series"
    assert "no_such_name" in unknown


def test_every_evaluator_returns_an_eval_result():
    evaluators = [name for name in heunic.__all__ if name.startswith("eval_")]
    assert evaluators
    for name in evaluators:
        returns = inspect.signature(getattr(heunic, name)).return_annotation
        assert returns in ("EvalResult", "list[EvalResult]"), name


def test_exact_hypergeometric_helpers_after_a_bare_import():
    script = ("import json, heunic\n"
              "print(json.dumps([str(heunic.harmonic(6)), str(heunic.coefficient_a(2, 3)),\n"
              "                  repr(heunic.gauss_2f1_closed(3, 2, 0.45))]))\n")
    assert fresh(script) == [str(heunic.harmonic(6)), str(heunic.coefficient_a(2, 3)),
                             repr(heunic.gauss_2f1_closed(3, 2, 0.45))]


@pytest.mark.parametrize("argv", [
    ["table", "--target", "K", "--n", "20", "--grid", "0.1,0.5"],
    ["table", "--target", "K", "--n", "20", "--grid", "0.1,0.5", "--output", "json"],
    ["verify", "--max-n", "6", "--trials", "3"],
    ["verify", "--max-n", "6", "--trials", "3", "--mutate-identity", "4"],
    ["eval", "--target", "2f1", "--a", "0.5", "--b", "1.5", "--c", "2.5", "--x", "0.4"],
    ["eval", "--target", "3f2", "--a1", "0.5", "--a2", "2", "--a3", "2", "--b1", "2.5",
     "--b2", "3"],
    ["eval", "--target", "hl-hyp", "--q", "2", "--x", "0.7"],
], ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_deferred_paths_in_a_fresh_process(argv):
    proc = fresh_cli(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == invoke(argv)
    assert proc.returncode == (1 if "--mutate-identity" in argv else 0)
    assert proc.stdout
