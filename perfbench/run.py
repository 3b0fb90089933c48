"""Benchmark of heunic: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload exact_routes --seed 1 --seconds 30 --trace 0

Run it from the repository root: it imports heunic from ./src and starts
`python -m heunic.cli` with the same sources.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
the workload; with ``--trace 1`` a separate traced run gives every
per-layer metric, each workload driving its own layers.  Result and trace
files go to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

SETUP_PROBES = 7
MIN_PASSES = 5
MIN_TRACED_PASSES = 3
INPROCESS_REPEATS = 3

EXACT_CLASSES = tuple(
    [f"coincidence.F_{m}" for m in ("factored", "power", "established", "expanded")]
    + [f"coincidence.G_{m}" for m in ("factored", "power", "established")]
    + [f"closed_forms.{f}" for f in ("family_negative", "family_positive", "sample_family")]
    + ["identities.identity_A", "identities.identity_B"])
FLOAT_CLASSES = tuple(workloads.FLOAT_DRAWS)
# the float classes whose calls return an EvalResult with terms_used
FLOAT_TERMS = tuple(c for c in FLOAT_CLASSES if c not in (
    "coincidence.F_definitional", "coincidence.K_quadrature", "hypergeom.gauss_2f1_closed"))
CLI_COMMANDS = ("eval", "table", "crosscheck_F", "crosscheck_K", "verify")
PY_CALL_CLASSES = frozenset(EXACT_CLASSES + ("relations.check",))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    units = {}
    for cls in EXACT_CLASSES:
        units[f"{cls}.busy_ms"] = "ms"
        units[f"{cls}.py_calls"] = "count"
    for cls in FLOAT_CLASSES:
        units[f"{cls}.busy_ms"] = "ms"
    for cls in FLOAT_TERMS:
        units[f"{cls}.terms"] = "count"
    units["relations.check.busy_ms"] = "ms"
    units["relations.check.py_calls"] = "count"
    for probe in ("interpreter", "import") + CLI_COMMANDS:
        units[f"cli.{probe}.wall_ms"] = "ms"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.inprocess_ms"] = "ms"
    return units


def call(op):
    """Run one operation; an exception is its output, and fails its check."""
    try:
        return op.func(*op.args)
    except Exception as exc:  # counted as a failed operation, never fatal
        return exc


def drift_probe() -> float:
    """Seconds for a fixed pure-Python loop: tells host slowdowns apart."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return time.perf_counter() - start


class Tally:
    """Operations attempted and failed, with the failures no fault explains."""

    def __init__(self, references):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.self_tested = False

    def check(self, batch, expected, outputs) -> None:
        passing = {}
        for op, exp, out in zip(batch, expected, outputs):
            self.attempted += 1
            if self.references.judge(op, out, exp):
                passing.setdefault(op.cls, (op, out, exp))
            else:
                self.failed += 1
                if op.fault is None and len(self.unexpected) < 20:
                    self.unexpected.append(f"{op.cls}{op.args!r} -> {out!r}"[:400])
        if not self.self_tested:
            self.self_tested = True
            for cls in self.references.self_test(list(passing.values())):
                self.unexpected.append(f"checker of {cls} accepts a perturbed value")


def child_env(src: Path) -> dict:
    """Environment of every child interpreter: heunic from ./src, with
    bytecode caching on whatever the caller's setting, as for an installed
    package, so that start-up does not include compiling heunic."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_time(workload: str, seed: int, env: dict) -> float:
    """import + warm-up seconds in one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    return probe["import_s"] + probe["warmup_s"]


def prepare(workload: str, seed: int, env: dict, references):
    """Batch, references and warm-up; reference work stays outside timing."""
    batch = workloads.build(workload, seed, env)
    expected = [references.expect(op) for op in batch]
    for op in workloads.warmup(batch):
        call(op)
    return batch, expected


# ---------------------------------------------------------------------------
# timed run (end-to-end metrics)


def timed_run(args, env: dict) -> dict:
    # the first fresh interpreter starts before this process imports numpy
    # or mpmath; the others are spread over the run, so that their median
    # spans the host's slow and fast phases as the passes do
    setup = [setup_time(args.workload, args.seed, env)]
    import references

    batch, expected = prepare(args.workload, args.seed, env, references)
    tally = Tally(references)
    times, drift, peak_child_kb = [], [], 0
    while len(times) < MIN_PASSES or sum(times) < args.seconds:
        outputs = []
        start = time.perf_counter()
        for op in batch:
            outputs.append(call(op))
        times.append(time.perf_counter() - start)
        tally.check(batch, expected, outputs)
        peak_child_kb = max([peak_child_kb] + [getattr(o, "peak_rss_kb", 0) for o in outputs])
        drift.append(drift_probe())
        if sum(times) >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_time(args.workload, args.seed, env))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(args.workload, args.seed, env))
    if args.workload == "cli_cold":
        peak_kb = peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(batch) * len(times) / sum(times), "1/s"),
        "pass_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {"setup_s_samples": setup, "pass_s": times, "batch_ops": len(batch)}
    return finish(args, tally, [tally], metrics, drift, detail)


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)


def traced_passes(batch, expected, seconds: float, tally: Tally, spans: list,
                  drift: list, extra=None):
    """Passes with a span around every call.

    Returns, per pass, the (start, end) of every call, the outputs and the
    pass duration in ns.  ``extra(pass_span, index)`` runs after each pass.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        index = len(passes)
        pass_span = len(spans)
        spans.append(None)
        marks, outputs = [], []
        pass_start = time.perf_counter_ns()
        for op in batch:
            start = time.perf_counter_ns()
            outputs.append(call(op))
            end = time.perf_counter_ns()
            marks.append((start, end))
            spans.append((op.cls, start, end, pass_span, index))
        pass_end = time.perf_counter_ns()
        spans[pass_span] = ("pass", pass_start, pass_end, None, index)
        if extra is not None:
            extra(pass_span, index)
        tally.check(batch, expected, outputs)
        passes.append((marks, outputs, pass_end - pass_start))
        drift.append(drift_probe())
    return passes


def count_py_calls(batch) -> tuple[Counter, list]:
    """Python-level calls per op class in one pass, and the pass's outputs.

    A profile hook counts every call event, generator resumptions too;
    it runs in a pass of its own so that its cost stays out of busy_ms.
    """
    counts: Counter = Counter()
    current = [None]

    def hook(frame, event, arg):
        if event == "call":
            counts[current[0]] += 1

    outputs = []
    for op in batch:
        if op.cls not in PY_CALL_CLASSES:
            outputs.append(call(op))
            continue
        current[0] = op.cls
        sys.setprofile(hook)
        try:
            outputs.append(call(op))
        finally:
            sys.setprofile(None)
    return counts, outputs


def _percentile_summary(samples_ns: list[int]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ms = sorted(s / 1e6 for s in samples_ns)
    out = {"n": len(ms), "p50_ms": statistics.median(ms)}
    for pct in (99.9, 99, 90):
        if len(ms) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}_ms"] = ms[min(len(ms) - 1, int(len(ms) * pct / 100))]
            break
    return out


def layer_figures(batch, passes) -> tuple[dict, dict]:
    """busy_ms and terms per op class, and per-class/per-relation detail."""
    busy: dict[str, list[float]] = {}
    samples: dict[str, list[int]] = {}
    for marks, _outputs, _ in passes:
        per_pass: Counter = Counter()
        for op, (start, end) in zip(batch, marks):
            per_pass[op.cls] += end - start
            key = op.cls if op.cls != "relations.check" else f"relations.check.{op.args[0]}"
            samples.setdefault(key, []).append(end - start)
        for cls, ns in per_pass.items():
            busy.setdefault(cls, []).append(ns / 1e6)
    metrics = {f"{cls}.busy_ms": statistics.median(v) for cls, v in busy.items()}
    first_outputs = passes[0][1]
    terms: Counter = Counter()
    for op, out in zip(batch, first_outputs):
        if hasattr(out, "terms_used"):
            terms[op.cls] += out.terms_used
    for cls, total in terms.items():
        metrics[f"{cls}.terms"] = total
    detail = {key: _percentile_summary(v) for key, v in samples.items()}
    return metrics, detail


def traced_run(args, env: dict) -> dict:
    import references

    share = args.seconds / len(WORKLOADS)
    spans: list = []
    drift: list = []
    metrics: dict = {}
    detail: dict = {}
    tallies = {}
    probes: dict[str, list[float]] = {"interpreter": [], "import": []}

    def cli_probes(pass_span, index):
        # a bare interpreter (the control) and a bare import, once a pass
        for name, code in (("interpreter", "pass"), ("import", "import heunic.cli")):
            start = time.perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           stdin=subprocess.DEVNULL, timeout=120)
            end = time.perf_counter_ns()
            spans.append((f"cli.{name}", start, end, pass_span, index))
            probes[name].append((end - start) / 1e6)

    for workload in WORKLOADS:
        batch, expected = prepare(workload, args.seed, env, references)
        tally = tallies[workload] = Tally(references)
        extra = cli_probes if workload == "cli_cold" else None
        passes = traced_passes(batch, expected, share, tally, spans, drift, extra)
        figures, per_class = layer_figures(batch, passes)
        detail[workload] = {
            "traced_pass_p50_ms": statistics.median(p[2] for p in passes) / 1e6,
            "passes": len(passes), "per_op": per_class}
        if workload == "cli_cold":
            # one process per command and pass: busy time is its wall time
            figures = {name.replace(".busy_ms", ".wall_ms"): value
                       for name, value in figures.items()}
            for name, values in probes.items():
                figures[f"cli.{name}.wall_ms"] = statistics.median(values)
            figures.update(inprocess_figures(batch, passes, tally))
        else:
            counts, outputs = count_py_calls(batch)
            tally.check(batch, expected, outputs)
            for cls, count in counts.items():
                figures[f"{cls}.py_calls"] = count
        metrics.update(figures)
    write_trace(args, spans)
    units = per_layer_units()
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    out = {name: (metrics[name], unit) for name, unit in units.items()}
    return finish(args, tallies[args.workload], list(tallies.values()), out, drift, detail)


def inprocess_figures(batch, passes, tally: Tally) -> dict:
    """Each command through heunic.cli.run in this warm interpreter."""
    import heunic.cli

    figures = {}
    first_outputs = passes[0][1]
    for op, child in zip(batch, first_outputs):
        times = []
        for _ in range(INPROCESS_REPEATS):
            out = io.StringIO()
            start = time.perf_counter()
            report = heunic.cli.run(list(op.args), out=out, err=io.StringIO())
            times.append(time.perf_counter() - start)
        if report.code != getattr(child, "code", None) or out.getvalue() != child.stdout:
            tally.unexpected.append(f"{op.cls}: in-process output differs from the process")
        figures[f"{op.cls}.inprocess_ms"] = statistics.median(times) * 1e3
    return figures


def write_trace(args, spans: list) -> None:
    RESULTS.mkdir(exist_ok=True)
    rows = [{"id": i, "name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "request": request}
            for i, (name, start, end, parent, request) in enumerate(spans)]
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "spans": rows}))


# ---------------------------------------------------------------------------
# output


def finish(args, tally: Tally, tallies: list, metrics: dict, drift: list,
           detail: dict) -> dict:
    unexpected = [u for t in tallies for u in t.unexpected]
    result = {
        "correct": not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "drift_loop_s": drift,
                                "unexpected": unexpected, "detail": detail}, indent=1))
    for line in unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted {tally.attempted}, failed {tally.failed}, correct {not unexpected}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"drift: control loop p50 {statistics.median(drift) * 1e3:.4f} ms over "
          f"{len(drift)} samples (host speed, not a metric)")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    src = Path.cwd() / "src"
    if not (src / "heunic" / "__init__.py").is_file():
        print("perfbench: ./src/heunic not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    origin = importlib.util.find_spec("heunic").origin
    if not Path(origin).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: heunic resolves to {origin}, not ./src", file=sys.stderr)
        return 2
    env = child_env(src)
    result = traced_run(args, env) if args.trace else timed_run(args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
