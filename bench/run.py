"""The schurrec benchmark.

    python3 bench/run.py --workload library --seed 1 --seconds 16 --trace 0

Runs one workload (see BENCHMARK.json and bench/workloads.py) from the
checkout root against the library in src/, checks every op's output, and
prints as its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.

The run and its children are held on one core.  Every op and set-up probe is
timed under bench/speed.py's sampler, and the timing metrics report each at
the reference speed: its work time scaled by the calibration loop's
reference time over the loop's time during it.  The raw figures are in the
detail line.  A run makes its inputs from the seed and times them in passes
until --seconds of op time at the reference speed have passed, and at least
MIN_PASSES, so the number of passes, and with it which sample is the tail,
does not move with the machine's load.  Each library pass runs in a fresh
interpreter (bench/pass_child.py), so nothing cached in memory carries over
between passes.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
seed is first measured untraced in a child, then run again with the layer
wrappers installed, and the metrics are the per-layer ones.  The line before
the result (`# detail {...}`) holds the failure ratio, the tail percentile
with its sample count, the raw timings, the machine's mean slowdown against
the reference speed, op counts and timings by kind, and the stamps of the
run (cores, Python and numpy versions, commit, src/ line count).  A traced
run also writes the spans of each pass to
bench/out/<workload>.pass<k>.spans.tsv.gz.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from speed import REF_LOOP_S, Sampler, report_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 11  # at least this many set-up probes per run
TAIL_OPS_BEYOND = 10
MIN_PASSES = 2
SAMPLER = Sampler()  # this process's machine-speed samples
NPROC = len(os.sched_getaffinity(0))  # before main() holds the run on one core

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# spans whose totals over the traced run are reported as <name>.self_s and
# <name>.busy_s; calls and counts are reported per op
LAYER_SPANS = (
    "dense.weight_counts",
    "dense.ssyt_count",
    "dense.schur_int_eval",
    "dense.counts_to_multipoly",
    "recurrence.char_poly",
    "recurrence.verify",
    "recurrence.minimal",
    "recurrence.bm",
    "recurrence.conjecture",
    "tableaux.iter",
    "polynomials.skew_schur",
    "polynomials.mul",
    "kostka",
    "asymptotics.specialize",
    "asymptotics.find_roots",
)
LAYER_CALLS = {
    "dense.weight_counts.calls": "dense.weight_counts",
    "recurrence.bm.calls": "recurrence.bm",
    "polynomials.mul.calls": "polynomials.mul",
    "kostka.calls": "kostka",
}
LAYER_COUNTS = [
    "dense.table_cells",
    "recurrence.verify.indices",
    "recurrence.greedy.trials",
    "tableaux.fillings",
    "polynomials.mul.term_pairs",
    "asymptotics.roots",
]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in BENCHMARK.json order."""
    out = []
    for span in LAYER_SPANS:
        out += [(f"{span}.self_s", "s"), (f"{span}.busy_s", "s")]
    out += [(name, "count/op") for name in LAYER_CALLS]
    out += [(name, "count/op") for name in LAYER_COUNTS]
    out += [
        ("dense.unsupported_ratio", "ratio"),
        ("recurrence.greedy.accept_ratio", "ratio"),
        ("cli.interpreter_s", "s"),
        ("cli.import_s", "s"),
        ("cli.command_s", "s"),
        ("trace.ops", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.layer_share", "ratio"),
    ]
    return out


@dataclass
class Workload:
    name: str
    passes: Callable[[random.Random], Iterator[list[dict]]]  # the inputs of each pass
    op: Callable[[dict, "Tracer | None"], object]
    check: Callable[[dict, object], "str | None"]
    setup: str  # what a fresh interpreter imports before its first op
    in_children: bool = False  # ops start their own processes, so passes run here


def make_workload(name: str) -> Workload:
    import workloads as w

    if name == "library":
        def passes(rng):
            inputs = w.library_inputs(rng)
            while True:
                order = list(range(len(inputs)))
                rng.shuffle(order)
                yield [inputs[i] for i in order]

        return Workload(name, passes, lambda inp, tracer: w.library_op(inp), w.check_library, "import schurrec")
    if name == "cli-cold":
        from spans import SPANS_MARK

        def op(inp, tracer):
            code, out, err = w.run_child(w.cli_command(inp, tracer is not None))
            if tracer is not None:
                err, _, spans = err.rpartition(b"\n" + SPANS_MARK)
                tracer.merge(json.loads(spans), parent=tracer._stack[-1])
            return code, out, err

        return Workload(name, w.cli_passes, op, w.check_cli, "import schurrec.cli", in_children=True)
    raise SystemExit(f"unknown workload {name!r}")


def probe(code: str) -> tuple[float, float]:
    """Work and calibration-loop seconds from starting a fresh interpreter
    until it has run `code`; its exit is not timed."""
    started = []

    def start_until_ready():
        started.append(subprocess.Popen(
            [sys.executable, "-c", f"{code}\nprint('ready', flush=True)"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ))
        return started[0].stdout.readline()

    try:
        with SAMPLER.running():
            line, work_s, loop_s = SAMPLER.timed(start_until_ready)
    finally:
        for proc in started:
            with proc:  # closes its pipe and waits for it
                pass
    if started[0].returncode != 0 or line.strip() != b"ready":
        raise SystemExit(f"set-up probe failed: {code!r}")
    return work_s, loop_s


class Probes:
    """Set-up probes of one snippet, spread over the run so that a burst of
    load on the machine moves few of them; the median is reported."""

    def __init__(self, code: str):
        self.code = code
        probe(code)  # warm-up: the first start after a while reads from disk
        self.times = [probe(code) for _ in range(3)]

    def between_passes(self) -> None:
        self.times += [probe(self.code) for _ in range(2)]

    def median(self) -> float:
        """The median probe at the reference speed."""
        while len(self.times) < SETUP_PROBES:
            self.times.append(probe(self.code))
        return statistics.median(report_time(work, loop) for work, loop in self.times)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_OPS_BEYOND samples above it:
    (value, percentile, samples beyond).  Too few samples report the max."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_OPS_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[count - TAIL_OPS_BEYOND - 1], 100.0 * (count - TAIL_OPS_BEYOND) / count, TAIL_OPS_BEYOND


def attempt(workload: Workload, inp: dict, tracer) -> tuple[object, "str | None"]:
    try:
        return workload.op(inp, tracer), None
    except Exception as exc:  # a failed op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(workload: Workload, inputs: list[dict], tracer=None) -> dict:
    """Time each op in turn under the sampler; checks run between ops,
    outside the timed region.  Returns each op's work and calibration-loop
    seconds and its error (None when its output checked out)."""
    work, loop, errors = [], [], []
    for inp in inputs:
        if tracer is not None:
            tracer.active = True
            span = tracer.open("op")
        with SAMPLER.running():
            (out, error), work_s, loop_s = SAMPLER.timed(attempt, workload, inp, tracer)
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        if error is None:
            try:
                error = workload.check(inp, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        work.append(work_s)
        loop.append(loop_s)
        errors.append(error)
    return {"work": work, "loop": loop, "errors": errors}


def pass_here(workload: Workload, inputs: list[dict], spans_path: "Path | None") -> dict:
    """One pass in this process; with spans_path, traced, its spans written there."""
    if spans_path is None:
        return run_pass(workload, inputs)
    from spans import Tracer, instrument, tracer_layer_times

    tracer = Tracer()
    instrument(tracer)
    try:
        result = run_pass(workload, inputs, tracer)
    finally:
        tracer.restore()
    tracer.write(spans_path)
    return {
        **result,
        "layers": tracer_layer_times(tracer),
        "counts": dict(tracer.counts),
        "spans": len(tracer.start),
    }


def pass_anywhere(workload: Workload, inputs: list[dict], spans_path: "Path | None") -> dict:
    """One pass: here for workloads whose ops are processes, otherwise in a
    fresh interpreter that is handed the inputs."""
    if workload.in_children:
        return pass_here(workload, inputs, spans_path)
    import workloads as w

    job = {"workload": workload.name, "inputs": inputs, "spans_path": spans_path and str(spans_path)}
    code, stdout, stderr = w.run_child([sys.executable, str(BENCH / "pass_child.py")], pickle.dumps(job))
    if code != 0:
        raise SystemExit(f"pass child failed ({code}):\n{stderr.decode(errors='replace')[-2000:]}")
    return json.loads(stdout.splitlines()[-1])


def run_passes(workload: Workload, seed: int, seconds: float, traced: bool = False, between_passes=None) -> dict:
    """Closed loop over whole passes until `seconds` of op time at the
    reference speed have passed and at least MIN_PASSES passes have run;
    between_passes() runs between them, outside the timed region."""
    rng = random.Random(seed)
    passes = workload.passes(rng)
    work: list[float] = []
    loop: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    pass_seconds: list[float] = []
    layers: dict = {}
    counts: Counter = Counter()
    spans = 0
    if traced:
        OUT.mkdir(exist_ok=True)
        for stale in OUT.glob(f"{workload.name}.pass*.spans.tsv.gz"):
            stale.unlink()
    while sum(pass_seconds) < seconds or len(pass_seconds) < MIN_PASSES:
        if pass_seconds and between_passes is not None:
            between_passes()
        batch = next(passes)
        spans_path = OUT / f"{workload.name}.pass{len(pass_seconds)}.spans.tsv.gz" if traced else None
        result = pass_anywhere(workload, batch, spans_path)
        for inp, error in zip(batch, result["errors"], strict=True):
            kinds.append(inp["kind"])
            if error is not None:
                failures.append(f"{inp.get('args') or inp.get('family')}: {error}")
        work += result["work"]
        loop += result["loop"]
        pass_seconds.append(sum(map(report_time, result["work"], result["loop"])))
        if traced:
            for span, row in result["layers"].items():
                total = layers.setdefault(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
                for field, value in row.items():
                    total[field] += value
            counts.update(result["counts"])
            spans += result["spans"]
    return {
        "work": work,
        "loop": loop,
        "kinds": kinds,
        "ops": len(work),
        "failures": failures,
        "passes": pass_seconds,
        "layers": layers,
        "counts": counts,
        "spans": spans,
    }


def stamps() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timing_metrics(seconds: list[float]) -> tuple[dict, tuple[float, int]]:
    """ops_per_s, latency_p50_ms and latency_tail_ms over every op of the
    run, and the tail's percentile and samples beyond it."""
    tail_s, pct, beyond = tail(seconds)
    values = {
        "ops_per_s": len(seconds) / sum(seconds),
        "latency_p50_ms": 1000 * statistics.median(seconds),
        "latency_tail_ms": 1000 * tail_s,
    }
    return values, (pct, beyond)


def reference_times(res: dict) -> list[float]:
    """Every op's time at the reference speed."""
    return [report_time(work, loop) for work, loop in zip(res["work"], res["loop"], strict=True)]


def by_kind(kinds: list[str], seconds: list[float]) -> dict:
    """Op count, ops_per_s and latency_p50_ms of each kind of op."""
    groups: dict[str, list[float]] = {}
    for kind, elapsed in zip(kinds, seconds, strict=True):
        groups.setdefault(kind, []).append(elapsed)
    return {
        kind: {"ops": len(group), "ops_per_s": len(group) / sum(group), "latency_p50_ms": 1000 * statistics.median(group)}
        for kind, group in sorted(groups.items())
    }


def end_to_end(args) -> tuple[dict, dict]:
    workload = make_workload(args.workload)
    setup = Probes(workload.setup)
    res = run_passes(workload, args.seed, args.seconds, between_passes=setup.between_passes)
    seconds = reference_times(res)
    values, (pct, beyond) = timing_metrics(seconds)
    values["setup_s"] = setup.median()
    # the largest child: the pass interpreters, or the CLI processes on cli-cold
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    raw, _ = timing_metrics(res["work"])
    detail = {
        "ops": res["ops"],
        "passes": res["passes"],
        "failed_ratio": len(res["failures"]) / res["ops"],
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "raw": {**raw, "setup_s": statistics.median(work for work, _ in setup.times)},
        "slowdown": statistics.fmean(res["loop"]) / REF_LOOP_S,
        "by_kind": by_kind(res["kinds"], seconds),
        "failures": res["failures"][:5],
    }
    return res, {"metrics": {name: metric(values[name], unit) for name, unit in END_TO_END}, **detail}


def untraced_ops_per_s(args) -> float:
    """ops_per_s of the same seed and length, measured in a fresh untraced process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"untraced reference run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def per_layer(args) -> tuple[dict, dict]:
    untraced = untraced_ops_per_s(args)
    workload = make_workload(args.workload)
    res = run_passes(workload, args.seed, args.seconds, traced=True)
    times, counts = res["layers"], res["counts"]
    interpreter_s = Probes("pass").median()
    import_s = Probes("import schurrec.cli").median() - interpreter_s

    def row(span):
        return times.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    ops = res["ops"]
    values = {}
    for span in LAYER_SPANS:
        values[f"{span}.self_s"] = row(span)["self_s"]
        values[f"{span}.busy_s"] = row(span)["busy_s"]
    for name, span in LAYER_CALLS.items():
        values[name] = row(span)["calls"] / ops
    for name in LAYER_COUNTS:
        values[name] = counts[name] / ops
    tables = row("dense.weight_counts")["calls"]
    values["dense.unsupported_ratio"] = counts["dense.unsupported"] / tables if tables else 0.0
    trials = counts["recurrence.greedy.trials"]
    values["recurrence.greedy.accept_ratio"] = counts["recurrence.greedy.accepted"] / trials if trials else 0.0
    values["cli.interpreter_s"] = interpreter_s
    values["cli.import_s"] = import_s
    commands = row("cli.command")
    values["cli.command_s"] = commands["busy_s"] / commands["calls"] if commands["calls"] else 0.0
    op_busy = row("op")["busy_s"]
    values["trace.ops"] = ops
    values["trace.overhead_ratio"] = untraced / timing_metrics(reference_times(res))[0]["ops_per_s"]
    values["trace.layer_share"] = (op_busy - row("op")["self_s"]) / op_busy
    detail = {
        "ops": ops,
        "passes": res["passes"],
        "untraced_ops_per_s": untraced,
        "spans": res["spans"],
        "self_s_sum": sum(t["self_s"] for t in times.values()),
        "failed_ratio": len(res["failures"]) / ops,
        "failures": res["failures"][:5],
    }
    return res, {"metrics": {name: metric(values[name], unit) for name, unit in per_layer_names()}, **detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["library", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind like on ^C, so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one core for the run and its children, so that the calibration loop
    # samples the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "schurrec" / "__init__.py").is_file():
        print(f"error: no schurrec package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import schurrec

    if Path(schurrec.__file__).resolve().parent != SRC / "schurrec":
        print(f"error: imported schurrec from {schurrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    res, report = (per_layer if args.trace else end_to_end)(args)
    metrics = report.pop("metrics")
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, **stamps())
    print("# detail " + json.dumps(report))
    failed = len(res["failures"])
    attempted = res["ops"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
