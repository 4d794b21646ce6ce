"""Oracle-gated benchmark of the mvgames formula route.

    python3 perfbench/run.py --workload pure_dnf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from `src/`.  One
process, one client, closed loop: each operation starts when the previous
one has finished.  The workloads and their operations are in
`workloads.py`.  A run repeats whole passes over the workload's operations
until `--seconds` have passed and at least MIN_PASSES passes are done, so
every run measures the same mix.  Every verdict is checked against
`mvgames.oracle`; a wrong verdict prints the instance and ends the run with
exit code 1.  Operations that raise, or end with the wrong exit code, are
counted as failed and listed with their instance and exception type.

Times are scaled to a reference machine speed (see `SpeedProbe`); the row
printed before the result also shows the raw throughput and the scales.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json.  With `--trace 1` the run first
repeats passes untraced for half the time, then traced (see `tracing.py`)
for the rest, and reports the per-layer metrics: self seconds and exact
counts per traced pass, plus the tracing overhead as traced against
untraced `ops_per_s`.  Spans are written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, WrongVerdict  # noqa: E402

SETUP_REPEATS = 5           # set-ups per run; setup_s is their median
# Machine-speed calibration: `SpeedProbe` is timed before every operation
# and after the last.  Times are multiplied by PROBE_REF_S / (probe time),
# which turns them into seconds at a reference speed: the probe's typical
# time on a 2-vCPU 2.1 GHz Xeon VM.  Throughput and self times use the
# median probe time of their pass; a verdict latency uses the mean of the
# probes either side of its operation.  On a shared host the speed drifts by
# up to 1.5x over minutes; the scaling cancels most of that drift.  The raw
# throughput and the pass scales are printed beside the metrics.
PROBE_REF_S = 0.008
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
MODULES = ("algebra", "formula", "game", "chars", "represent", "equilibria",
           "oracle", "corpus", "cli")

END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("verdict_p50_s", "s", "lower"),
    ("verdict_tail_s", "s", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

# Per-layer metrics: (name, unit, better, kind, key).  "self" is the self
# time of the named spans per traced pass; "count" an exact count per pass.
_SELF = [("formula.evaluate.self_s", "formula.evaluate")] + [
    (f"{span}.s", span) for span in (
        "formula.substitute", "formula.parse", "formula.to_text", "formula.free_variables",
        "game.lgame_from_json", "game.lgame_to_json", "game.logical_to_strategic",
        "represent.build", "represent.verify", "chars.gadget",
        "equilibria.gamma", "equilibria.decide", "equilibria.mixed_build",
        "equilibria.mixed_check", "oracle.find_mixed_2p", "oracle.verify_mixed",
        "oracle.pure_ne_scan", "cli.eval", "cli.corpus", "cli.represent",
        "cli.verify-representation", "cli.pure-ne", "cli.mixed-check", "cli.oracle.pure",
        "cli.oracle.mixed-verify", "cli.oracle.mixed-find", "trace.count")]
_COUNTS = ["formula.evaluate.calls", "formula.evaluate.nodes", "formula.parse.bytes",
           "formula.to_text.bytes", "game.payoff.calls", "represent.payoff_dag_nodes",
           "equilibria.gamma_dag_nodes", "equilibria.decide.profiles",
           "equilibria.mixed_dag_nodes", "equilibria.mixed_check.evaluate_calls",
           "oracle.solve_linear.calls", "printed_bytes"]
PER_LAYER = ([(name, "s/pass", "lower", "self", span) for name, span in _SELF]
             + [(name, "count/pass", "lower", "count", name) for name in _COUNTS]
             + [("trace.ops_per_s", "1/s", "higher", "overhead", None),
                ("trace.untraced_ops_per_s", "1/s", "higher", "overhead", None),
                ("trace.slowdown", "ratio", "lower", "overhead", None)])


class Stats:
    """What one series of passes did."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.raw_busy = 0.0             # seconds inside operations, unscaled
        self.pass_rates: list[float] = []  # successful operations per scaled second
        self.verdicts: list[float] = []  # scaled seconds to verdict, successful ops
        self.scales: list[float] = []    # speed scale of each pass
        self.failures: Counter = Counter()
        self.failed_ops: dict = {}
        self.printed: list[int] = []     # formula-text bytes emitted, per pass
        self.ok_per_pass: list[int] = []

    @property
    def ops_per_s(self) -> float:
        """Median over passes, so that a pass the speed scaling misjudges
        does not move it."""
        return statistics.median(self.pass_rates)


class SpeedProbe:
    """A fixed piece of work shaped like formula evaluation -- a memoized
    recursive walk over a random DAG with exact rational min, max, truncated
    sum and difference -- that does not use mvgames, so no change to the
    package changes its time."""

    def __init__(self, size=4000, leaves=16):
        rng = random.Random(5)
        self.leaves = leaves
        self.nodes = [(None, i, None) for i in range(leaves)] + [
            (rng.choice((min, max, _plus, _minus)), rng.randrange(i), rng.randrange(i))
            for i in range(leaves, size)]

    def seconds(self) -> float:
        start = perf_counter()
        nodes = self.nodes
        for k in range(3):
            env = [Fraction((i * 7 + k) % 11, 11) for i in range(self.leaves)]
            memo = {}

            def walk(i):
                value = memo.get(i)
                if value is None:
                    op, a, b = nodes[i]
                    value = env[a] if op is None else op(walk(a), walk(b))
                    memo[i] = value
                return value

            for i in range(len(nodes) - 40, len(nodes)):
                walk(i)
        return perf_counter() - start


def _plus(x, y):
    return min(x + y, 1)


def _minus(x, y):
    return max(x - y, 0)


def fresh_api():
    """Import `mvgames` from a clean module state and return its submodules."""
    for name in [n for n in sys.modules if n == "mvgames" or n.startswith("mvgames.")]:
        del sys.modules[name]
    package = importlib.import_module("mvgames")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "mvgames":
        raise SystemExit(f"mvgames imported from {package.__file__}, not from src/")
    return SimpleNamespace(**{m: importlib.import_module(f"mvgames.{m}") for m in MODULES})


def run_pass(wl: workloads.Workload, stats: Stats, probe: SpeedProbe, tracer=None) -> float:
    """One pass over the workload's operations; returns the pass's speed scale."""
    printed = 0
    ok_before = stats.ok
    busy = 0.0
    verdicts = []
    probe_times = []
    for op in wl.ops:
        # Each operation starts from a collected heap, as a separate `mvgames`
        # process would; the garbage of the one before neither adds to its
        # peak memory nor triggers a collection inside it.
        gc.collect()
        probe_times.append(probe.seconds())
        marks = []
        run = op.run
        if tracer is not None:
            tracer.begin_op(stats.attempted)
            run = tracer.wrap(f"op.{wl.name}", op.run)
        stats.attempted += 1
        start = perf_counter()
        try:
            run(lambda: marks.append(perf_counter()))
        except WrongVerdict:
            raise
        except Exception as exc:        # counted and listed, the run goes on
            busy += perf_counter() - start
            stats.failures[op.name, type(exc).__name__] += 1
            stats.failed_ops[op.name] = op.instance
        else:
            end = perf_counter()
            busy += end - start
            stats.ok += 1
            verdicts.append(((marks[0] if marks else end) - start, len(probe_times) - 1))
        printed += op.emitted()
    probe_times.append(probe.seconds())
    # Throughput takes the pass's speed; a latency takes the speed measured
    # just before and just after its operation, which follows short bursts.
    scale = PROBE_REF_S / statistics.median(probe_times)
    stats.scales.append(scale)
    stats.raw_busy += busy
    stats.pass_rates.append((stats.ok - ok_before) / (busy * scale))
    stats.verdicts += [v * 2 * PROBE_REF_S / (probe_times[i] + probe_times[i + 1])
                       for v, i in verdicts]
    stats.printed.append(printed)
    stats.ok_per_pass.append(stats.ok - ok_before)
    return scale


def run_passes(wl, stats, seconds, min_passes=MIN_PASSES, tracer=None, after_pass=None):
    probe = SpeedProbe()
    start = perf_counter()
    passes = 0
    while passes < min_passes or perf_counter() - start < seconds:
        first = len(tracer.spans) if tracer is not None else 0
        scale = run_pass(wl, stats, probe, tracer)
        passes += 1
        if after_pass is not None:
            after_pass(first, scale)
    return passes


def percentile(values, q) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(samples_per_pass: int) -> float:
    """Highest percentile with at least 10 samples beyond it in MIN_PASSES
    passes; every run has at least that many samples, so the percentile is
    the same in every run of a workload."""
    floor = samples_per_pass * MIN_PASSES
    for q in TAIL_PERCENTILES:
        if floor * (100 - q) / 100 >= 10:
            return q
    return 100.0


def end_to_end(stats: Stats, setups: list[float]) -> dict:
    q = tail_percentile(stats.ok_per_pass[0])
    values = {
        "ops_per_s": stats.ops_per_s,
        "verdict_p50_s": percentile(stats.verdicts, 50),
        "verdict_tail_s": percentile(stats.verdicts, q),
        "ok_frac": stats.ok / stats.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def per_layer(self_per_pass: list[Counter], counts: Counter, traced: Stats,
              untraced: Stats) -> dict:
    overhead = {"trace.ops_per_s": traced.ops_per_s,
                "trace.untraced_ops_per_s": untraced.ops_per_s,
                "trace.slowdown": untraced.ops_per_s / traced.ops_per_s}
    out = {}
    for name, unit, _, kind, key in PER_LAYER:
        if kind == "self":
            value = sum(p[key] for p in self_per_pass) / len(self_per_pass)
        elif kind == "count":
            value = counts[key]
        else:
            value = overhead[name]
        out[name] = {"value": value, "unit": unit}
    return out


def traced_series(wl, api, seconds, stats: Stats):
    """Passes under the tracer; returns (tracer, scaled self times per pass,
    exact counts of one pass)."""
    tracer = tracing.Tracer()
    tracer.install(api)
    self_per_pass, counts_per_pass = [], []

    def after_pass(first, scale):
        self_per_pass.append(Counter({name: seconds * scale for name, seconds
                                      in tracer.self_times(first).items()}))
        counts = tracer.take_counts()
        counts["printed_bytes"] = stats.printed[-1]
        counts_per_pass.append({name: counts[name] for name in _COUNTS})

    try:
        run_passes(wl, stats, seconds, 1, tracer, after_pass)
    finally:
        tracer.uninstall()
    if any(c != counts_per_pass[0] for c in counts_per_pass):
        raise RuntimeError(f"exact counts differ between passes: {counts_per_pass}")
    return tracer, self_per_pass, Counter(counts_per_pass[0])


def setup(name, seed, workdir: Path, quick=False):
    """SETUP_REPEATS fresh imports and input generations, each timed and
    scaled by the speed probe run just before it; the last is kept."""
    times = []
    probe = SpeedProbe()
    for r in range(SETUP_REPEATS):
        scale = PROBE_REF_S / statistics.median(probe.seconds() for _ in range(3))
        start = perf_counter()
        api = fresh_api()
        wl = workloads.build(name, seed, api, workdir / f"setup{r}", quick)
        times.append((perf_counter() - start) * scale)
    return api, wl, times


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_failures(*series: Stats) -> None:
    failures = sum((s.failures for s in series), Counter())
    instances = {op: instance for s in series for op, instance in s.failed_ops.items()}
    for (op, kind), count in sorted(failures.items()):
        print(f"failed {op} {kind} x{count}: {json.dumps(instances[op])}")


def run_workload(name, seed, seconds, trace) -> int:
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        api, wl, setups = setup(name, seed, Path(tmp))
        gc.freeze()     # the inputs stay alive; keep them out of every collection
        print("manifest " + json.dumps({"workload": name, "seed": seed,
                                        "instances": wl.manifest}))
        stats, traced = Stats(), Stats()
        try:
            if not trace:
                passes = run_passes(wl, stats, seconds)
                metrics = end_to_end(stats, setups)
            else:
                passes = run_passes(wl, stats, seconds / 2, 1)
                tracer, self_per_pass, counts = traced_series(wl, api, seconds / 2, traced)
                passes += len(self_per_pass)
                metrics = per_layer(self_per_pass, counts, traced, stats)
                out = ROOT / ".bench_out"
                out.mkdir(exist_ok=True)
                tracer.write(out / f"spans-{name}-seed{seed}.jsonl")
        except WrongVerdict as exc:
            print(f"WRONG VERDICT in {name} (seed {seed}): {exc}", file=sys.stderr)
            correct = False
        else:
            correct = True
    attempted = stats.attempted + traced.attempted
    result = {"correct": correct, "attempted": attempted,
              "failed": attempted - stats.ok - traced.ok}
    if not correct:
        print(json.dumps(dict(result, metrics={})))
        return 1
    report_failures(stats, traced)
    if trace:
        for key, entry in metrics.items():
            print(f"layer {name} {key} = {fmt(entry['value'])} {entry['unit']}")
    else:
        q = tail_percentile(stats.ok_per_pass[0])
        cells = []
        for key, entry in metrics.items():
            cell = f"{key}={fmt(entry['value'])} {entry['unit']}"
            if key == "verdict_tail_s":
                cell += f" (p{q:g} of n={len(stats.verdicts)})"
            cells.append(cell)
        print(f"row {name} seed={seed} passes={passes} | " + " | ".join(cells)
              + f" | raw ops_per_s={fmt(stats.ok / stats.raw_busy)} 1/s"
              + f" | speed scales {' '.join(f'{x:.3f}' for x in stats.scales)}")
    print(json.dumps(dict(result, metrics=metrics)))
    return 0


def run_all(args) -> int:
    """One row per workload, each workload in its own process so that
    `peak_rss_mb` is its own."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        for line in lines[:-1]:
            if not line.startswith("manifest "):
                print(line)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps({"workloads": results}))
    return status


# --- self-test -------------------------------------------------------------------

def self_test() -> int:
    """One short pass of each workload, untraced and traced, twice from a
    fresh import; checks the metric names and units against BENCHMARK.json,
    that exact counts repeat, that only known-defect operations fail, and
    that the gate rejects a wrong expected answer."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in WORKLOADS:
            exact = []
            for attempt in range(2):
                start = perf_counter()
                api = fresh_api()
                wl = workloads.build(name, 1, api, Path(tmp) / f"{name}{attempt}", quick=True)
                setup_s = perf_counter() - start
                untraced = Stats()
                run_pass(wl, untraced, SpeedProbe())
                e2e = end_to_end(untraced, [setup_s])
                traced = Stats()
                _, self_per_pass, counts = traced_series(wl, api, 0, traced)
                layer = per_layer(self_per_pass, counts, traced, untraced)
                exact.append(dict(counts))
            for got, want, kind in ((e2e, want_e2e, "end-to-end"), (layer, want_layer, "per-layer")):
                printed = {k: v["unit"] for k, v in got.items()}
                if printed != want:
                    problems.append(f"{name}: {kind} metrics {printed} != BENCHMARK.json {want}")
            if exact[0] != exact[1]:
                problems.append(f"{name}: exact counts differ between runs: {exact}")
            known = {op.name for op in wl.ops if op.instance.get("known_defect")}
            unexpected = {op for op, _ in untraced.failures} - known
            if unexpected:
                problems.append(f"{name}: unexpected failures {sorted(unexpected)}")
            report_failures(untraced)
            print(f"self-test {name}: {len(wl.ops)} ops, "
                  + ", ".join(f"{k}={fmt(v['value'])} {v['unit']}" for k, v in e2e.items()))
        problems += _gate_rejects(api, wl, Path(tmp) / f"{wl.name}1")
    for problem in problems:
        print("PROBLEM " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _gate_rejects(api, cli_wl, workdir) -> list[str]:
    problems = []
    try:
        workloads.gate({"self-test": True}, "verdict", True, False)
        problems.append("gate accepted a wrong verdict")
    except WrongVerdict:
        pass
    # A real CLI call whose expected output is wrong must be rejected too.
    op = next(op for op in cli_wl.ops if op.name == "oracle-pure:g44")
    argv = [a.replace("$WORK", str(workdir)) for a in op.instance["argv"]]
    wrong = workloads._cli_op(api, "wrong", argv, op.instance["exit_code"], {},
                              lines=["no such equilibrium"])
    try:
        wrong.run(lambda: None)
        problems.append("gate accepted wrong CLI output")
    except WrongVerdict:
        pass
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mvgames" / "__init__.py").is_file():
        print(f"no mvgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
