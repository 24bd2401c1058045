#!/usr/bin/env python3
"""kgraphwave benchmark: one closed-loop client running CLI ops in process.

    python3 perfbench/run.py --workload cylinder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run generates the workload's inputs from the seed (which loads every
graph and so warms the library), measures set-up time in fresh interpreters,
and then runs timed passes over the op list, always whole ones: the
workload's fixed pass count, and more until ``--seconds`` have passed.  The
median and tail op times come from the fixed passes alone, so they sit at
the same ranks whatever the clock allows; ops per second counts every pass.
The first run of each op gives the output its oracle checks; every later run
of it must reproduce that stdout byte for byte.

Op times are reported at a reference CPU speed.  The CPU speed of a shared
host drifts, by a third within minutes and by half between runs an hour
apart, for the program and any fixed computation alike, so every timed op is
bracketed by runs of a fixed reference kernel (an interpreted integer loop
and a small LAPACK eigensolve, the two kinds of work the ops do), and its
wall time is rescaled to the speed at which that kernel takes
``REFERENCE_S``:

    scaled = wall * REFERENCE_S / median(the four kernel times before the op
                                         and the four after it)

One kernel time is too noisy a scale: the host flips between a fast and a
slow state every few seconds, and a burst of load may hit the kernel run
alone.  Eight kernel runs span a few seconds of ops around the op, so the
median follows the slower drift that moves all of them.  The run is pinned to one core, so the kernel times the core the ops
run on.
Set-up time is rescaled by the median kernel time around its samples: one
kernel time is too noisy for a sample of under a second.  The raw wall-time
figures of every metric and the kernel times are in the detail line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the time is split between untraced and
traced passes and the line reports the per-layer metrics, per pass.  The
line before it holds the run's details: per-op timings, the tail percentile
and its sample count, oracle failures, sizes and settings.
"""

import os

# Pin BLAS before numpy is first imported: the machine has two cores, and the
# eigensolver's round-off (on which a known defect depends) varies with threads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
TAIL_BEYOND = 10
REFERENCE_S = 0.025  # about the kernel's median time on the two-core host

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import kgraphwave
from pathlib import Path
for p in sys.argv[1:]:
    kgraphwave.load_kgraph(Path(p))
print(repr(time.perf_counter() - start))
"""


@dataclass
class Outcome:
    seconds: float
    code: object  # exit code, or None when main raised
    stdout: bytes
    stderr: str
    scaled: float = 0.0  # seconds at the reference speed
    kernel: int = 0  # index of the reference kernel run that followed the op


_KERNEL_MATRIX = np.cos(np.add.outer(np.arange(120.0), np.arange(120.0)) ** 1.5)


def reference_kernel() -> float:
    """Seconds taken by a fixed integer loop and eight 120 x 120 eigensolves."""
    start = perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    for _ in range(8):
        np.linalg.eigh(_KERNEL_MATRIX)
    return perf_counter() - start


KERNEL_WINDOW = 4  # kernel runs on each side of an op that set its scale


def rescale(outcomes, kernel_s):
    for o in outcomes:
        window = kernel_s[max(0, o.kernel - KERNEL_WINDOW):o.kernel + KERNEL_WINDOW]
        o.scaled = o.seconds * REFERENCE_S / statistics.median(window)


def run_op(cli, argv, tracer=None, op_id=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        if tracer is not None:
            tracer.begin_op(op_id)
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the op's failure is measured, not fatal to the run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        stdout = out.getvalue().encode()
        if tracer is not None:
            tracer.end_op(len(stdout))
        seconds = perf_counter() - start
    return Outcome(seconds, code, stdout, err.getvalue())


def _digest(outcome: Outcome) -> bytes:
    return hashlib.sha256(repr(outcome.code).encode() + b"\0" + outcome.stdout).digest()


def measure_setup(graphs) -> tuple[list[float], list[float]]:
    """Seconds for ``import kgraphwave`` plus one load of every graph, each in
    a fresh interpreter, and the reference kernel times around them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, kernel = [], [reference_kernel()]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, graphs)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        kernel.append(reference_kernel())
    return times, kernel


class Runner:
    def __init__(self, cli, workload):
        self.cli = cli
        self.ops = workload.ops
        self.min_passes = workload.min_passes
        self.first: list[Outcome] = []  # each op's first run, kept for the oracles
        self.digests: list[bytes] = []
        self.mismatches: set[int] = set()
        self.op_id = 0
        self.kernel_s: list[float] = []

    def passes(self, budget: float, min_passes: int, tracer=None) -> list[list[Outcome]]:
        """Whole passes over the op list until ``budget`` seconds have passed
        and at least ``min_passes`` are done."""
        done = []
        start = perf_counter()
        self.kernel_s.append(reference_kernel())
        while len(done) < min_passes or perf_counter() - start < budget:
            if tracer is not None:
                tracer.start_pass()
            outcomes = []
            for i, op in enumerate(self.ops):
                self.op_id += 1
                outcome = run_op(self.cli, op.argv, tracer, self.op_id)
                self.kernel_s.append(reference_kernel())
                outcome.kernel = len(self.kernel_s) - 1
                if len(self.first) == i:
                    self.first.append(outcome)
                    self.digests.append(_digest(outcome))
                    if op.feeds is not None:
                        op.feeds.write_bytes(outcome.stdout)
                elif _digest(outcome) != self.digests[i]:
                    self.mismatches.add(i)
                    outcome.stdout = b""
                else:
                    outcome.stdout = b""  # keep only the first outputs alive
                outcomes.append(outcome)
            done.append(outcomes)
        for outcomes in done:
            rescale(outcomes, self.kernel_s)
        return done


def check_outputs(runner, defects) -> tuple[list[bool], list[dict]]:
    """Run each op's oracle on its first output; every later run of the op
    reproduced that output, or is reported here.

    Returns per op whether it succeeded, and the problems that make the run
    incorrect: oracle failures, unexpected failures and non-reproducible output.
    """
    ok, problems = [], []
    for op, first in zip(runner.ops, runner.first):
        if first.code != 0:
            expected = op.defect is not None and defects[op.defect]["fails_with"] is not None \
                and defects[op.defect]["fails_with"] in first.stderr
            if not expected:
                problems.append({"op": op.label, "exit": first.code, "stderr": first.stderr[-500:]})
            ok.append(False)
            continue
        try:
            op.check(first.stdout.decode())
        except Exception as exc:  # any oracle crash on malformed output is a wrong answer
            problems.append({"op": op.label, "oracle": f"{type(exc).__name__}: {exc}"})
            ok.append(False)
            continue
        ok.append(True)
    for i in sorted(runner.mismatches):
        problems.append({"op": runner.ops[i].label, "oracle": "stdout differs between identical runs"})
        ok[i] = False
    return ok, problems


def op_table(ops, passes, ok) -> list[dict]:
    return [{"op": op.label, "median_scaled_s": statistics.median(p[i].scaled for p in passes),
             "median_wall_s": statistics.median(p[i].seconds for p in passes),
             "wall_s": [p[i].seconds for p in passes], "kernel_index": [p[i].kernel for p in passes],
             "runs": len(passes), "ok": ok[i], "defect": op.defect}
            for i, op in enumerate(ops)]


def end_to_end(passes, ranked, ok, setup, peak_kb) -> tuple[dict, dict]:
    """Metrics at the reference speed, and the same figures in raw wall time.

    ``ranked`` is the number of leading passes whose op times give the median
    and the tail; rates count every pass.
    """
    setup_times, setup_kernel = setup
    succeeded = sum(ok) * len(passes)
    n = ranked * len(passes[0])
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    figures = {}
    for basis in ("scaled", "seconds"):
        times = sorted(getattr(o, basis) for p in passes[:ranked] for o in p)
        figures[basis] = {
            "ops_per_s": succeeded / sum(getattr(o, basis) for p in passes for o in p),
            "op_p50_s": statistics.median(times),
            "op_tail_s": times[index],
        }
    setup_wall = statistics.median(setup_times)
    metrics = {
        "setup_s": setup_wall * REFERENCE_S / statistics.median(setup_kernel),
        **figures["scaled"],
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_ops_share": succeeded / (len(passes) * len(passes[0])),
    }
    detail = {"samples": n, "tail_percentile": 100.0 * (index + 1) / n,
              "tail_samples_beyond": n - index - 1, "setup_runs_s": setup_times,
              "setup_kernel_s": _quartiles(setup_kernel),
              "wall": {"setup_s": setup_wall, **figures["seconds"]}}
    return metrics, detail


def per_layer(tracer, untraced, traced, ok) -> tuple[dict, dict]:
    per_pass = [tracer.pass_metrics(record) for record in tracer.passes]
    metrics = dict(per_pass[0])
    timed = [name for name in metrics if name.endswith("_s")]
    for name in timed:
        metrics[name] = statistics.fmean(m[name] for m in per_pass)
    rates = {}
    for label, passes in (("untraced", untraced), ("traced", traced)):
        rates[label] = sum(ok) * len(passes) / sum(o.scaled for p in passes for o in p)
    metrics["trace.traced_ops_per_s"] = rates["traced"]
    metrics["trace.untraced_ops_per_s"] = rates["untraced"]
    metrics["trace.overhead"] = rates["traced"] / rates["untraced"]
    layer_sum = [sum(v for k, v in m.items() if k.endswith(".self_s")) for m in per_pass]
    gaps = [abs(s - m["trace.op_wall_s"]) for s, m in zip(layer_sum, per_pass)]
    counts = [name for name in metrics if name not in timed and not name.startswith("trace.")]
    unstable = sorted({name for m in per_pass for name in counts if m[name] != per_pass[0][name]})
    detail = {"traced_passes": len(traced), "untraced_passes": len(untraced),
              "self_time_gap_s": max(gaps), "counts_differing_between_passes": unstable}
    return metrics, detail


def _quartiles(values) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def expected_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgraphwave" / "cli.py").is_file():
        print(f"perfbench: no kgraphwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kgraphwave
    from kgraphwave import cli

    if Path(kgraphwave.__file__).resolve().parent != SRC / "kgraphwave":
        print(f"perfbench: imported kgraphwave from {kgraphwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    # One core for the run and the set-up interpreters it starts: the client is
    # single-threaded, and the reference kernel tracks only the core it runs on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    wanted = expected_metrics("per_layer" if args.trace else "end_to_end")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        phases = {"start": perf_counter()}
        workload = workloads.build(args.workload, args.seed, workdir)
        phases["generate"] = perf_counter()
        setup = None if args.trace else measure_setup(workload.graphs)
        phases["setup"] = perf_counter()
        runner = Runner(cli, workload)
        if args.trace:
            half = max(1, runner.min_passes // 2)
            untraced = runner.passes(args.seconds / 2, half)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.passes(args.seconds / 2, half, tracer)
            finally:
                tracer.restore()
            ok, problems = check_outputs(runner, workloads.DEFECTS)
            metrics, detail = per_layer(tracer, untraced, traced, ok)
            if detail["self_time_gap_s"] > 1e-6:
                problems.append({"trace": "layer self times do not add up to op wall time"})
            trace_dir = ROOT / ".bench_trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
            passes = untraced + traced
        else:
            passes = runner.passes(args.seconds, runner.min_passes)
            phases["passes"] = perf_counter()
            # read before the oracles run, so only generation and ops count
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ok, problems = check_outputs(runner, workloads.DEFECTS)
            phases["oracles"] = perf_counter()
            metrics, detail = end_to_end(passes, runner.min_passes, ok, setup, peak_kb)
            detail["phases_s"] = {name: phases[name] - phases[prev]
                                  for prev, name in zip(phases, list(phases)[1:])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    attempted = sum(len(p) for p in passes)
    failed = attempted - sum(ok) * len(passes)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "reference_s": REFERENCE_S, "kernel_s": _quartiles(runner.kernel_s), "kernel_runs_s": runner.kernel_s,
        "sizes": workloads.SIZES[args.workload], "problems": problems,
        "ops": op_table(workload.ops, passes, ok),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
