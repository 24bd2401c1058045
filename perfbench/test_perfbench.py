"""Self-tests of the benchmark: inputs, oracles and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every op of every workload a few times (about a minute and a half on
two cores).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))
sys.path.insert(0, str(run.BENCH_DIR))

import kgraphwave  # noqa: E402
from kgraphwave import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=workloads.NAMES)
def runner(request, tmp_path_factory):
    workload = workloads.build(request.param, SEED, tmp_path_factory.mktemp(request.param))
    one_pass = run.Runner(cli, workload)
    one_pass.passes(0, 1)
    return one_pass


def test_generated_documents_validate(runner):
    graphs = {a for op in runner.ops for a in op.argv if a.endswith(".kg")}
    assert graphs
    for path in graphs:
        kgraphwave.load_kgraph(Path(path))


def test_every_op_passes_its_oracle_or_fails_by_a_known_defect(runner):
    ok, problems = run.check_outputs(runner, workloads.DEFECTS)
    assert problems == []
    for op, good in zip(runner.ops, ok):
        assert good or workloads.DEFECTS[op.defect]["fails_with"] is not None


# One targeted change per op kind; each must be caught by that op's oracle.
PERTURB = {
    "ck": lambda recs: recs[1].update(max_deviation=1e-6),
    "measure": lambda recs: recs[1].update(measure=str(oracles.Fraction(recs[1]["measure"]) * 2)),
    "validate": lambda recs: recs[0].update(squares=recs[0]["squares"] + 1),
    "pf": lambda recs: recs[0]["x_lambda"].update(
        {k: v + 1e-6 for k, v in list(recs[0]["x_lambda"].items())[:1]}),
    "laplacian": lambda recs: recs[-1]["matrix"][0].__setitem__(0, recs[-1]["matrix"][0][0] + 1),
    "eig": lambda recs: recs[5].update(eigenvalue=recs[5]["eigenvalue"] + 1e-6),
    "gft": lambda recs: recs[3].update(coefficient=recs[3]["coefficient"] + 1e-6),
    "wavelet": lambda recs: recs[0].update(value=recs[0]["value"] + 1e-6),
    "localize": lambda recs: recs[0].update(ratio=recs[0]["ratio"] + 1e-6),
    "reconstruct": lambda recs: recs[0].update(value=recs[0]["value"] + 1e-3),
    "basis": lambda recs: recs[10]["terms"][0].update(coeff=recs[10]["terms"][0]["coeff"] + 1e-6),
    "family": lambda recs: recs[-1]["terms"][0].update(coeff=recs[-1]["terms"][0]["coeff"] + 1e-6),
    "analyze": lambda recs: recs[5].update(coeff=recs[5]["coeff"] * (1 + 1e-6) + 1e-6),
    "synthesize": lambda recs: recs[0].update(coeff=recs[0]["coeff"] + 1e-6),
    "compare": lambda recs: recs[0]["principal_angles"].__setitem__(0, 1e-6),
    "markov": lambda recs: recs[-1]["terms"][0].update(coeff=recs[-1]["terms"][0]["coeff"] + 1e-6),
    "traffic": lambda recs: next(r for r in recs if r["kind"] == "wavelet")["values"].__setitem__(
        0, next(r for r in recs if r["kind"] == "wavelet")["values"][0] + 1e-6),
}


def test_each_oracle_rejects_a_perturbed_output(runner):
    checked = 0
    for op, outcome in zip(runner.ops, runner.first):
        if outcome.code != 0:
            continue
        recs = [json.loads(line) for line in outcome.stdout.decode().splitlines()]
        PERTURB[op.label.split()[0]](recs)
        bad = "".join(json.dumps(r) + "\n" for r in recs)
        with pytest.raises(oracles.OracleError):
            op.check(bad)
        checked += 1
    assert checked >= len(runner.ops) - 1


def test_embed_oracle_rejects_a_wrong_interval(tmp_path):
    workload = workloads.build("cylinder", SEED, tmp_path)
    op = next(o for o in workload.ops if "embed" in o.label)
    outcome = run.run_op(cli, op.argv)
    recs = [json.loads(line) for line in outcome.stdout.decode().splitlines()]
    recs[2]["interval"][1] = "1"
    with pytest.raises(oracles.OracleError):
        op.check("".join(json.dumps(r) + "\n" for r in recs))


def test_tracing_leaves_stdout_unchanged_and_accounts_for_all_time(runner):
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = []
        for _ in range(2):
            tracer.start_pass()
            outcomes.append([run.run_op(cli, op.argv, tracer, i) for i, op in enumerate(runner.ops)])
    finally:
        tracer.restore()
    for traced in outcomes:
        assert [o.stdout for o in traced] == [o.stdout for o in runner.first]
    first, second = (tracer.pass_metrics(p) for p in tracer.passes)
    layer_sum = sum(v for k, v in first.items() if k.endswith(".self_s"))
    assert layer_sum == pytest.approx(first["trace.op_wall_s"], abs=1e-6)
    counts = [k for k in first if not k.endswith("_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    # the wrappers are gone again
    assert kgraphwave.kgraph.enumerate_paths is kgraphwave.enumerate_paths
    assert not hasattr(kgraphwave.kgraph.enumerate_paths, "__wrapped__")


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    import shutil

    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cylinder", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

