"""The CLI's one writer: each record is written as it is made, the bytes are
those of the whole output joined before writing, a failing op writes
nothing, and a closed stdout ends with one JSON record."""

import io
import json
import os
import subprocess
import sys
import tempfile
from argparse import Namespace
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphwave import fixture_path
from kgraphwave.cli import _emit, main
from helpers import joined_emit, twisted_circulant_document

LED = str(fixture_path("ledrappier"))
L3 = str(fixture_path("lambda3"))
SRC = str(Path(__file__).resolve().parents[1] / "src")

keys = st.sampled_from(["t", "ratio", "value", "é", "ключ", "値", ""])
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 1e308, -1e308, 5e-324]),
    st.integers(-2 ** 70, 2 ** 70), st.text(max_size=6), st.none(), st.booleans(),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3))
record_lists = st.lists(st.dictionaries(keys, values, max_size=4), max_size=6)
field_lists = st.one_of(st.none(), st.lists(keys, min_size=1, max_size=3, unique=True))


def emitted(args, records, csv_fields):
    """What `_emit` writes for the records, handed over one at a time."""
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(args, iter(records), csv_fields)
    if args.out is None:
        return out.getvalue()
    assert out.getvalue() == ""
    return Path(args.out).read_bytes()


@settings(max_examples=150, deadline=None)
@given(records=record_lists, csv_fields=field_lists, use_csv=st.booleans())
def test_streamed_output_equals_the_joined_output(records, csv_fields, use_csv):
    """To stdout and to --out, JSON and --csv: missing and extra CSV fields,
    -0.0, 1e308, non-ASCII keys and no records at all."""
    assert emitted(Namespace(csv=use_csv, out=None), records, csv_fields) == \
        joined_emit(Namespace(csv=use_csv), records, csv_fields)
    with tempfile.TemporaryDirectory() as tmp:
        streamed, joined = Path(tmp, "streamed"), Path(tmp, "joined")
        with open(joined, "w") as fh:  # the text file `--out` opens, written in one go
            fh.write(joined_emit(Namespace(csv=use_csv), records, csv_fields))
        assert emitted(Namespace(csv=use_csv, out=str(streamed)), records, csv_fields) == \
            joined.read_bytes()


@pytest.mark.parametrize("use_csv", [False, True], ids=["json", "csv"])
def test_each_record_is_written_before_the_next_is_made(use_csv):
    records = [{"t": 0.5, "ratio": 0.25}, {"t": -0.0}, {"slope": None}, {"t": 2, "ratio": 1e308}]
    fields = ["t", "ratio"]
    out = io.StringIO()

    def made():
        for i, rec in enumerate(records):
            assert out.getvalue() == joined_emit(Namespace(csv=use_csv), records[:i], fields)
            yield rec
    with redirect_stdout(out):
        _emit(Namespace(csv=use_csv, out=None), made(), fields)
    assert out.getvalue() == joined_emit(Namespace(csv=use_csv), records, fields)


@pytest.fixture
def signal(tmp_path):
    sig = tmp_path / "sig.json"
    sig.write_text("[1.0, 0.0, 0.0, -1.0]")
    return str(sig)


@pytest.mark.parametrize("argv, fields", [
    (["measure", LED, "--path", "a,c,c", "--path", "@v2", "--path", "c"], ["path", "measure"]),
    (["measure", LED, "--exact", "--embed", "--path", "a,c", "--path", "@v1"], ["path", "measure"]),
    (["ck-check", LED, "--level", "1,1"], ["relation", "max_deviation"]),
    (["spectral", LED, "--eig"], ["eigenvalue"]),
    (["spectral", LED, "--gft", "SIG"], ["index", "coefficient"]),
    (["spectral", LED, "--wavelet", "--n", "v2", "--t", "0.5"], ["t", "n", "m", "value"]),
    (["spectral", LED, "--reconstruct", "SIG"], ["vertex", "value"]),
    (["spectral", LED, "--localize", "--n", "v1", "--m", "v3", "--tlist", "0.5,0.25,0.125"],
     ["t", "ratio", "slope"]),
], ids=["measure", "measure exact embed", "ck-check", "eig", "gft", "wavelet", "reconstruct", "localize"])
def test_csv_output_equals_the_joined_output_of_the_records(argv, fields, signal, capsys):
    argv = [signal if a == "SIG" else a for a in argv]
    assert main(argv) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main([*argv, "--csv"]) == 0
    assert capsys.readouterr().out == joined_emit(Namespace(csv=True), records, fields)


@pytest.mark.parametrize("argv, code", [
    (["traffic", L3], 3),  # one vertex: every degree class is a singleton
    (["spectral", LED, "--reconstruct", "SIG", "--tgrid", "0.001,0.1,10"], 4),
    (["measure", L3, "--embed", "--path", "e"], 3),  # lambda3's vertex matrices are not 0/1
], ids=["traffic singletons", "reconstruct coarse grid", "measure embed"])
def test_a_failing_op_writes_nothing(argv, code, signal, tmp_path, capsys):
    argv = [signal if a == "SIG" else a for a in argv]
    out = tmp_path / "out.jsonl"
    out.write_bytes(b'{"kept": true}\n')
    for extra in ([], ["--out", str(out)]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *extra])
        captured = capsys.readouterr()
        assert exc.value.code == code and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and json.loads(captured.err)["error"]
    assert out.read_bytes() == b'{"kept": true}\n'


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("op", [
    ["traffic", "CIRC"], ["spectral", "CIRC", "--eig"], ["wavelets", LED, "--shape", "1,1", "--depth", "4"],
    ["markov", "--alphabet", "3", "--weights", "0.2,0.3,0.5", "--depth", "6"],
], ids=["traffic", "eig", "wavelets", "markov"])
def test_a_closed_stdout_ends_with_one_record(op, buffered, tmp_path):
    """A reader that closes the pipe after one line: the op exits 2 with one
    JSON record on stderr, whatever stdout's buffering.  The `wavelets` and
    `markov` listings are one text each: unbuffered, its write is cut short."""
    graph = tmp_path / "circ.kg"
    graph.write_text(json.dumps(twisted_circulant_document(200, (1, 2), (1, 3), 0)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    argv = [str(graph) if a == "CIRC" else a for a in op]
    child = subprocess.Popen([sys.executable, "-m", "kgraphwave.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert json.loads(child.stdout.readline())
        child.stdout.close()
        err = child.stderr.read().decode()
        code = child.wait(timeout=60)
    finally:
        child.kill()
        child.stderr.close()
    assert code == 2, err
    (line,) = err.splitlines()
    assert json.loads(line) == {"error": "parse", "message": "[Errno 32] Broken pipe"}
