import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kgraphwave
from kgraphwave import (
    CylinderFn,
    PreferredPaths,
    ValidationError,
    WaveletBasis,
    build_wavelet_family,
    fixture_path,
    load_kgraph,
    load_kgraph_file,
    normal_form,
    vertex_path,
    wavelet_basis,
)
from kgraphwave.cli import _read_records, main
from helpers import (
    graph_document,
    count_edge_objects,
    count_path_objects,
    cylinder_fns_equal,
    forbid_path_building,
    generated_documents,
    laplacian_listing,
    least_total_chooser,
    patch_noncommuting_pair,
    per_line_records,
    random_cylinder_fn,
    torus_document,
    twisted_circulant_document,
)

LED = str(fixture_path("ledrappier"))
L3 = str(fixture_path("lambda3"))


def run_cli(capsys, *argv, expect_exit=None):
    if expect_exit is None:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0
        return captured.out, captured.err
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == expect_exit
    return captured.out, captured.err


def records(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestCommands:
    def test_validate(self, capsys):
        out, _ = run_cli(capsys, "validate", LED)
        (rec,) = records(out)
        assert rec == {
            "ok": True, "k": 2, "vertices": 4,
            "edges_per_color": {"1": 8, "2": 8}, "squares": 16,
            "cube_condition": "n/a (k<3)", "strongly_connected": True,
        }

    def test_validate_counts_colors_without_edges(self, capsys, tmp_path):
        doc = tmp_path / "loop.kg"
        doc.write_text(json.dumps({"k": 3, "vertices": ["v"], "squares": [], "edges": [
            {"id": "e", "color": 2, "source": "v", "range": "v"}]}))
        out, _ = run_cli(capsys, "validate", str(doc))
        (rec,) = records(out)
        assert rec["edges_per_color"] == {"1": 0, "2": 1, "3": 0}

    def test_pf(self, capsys):
        out, _ = run_cli(capsys, "pf", LED, "--hausdorff")
        (rec,) = records(out)
        assert rec["rho"] == [2.0, 2.0]
        assert rec["x_lambda"] == {"v1": 0.25, "v2": 0.25, "v3": 0.25, "v4": 0.25}
        assert rec["hausdorff_dimension"] == 0.5

    def test_measure_exact(self, capsys):
        out, _ = run_cli(capsys, "measure", L3, "--exact",
                         "--path", "e", "--path", "e,f1", "--path", "@v")
        recs = records(out)
        assert [r["measure"] for r in recs] == ["1", "1/2", "1"]

    def test_ck_check(self, capsys):
        out, _ = run_cli(capsys, "ck-check", L3, "--level", "2,2")
        recs = records(out)
        assert [r["relation"] for r in recs] == ["CK1", "CK2", "CK3", "CK4"]
        assert all(r["max_deviation"] < 1e-12 for r in recs)

    def test_wavelet_family_lists_reference_wavelet(self, capsys):
        out, _ = run_cli(capsys, "wavelets", LED, "--shape", "1,2", "--list-family")
        recs = records(out)
        assert sum(1 for r in recs if r["kind"] == "wavelet") == 28
        first = next(r for r in recs if r["kind"] == "wavelet" and r["vertex"] == "v1")
        assert first["terms"] == [
            {"path": ["a", "c", "c"], "coeff": 4.0},
            {"path": ["a", "c", "e"], "coeff": -4.0}]

    def test_wavelet_analyze_synthesize_round_trip(self, capsys, tmp_path):
        graph = load_kgraph(open(L3).read())
        fn = CylinderFn.indicator(normal_form(graph, ["e", "f1"]))
        fn_file = tmp_path / "fn.jsonl"
        fn_file.write_text("".join(json.dumps(r) + "\n" for r in fn.to_records()))
        out, _ = run_cli(capsys, "wavelets", L3, "--shape", "1,1",
                         "--depth", "1", "--analyze", str(fn_file))
        coeffs = records(out)
        assert [c["coeff"] for c in coeffs] == [0.5, 0.5]
        coeff_file = tmp_path / "coeffs.jsonl"
        coeff_file.write_text("".join(json.dumps(c) + "\n" for c in coeffs))
        out, _ = run_cli(capsys, "wavelets", L3, "--shape", "1,1",
                         "--depth", "1", "--synthesize", str(coeff_file))
        back = CylinderFn.from_records(graph, records(out))
        assert cylinder_fns_equal(back, fn, tol=1e-12)

    def test_markov(self, capsys):
        out, _ = run_cli(capsys, "markov", "--alphabet", "2",
                         "--weights", "1/2,1/2", "--depth", "1")
        recs = records(out)
        assert len(recs) == 4

    def test_traffic_with_prefs_file(self, capsys, tmp_path):
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text("\n".join(json.dumps(r) for r in [
            {"vertex": "v1", "path": "a,c,c"},
            {"vertex": "v2", "path": "a,c,e"},
            {"vertex": "v3", "path": "a,e,j"},
            {"vertex": "v4", "path": "a,e,h"},
        ]))
        out, _ = run_cli(capsys, "traffic", LED, "--prefs", str(prefs))
        recs = records(out)
        wavelets = [r for r in recs if r["kind"] == "wavelet"]
        assert [w["values"] for w in wavelets][:2] == [
            [4.0, -4.0, 0.0, 0.0], [0.0, 0.0, 4.0, -4.0]]
        assert recs[-1] == {"kind": "summary", "complete": True}

    def test_traffic_unknown_root(self, capsys, tmp_path):
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text(json.dumps({"vertex": "v1", "path": "@v1"}) + "\n")
        for extra in ([], ["--prefs", str(prefs)]):
            out, errtext = run_cli(capsys, "traffic", LED, "--root", "zz", *extra, expect_exit=1)
            assert out == ""
            assert json.loads(errtext) == {"error": "usage", "message": "--root names unknown vertex 'zz'"}

    def test_laplacian(self, capsys):
        out, _ = run_cli(capsys, "laplacian", LED)
        recs = records(out)
        assert recs[-1]["matrix"] == [
            [4, -2, -1, -1], [-2, 8, -3, -3], [-1, -3, 6, -2], [-1, -3, -2, 6]]

    def test_spectral_eig_and_csv(self, capsys):
        out, _ = run_cli(capsys, "spectral", LED, "--eig")
        recs = records(out)
        got = [r["eigenvalue"] for r in recs]
        assert got == pytest.approx([0.0, 5.17, 8.0, 10.83], abs=0.01)
        assert recs[3]["eigenvector"] == pytest.approx(
            [0.15, -0.85, 0.35, 0.35], abs=0.01)
        out, _ = run_cli(capsys, "spectral", LED, "--eig", "--csv")
        lines = out.splitlines()
        assert lines[0] == "eigenvalue"
        assert len(lines) == 5

    def test_spectral_reconstruct(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text("[1.0, 1.0, 1.0, 1.0]")
        out, _ = run_cli(capsys, "spectral", LED, "--reconstruct", str(sig))
        recs = records(out)
        assert all(abs(r["value"]) < 1e-10 for r in recs)

    def test_spectral_gft(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text("[1.0, 1.0, 1.0, 1.0]")
        out, _ = run_cli(capsys, "spectral", LED, "--gft", str(sig))
        recs = records(out)
        assert recs[0]["coefficient"] == pytest.approx(2.0, abs=1e-12)
        assert all(abs(r["coefficient"]) < 1e-12 for r in recs[1:])

    def test_spectral_wavelet_and_localize(self, capsys):
        out, _ = run_cli(capsys, "spectral", LED, "--wavelet",
                         "--t", "0.3", "--n", "v2")
        recs = records(out)
        assert [r["m"] for r in recs] == ["v1", "v2", "v3", "v4"]
        assert all(r["value"] != 0.0 for r in recs)
        out, _ = run_cli(capsys, "spectral", LED, "--localize",
                         "--n", "v1", "--m", "v3", "--tlist", "0.5,0.25,0.125")
        recs = records(out)
        assert len(recs) == 4 and "slope" in recs[-1]
        out, _ = run_cli(capsys, "spectral", LED, "--localize",
                         "--n", "v1", "--m", "v3", "--tlist", "0.5,0.25,0.125", "--csv")
        lines = out.splitlines()
        assert lines[0] == "t,ratio,slope" and lines[-1] == f",,{recs[-1]['slope']!r}"

    def test_wavelets_basis_and_compare(self, capsys):
        out, _ = run_cli(capsys, "wavelets", L3, "--shape", "1,1", "--depth", "2")
        recs = records(out)
        assert len(recs) == 4
        assert {r["kind"] for r in recs} == {"scaling", "wavelet"}
        out, _ = run_cli(capsys, "wavelets", L3, "--shape", "1,1", "--compare", "2")
        (rec,) = records(out)
        assert set(rec) == {"equal", "principal_angles",
                            "dim_multiscale", "dim_single_scale"}

    def test_measure_embed(self, capsys):
        out, _ = run_cli(capsys, "measure", LED, "--exact", "--embed",
                         "--path", "a,c,c")
        (rec,) = records(out)
        assert rec["interval"] == ["0", "1/256"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        run_cli(capsys, "pf", LED, "--out", str(target))
        assert json.loads(target.read_text())["rho"] == [2.0, 2.0]

    def test_graph_flag_form(self, capsys):
        positional, _ = run_cli(capsys, "pf", LED)
        flagged, _ = run_cli(capsys, "pf", "--graph", LED)
        assert positional == flagged
        _, errtext = run_cli(capsys, "pf", LED, "--graph", LED, expect_exit=1)
        assert json.loads(errtext)["error"] == "usage"
        _, errtext = run_cli(capsys, "pf", expect_exit=1)
        assert json.loads(errtext)["error"] == "usage"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("pf", LED),
        ("wavelets", LED, "--shape", "1,2", "--list-family"),
        ("spectral", LED, "--eig"),
        ("traffic", LED),
        ("laplacian", L3),
    ])
    def test_identical_bytes(self, capsys, argv):
        first, _ = run_cli(capsys, *argv)
        second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_parser_is_built_once(self, capsys, monkeypatch):
        build = kgraphwave.cli.build_parser
        built = []
        monkeypatch.setattr(kgraphwave.cli, "build_parser", lambda: built.append(1) or build())
        kgraphwave.cli._parser.cache_clear()
        run_cli(capsys, "pf", LED)
        run_cli(capsys, "ck-check", L3, "--level", "1,1")
        assert built == [1]

    def test_usage_error_leaves_the_parser_as_it_was(self, capsys):
        argv = ("measure", L3, "--exact", "--path", "e", "--path", "e,f1")
        first, _ = run_cli(capsys, *argv)
        run_cli(capsys, "measure", L3, "--path", "e", "--bogus", expect_exit=1)
        second, _ = run_cli(capsys, *argv)
        assert first == second


class TestBadWords:
    """Every word of an op is normalized in one batch, and the first bad one
    in input order is named, as reading the words one at a time names it."""

    BAD = {"zz": "unknown edge id 'zz'", "": "unknown edge id ''", "@zz": "unknown vertex 'zz'",
           "a,b": "edges a and b are not composable (source v1 != range v3)"}

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_measure(self, capsys, bad, at):
        words = ["a,c", "@v1", "c,a", "d,h,m"]
        words.insert(at, bad)
        _, errtext = run_cli(capsys, "measure", LED, "--exact", *[x for w in words for x in ("--path", w)],
                             expect_exit=3)
        assert json.loads(errtext) == {"error": "validation", "message": self.BAD[bad]}

    def test_measure_embed_reads_the_first_path_before_checking_the_graph(self, capsys):
        first_bad = ["measure", L3, "--embed", "--path", "zz", "--path", "e"]
        _, errtext = run_cli(capsys, *first_bad, expect_exit=3)
        assert json.loads(errtext)["message"] == "unknown edge id 'zz'"
        later_bad = ["measure", L3, "--embed", "--path", "e", "--path", "zz"]
        _, errtext = run_cli(capsys, *later_bad, expect_exit=3)
        assert json.loads(errtext)["message"] == "embedding requires all vertex matrices to be 0/1-valued"

    @pytest.mark.parametrize("at", [0, 2, 4])
    @pytest.mark.parametrize("bad,message", [
        (["zz"], "unknown edge id 'zz'"), ([], "empty word has no endpoints; use vertex_path"),
        (["@zz"], "unknown vertex 'zz'"), (["@v1", "a"], "unknown edge id '@v1'"),
        (["a", "b"], "edges a and b are not composable (source v1 != range v3)")])
    def test_analyze(self, capsys, tmp_path, bad, message, at):
        paths = [["a", "c", "c"], ["@v1"], ["c", "a"], ["a"]]
        paths.insert(at, bad)
        fn = tmp_path / "fn.jsonl"
        fn.write_text("".join(json.dumps({"path": p, "coeff": 1.5}) + "\n" for p in paths))
        _, errtext = run_cli(capsys, "wavelets", LED, "--shape", "1,1", "--depth", "2",
                             "--analyze", str(fn), expect_exit=3)
        assert json.loads(errtext) == {"error": "validation", "message": message}

    def test_traffic_prefs_name_the_first_fault_by_line(self, capsys, tmp_path):
        lines = [json.dumps({"vertex": v, "path": p}) for v, p in
                 (("v1", "@v1"), ("v2", "a"), ("v3", "d,h"), ("v4", "d"))]
        word, junk = json.dumps({"vertex": "v2", "path": "zz"}), "{not json"
        prefs = tmp_path / "prefs.jsonl"
        for order, code, message in (
                ((word, junk), 3, "unknown edge id 'zz'"),
                ((junk, word), 2, f"{prefs} line 2: invalid JSON: Expecting property name enclosed in double quotes")):
            prefs.write_text("\n".join(lines[:1] + [order[0]] + lines[1:3] + [order[1]] + lines[3:]) + "\n")
            _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), expect_exit=code)
            assert json.loads(errtext)["message"].startswith(message)

    @pytest.mark.parametrize("again", ["a", "a,c,e"], ids=["same path", "other path"])
    def test_traffic_prefs_name_each_vertex_once(self, capsys, tmp_path, again):
        # a second line for v2 is refused, whether or not its path is the first's
        lines = [json.dumps({"vertex": v, "path": p}) for v, p in
                 (("v1", "@v1"), ("v2", "a"), ("v3", "d,h"), ("v4", "d"), ("v2", again))]
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text("\n".join(lines) + "\n")
        _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), expect_exit=3)
        assert json.loads(errtext) == {"error": "validation", "reason": "bad_preferred_path",
                                       "message": f"{prefs} line 5: vertex 'v2' is named again, first on line 2"}
        # a fault on an earlier line wins over the repeat, and the repeat over a later fault
        bad_word = json.dumps({"vertex": "v3", "path": "zz"})  # v3 repeats on line 4
        for text, message in (([*lines[:1], bad_word, *lines[1:]], "unknown edge id 'zz'"),
                              ([*lines, "{"], "line 5: vertex 'v2' is named again")):
            prefs.write_text("\n".join(text) + "\n")
            _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), expect_exit=3)
            assert message in json.loads(errtext)["message"]

    @pytest.mark.parametrize("pairs,root,message", [
        ((("v1", "a,c,c"), ("v2", "@v2"), ("v3", "a,c,c")), [], "path for v2 has range v2, not the root"),
        ((("v1", "a,c,c"), ("v2", "a,c,c")), [], "path for v2 has source v1, not v2"),
        ((("v1", "a,c,c"), ("zz", "a,c,e")), ["--root", "v1"], "path for zz has source v2, not zz"),
        ((("v1", "a,c,c"), ("v2", "a,c,e")), ["--root", "v2"], "path for v1 has range v1, not the root"),
        ((("v2", "@v2"), ("v1", "a,c,c"), ("v3", "@v2")), [], "path for v1 has range v1, not the root"),
    ], ids=["range", "source", "unknown vertex", "root flag", "first range is the root"])
    def test_traffic_prefs_paths_run_from_each_vertex_up_to_the_root(self, capsys, tmp_path, pairs, root, message):
        # the first record whose range is not the root (--root, or else the
        # range of the first path), or whose source is not its vertex
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text("".join(json.dumps({"vertex": v, "path": p}) + "\n" for v, p in pairs))
        _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), *root, expect_exit=3)
        assert json.loads(errtext) == {"error": "validation", "reason": "bad_preferred_path", "message": message}

    @pytest.mark.parametrize("path", ["@v2", "a,c,c"], ids=["range", "source"])
    def test_traffic_prefs_and_preferred_paths_give_one_message(self, capsys, tmp_path, ledrappier, path):
        """A path for v2 that ends off the root v1, or starts off v2: the
        same record through --prefs as the error `PreferredPaths` raises."""
        pairs = (("v1", "a,c,c"), ("v2", path))
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text("".join(json.dumps({"vertex": v, "path": p}) + "\n" for v, p in pairs))
        _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), expect_exit=3)
        with pytest.raises(ValidationError) as exc:
            PreferredPaths("v1", {v: vertex_path(ledrappier, p[1:]) if p.startswith("@")
                                  else normal_form(ledrappier, p.split(",")) for v, p in pairs})
        assert exc.value.reason == "bad_preferred_path"
        assert json.loads(errtext) == {"error": "validation", "reason": exc.value.reason, "message": str(exc.value)}
        assert str(exc.value) == {"@v2": "path for v2 has range v2, not the root",
                                  "a,c,c": "path for v2 has source v1, not v2"}[path]


class TestErrorChannel:
    @pytest.mark.parametrize("argv", [
        ["pf", LED, "--no-such-flag"],
        ["wavelets", LED],
        ["wavelets", LED, "--shape", "1,1", "--depth", "two"],
        ["spectral", LED, "--eig", "--wavelet"],
        [],
    ], ids=["unknown-flag", "missing-shape", "non-integer-depth", "two-modes", "no-subcommand"])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        """argparse's own errors write the one record and no usage text."""
        out, errtext = run_cli(capsys, *argv, expect_exit=1)
        (line,) = errtext.splitlines()
        assert out == "" and json.loads(line)["error"] == "usage"

    def test_usage_error(self, capsys):
        _, errtext = run_cli(capsys, "pf", expect_exit=1)
        assert json.loads(errtext)["error"] == "usage"

    def test_spectral_without_mode(self, capsys):
        _, errtext = run_cli(capsys, "spectral", LED, expect_exit=1)
        assert json.loads(errtext)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ("spectral", L3, "--eig", "--wavelet", "--n", "v"),
        ("wavelets", LED, "--shape", "1,1", "--list-family", "--compare", "2", "--analyze", "/nonexistent"),
    ], ids=["spectral", "wavelets"])
    def test_conflicting_modes_are_a_usage_error(self, capsys, argv):
        # two modes of one op exit before either runs or opens its file
        out, errtext = run_cli(capsys, *argv, expect_exit=1)
        (line,) = errtext.splitlines()
        rec = json.loads(line)
        assert out == "" and rec["error"] == "usage" and "not allowed with argument" in rec["message"]

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.kg"
        bad.write_text("{broken")
        _, errtext = run_cli(capsys, "validate", str(bad), expect_exit=2)
        assert json.loads(errtext)["error"] == "parse"

    @pytest.mark.parametrize("argv,text", [
        (("validate", "{bad}"), Path(LED).read_text()),
        (("wavelets", LED, "--shape", "1,1", "--depth", "1", "--analyze", "{bad}"), '{"path": ["a"], "coeff": 1}\n'),
        (("wavelets", LED, "--shape", "1,1", "--depth", "1", "--synthesize", "{bad}"), '{"coeff": 1}\n' * 16),
        (("traffic", LED, "--prefs", "{bad}"), '{"vertex": "v1", "path": "@v1"}\n'),
        (("spectral", LED, "--gft", "{bad}"), "[1.0, 0.0, 0.0, -1.0]"),
        (("spectral", LED, "--reconstruct", "{bad}"), "[1.0, 0.0, 0.0, -1.0]"),
    ], ids=["graph", "analyze", "synthesize", "prefs", "gft", "reconstruct"])
    def test_non_utf8_input_is_a_parse_error(self, capsys, tmp_path, argv, text):
        # one 0xff byte in the middle of an input that parses without it
        bad = tmp_path / "bad"
        data = text.encode()
        bad.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        _, errtext = run_cli(capsys, *(str(bad) if a == "{bad}" else a for a in argv), expect_exit=2)
        (line,) = errtext.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "parse" and "0xff" in rec["message"]

    @pytest.mark.parametrize("flag", ["--analyze", "--synthesize"])
    def test_non_utf8_wins_over_an_earlier_json_fault(self, capsys, tmp_path, flag):
        """The reader decodes the whole file before it reads a line: a byte
        that is not UTF-8 on the last line is reported, not the JSON fault
        of line 2."""
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"path": ["a"], "coeff": 1}\n{"path": ["a"] "coeff": 1}\n{"path": ["c"], "coeff": 2}\n'
                        b'{"path": ["c"], "coeff": "\xff"}\n')
        _, errtext = run_cli(capsys, "wavelets", LED, "--shape", "1,1", flag, str(bad), expect_exit=2)
        (line,) = errtext.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "parse" and "can't decode byte 0xff" in rec["message"]

    @pytest.mark.parametrize("argv,text,message", [
        (("wavelets", LED, "--shape", "1,1", "--analyze", "{bad}"),
         '{"path": ["a"], "coeff": 1}\n{"path": ["a"] "coeff": 1}\n{"path": ["c"], "coeff": 2}\n',
         "Expecting ',' delimiter at column 16"),
        (("wavelets", LED, "--shape", "1,1", "--synthesize", "{bad}"),
         '{"coeff": 1}\n\n{"coeff": }\n' + '{"coeff": 1}\n' * 14, "Expecting value at column 11"),
        (("traffic", LED, "--prefs", "{bad}"),
         '{"vertex": "v1", "path": "@v1"}\n{"vertex": "v2", "path": "a",}\n{"vertex": "v3", "path": "d,h"}\n',
         "Expecting property name enclosed in double quotes at column 30"),
        (("spectral", LED, "--gft", "{bad}"), "[1.0,\n0.0 0.0,\n-1.0]", "Expecting ',' delimiter at column 5"),
        (("spectral", LED, "--reconstruct", "{bad}"), "[1.0,\n0.0,,\n0.0,\n-1.0]", "Expecting value at column 5"),
    ], ids=["analyze", "synthesize", "prefs", "gft", "reconstruct"])
    def test_json_syntax_error_names_the_file_and_line(self, capsys, tmp_path, argv, text, message):
        # a bad line amid good ones: the decoder's message, at that line of that file
        bad = tmp_path / "bad"
        bad.write_text(text)
        line = 3 if "--synthesize" in argv else 2
        out, errtext = run_cli(capsys, *(str(bad) if a == "{bad}" else a for a in argv), expect_exit=2)
        assert out == "" and json.loads(errtext) == {"error": "parse",
                                                     "message": f"{bad} line {line}: invalid JSON: {message}"}

    @pytest.mark.parametrize("argv", [
        ["validate", LED], ["pf", LED], ["wavelets", LED, "--shape", "1,1"],
        ["markov", "--alphabet", "2", "--weights", "1/2,1/2"], ["traffic", LED], ["laplacian", LED],
    ], ids=["validate", "pf", "wavelets", "markov", "traffic", "laplacian"])
    def test_csv_is_a_flag_of_the_tabular_ops_alone(self, capsys, argv):
        out, errtext = run_cli(capsys, *argv, "--csv", expect_exit=1)
        rec = json.loads(errtext)
        assert out == "" and rec["error"] == "usage" and "--csv" in rec["message"]

    @pytest.mark.parametrize("mode", [["--list-family"], ["--compare", "2"]], ids=["list-family", "compare"])
    @pytest.mark.parametrize("depth", ["-1", "1", "2"])
    def test_depth_is_refused_where_no_basis_is_built(self, capsys, mode, depth):
        out, errtext = run_cli(capsys, "wavelets", LED, "--shape", "1,1", *mode, "--depth", depth, expect_exit=1)
        assert out == "" and json.loads(errtext) == {
            "error": "usage", "message": "--depth applies only to the basis, --analyze and --synthesize"}

    def test_depth_defaults_to_one(self, capsys):
        assert run_cli(capsys, "wavelets", LED, "--shape", "1,1") == \
            run_cli(capsys, "wavelets", LED, "--shape", "1,1", "--depth", "1")

    def test_missing_file(self, capsys):
        _, errtext = run_cli(capsys, "validate", "/nope/missing.kg", expect_exit=2)
        assert json.loads(errtext)["error"] == "parse"

    def test_validation_error(self, capsys, tmp_path):
        doc = json.loads(open(L3).read())
        doc["squares"] = doc["squares"][:1]
        broken = tmp_path / "broken.kg"
        broken.write_text(json.dumps(doc))
        _, errtext = run_cli(capsys, "validate", str(broken), expect_exit=3)
        rec = json.loads(errtext)
        assert rec["error"] == "validation"
        assert rec["reason"] == "missing_square"

    def test_exact_needs_fraction_weights(self, capsys):
        bouquet = str(fixture_path("bouquet-3"))
        out, _ = run_cli(capsys, "measure", bouquet, "--weights", "1/5,3/10,1/2", "--exact", "--path", "0")
        assert records(out)[0]["measure"] == "1/5"
        _, errtext = run_cli(capsys, "measure", bouquet, "--weights", "0.2,0.3,1/2", "--exact",
                             "--path", "0", expect_exit=3)
        assert json.loads(errtext)["error"] == "validation"

    def test_pf_on_disconnected_graph(self, capsys):
        _, errtext = run_cli(capsys, "pf", str(fixture_path("lambda1-sphere")),
                             expect_exit=3)
        assert json.loads(errtext)["error"] == "validation"

    @pytest.mark.parametrize("argv", [
        ("--wavelet",),
        ("--wavelet", "--n", "nowhere"),
        ("--localize", "--m", "v", "--tlist", "1"),
        ("--localize", "--n", "v", "--m", "nowhere", "--tlist", "1"),
        ("--localize", "--n", "v", "--m", "v"),
    ])
    def test_spectral_vertex_arguments(self, capsys, argv):
        _, errtext = run_cli(capsys, "spectral", L3, *argv, expect_exit=1)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "usage"

    def test_eigen_residual_is_numeric(self, capsys, monkeypatch):
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (eigh(m)[0] + 1e-6, eigh(m)[1]))
        _, errtext = run_cli(capsys, "spectral", LED, "--eig", expect_exit=4)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "numeric"

    def test_pf_residual_is_numeric(self, capsys, monkeypatch):
        # colours without a common eigenvector: A_1 A_2 has the PF vector 1,
        # on which A_2 = diag(1, 2, 3, 4) has Rayleigh quotients 1..4
        graph = load_kgraph_file(LED)
        patch_noncommuting_pair(monkeypatch, graph)
        monkeypatch.setattr(kgraphwave.cli, "load_kgraph_file", lambda path: graph)
        _, errtext = run_cli(capsys, "pf", LED, expect_exit=4)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "numeric"

    @pytest.mark.parametrize("argv", [
        ("--localize", "--n", "v", "--m", "v", "--tlist", "a,b"),
        ("--localize", "--n", "v", "--m", "v", "--tlist", ""),
        ("--reconstruct", "SIG", "--tgrid", "1e-3,10"),
        ("--reconstruct", "SIG", "--tgrid", "1e-3,10,x"),
        ("--reconstruct", "SIG", "--tgrid", "0,10,100"),
        ("--reconstruct", "SIG", "--tgrid=-1e-3,-10,100"),
        ("--reconstruct", "SIG", "--tgrid", "1e-3,inf,100"),
        ("--reconstruct", "SIG", "--tgrid", "1e-3,10,1"),
        ("--reconstruct", "SIG", "--tgrid", "1e-3,10,0"),
        ("--reconstruct", "SIG", "--tgrid", "1e-3,10,2.5"),
        ("--wavelet", "--n", "nowhere"),
        ("--wavelet", "--n", "v", "--t", "nan"),
        ("--wavelet", "--n", "v", "--t", "-1"),
        ("--wavelet", "--n", "v", "--t", "inf"),
        ("--wavelet", "--n", "v", "--t", "0"),
        ("--localize", "--n", "v", "--m", "v", "--tlist", "0,0.5"),
        ("--localize", "--n", "v", "--m", "v", "--tlist", "0.5,nan"),
        ("--localize", "--n", "v", "--m", "v", "--tlist=-1,0.5"),
        ("--localize", "--n", "v", "--m", "v", "--tlist", "0.5,inf"),
        # a flag that the chosen mode does not read
        ("--eig", "--tgrid", "1,2,3"),
        ("--localize", "--n", "v", "--m", "v", "--tlist", "1", "--tgrid", "1e-3,10,100"),
        ("--gft", "SIG", "--tlist", "0.5"),
        ("--wavelet", "--n", "v", "--tlist", "0.5"),
        ("--wavelet", "--n", "v", "--m", "v"),
        ("--reconstruct", "SIG", "--m", "v"),
        ("--localize", "--n", "v", "--m", "v", "--tlist", "1", "--t", "1"),
        ("--eig", "--t", "1"),
        ("--eig", "--n", "v"),
        ("--reconstruct", "SIG", "--n", "v"),
        ("--tgrid", "1,2,3"),
    ])
    def test_spectral_usage_errors_come_before_eigendata(self, capsys, monkeypatch, tmp_path, argv):
        def eig_sym(_):
            raise AssertionError("eigendecomposition before the argument check")
        monkeypatch.setattr(kgraphwave.cli, "eig_sym", eig_sym)
        sig = tmp_path / "sig.json"
        sig.write_text("[1.0]")
        argv = [str(sig) if a == "SIG" else a for a in argv]
        _, errtext = run_cli(capsys, "spectral", L3, *argv, expect_exit=1)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "usage"

    @pytest.mark.parametrize("argv,message", [
        (("--eig", "--tgrid", "1,2,3"), "--tgrid applies only to --reconstruct"),
        (("--wavelet", "--n", "v1", "--m", "v2"), "--m applies only to --localize"),
        (("--gft", "SIG", "--n", "v1"), "--n applies only to --wavelet or --localize"),
        (("--reconstruct", "SIG", "--t", "0.5"), "--t applies only to --wavelet"),
    ], ids=["tgrid", "m", "n", "t"])
    def test_stray_spectral_flag_is_refused_before_any_file_is_read(self, capsys, argv, message):
        argv = ["/nonexistent/sig.json" if a == "SIG" else a for a in argv]
        out, errtext = run_cli(capsys, "spectral", "/nonexistent/graph.kg", *argv, expect_exit=1)
        (line,) = errtext.splitlines()
        assert out == "" and json.loads(line) == {"error": "usage", "message": message}

    def test_spectral_wavelet_scale_defaults_to_one(self, capsys):
        assert run_cli(capsys, "spectral", LED, "--wavelet", "--n", "v2") == \
            run_cli(capsys, "spectral", LED, "--wavelet", "--n", "v2", "--t", "1.0")

    @pytest.mark.parametrize("mode", ["--gft", "--reconstruct"])
    @pytest.mark.parametrize("text", [
        "[NaN, 1, 1, 1]", "[1e400, 1, 1, 1]", "[-Infinity, 1, 1, 1]", '["a", 1, 1, 1]',
        "[[1], 1, 1, 1]", "[true, 1, 1, 1]", "[1, 1, 1, null]", '{"v1": 1}', "1.0",
    ])
    def test_signal_must_be_a_list_of_finite_numbers(self, capsys, tmp_path, mode, text):
        sig = tmp_path / "sig.json"
        sig.write_text(text)
        out, errtext = run_cli(capsys, "spectral", LED, mode, str(sig), expect_exit=2)
        assert out == ""
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "parse"

    @pytest.mark.parametrize("mode", ["--gft", "--reconstruct"])
    def test_integer_signal_reads_as_floats(self, capsys, tmp_path, mode):
        ints, floats = tmp_path / "ints.json", tmp_path / "floats.json"
        ints.write_text("[3, -1, 0, 2]")
        floats.write_text("[3.0, -1.0, 0.0, 2.0]")
        assert run_cli(capsys, "spectral", LED, mode, str(ints)) == \
            run_cli(capsys, "spectral", LED, mode, str(floats))

    def test_signal_of_wrong_length_is_a_validation_error(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text("[1, 2, 3]")
        _, errtext = run_cli(capsys, "spectral", LED, "--gft", str(sig), expect_exit=3)
        assert json.loads(errtext)["error"] == "validation"

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "x"])
    def test_pf_tol_must_be_positive(self, capsys, tol):
        _, errtext = run_cli(capsys, "pf", LED, "--tol", tol, expect_exit=1)
        assert json.loads(errtext)["error"] == "usage"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_compare_below_one_is_a_usage_error(self, capsys, value):
        out, errtext = run_cli(capsys, "wavelets", LED, "--shape", "1,1", "--compare", value,
                               expect_exit=1)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "usage" and out == ""

    @pytest.mark.parametrize("weights", ["1/0,1/2", "a,b", "1/2,", "1/x,1/2"])
    @pytest.mark.parametrize("argv", [
        ["markov", "--alphabet", "2", "--weights"],
        ["ck-check", str(fixture_path("bouquet-2")), "--level", "2", "--weights"],
        ["measure", str(fixture_path("bouquet-2")), "--path", "0", "--weights"],
    ], ids=["markov", "ck-check", "measure"])
    def test_malformed_weights_are_usage_errors(self, capsys, argv, weights):
        out, errtext = run_cli(capsys, *argv, weights, expect_exit=1)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "usage" and out == ""

    def test_tol_is_a_pf_option(self, capsys):
        out, _ = run_cli(capsys, "pf", LED, "--tol", "1e-12")
        assert records(out)[0]["rho"] == pytest.approx([2.0, 2.0])
        for command in ("validate", "laplacian", "spectral"):
            _, errtext = run_cli(capsys, command, LED, "--tol", "1e-12", expect_exit=1)
            assert json.loads(errtext)["error"] == "usage"

    def test_pf_hausdorff_solves_once(self, capsys, monkeypatch):
        calls = []
        real = kgraphwave.perron.pf_data

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(kgraphwave.perron, "pf_data", counting)
        monkeypatch.setattr(kgraphwave.cli, "pf_data", counting)
        out, _ = run_cli(capsys, "pf", LED, "--hausdorff")
        assert records(out)[0]["hausdorff_dimension"] == 0.5
        assert len(calls) == 1

    def test_compare_solves_pf_once(self, capsys, monkeypatch):
        """The coarse family of --compare is built under the fine family's
        measure, as the basis route builds everything under one."""
        calls = []
        real = kgraphwave.perron.pf_data

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return real(graph, *args, **kwargs)

        monkeypatch.setattr(kgraphwave.perron, "pf_data", counting)
        monkeypatch.setattr(kgraphwave.measure, "pf_data", counting)
        monkeypatch.setattr(kgraphwave.cli, "pf_data", counting)
        out, _ = run_cli(capsys, "wavelets", LED, "--shape", "1,1", "--compare", "2")
        assert records(out)[0]["equal"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("lines", [
        ['[1]'],
        ['"v1"'],
        ['{"path": "a,c,c"}'],
        ['{"vertex": "v1"}'],
        ['{"vertex": "v1", "path": "a,c,c"}', '{"vertex": "v2"}'],
        ['{"vertex": "v1", "path": ["a", "c", "c"]}'],
        ['{"vertex": 1, "path": "a,c,c"}'],
    ], ids=["list", "string", "no vertex", "no path", "second record", "path list", "vertex number"])
    def test_traffic_prefs_records_must_be_objects_with_vertex_and_path(self, capsys, tmp_path, lines):
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text("\n".join(lines) + "\n")
        _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), expect_exit=2)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "parse"

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank lines"])
    def test_traffic_prefs_file_without_records(self, capsys, tmp_path, text):
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text(text)
        for root in ([], ["--root", "v1"]):
            _, errtext = run_cli(capsys, "traffic", LED, "--prefs", str(prefs), *root, expect_exit=3)
            (line,) = errtext.splitlines()
            assert json.loads(line)["reason"] == "bad_preferred_path"

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(edges=5),
        lambda doc: doc.update(squares=5),
        lambda doc: doc.update(edges={"e": doc["edges"][0]}),
        lambda doc: doc.update(k=True),
        lambda doc: doc["edges"][0].update(color=True),
        lambda doc: doc["edges"][0].update(id=7),
        lambda doc: doc["edges"][0].update(id=["e"]),
        lambda doc: doc["edges"][0].update(source=None),
        lambda doc: doc["edges"][0].update(range=["v"]),
        lambda doc: doc["squares"][0].update(left=[["e"], "f1"]),
        lambda doc: doc["squares"][0].update(left=[{"a": 1}, 3]),
        lambda doc: doc["squares"][0].update(right=["f2", 3]),
    ], ids=["edges number", "squares number", "edges object", "k true", "color true",
            "id number", "id list", "source null", "range list", "square side list",
            "square side object", "square side number"])
    def test_malformed_graph_documents(self, capsys, tmp_path, edit):
        doc = json.loads(open(L3).read())
        edit(doc)
        bad = tmp_path / "bad.kg"
        bad.write_text(json.dumps(doc))
        _, errtext = run_cli(capsys, "validate", str(bad), expect_exit=2)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "parse"

    @pytest.mark.parametrize("text", [LED, ""], ids=["a filename", "empty"])
    def test_file_text_is_json(self, capsys, tmp_path, text):
        # the text of a graph file is never opened as another path
        bad = tmp_path / "bad.kg"
        bad.write_text(text)
        _, errtext = run_cli(capsys, "validate", str(bad), expect_exit=2)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "parse"

    @pytest.mark.parametrize("where", ["graph", "out"])
    def test_directory_in_place_of_a_file(self, capsys, tmp_path, where):
        argv = ["validate", str(tmp_path)] if where == "graph" else ["validate", L3, "--out", str(tmp_path)]
        out, errtext = run_cli(capsys, *argv, expect_exit=2)
        (line,) = errtext.splitlines()
        assert json.loads(line)["error"] == "parse" and out == ""

    @pytest.mark.parametrize("mode,line", [
        ("--synthesize", '{"x": 1}'),
        ("--synthesize", '[1, 2]'),
        ("--synthesize", '{"coeff": "abc"}'),
        ("--synthesize", '{"coeff": true}'),
        ("--synthesize", '{"coeff": null}'),
        ("--synthesize", '{"coeff": 1' + "0" * 400 + '}'),
        ("--synthesize", '{"coeff": 1e999}'),
        ("--synthesize", '{"coeff": NaN}'),
        ("--analyze", '{"path": ["e"]}'),
        ("--analyze", '[1, 2]'),
        ("--analyze", '{"path": "gh", "coeff": 1}'),
        ("--analyze", '{"path": ["e", 7], "coeff": 1}'),
        ("--analyze", '{"path": ["e"], "coeff": "abc"}'),
        ("--analyze", '{"path": ["e"], "coeff": false}'),
        ("--analyze", '{"coeff": 1}'),
    ], ids=["synthesize no coeff", "synthesize list", "synthesize coeff string",
            "synthesize coeff true", "synthesize coeff null", "synthesize coeff too large",
            "synthesize coeff infinite", "synthesize coeff nan",
            "analyze no coeff", "analyze list", "analyze path string", "analyze path number",
            "analyze coeff string", "analyze coeff false", "analyze no path"])
    def test_malformed_transform_records(self, capsys, tmp_path, mode, line):
        records_file = tmp_path / "records.jsonl"
        records_file.write_text(line + "\n")
        _, errtext = run_cli(capsys, "wavelets", L3, "--shape", "1,1", "--depth", "1",
                             mode, str(records_file), expect_exit=2)
        (err_line,) = errtext.splitlines()
        assert json.loads(err_line)["error"] == "parse"

    def test_numeric_error(self, capsys, tmp_path):
        sig = tmp_path / "sig.json"
        sig.write_text("[1.0, 0.0, 0.0, -1.0]")
        _, errtext = run_cli(capsys, "spectral", LED, "--reconstruct", str(sig),
                             "--tgrid", "0.001,0.1,10", expect_exit=4)
        assert json.loads(errtext)["error"] == "numeric"


# sha256 of `wavelets` listing stdout, captured while the basis was still
# built member by member as a dense matrix; it must not change
GOLDEN_WAVELETS = [
    (["lambda3", "--shape", "1,1", "--depth", "3"],
     "3fbbe472f396aa0d71d38737aca400979d7ea90caaf9a5a15aea750a74dbe627"),
    (["ledrappier", "--shape", "1,1", "--depth", "3"],
     "9d6aa8eb8cde5bab77bd2c6efe6e85de37e9e0e9efed610bde72034b933d76a5"),
    (["ledrappier", "--shape", "1,2", "--depth", "2"],
     "20352ad38506bd15bcb1f1f5049b6b5314655eae00aec1b4364f11bdc5a82829"),
    (["ledrappier", "--shape", "2,1", "--depth", "1"],
     "76d2ce7cb23213000b0af8cbb23efeca9b1bcdc289010f25eaa93410911d3ae6"),
    (["circulant", "--shape", "1,1", "--depth", "2"],
     "d5d8b02c1be662f82e1e694d4e8cbcbadf2f2d20be23147c1852676c227dcd92"),
    # captured while listings were written from Path-keyed CylinderFn terms
    (["ledrappier", "--shape", "1,1", "--depth", "4"],
     "f691fed562654a57727fc6685e0e2fe0b24c74e255534bdc99f6c641db0b7035"),
    # --compare stdout, captured once the sines were read off the coefficient
    # blocks by numpy sums: the same bytes under any BLAS thread count
    (["ledrappier", "--shape", "1,1", "--compare", "2"],
     "aecf75230e2acfe5692013135ce557bbf7cabdaba571ca072e9bd54c3f50a94d"),
    (["ledrappier", "--shape", "1,1", "--compare", "3"],
     "ff989942d750010a4053d94fe921df160bfe3d882d272eaba7ac74ad5e7a880a"),
    (["circulant", "--shape", "1,1", "--compare", "2"],
     "44d62a1af83668d6fc23a51fdf10b44929314ff5d308b92cbd3ab9b7ae22dbcd"),
    (["lambda3", "--shape", "1,1", "--compare", "2"],
     "6f9459eb4456e787bd1b40b09fa61dfa032a817564b9dc72c18e4471efa4117c"),
    (["ledrappier", "--shape", "1,1", "--compare", "4"],
     "b6de5cc461084cdc14901b85b0257cbd8e95f53c6ac48f4259ce67fb1ed77900"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_WAVELETS,
                         ids=[" ".join(a) for a, _ in GOLDEN_WAVELETS])
def test_wavelets_golden_stdout(argv, digest, tmp_path, capsys):
    if argv[0] == "circulant":
        graph = tmp_path / "circulant.kg"
        graph.write_text(json.dumps(twisted_circulant_document(5, (1, 2), (1, 2), 7)))
    else:
        graph = fixture_path(argv[0])
    out, _ = run_cli(capsys, "wavelets", str(graph), *argv[1:])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare_bytes_do_not_depend_on_blas_threads():
    # the sines are numpy sums in a fixed order; only the orthonormality
    # check, which decides pass or fail, runs on the BLAS
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    outs = {subprocess.run([sys.executable, "-m", "kgraphwave.cli", "wavelets", LED, "--shape", "1,1",
                            "--compare", "4"], capture_output=True, env={**env, "OPENBLAS_NUM_THREADS": threads},
                           check=True).stdout for threads in ("1", "2")}
    golden = {" ".join(argv): digest for argv, digest in GOLDEN_WAVELETS}
    assert [hashlib.sha256(out).hexdigest() for out in outs] == [golden["ledrappier --shape 1,1 --compare 4"]]


# sha256 of `markov` stdout, captured while every member was built by s_apply
# and refine.  The 3-letter weights give exactly-zero coefficients, which stay
# dropped; 11 letters have two-digit ids, whose string order is their position
GOLDEN_MARKOV = [
    (["--alphabet", "3", "--weights", "11/60,2/5,5/12", "--depth", "5"],
     "9d08a894e82234e5f605ad6ed0ddb89f1cc3625ca030fb7da9f4c9e7107ea1f0"),
    (["--alphabet", "2", "--weights", "0.25,0.75", "--depth", "4"],
     "cf1aea970b4741b56029f4fd59f5f44ef692392e30547d81691e7cf38dbe1ecd"),
    (["--alphabet", "11", "--weights", ",".join(f"{k}/66" for k in range(1, 12)), "--depth", "1"],
     "6342677a9c3f8c4bf0c4fde4dac94c59a876b98b7d39e70955f1d0a1057f0c97"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_MARKOV, ids=["3 letters", "2 letters", "11 letters"])
def test_markov_golden_stdout(argv, digest, capsys):
    out, _ = run_cli(capsys, "markov", *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `traffic` stdout, captured while every wavelet was held as a dense
# n-vector: default prefs on two circulants (with 99 and 379 degree classes
# of two or more vertices), and a --prefs file on ledrappier
GOLDEN_TRAFFIC = [
    ((300, (1, 2), (1, 3)), "2a520375035db94442e5bfe625d92b5965b8eb7ca835034c084f4b1b72d9fb8d"),
    ((3000, (1, 37), (1, 101)), "9aef329c03fcfff76e426f05638080af0434744879d2f981c79db8abf82ce9ca"),
    ("ledrappier", "ea78bb281d4cc3c914764bd7ccd070a8832480f137457dee004d44dc45dffb4f"),
]


@pytest.mark.parametrize("graph,digest", GOLDEN_TRAFFIC, ids=["circulant 300", "circulant 3000", "ledrappier prefs"])
def test_traffic_golden_stdout(graph, digest, tmp_path, capsys):
    if graph == "ledrappier":
        prefs = tmp_path / "prefs.jsonl"
        prefs.write_text("\n".join(json.dumps({"vertex": v, "path": p}) for v, p in [
            ("v1", "a,c,c"), ("v2", "a,c,e"), ("v3", "a,e,j"), ("v4", "a,e,h")]))
        argv = [LED, "--prefs", str(prefs)]
    else:
        path = tmp_path / "circulant.kg"
        path.write_text(json.dumps(twisted_circulant_document(*graph, 0)))
        argv = [str(path)]
    out, _ = run_cli(capsys, "traffic", *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 745. MiB for an array with shape (9766, 10000)",
     "Unable to allocate 745. MiB for an array with shape (9766, 10000)"),
    ("", "out of memory")], ids=["numpy", "bare"])
def test_memory_error_is_one_record(message, shown, capsys, monkeypatch):
    """An allocation that fails mid-op exits 1 with one record, no traceback."""
    def exhausted(*args):
        raise MemoryError(message)
    monkeypatch.setattr(kgraphwave.cli, "traffic_wavelet_family", exhausted)
    _, errtext = run_cli(capsys, "traffic", LED, expect_exit=1)
    assert errtext.count("\n") == 1
    assert json.loads(errtext) == {"error": "usage", "message": shown, "reason": "out_of_memory"}


def test_memory_error_record_is_written_once_the_handler_is_let_go(capsys, monkeypatch):
    """The out-of-memory record is written after the `try` statement: the
    traceback, and with it the locals of the frame that raised, are gone by
    then, so writing the record cannot run out of memory on them."""
    class Held:
        pass
    refs, alive = [], []

    def exhausted(*args):
        held = Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    def fail(*args, **kwargs):
        alive.append(refs[0]() is not None)
        fail_record(*args, **kwargs)
    fail_record = kgraphwave.cli._fail
    monkeypatch.setattr(kgraphwave.cli, "traffic_wavelet_family", exhausted)
    monkeypatch.setattr(kgraphwave.cli, "_fail", fail)
    _, errtext = run_cli(capsys, "traffic", LED, expect_exit=1)
    assert alive == [False]
    assert json.loads(errtext) == {"error": "usage", "message": "out of memory", "reason": "out_of_memory"}


def test_synthesize_keeps_no_input_record(tmp_path, monkeypatch):
    """--synthesize builds its coefficient list as it reads: the 65,536
    lines of a depth-7 input are read within 25 MB of traced memory (whole
    records, about 800 bytes each, would take over 50 MB)."""
    basis = wavelet_basis(build_wavelet_family(load_kgraph(LED), shape=(1, 1)), 7)
    coeff_file, out = tmp_path / "coeffs.jsonl", tmp_path / "out.jsonl"
    coeffs = np.random.default_rng(7).standard_normal(len(basis.order))
    coeff_file.write_text("".join(basis.coefficient_lines(coeffs)))
    peaks = []

    def synthesize_vector(_, read):  # the peak from the start of the op to the end of the reading
        peaks.append(tracemalloc.get_traced_memory()[1])
        assert read == coeffs.tolist()
        return np.zeros(len(read))
    monkeypatch.setattr(kgraphwave.cli, "wavelet_basis", lambda family, depth: basis)
    monkeypatch.setattr(kgraphwave.cli, "synthesize_vector", synthesize_vector)
    tracemalloc.start()
    try:
        main(["wavelets", LED, "--shape", "1,1", "--depth", "7", "--synthesize", str(coeff_file), "--out", str(out)])
    finally:
        tracemalloc.stop()
    assert len(coeffs) == 65536 and peaks[0] < 25 * 2 ** 20


@pytest.mark.parametrize("argv", [
    ["markov", "--alphabet", "3", "--weights", "0.2,0.3,0.5", "--depth", "3"],
    ["wavelets", LED, "--shape", "1,1", "--depth", "3"],
    ["wavelets", LED, "--shape", "1,2", "--depth", "2"],
    ["ck-check", LED, "--level", "2,2"],
    ["ck-check", str(fixture_path("bouquet-3")), "--weights", "0.2,0.3,0.5", "--level", "3"],
    ["wavelets", LED, "--shape", "1,1", "--compare", "2"],
    ["wavelets", LED, "--shape", "1,1", "--compare", "3"],
    ["wavelets", LED, "--shape", "1,2", "--list-family"],
    ["wavelets", LED, "--shape", "1,1", "--depth", "3", "--analyze", "{fn}"],
    ["wavelets", LED, "--shape", "1,1", "--depth", "3", "--synthesize", "{coeffs}"],
], ids=["markov", "listing 1,1", "listing 1,2", "ck ledrappier", "ck bouquet-3 bernoulli",
        "compare 2", "compare 3", "list-family", "analyze", "synthesize"])
def test_output_builds_no_paths(argv, capsys, monkeypatch, tmp_path):
    fn_file, coeff_file = tmp_path / "fn.jsonl", tmp_path / "coeffs.jsonl"
    fn = random_cylinder_fn(load_kgraph(LED), (3, 3), 12, np.random.default_rng(5))
    fn_file.write_text("".join(json.dumps(r) + "\n" for r in fn.to_records()))
    coeff_file.write_text("".join(json.dumps({"coeff": (i % 7) - 3.5}) + "\n" for i in range(256)))
    argv = [a.format(fn=fn_file, coeffs=coeff_file) for a in argv]
    expected, _ = run_cli(capsys, *argv)
    forbid_path_building(monkeypatch)
    out, _ = run_cli(capsys, *argv)
    assert out == expected


@pytest.mark.parametrize("argv", [
    ["measure", LED, "--exact", "--embed", "--path", "a,c,c", "--path", "@v2", "--path", "c,a",
     "--path", "d,h,m"],
    ["ck-check", LED, "--level", "1,1"],
    ["wavelets", LED, "--shape", "1,1", "--depth", "3", "--analyze", "{fn}"],
    ["wavelets", LED, "--shape", "1,1", "--depth", "3", "--synthesize", "{coeffs}"],
    ["wavelets", LED, "--shape", "1,1", "--depth", "2"],
    ["wavelets", LED, "--shape", "1,2", "--list-family"],
    ["wavelets", LED, "--shape", "1,1", "--compare", "2"],
    ["markov", "--alphabet", "3", "--weights", "0.2,0.3,0.5", "--depth", "3"],
], ids=["measure exact embed", "ck-check", "analyze", "synthesize", "listing", "list-family",
        "compare", "markov"])
def test_ops_build_no_path_objects(argv, capsys, monkeypatch, tmp_path):
    """Counted at `Path.__init__`: these ops read and write word-kernel rows
    alone, and those that load a graph document build no `Edge` either."""
    fn_file, coeff_file = tmp_path / "fn.jsonl", tmp_path / "coeffs.jsonl"
    fn = random_cylinder_fn(load_kgraph(LED), (3, 3), 12, np.random.default_rng(5))
    fn_file.write_text("".join(json.dumps(r) + "\n" for r in fn.to_records()))
    coeff_file.write_text("".join(json.dumps({"coeff": (i % 7) - 3.5}) + "\n" for i in range(256)))
    argv = [a.format(fn=fn_file, coeffs=coeff_file) for a in argv]
    paths, edges = count_path_objects(monkeypatch), count_edge_objects(monkeypatch)
    run_cli(capsys, *argv)
    assert paths == {"Path": 0}
    if argv[0] != "markov":  # which builds its bouquet from `Edge` records
        assert edges == {"Edge": 0, "FactorizationSquare": 0}
    normal_form(load_kgraph(LED), ["a"])
    assert paths == {"Path": 1}  # the counter counts


def test_synthesize_builds_no_paths_and_no_labels(capsys, monkeypatch, tmp_path):
    coeff_file = tmp_path / "coeffs.jsonl"
    coeff_file.write_text("".join(json.dumps({"coeff": (i % 7) - 3.5}) + "\n" for i in range(256)))
    argv = ["wavelets", LED, "--shape", "1,1", "--depth", "3", "--synthesize", str(coeff_file)]
    expected, _ = run_cli(capsys, *argv)
    forbid_path_building(monkeypatch)
    monkeypatch.setattr(WaveletBasis, "labels", property(lambda self: pytest.fail("labels built")))
    out, _ = run_cli(capsys, *argv)
    assert out == expected


class TestNonFinite:
    """A finite input that sums past the float range exits 4 with one JSON
    record and no warning, from --analyze and from --synthesize."""

    def run(self, capsys, tmp_path, flag, lines):
        path = tmp_path / "input.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, errtext = run_cli(capsys, "wavelets", LED, "--shape", "1,1", "--depth", "1",
                                   flag, str(path), expect_exit=4)
        assert out == ""
        (line,) = errtext.splitlines()
        return json.loads(line)

    def test_analyze(self, capsys, tmp_path):
        # Z(ac) lies in Z(a): the two terms sum to 2e308 there
        rec = self.run(capsys, tmp_path, "--analyze",
                       [{"path": ["a"], "coeff": 1e308}, {"path": ["a", "c"], "coeff": 1e308}])
        assert rec == {"error": "numeric", "message": "--analyze: the coefficients leave the float range"}

    def test_synthesize(self, capsys, tmp_path):
        rec = self.run(capsys, tmp_path, "--synthesize", [{"coeff": 1e308}] * 16)
        assert rec == {"error": "numeric", "message": "--synthesize: the values leave the float range"}


EMPTY = {"k": 2, "vertices": [], "edges": [], "squares": []}


class TestEmptyGraph:
    """The document with no vertex loads and validates.  Each subcommand on
    it writes a valid empty output or one JSON error record, with no
    traceback: ops that need PF data or eigendata exit 3."""

    @pytest.mark.parametrize("argv", [
        ["pf"], ["pf", "--hausdorff"], ["measure", "--path", "@v"], ["ck-check", "--level", "1,1"],
        ["wavelets", "--shape", "1,1"], ["wavelets", "--shape", "1,1", "--list-family"],
        ["wavelets", "--shape", "1,1", "--compare", "2"], ["traffic"],
        ["spectral", "--eig"], ["spectral", "--gft", "SIGNAL"], ["spectral", "--reconstruct", "SIGNAL"],
    ], ids=" ".join)
    def test_validation_error(self, capsys, tmp_path, argv):
        graph, signal = tmp_path / "empty.kg", tmp_path / "signal.json"
        graph.write_text(json.dumps(EMPTY))
        signal.write_text("[]")
        argv = [str(signal) if a == "SIGNAL" else a for a in argv]
        out, err = run_cli(capsys, argv[0], str(graph), *argv[1:], expect_exit=3)
        assert out == ""
        (line,) = err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "validation"
        assert rec["message"] in ("PF data needs at least one vertex; the graph has none",
                                  "no eigendata for the empty (0 x 0) matrix: a graph with no vertex has none")

    @pytest.mark.parametrize("argv", [
        ["traffic", "--root", "v"], ["spectral", "--wavelet", "--n", "v"],
        ["spectral", "--localize", "--n", "v", "--m", "v", "--tlist", "1"],
    ], ids=" ".join)
    def test_no_vertex_to_name(self, capsys, tmp_path, argv):
        graph = tmp_path / "empty.kg"
        graph.write_text(json.dumps(EMPTY))
        out, err = run_cli(capsys, argv[0], str(graph), *argv[1:], expect_exit=1)
        (line,) = err.splitlines()
        assert out == "" and "names unknown vertex 'v'" in json.loads(line)["message"]

    def test_empty_outputs(self, capsys, tmp_path):
        graph = tmp_path / "empty.kg"
        graph.write_text(json.dumps(EMPTY))
        out, err = run_cli(capsys, "validate", str(graph))
        assert records(out) == [{"ok": True, "k": 2, "vertices": 0, "edges_per_color": {"1": 0, "2": 0},
                                 "squares": 0, "cube_condition": "n/a (k<3)", "strongly_connected": True}]
        out, err = run_cli(capsys, "laplacian", str(graph))
        assert records(out) == [{"kind": "incidence", "color": 1, "edges": [], "matrix": []},
                                {"kind": "incidence", "color": 2, "edges": [], "matrix": []},
                                {"kind": "laplacian", "matrix": []}]
        assert err == ""


class TestOverflowingScales:
    """A finite scale whose product with an eigenvalue passes the float range
    exits 4 naming its flag, with no numpy warning."""

    @pytest.mark.parametrize("argv,flag", [
        (["--wavelet", "--t", "1e308", "--n", "v1"], "--t"),
        (["--localize", "--n", "v1", "--m", "v3", "--tlist", "0.5,1e308"], "--tlist"),
        (["--reconstruct", "SIGNAL", "--tgrid", "1e-5,1e308,100"], "--tgrid"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_numeric_error_names_the_flag(self, capsys, tmp_path, argv, flag):
        signal = tmp_path / "signal.json"
        signal.write_text("[1, 2, 3, 4]")
        argv = [str(signal) if a == "SIGNAL" else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, err = run_cli(capsys, "spectral", LED, *argv, expect_exit=4)
        assert out == ""
        (line,) = err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "numeric"
        assert rec["message"].startswith(f"{flag}: scale 1e+308 times eigenvalue ")
        assert rec["message"].endswith(" is past the float range")

    @pytest.mark.parametrize("argv", [
        ["--wavelet", "--t", "1e300", "--n", "v1"],
        ["--localize", "--n", "v1", "--m", "v3", "--tlist", "0.5,1.6e307"],
    ], ids=lambda v: v[0])
    def test_large_finite_scales(self, capsys, argv):
        """A large scale whose products stay in the float range is no error:
        the zero eigenvalue's round-off below zero is not scaled past the
        kernel's clamp."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, err = run_cli(capsys, "spectral", LED, *argv)
        assert err == ""
        recs = records(out)
        values = [rec[key] for rec in recs for key in ("value", "ratio") if key in rec]
        assert len(values) in (2, 4) and all(math.isfinite(v) for v in values)


# lines a transform input may hold: records valid and not, JSON that is no
# object, whitespace, a BOM, extra data, halves of one object, NaN and
# Infinity, integers past the float range and past int()'s digit limit,
# duplicate keys, and missing or ill-typed fields
READER_LINES = [
    '{"path": ["a", "c"], "coeff": 1.5}', '{"coeff": -2}', '{"coeff": 0.0, "path": [], "x": [1, {"y": null}]}',
    '  {"coeff": 1}', '{"coeff": 1}  ', '\t{"coeff": 1}\t', '{"coeff": 1}\r', '\r', '   ', '',
    '\x0c{"coeff": 1}', '{"coeff": 1}\xa0', '\ufeff{"coeff": 1}',
    '{"coeff": 1} {"coeff": 2}', '{"coeff": 1}x', '{"coeff": 1},', '{"path": ["a"],', '"coeff": 1}',
    '{"coeff": NaN}', '{"coeff": Infinity}', '{"coeff": -Infinity}', '{"x": NaN, "coeff": 1, "path": ["a"]}',
    '{"coeff": 1' + "0" * 400 + '}', '{"coeff": ' + "9" * 5000 + '}',
    '{"coeff": "x", "coeff": 1, "path": ["a"]}', '{"coeff": 1, "coeff": "x"}',
    '[1, 2]', '"text"', '3', 'null', 'true',
    '{"path": "a", "coeff": 1}', '{"path": ["a", 1], "coeff": 1}', '{"coeff": true}', '{"coeff": "1"}',
    '{}', '{"path": ["a"]}', '{"coeff": 1', '{coeff: 1}', '{"coeff": 01}', '{"a": "\x01"}', '{"é": "\\ud800"}',
]


def _outcome(read, filename, fields):
    try:
        return "records", repr(read(filename, fields))
    except Exception as exc:  # the class and the message are the outcome
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(READER_LINES), max_size=5), st.booleans())
def test_reader_matches_the_per_line_reader(tmp_path, lines, final_newline):
    path = tmp_path / "input.jsonl"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8", newline="")
    for fields in (("path", "coeff"), ("coeff",)):
        assert _outcome(_read_records, str(path), fields) == _outcome(per_line_records, str(path), fields)


# sha256 of --analyze stdout, and of --synthesize stdout fed that output,
# captured while the cascade was still built path by path with compose
GOLDEN_TRANSFORMS = [
    ("ledrappier", "1,1", 5,
     "d08458d0559cd6b33b1482b50a7c3f0fd24e69e78541bebeda844d4bf3e430ff",
     "50c73849d2dfe2f0efced2751865aadbafe2e40ab9f9ca4fb64071dc5fea43c0"),
    ("circulant", "1,2", 2,
     "0d8709ea89b33186e1865eaa15417125386357e4d64037bee8509ce16f2cbf7f",
     "e0d33137b1908cf9c91609c132d465c01ff3c67e344ed18fd3ea877d6c2a2daf"),
]


@pytest.mark.parametrize("graph,shape,depth,analyzed,synthesized", GOLDEN_TRANSFORMS,
                         ids=[g for g, *_ in GOLDEN_TRANSFORMS])
def test_transform_golden_stdout(graph, shape, depth, analyzed, synthesized, tmp_path, capsys):
    if graph == "circulant":
        path = tmp_path / "circulant.kg"
        path.write_text(json.dumps(twisted_circulant_document(16, (1, 2), (1, 2), 5)))
    else:
        path = fixture_path(graph)
    g = load_kgraph(str(path))
    level = tuple(depth * int(j) for j in shape.split(","))
    fn = random_cylinder_fn(g, level, 40, np.random.default_rng(2024))
    fn_file, coeff_file = tmp_path / "fn.jsonl", tmp_path / "coeffs.jsonl"
    fn_file.write_text("".join(json.dumps(r) + "\n" for r in fn.to_records()))
    wav = ["wavelets", str(path), "--shape", shape, "--depth", str(depth)]
    out, _ = run_cli(capsys, *wav, "--analyze", str(fn_file))
    assert hashlib.sha256(out.encode()).hexdigest() == analyzed
    coeff_file.write_text(out)
    out, _ = run_cli(capsys, *wav, "--synthesize", str(coeff_file))
    assert hashlib.sha256(out.encode()).hexdigest() == synthesized


# sha256 of integer-valued stdout captured while the Laplacian was still
# multiplied in int64 and every graph load ran a commutation check
GOLDEN_INTEGER_OUTPUT = [
    ("torus", "validate", "e3237ed26e3b1c60e69887d035d304449eccef7f5b70bfacba1f376c66b90234"),
    ("torus", "laplacian", "fe745c423cb06b65ab7416d2ab3c82a832215213f37bfd5a0278e343ae4ddbd4"),
    ("circulant", "validate", "4d2adbd4aa521bfe6e63b659111f643d2ca1e5a42a3bda6318323afa14ce8962"),
    ("circulant", "laplacian", "3806b719dae395770284e3acf2306d87451f85bc69f5b9da3795f12096341406"),
]


@pytest.mark.parametrize("graph,command,digest", GOLDEN_INTEGER_OUTPUT,
                         ids=[f"{c} {g}" for g, c, _ in GOLDEN_INTEGER_OUTPUT])
def test_integer_golden_stdout(graph, command, digest, tmp_path, capsys, monkeypatch):
    doc = torus_document(4, 6) if graph == "torus" else \
        twisted_circulant_document(24, (1, 2), (1, 3), 11)
    path = tmp_path / f"{graph}.kg"
    path.write_text(json.dumps(doc))
    built = count_edge_objects(monkeypatch)
    out, _ = run_cli(capsys, command, str(path))
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert built == {"Edge": 0, "FactorizationSquare": 0}


# sha256 of `pf` stdout captured while the PF vector was power-iterated on
# the dense product of the vertex matrices
GOLDEN_PF = [
    ("torus 60x60", torus_document(60, 60),
     "6e5591575be5554b0ce4b40f7c62d3aca4e1705cb27d9c0409e4312cc5036248"),
    ("circulant 300", twisted_circulant_document(300, (1, 2), (1, 3), 0),
     "889bb672f904236cf5ce1ae725476292fd814b4e73ae7f2f7bbbdebfeefa33f3"),
]


@pytest.mark.parametrize("name,doc,digest", GOLDEN_PF, ids=[name for name, _, _ in GOLDEN_PF])
def test_pf_golden_stdout(name, doc, digest, tmp_path, capsys):
    path = tmp_path / "graph.kg"
    path.write_text(json.dumps(doc))
    out, _ = run_cli(capsys, "pf", str(path))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [("pf",), ("traffic",), ("wavelets", "--shape", "1,1", "--list-family"),
                                  ("ck-check", "--level", "1,1")], ids=lambda argv: argv[0])
def test_path_space_ops_build_no_vertex_matrix(argv, capsys, monkeypatch):
    """The PF data of every op that reads it comes from the edge columns."""
    def boom(*args):
        raise AssertionError("a vertex matrix was built")
    for module in (kgraphwave.kgraph, kgraphwave.perron, kgraphwave.measure, kgraphwave.sbfs,
                   kgraphwave.wavelets, kgraphwave.traffic):
        monkeypatch.setattr(module, "vertex_matrices", boom, raising=False)
    run_cli(capsys, argv[0], LED, *argv[1:])


def test_traffic_builds_no_path(tmp_path, capsys, monkeypatch):
    """`traffic` reads each vertex's least degree alone, and with `--prefs`
    each record's degree, range and source off its normal form: it exits 0
    with `path_of` raising and builds no `Path`."""
    def boom(*args, **kwargs):
        raise AssertionError("traffic built a Path")

    prefs = tmp_path / "prefs.jsonl"
    prefs.write_text("".join(json.dumps({"vertex": v, "path": p}) + "\n"
                             for v, p in (("v1", "a,c,c"), ("v2", "a,c,e"), ("v3", "a,e,j"), ("v4", "a,e,h"))))
    monkeypatch.setattr(kgraphwave.kgraph, "path_of", boom)
    built = count_path_objects(monkeypatch)
    for argv in (["traffic", LED], ["traffic", LED, "--root", "v2"], ["traffic", LED, "--prefs", str(prefs)],
                 ["traffic", LED, "--prefs", str(prefs), "--root", "v1"]):
        out, err = run_cli(capsys, *argv)
        assert records(out)[-1]["kind"] == "summary" and err == ""
    assert built == {"Path": 0}


def test_spectral_ops_build_no_edges(tmp_path, capsys, monkeypatch):
    """Load, validation, every spectral op and `traffic`, with and without
    --prefs, read the edge and square columns alone, on a 300-vertex
    circulant like the benchmark's."""
    path = tmp_path / "circulant.kg"
    path.write_text(json.dumps(twisted_circulant_document(300, (1, 2), (1, 3), 4)))
    signal = tmp_path / "signal.json"
    signal.write_text(json.dumps(np.random.default_rng(3).normal(size=300).round(6).tolist()))
    prefs = tmp_path / "prefs.jsonl"
    assignment = least_total_chooser(load_kgraph(str(path)), "v0")
    prefs.write_text("".join(json.dumps({"vertex": v, "path": ",".join(p.word) or "@" + v}) + "\n"
                             for v, p in assignment.items()))
    p = str(path)
    built = count_edge_objects(monkeypatch)
    for argv in (["validate", p], ["pf", p], ["laplacian", p], ["spectral", p, "--eig"],
                 ["spectral", p, "--gft", str(signal)],
                 ["spectral", p, "--wavelet", "--t", "0.5", "--n", "v7"],
                 ["spectral", p, "--localize", "--n", "v7", "--m", "v12", "--tlist", "1.0,0.5"],
                 ["spectral", p, "--reconstruct", str(signal)], ["traffic", p, "--prefs", str(prefs)],
                 ["traffic", p]):
        run_cli(capsys, *argv)
        assert built == {"Edge": 0, "FactorizationSquare": 0}, argv
    assert len(load_kgraph(p).edges) == 1200
    assert built == {"Edge": 1200, "FactorizationSquare": 0}  # the counter counts


class TestRoundTrips:
    def test_family_records_reparse(self, capsys):
        out, _ = run_cli(capsys, "wavelets", LED, "--shape", "1,2", "--list-family")
        graph = load_kgraph(open(LED).read())
        for rec in records(out):
            fn = CylinderFn.from_records(graph, rec["terms"])
            assert fn.to_records() == rec["terms"]

    def test_graph_document_reparse(self):
        graph = load_kgraph(open(LED).read())
        assert graph_document(load_kgraph(json.dumps(graph_document(graph)))) == graph_document(graph)


class TestLaplacianListing:
    """The `laplacian` stdout, rendered from the edge columns, against the
    records of the dense matrices (`helpers.laplacian_listing`)."""

    @staticmethod
    def listed(capsys, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "graph.kg")
            path.write_text(json.dumps(doc))
            out, err = run_cli(capsys, "laplacian", str(path))
        assert err == ""
        assert out == laplacian_listing(load_kgraph(doc))
        return out

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(generated_documents())
    def test_generated_graphs(self, capsys, doc):
        self.listed(capsys, doc)

    @pytest.mark.parametrize("name", ["ledrappier", "lambda3", "lambda1-sphere", "bouquet-2", "bouquet-3"])
    def test_fixtures(self, capsys, name):
        # the bouquets have only loops: every incidence entry is zero
        self.listed(capsys, json.loads(fixture_path(name).read_text()))

    def test_a_color_with_no_edges_and_the_empty_graph(self, capsys):
        doc = {"k": 3, "vertices": ["u", "v", "w"], "squares": [], "edges": [
            {"id": "e", "color": 1, "source": "u", "range": "v"},
            {"id": "f", "color": 1, "source": "w", "range": "w"}]}
        out = self.listed(capsys, doc)
        assert '"color": 2, "edges": [], "matrix": [[], [], []]}' in out
        self.listed(capsys, EMPTY)

    def test_no_dense_laplacian_is_built(self, capsys, monkeypatch):
        def built(*args):
            raise AssertionError("the dense Laplacian was built")

        monkeypatch.setattr(kgraphwave.cli, "kgraph_laplacian", built)
        self.listed(capsys, torus_document(4, 6))

    def test_out_file_holds_the_listing(self, capsys, tmp_path):
        out_file = tmp_path / "out.jsonl"
        out, _ = run_cli(capsys, "laplacian", LED, "--out", str(out_file))
        assert out == "" and out_file.read_text() == laplacian_listing(load_kgraph(open(LED).read()))

    def test_size_limit(self, capsys, tmp_path, monkeypatch):
        """A 100 x 100 torus holds 10^4 x (2 x 10^4 + 10^4) = 3 x 10^8 entries,
        past the limit: refused before any matrix is built."""
        def built(*args):
            raise AssertionError("a matrix was built")

        path = tmp_path / "torus.kg"
        path.write_text(json.dumps(torus_document(100, 100)))
        monkeypatch.setattr(kgraphwave.cli, "incidence_entries", built)
        monkeypatch.setattr(kgraphwave.cli, "kgraph_laplacian", built)
        out, err = run_cli(capsys, "laplacian", str(path), expect_exit=1)
        assert out == ""
        (line,) = err.splitlines()
        rec = json.loads(line)
        assert rec["error"] == "usage" and rec["reason"] == "size_limit"
        assert "300000000 entries" in rec["message"] and str(kgraphwave.LAPLACIAN_ENTRY_LIMIT) in rec["message"]

    def test_patched_limit(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "torus.kg"
        path.write_text(json.dumps(torus_document(4, 6)))
        entries = 24 * (48 + 24)
        assert kgraphwave.check_laplacian_listing(load_kgraph(str(path))) == entries
        monkeypatch.setattr(kgraphwave.spectral, "LAPLACIAN_ENTRY_LIMIT", entries)
        out, _ = run_cli(capsys, "laplacian", str(path))
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_INTEGER_OUTPUT[1][2]
        monkeypatch.setattr(kgraphwave.spectral, "LAPLACIAN_ENTRY_LIMIT", entries - 1)
        out, err = run_cli(capsys, "laplacian", str(path), expect_exit=1)
        assert out == "" and json.loads(err)["reason"] == "size_limit"
        with pytest.raises(kgraphwave.TooLarge, match=f"{entries} entries, above the limit of {entries - 1}"):
            kgraphwave.check_laplacian_listing(load_kgraph(str(path)))

    def test_limit_admits_the_benchmark_graphs(self):
        # the benchmark lists a 16 x 16 torus and a 300-vertex circulant
        # (1200 edges); 3 x 68^4 entries fit, 3 x 69^4 do not
        assert 300 * (1200 + 300) * 100 < kgraphwave.LAPLACIAN_ENTRY_LIMIT
        assert 3 * 68 ** 4 <= kgraphwave.LAPLACIAN_ENTRY_LIMIT < 3 * 69 ** 4


def refused(err):
    (line,) = err.splitlines()
    rec = json.loads(line)
    return rec["error"] == "usage" and rec["reason"] == "size_limit"


class TestEigendataSizeLimit:
    """`spectral` counts the n^2 entries of its eigendata before it builds
    the Laplacian."""

    @pytest.mark.parametrize("mode", [("--eig",), ("--gft", "SIG")])
    def test_patched_limit(self, mode, capsys, tmp_path, monkeypatch):
        sig = tmp_path / "sig.json"
        sig.write_text("[1.0, 0.0, 0.0, -1.0]")
        argv = ["spectral", LED, *(str(sig) if a == "SIG" else a for a in mode)]
        assert kgraphwave.check_eigendata(load_kgraph_file(LED)) == 16
        monkeypatch.setattr(kgraphwave.spectral, "EIGEN_ENTRY_LIMIT", 16)
        admitted, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(kgraphwave.spectral, "EIGEN_ENTRY_LIMIT", 15)

        def built(*args):
            raise AssertionError("the dense Laplacian was built")
        monkeypatch.setattr(kgraphwave.cli, "kgraph_laplacian", built)
        out, err = run_cli(capsys, *argv, expect_exit=1)
        assert admitted and out == "" and refused(err)
        with pytest.raises(kgraphwave.TooLarge, match="16 entries, above the limit of 15"):
            kgraphwave.check_eigendata(load_kgraph_file(LED))

    def test_limit(self):
        # the benchmark graphs have at most 300 vertices; a 60 x 60 torus is
        # admitted, a 100 x 100 one refused
        assert 300 ** 2 <= 3600 ** 2 <= kgraphwave.EIGEN_ENTRY_LIMIT < 100 ** 4


class TestRationalPFSizeLimit:
    """`measure --exact` counts the k n^2 cells of its exact solve before it
    builds a vertex matrix."""

    def test_patched_limit(self, capsys, monkeypatch):
        argv = ["measure", LED, "--exact", "--path", "@v1"]
        monkeypatch.setattr(kgraphwave.perron, "RATIONAL_PF_CELL_LIMIT", 32)
        admitted, _ = run_cli(capsys, *argv)
        monkeypatch.setattr(kgraphwave.perron, "RATIONAL_PF_CELL_LIMIT", 31)

        def built(*args):
            raise AssertionError("a vertex matrix was built")
        monkeypatch.setattr(kgraphwave.perron, "vertex_matrices", built)
        out, err = run_cli(capsys, *argv, expect_exit=1)
        assert json.loads(admitted)["measure"] == "1/4" and out == "" and refused(err)
        with pytest.raises(kgraphwave.TooLarge, match="over 32 cells, above the limit of 31"):
            kgraphwave.rational_pf_data(load_kgraph_file(LED))

    def test_limit(self):
        # the 300-vertex benchmark circulant and a 16 x 16 torus are 2-graphs;
        # a 100 x 100 torus is refused
        assert 2 * 256 ** 2 <= 2 * 300 ** 2 <= kgraphwave.RATIONAL_PF_CELL_LIMIT < 2 * 100 ** 4
