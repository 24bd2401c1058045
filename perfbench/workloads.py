"""The three workloads: their inputs, op lists and oracles.

An op is one ``kgraphwave.cli.main(argv)`` call.  A pass runs every op of
the workload once, in list order.  Inputs are fixed in size; the seed only
picks values (square bijections, paths, weights, signals, scales), so every
seed costs the program about the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import kgraphwave

import inputs as gen
import oracles as orc

# Op lists, sizes, pass counts and known defects are read from spec.json,
# which also documents them.  Each workload function below makes every op it knows; the
# spec picks which of them a workload runs, and in what order.
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
NAMES = tuple(SPEC["workloads"])
SIZES = {name: w["sizes"] for name, w in SPEC["workloads"].items()}
# Known defects of the program that a workload shows on purpose, each with the
# stderr text of the failure it causes (null when it costs time but no failure).
# An op tagged with a failing defect may fail that way; the failure is counted
# in the share of failed ops, not treated as a wrong answer.
DEFECTS = SPEC["known_defects"]


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[str], None]
    defect: str | None = None
    feeds: Path | None = None  # the first output of this op is written here


@dataclass
class Workload:
    name: str
    ops: list[Op]
    graphs: list[Path]  # every graph document the ops load
    min_passes: int


def _fixture(name: str) -> Path:
    return Path(kgraphwave.fixture_path(name))


def _load(path: Path) -> orc.Model:
    return orc.Model(json.loads(path.read_text()))


def _write_graph(workdir: Path, name: str, doc: dict) -> Path:
    """Write a generated document after checking the library accepts it."""
    kgraphwave.load_kgraph(doc)
    return gen.write_json(workdir / f"{name}.kg", doc)


def build(name: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    ops, graphs = {"cylinder": _cylinder, "multires": _multires, "spectral": _spectral}[name](rng, workdir)
    by_label = {op.label: op for op in ops}
    listed = SPEC["workloads"][name]["ops"]
    unknown = sorted(set(listed) - set(by_label))
    if unknown:
        raise ValueError(f"spec.json lists ops that _{name} does not make: {unknown}")
    return Workload(name, [by_label[label] for label in listed], graphs, SPEC["workloads"][name]["min_passes"])


def _cylinder(rng: random.Random, workdir: Path) -> tuple[list[Op], list[Path]]:
    size = SIZES["cylinder"]
    led, lam3, bq3 = _fixture("ledrappier"), _fixture("lambda3"), _fixture("bouquet-3")
    lam3_level = ",".join(map(str, size["ck_lambda3_level"]))
    circ = _write_graph(workdir, "circulant", gen.twisted_circulant(
        size["ck_circulant_vertices"], *size["ck_circulant_shifts"], rng))
    weights = gen.bernoulli_weights(3, rng)
    led_m, lam3_m = _load(led), _load(lam3)
    led_paths = gen.measure_paths(led_m.g, size["measure_paths_per_op"], size["measure_max_word"], rng)
    lam3_paths = gen.measure_paths(lam3_m.g, size["measure_paths_per_op"], size["measure_max_word"], rng)

    def path_args(paths):
        return [a for p in paths for a in ("--path", p)]

    ops = [
        Op("ck ledrappier 1,2", ["ck-check", str(led), "--level", "1,2"], orc.check_ck),
        Op("ck ledrappier 2,2", ["ck-check", str(led), "--level", "2,2"], orc.check_ck),
        Op(f"ck lambda3 {lam3_level}", ["ck-check", str(lam3), "--level", lam3_level], orc.check_ck),
        Op("ck bouquet-3 bernoulli 4", ["ck-check", str(bq3), "--weights", gen.weights_arg(weights),
                                        "--level", "4"], orc.check_ck),
        Op("ck circulant 1,1", ["ck-check", str(circ), "--level", "1,1"], orc.check_ck),
        Op("measure ledrappier exact embed", ["measure", str(led), "--exact", "--embed",
                                              *path_args(led_paths)],
           partial(orc.check_measure, led_m, led_paths, True)),
        Op("measure lambda3 exact", ["measure", str(lam3), "--exact", *path_args(lam3_paths)],
           partial(orc.check_measure, lam3_m, lam3_paths, False)),
    ]
    return ops, [led, lam3, bq3, circ]


def _multires(rng: random.Random, workdir: Path) -> tuple[list[Op], list[Path]]:
    size = SIZES["multires"]
    led = _fixture("ledrappier")
    led_m = _load(led)
    circ = _write_graph(workdir, "circulant", gen.twisted_circulant(
        size["circulant_vertices"], *size["circulant_shifts"], rng))
    depth = size["transform_depth"]
    fn = gen.cylinder_function(led_m.g, (depth, depth), size["function_terms"], rng)
    fn_file = gen.write_jsonl(workdir / "function.jsonl", fn)
    coeff_file = workdir / "coefficients.jsonl"
    weights = gen.bernoulli_weights(size["markov_alphabet"], rng)
    wav = ["wavelets", str(led), "--shape"]

    def check_synthesize(stdout):
        orc.check_synthesize(led_m, (1, 1), depth, fn, coeff_file.read_text(), stdout)

    ops = [
        # the first analyze output is the synthesize input, so the pair closes
        # the round trip f -> coefficients -> f
        Op("analyze ledrappier depth 5", [*wav, "1,1", "--depth", str(depth), "--analyze", str(fn_file)],
           partial(orc.check_analyze, led_m, (1, 1), depth, fn), feeds=coeff_file),
        Op("synthesize ledrappier depth 5", [*wav, "1,1", "--depth", str(depth),
                                             "--synthesize", str(coeff_file)], check_synthesize),
        Op("basis ledrappier depth 4", [*wav, "1,1", "--depth", str(size["listing_depth"])],
           partial(orc.check_basis, led_m, (1, 1), size["listing_depth"])),
        Op("basis ledrappier 1,2 depth 2", [*wav, "1,2", "--depth", str(size["shape_1_2_depth"])],
           partial(orc.check_basis, led_m, (1, 2), size["shape_1_2_depth"])),
        Op("family ledrappier 1,2", [*wav, "1,2", "--list-family"],
           partial(orc.check_family, led_m, (1, 2))),
        Op("compare ledrappier x2", [*wav, "1,1", "--compare", "2"],
           partial(orc.check_compare, led_m, (1, 1), 2)),
        Op("compare ledrappier x3", [*wav, "1,1", "--compare", "3"],
           partial(orc.check_compare, led_m, (1, 1), 3)),
        Op(f"markov {size['markov_alphabet']} letters depth {size['markov_depth']}",
           ["markov", "--alphabet", str(size["markov_alphabet"]), "--weights", gen.weights_arg(weights),
            "--depth", str(size["markov_depth"])],
           partial(orc.check_markov, weights, size["markov_depth"])),
        Op(f"basis circulant depth {size['circulant_depth']}",
           ["wavelets", str(circ), "--shape", "1,1", "--depth", str(size["circulant_depth"])],
           partial(orc.check_basis, _load(circ), (1, 1), size["circulant_depth"])),
    ]
    return ops, [led, circ]


def _spectral(rng: random.Random, workdir: Path) -> tuple[list[Op], list[Path]]:
    size = SIZES["spectral"]
    n_circ = size["circulant_vertices"]
    tor = _write_graph(workdir, "torus", gen.torus(size["torus"][0]))
    circ = _write_graph(workdir, "circulant", gen.twisted_circulant(n_circ, *size["circulant_shifts"], rng))
    small = _write_graph(workdir, "circulant-small", gen.twisted_circulant(
        size["traffic_default_vertices"], *size["circulant_shifts"], rng))
    circ_m = _load(circ)
    prefs = gen.circulant_prefs(circ_m.g, n_circ, rng)
    prefs_file = gen.write_jsonl(workdir / "prefs.jsonl", prefs)
    prefs_degrees = {r["vertex"]: (0, 0) if r["path"].startswith("@") else circ_m.g.degree(r["path"].split(","))
                     for r in prefs}
    small_m = _load(small)

    ops = []
    for label, path, model in (("torus", tor, _load(tor)), ("circulant", circ, circ_m)):
        g = model.g
        sig_gft = gen.write_json(workdir / f"{label}-gft.json", gen.signal(model.n, rng))
        sig_rec = gen.write_json(workdir / f"{label}-reconstruct.json", gen.signal(model.n, rng))
        t = round(rng.uniform(0.2, 2.0), 3)
        center = rng.choice(g.vertices)
        # a target a few steps from the centre keeps every probe ratio well above round-off
        target = g.source(rng.choice(g.into[(g.source(rng.choice(g.into[(center, 1)])), 2)]))
        ts = sorted({round(rng.uniform(0.3, 1.5), 3) for _ in range(3)}, reverse=True)
        p = str(path)
        ops += [
            Op(f"validate {label}", ["validate", p], partial(orc.check_validate, model)),
            Op(f"pf {label}", ["pf", p], partial(orc.check_pf, model)),
            Op(f"laplacian {label}", ["laplacian", p], partial(orc.check_laplacian, model)),
            Op(f"eig {label}", ["spectral", p, "--eig"], partial(orc.check_eig, model)),
            Op(f"gft {label}", ["spectral", p, "--gft", str(sig_gft)],
               partial(orc.check_gft, model, _json(sig_gft))),
            Op(f"wavelet {label}", ["spectral", p, "--wavelet", "--t", repr(t), "--n", center],
               partial(orc.check_wavelet, model, t, center)),
            Op(f"localize {label}", ["spectral", p, "--localize", "--n", center, "--m", target,
                                     "--tlist", ",".join(repr(x) for x in ts)],
               partial(orc.check_localize, model, center, target, ts)),
            Op(f"reconstruct {label}", ["spectral", p, "--reconstruct", str(sig_rec)],
               partial(orc.check_reconstruct, model, _json(sig_rec), size["tgrid_points"], 1e-3),
               defect="reconstruct-negative-argument" if label == "circulant" else None),
        ]
    ops += [
        Op("validate circulant-small", ["validate", str(small)], partial(orc.check_validate, small_m)),
        Op("traffic circulant prefs", ["traffic", str(circ), "--prefs", str(prefs_file)],
           partial(orc.check_traffic, circ_m, prefs_degrees)),
        Op("traffic circulant-small default", ["traffic", str(small)],
           partial(orc.check_traffic, small_m, orc.least_degrees(small_m, small_m.g.vertices[0])),
           defect="default-prefs-exponential"),
    ]
    return ops, [tor, circ, small]


def _json(path: Path):
    return json.loads(path.read_text())
