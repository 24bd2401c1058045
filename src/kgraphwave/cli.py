"""Command-line front door.

Every subcommand loads a graph document, runs one pipeline, and writes
line-delimited JSON records (or CSV with --csv) to stdout or --out, through
one writer that writes each record as it is made.  Every check of an op
runs before its first record, so a failing op writes nothing.  Output is
byte-deterministic for a fixed invocation.  Errors print one JSON record to
stderr and exit with 1 (usage, a size limit, or memory run out), 2 (parse,
or a closed stdout), 3 (validation), or 4 (numeric).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import errors as err
from . import jsonl
from .kgraph import load_kgraph_file, normal_form_rows
from .measure import CylinderFn, MeasureSpec, check_zero_one, cylinder_measures, embed_interval
from .perron import hausdorff_dimension, is_strongly_connected, pf_data
from .sbfs import check_ck_relations
from .spectral import (
    check_eigendata,
    check_laplacian_listing,
    default_kernel,
    default_tgrid,
    eig_sym,
    gft,
    incidence_entries,
    kgraph_laplacian,
    laplacian_entries,
    localization_probe,
    reconstruct,
    spectral_wavelet,
)
from .traffic import check_preferred_paths, least_degrees, traffic_wavelet_family
from .wavelets import (
    analyze,
    build_wavelet_family,
    markov_wavelets,
    subspace_compare,
    synthesize_vector,
    wavelet_basis,
)

USAGE_EXIT = 1
PARSE_EXIT = 2
VALIDATION_EXIT = 3
NUMERIC_EXIT = 4

_NUMERIC_ERRORS = (err.ConvergenceFailure, err.DivergentIntegral, err.GridTooCoarse,
                   err.NonConstantDerivative, err.NonFiniteResult, err.ResidualTooLarge)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _fail(USAGE_EXIT, "usage", message)


def _fail(code: int, kind: str, message: str, reason: str | None = None):
    record = {"error": kind, "message": str(message)}
    if reason:
        record["reason"] = reason
    print(json.dumps(record), file=sys.stderr)
    raise SystemExit(code)


def _parse_list(text: str, kind, what: str, example: str) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(","))
    except ValueError:
        _fail(USAGE_EXIT, "usage", f"bad {what} {text!r}; expected e.g. {example}")


def _parse_weights(text: str) -> list:
    """Letter weights: a Fraction where written as p/q, else a float."""
    try:
        return [Fraction(w) if "/" in w else float(w) for w in text.split(",")]
    except (ValueError, ZeroDivisionError):
        _fail(USAGE_EXIT, "usage", f"bad --weights {text!r}; expected e.g. 1/3,2/3 or 0.25,0.75")


def _parse_tgrid(text: str) -> np.ndarray:
    """``lo,hi,count``: count log-spaced scales from lo to hi."""
    values = _parse_list(text, float, "--tgrid", "1e-5,2e3,2000")
    if not (len(values) == 3 and all(0 < x < math.inf for x in values[:2])
            and values[2] >= 2 and values[2].is_integer()):
        _fail(USAGE_EXIT, "usage", f"--tgrid {text!r} needs lo,hi,count with lo, hi > 0 and count >= 2")
    return np.geomspace(values[0], values[1], int(values[2]))


def _check_scales(values, flag: str):
    """Wavelet scales must be finite and > 0."""
    for t in values:
        if not 0 < t < math.inf:
            _fail(USAGE_EXIT, "usage", f"{flag} scales must be finite and > 0, got {t}")


def _scaled(flag: str, op, *args):
    """op(*args), where a scale times an eigenvalue past the float range
    names the flag the scale came from."""
    try:
        return op(*args)
    except err.NonFiniteResult as exc:
        raise err.NonFiniteResult(f"{flag}: {exc}") from None


def _parse_words(graph, texts: list[str]) -> list:
    """The normal forms of words like ``e,f1``, or ``@v`` for a vertex."""
    return normal_form_rows(graph, [[t] if t.startswith("@") else t.split(",") for t in texts],
                            vertex_marks=True)


def _graph_path(args) -> str:
    positional = getattr(args, "graph", None)
    flagged = getattr(args, "graph_flag", None)
    if positional and flagged:
        _fail(USAGE_EXIT, "usage", "give the graph positionally or via --graph, not both")
    path = positional or flagged
    if not path:
        _fail(USAGE_EXIT, "usage", "a graph document is required")
    return path


def _vertex_index(graph, name: str | None, flag: str) -> int:
    if name is None:
        _fail(USAGE_EXIT, "usage", f"{flag} is required")
    if name not in graph.vertex_index:
        _fail(USAGE_EXIT, "usage", f"{flag} names unknown vertex {name!r}")
    return graph.vertex_index[name]


def _load_graph(args):
    return load_kgraph_file(_graph_path(args))


def _load_measure(graph, args) -> MeasureSpec:
    exact = getattr(args, "exact", False)
    if getattr(args, "weights", None):
        return MeasureSpec.bernoulli(graph, _parse_weights(args.weights), exact=exact)
    return MeasureSpec.perron_frobenius(graph, exact=exact)


class _Rows:  # the file of a CSV writer: its write returns the row, and so does writerow
    write = str


def _emit(args, records, csv_fields: list[str] | None = None):
    """Write each record of the iterable `records` as it comes: a JSON line,
    or with --csv, where the op names `csv_fields`, a header and then a row
    per record, its missing fields empty and its other fields left out."""
    if getattr(args, "csv", False) and csv_fields:
        writer = csv.DictWriter(_Rows, csv_fields, restval="", extrasaction="ignore", lineterminator="\n")
        _write(args, itertools.chain([writer.writeheader()], map(writer.writerow, records)))
    else:
        _write(args, (json.dumps(rec) + "\n" for rec in records))


def _write(args, texts):
    """Write each text of the iterable `texts` as it comes to --out, or else
    to stdout, never holding the whole output: the records of `_emit`, or the
    listings `jsonl` renders.  A handler calls it once every check has passed."""
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.writelines(texts)
    elif isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):  # unbuffered: a cut raw write is silent
        out = io.BufferedWriter(sys.stdout.buffer)
        out.writelines(text.encode(sys.stdout.encoding, sys.stdout.errors) for text in texts)
        out.detach()  # flushes, retrying a cut write, which then raises; the raw file stays open
    else:
        sys.stdout.writelines(texts)


def _is_number(value) -> bool:
    """A JSON number that fits a finite float; JSON true is no number, and
    NaN and Infinity are no JSON."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_RECORD_FIELDS = {
    "path": (lambda v: type(v) is list and all(type(e) is str for e in v), "a list of strings"),
    "coeff": (_is_number, "a number"),
}


_scan = json.JSONDecoder().scan_once


def _decode_line(line: str):
    """``json.loads(line)``, by one call of the C scanner when the line is
    one JSON value and its newline.  A line whose value does not start at
    its first character, or that holds more after the value, goes to
    `json.loads`, which gives its value or its error.  An error of the scan
    itself is that of `json.loads`, whose scan of such a line starts at 0."""
    try:
        value, end = _scan(line, 0)
    except StopIteration:
        return json.loads(line)
    return value if line[end:] in ("", "\n") else json.loads(line)


def _json_lines(filename: str):
    """Each nonblank line of a JSON-lines file with its line number and its
    value (`_decode_line`); a line that is no JSON raises ParseError naming
    the file and the line."""
    with open(filename) as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    for number, line in lines:
        try:
            yield number, line, _decode_line(line)
        except json.JSONDecodeError as exc:
            raise err.ParseError(f"{filename} line {number}: invalid JSON: {exc.msg} at column {exc.colno}") from exc


def _read_records(filename: str, fields: tuple[str, ...]) -> list[dict]:
    """The records of a JSON-lines transform input, one object per nonblank
    line, each holding the named `fields` in valid form: ``path`` a list of
    strings, ``coeff`` a number.  The first line with a fault names it."""
    checks = [(name, *_RECORD_FIELDS[name]) for name in fields]
    records = []
    for number, line, rec in _json_lines(filename):
        if type(rec) is not dict:
            raise err.ParseError(f"{filename} line {number}: expected a JSON object, got {line.strip()}")
        for name, check, what in checks:
            if not check(rec.get(name)):
                raise err.ParseError(f"{filename} line {number}: field {name!r} must be {what}")
        records.append(rec)
    return records


def _finite(values: np.ndarray, flag: str, what: str) -> np.ndarray:
    """The values of a transform, if they are all finite: a finite input
    can sum past the float range, and NaN and Infinity are no JSON.  Every
    input value reaches some coefficient of an analysis, so a value that
    overflows shows in the coefficients."""
    if not np.isfinite(values).all():
        raise err.NonFiniteResult(f"{flag}: the {what} leave the float range")
    return values


def _signal_from_file(path: str, n: int) -> np.ndarray:
    """A vertex signal: a JSON list of n numbers, each finite and not a bool."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise err.ParseError(f"{path} line {exc.lineno}: invalid JSON: {exc.msg} at column {exc.colno}") from exc
    if type(data) is not list or not all(_is_number(x) for x in data):
        raise err.ParseError(f"signal in {path} must be a JSON list of finite numbers")
    sig = np.asarray(data, dtype=float)
    if sig.shape != (n,):
        raise err.DimensionMismatch(f"signal in {path} has shape {sig.shape}, need ({n},)")
    return sig


# -- subcommand handlers ----------------------------------------------------

def _cmd_validate(args):
    graph = _load_graph(args)
    counts = np.bincount(graph.edge_color).tolist()
    per_color = {c: counts[c] if c < len(counts) else 0 for c in range(1, graph.k + 1)}
    _emit(args, [{
        "ok": True,
        "k": graph.k,
        "vertices": len(graph.vertices),
        "edges_per_color": per_color,
        "squares": len(graph.square_edges),
        "cube_condition": "checked" if graph.k >= 3 else "n/a (k<3)",
        "strongly_connected": is_strongly_connected(graph),
    }])


def _cmd_pf(args):
    if not 0 < args.tol < math.inf:
        _fail(USAGE_EXIT, "usage", f"--tol must be a positive number, got {args.tol}")
    graph = _load_graph(args)
    pf = pf_data(graph, tol=args.tol)
    rec = {"rho": [float(r) for r in pf.rho],
           "x_lambda": {v: float(x) for v, x in zip(graph.vertices, pf.x_lambda)}}
    if args.hausdorff:
        rec["hausdorff_dimension"] = hausdorff_dimension(graph, pf)
    _emit(args, [rec])


def _cmd_measure(args):
    graph = _load_graph(args)
    spec = _load_measure(graph, args)
    if args.embed:  # the graph is checked once the first path is read, before the others
        _parse_words(graph, args.path[:1])
        check_zero_one(graph)
    forms = _parse_words(graph, args.path)
    measures = cylinder_measures(spec, forms)
    _emit(args, ({"path": text, "normal_form": [graph.edge_ids[e] for e in row] or ["@" + graph.vertices[r]],
                  "measure": str(value) if spec.exact else float(value),
                  **({"interval": [str(x) for x in embed_interval(graph, r, row)]} if args.embed else {})}
                 for text, (_, row, r, _), value in zip(args.path, forms, measures)),
          csv_fields=["path", "measure"])


def _cmd_ck_check(args):
    graph = _load_graph(args)
    spec = _load_measure(graph, args)
    report = check_ck_relations(spec, graph, _parse_list(args.level, int, "degree/shape", "1,2"))
    _emit(args, report.to_records(), csv_fields=["relation", "max_deviation"])


def _cmd_wavelets(args):
    if args.compare is not None and args.compare < 1:
        _fail(USAGE_EXIT, "usage", f"--compare must be an integer >= 1, got {args.compare}")
    if args.depth is not None and (args.list_family or args.compare is not None):
        _fail(USAGE_EXIT, "usage", "--depth applies only to the basis, --analyze and --synthesize")
    graph = _load_graph(args)
    family = build_wavelet_family(graph, shape=_parse_list(args.shape, int, "degree/shape", "1,2"))
    if args.compare is not None:
        coarse = build_wavelet_family(graph, shape=tuple(args.compare * j for j in family.shape), spec=family.spec)
        _emit(args, [subspace_compare(family, coarse).to_record()])
        return
    if args.list_family:
        _write(args, [family.listing()])
        return
    basis = wavelet_basis(family, 1 if args.depth is None else args.depth)
    if args.analyze:
        fn = CylinderFn.from_records(graph, _read_records(args.analyze, ("path", "coeff")))
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _finite(analyze(basis, fn), "--analyze", "coefficients")
        _write(args, [basis.coefficient_lines(coeffs)])
        return
    if args.synthesize:
        coeffs = [float(rec["coeff"]) for rec in _read_records(args.synthesize, ("coeff",))]
        with np.errstate(over="ignore", invalid="ignore"):
            values = _finite(synthesize_vector(basis, coeffs), "--synthesize", "values")
        _write(args, [basis.space.lines(np.arange(len(values)), values)])
        return
    _write(args, [basis.listing()])


def _cmd_markov(args):
    system = markov_wavelets(args.alphabet, _parse_weights(args.weights), args.depth)
    _write(args, [system.listing()])


def _cmd_traffic(args):
    graph = _load_graph(args)
    if args.root is not None:
        _vertex_index(graph, args.root, "--root")
    pf = pf_data(graph)
    if args.prefs:
        records, seen = [], {}  # seen: the line that names each vertex
        try:
            for number, line, rec in _json_lines(args.prefs):
                if not (isinstance(rec, dict) and isinstance(rec.get("vertex"), str)
                        and isinstance(rec.get("path"), str)):
                    raise err.ParseError(f"{args.prefs} line {number}: preferred-path records need string "
                                         f"'vertex' and 'path' fields, got {line.strip()}")
                vertex = rec["vertex"]
                if vertex in seen:
                    raise err.ValidationError("bad_preferred_path", f"{args.prefs} line {number}: vertex {vertex!r} "
                                              f"is named again, first on line {seen[vertex]}")
                seen[vertex] = number
                records.append(rec)
        finally:  # the words of the lines before a bad line are read first: their fault wins
            forms = _parse_words(graph, [rec["path"] for rec in records])
        if not records:
            raise err.ValidationError("bad_preferred_path", f"{args.prefs} holds no preferred paths")
        root = graph.vertices[forms[0][2]] if args.root is None else args.root
        check_preferred_paths(root, ((rec["vertex"], graph.vertices[r], graph.vertices[s])
                                     for rec, (_, _, r, s) in zip(records, forms)))
        degrees = {rec["vertex"]: form[0] for rec, form in zip(records, forms)}
    else:
        degrees = least_degrees(graph, graph.vertices[0] if args.root is None else args.root)
    family = traffic_wavelet_family(graph, pf, degrees)
    _emit(args, itertools.chain(
        [{"kind": "measure", "values": {v: float(x) for v, x in zip(graph.vertices, family.measure)}}],
        family.to_records(), [{"kind": "summary", "complete": family.complete}]))


def _cmd_laplacian(args):
    """The incidence records of each color, then the Laplacian's, as text
    rendered from the nonzeros: no dense matrix is built."""
    graph = _load_graph(args)
    check_laplacian_listing(graph)
    n = len(graph.vertices)

    def lines():
        for color in range(1, graph.k + 1):
            edges, rows, cols, values = incidence_entries(graph, color)
            matrix = jsonl.int_matrix((n, len(edges)), rows, cols, values)
            order = json.dumps([graph.edge_ids[i] for i in edges.tolist()])
            yield f'{{"kind": "incidence", "color": {color}, "edges": {order}, "matrix": {matrix}}}\n'
        yield f'{{"kind": "laplacian", "matrix": {jsonl.int_matrix((n, n), *laplacian_entries(graph))}}}\n'
    _write(args, lines())


# each flag of `spectral` that one mode reads, and the modes that read it
_SPECTRAL_FLAG_MODES = {"t": ("wavelet",), "n": ("wavelet", "localize"), "m": ("localize",),
                        "tlist": ("localize",), "tgrid": ("reconstruct",)}


def _cmd_spectral(args):
    mode = next((m for m in ("eig", "gft", "wavelet", "reconstruct", "localize") if getattr(args, m)), None)
    for flag, modes in _SPECTRAL_FLAG_MODES.items():
        if getattr(args, flag) is not None and mode not in modes:
            _fail(USAGE_EXIT, "usage", f"--{flag} applies only to --{' or --'.join(modes)}")
    graph = _load_graph(args)

    def eigendata():  # each mode checks its own arguments first
        check_eigendata(graph)
        return eig_sym(kgraph_laplacian(graph))

    if args.eig:
        _emit(args, eigendata().to_records(), csv_fields=["eigenvalue"])
        return
    if args.gft:
        sig = _signal_from_file(args.gft, len(graph.vertices))
        coeffs = gft(eigendata(), sig)
        _emit(args, ({"index": i, "coefficient": float(c)} for i, c in enumerate(coeffs, 1)),
              csv_fields=["index", "coefficient"])
        return
    if args.wavelet:
        n = _vertex_index(graph, args.n, "--n")
        t = 1.0 if args.t is None else args.t
        _check_scales([t], "--t")
        psi = _scaled("--t", spectral_wavelet, eigendata(), default_kernel(), t, n)
        _emit(args, ({"t": t, "n": args.n, "m": v, "value": float(x)}
                     for v, x in zip(graph.vertices, psi)),
              csv_fields=["t", "n", "m", "value"])
        return
    if args.reconstruct:
        grid = _parse_tgrid(args.tgrid) if args.tgrid else None
        sig = _signal_from_file(args.reconstruct, len(graph.vertices))
        spec = eigendata()
        rec = _scaled("--tgrid", reconstruct, spec, default_kernel(), sig,
                      default_tgrid(spec) if grid is None else grid)
        _emit(args, ({"vertex": v, "value": float(x)} for v, x in zip(graph.vertices, rec)),
              csv_fields=["vertex", "value"])
        return
    if args.localize:
        n, m = _vertex_index(graph, args.n, "--n"), _vertex_index(graph, args.m, "--m")
        if args.tlist is None:
            _fail(USAGE_EXIT, "usage", "--localize needs --tlist")
        ts = _parse_list(args.tlist, float, "--tlist", "0.5,0.25")
        _check_scales(ts, "--tlist")
        probe = _scaled("--tlist", localization_probe, eigendata(), default_kernel(), n, m, ts)
        _emit(args, itertools.chain(probe.to_records(), [{"slope": probe.slope}]),
              csv_fields=["t", "ratio", "slope"])
        return
    _fail(USAGE_EXIT, "usage", "spectral needs one of --eig/--gft/--wavelet/--reconstruct/--localize")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kgraphwave",
                     description="wavelet analysis on finite higher-rank graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("graph", nargs="?", default=None,
                           help="path to a .kg graph document")
            p.add_argument("--graph", dest="graph_flag", default=None,
                           help="alternative to the positional graph argument")
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("validate", help="load a graph document and report its shape")
    common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("pf", help="Perron-Frobenius spectral data")
    common(p)
    p.add_argument("--hausdorff", action="store_true")
    p.add_argument("--tol", type=float, default=1e-13, help="power-iteration relative step tolerance, > 0")
    p.set_defaults(handler=_cmd_pf)

    p = sub.add_parser("measure", help="cylinder measures of paths")
    common(p)
    p.add_argument("--path", action="append", required=True,
                   help="edge word like e,f1 (or @v for a vertex); repeatable")
    p.add_argument("--weights", help="Bernoulli letter weights p1,p2,... (bouquet only)")
    p.add_argument("--exact", action="store_true", help="rational output (p/q --weights or integer PF radii)")
    p.add_argument("--embed", action="store_true", help="also emit the N-adic interval")
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("ck-check", help="verify the Cuntz-Krieger relations at a level")
    common(p)
    p.add_argument("--level", required=True, help="test level, e.g. 2,2")
    p.add_argument("--weights", help="Bernoulli letter weights (bouquet only)")
    p.set_defaults(handler=_cmd_ck_check)

    p = sub.add_parser("wavelets", help="path-space wavelet family and transforms")
    common(p)
    p.add_argument("--shape", required=True, help="wavelet shape, e.g. 1,2")
    p.add_argument("--depth", type=int, help="cascade depth of the basis, --analyze and --synthesize (default 1)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list-family", action="store_true")
    mode.add_argument("--analyze", help="cylinder-function records file to analyze")
    mode.add_argument("--synthesize", help="coefficient records file to synthesize")
    mode.add_argument("--compare", type=int,
                      help="compare against the family of shape L*J for this integer L >= 1")
    p.set_defaults(handler=_cmd_wavelets)

    p = sub.add_parser("markov", help="full-shift wavelets for a Bernoulli measure")
    common(p, graph=False)
    p.add_argument("--alphabet", type=int, required=True, help="number of letters N")
    p.add_argument("--weights", required=True, help="letter weights p1,...,pN")
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(handler=_cmd_markov)

    p = sub.add_parser("traffic", help="preferred-path vertex wavelets")
    common(p)
    p.add_argument("--root", help="root vertex (default: first vertex)")
    p.add_argument("--prefs", help="preferred-path records file {vertex, path}")
    p.set_defaults(handler=_cmd_traffic)

    p = sub.add_parser("laplacian", help="incidence matrices and the k-graph Laplacian")
    common(p)
    p.set_defaults(handler=_cmd_laplacian)

    p = sub.add_parser("spectral", help="eigendata, GFT, spectral wavelets")
    common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--eig", action="store_true")
    mode.add_argument("--gft", help="signal file (JSON list in vertex order)")
    mode.add_argument("--wavelet", action="store_true")
    mode.add_argument("--reconstruct", help="signal file to reconstruct")
    mode.add_argument("--localize", action="store_true")
    p.add_argument("--t", type=float, help="wavelet scale for --wavelet (default 1.0)")
    p.add_argument("--n", help="wavelet center vertex (--wavelet, --localize)")
    p.add_argument("--m", help="probe target vertex (--localize)")
    p.add_argument("--tgrid", help="lo,hi,count for the scale grid (--reconstruct)")
    p.add_argument("--tlist", help="comma-separated scales for --localize")
    p.set_defaults(handler=_cmd_spectral)

    for name in ("measure", "ck-check", "spectral"):  # the ops whose records are the rows of a table
        sub.choices[name].add_argument("--csv", action="store_true", help="emit CSV instead of JSON lines")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused by later ones."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.handler(args)
    except err.TooLarge as exc:
        _fail(USAGE_EXIT, "usage", exc, reason="size_limit")
    except MemoryError as exc:  # an allocation past the address space, raised as it is tried
        _fail(USAGE_EXIT, "usage", str(exc) or "out of memory", reason="out_of_memory")
    except err.ParseError as exc:
        _fail(PARSE_EXIT, "parse", exc)
    except OSError as exc:  # a missing or unreadable file, or a directory in its place
        _fail(PARSE_EXIT, "parse", exc)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # input that is not JSON, or not UTF-8 text
        _fail(PARSE_EXIT, "parse", exc)
    except err.ValidationError as exc:
        _fail(VALIDATION_EXIT, "validation", exc, reason=exc.reason)
    except _NUMERIC_ERRORS as exc:
        _fail(NUMERIC_EXIT, "numeric", exc)
    except (err.KGraphWaveError, ValueError) as exc:
        _fail(VALIDATION_EXIT, "validation", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
