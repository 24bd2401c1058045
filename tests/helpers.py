"""Shared property-suite helpers, reused by module tests and the acceptance
gate.  Each function returns the worst deviation it saw (0.0 for exact
combinatorial checks) and raises AssertionError on failure."""

import builtins
import csv
import io
import json
import math
import random
import sys
import weakref
from fractions import Fraction
from itertools import permutations, product
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

import kgraphwave
from kgraphwave import (
    CompositionError,
    CylinderFn,
    DegreeRangeError,
    Edge,
    FactorizationSquare,
    GridTooCoarse,
    KernelPiece,
    KernelSpec,
    LevelSpace,
    MeasureSpec,
    NonConstantDerivative,
    NonFiniteResult,
    NoWaveletDegree,
    ParseError,
    Path,
    ValidationError,
    bouquet_graph,
    cg_constant,
    compose,
    cylinder_measure,
    default_tgrid,
    enumerate_paths,
    extensions,
    incidence_entries,
    inner_product,
    jsonl,
    kernel_eval,
    level_space,
    normal_form,
    rational_pf_data,
    refine,
    s_apply,
    s_matrix,
    segment,
    spectral_wavelet,
    synthesize,
    synthesize_vector,
    vertex_path,
    wavelet_basis,
)
import kgraphwave.cli
from kgraphwave.kgraph import (
    WordKernel, _degree_colors, _expand_runs, _same_graph, _swap_schedule, as_degree, deg_add, deg_join, deg_le,
    deg_sub, form_of, normal_form_rows)
from kgraphwave.orthobasis import complement_basis
from kgraphwave.sbfs import CKReport, RelationCheck


def edges_into(graph, vertex, color):
    """Edge ids with the given range and color, sorted by id: the run of
    the vertex in the word kernel's edges of that color by range."""
    if vertex not in graph.vertex_index:
        return ()
    by_range, starts = graph.word_kernel._runs(color)
    v = graph.vertex_index[vertex]
    return tuple(graph.edge_ids[e] for e in by_range[starts[v]:starts[v + 1]].tolist())


def graph_document(graph):
    """The JSON document of a graph, as `load_kgraph` reads it."""
    ids = graph.edge_ids
    return {
        "k": graph.k,
        "vertices": list(graph.vertices),
        "edges": [
            {"id": eid, "color": c, "source": graph.vertices[s], "range": graph.vertices[r]}
            for eid, c, s, r in zip(ids, graph.edge_color.tolist(),
                                    graph.edge_source.tolist(), graph.edge_range.tolist())
        ],
        "squares": [
            {"left": [ids[a], ids[b]], "right": [ids[c], ids[d]]}
            for a, b, c, d in graph.square_edges.tolist()
        ],
    }


def words_with_pattern(graph, pattern):
    """All composable edge words whose color sequence equals `pattern`."""
    out = []

    def extend(word):
        pos = len(word)
        if pos == len(pattern):
            out.append(tuple(word))
            return
        color = pattern[pos]
        if pos == 0:
            candidates = [e for e in sorted(graph.edges) if graph.color(e) == color]
        else:
            candidates = edges_into(graph, graph.edge(word[-1]).source, color)
        for eid in candidates:
            word.append(eid)
            extend(word)
            word.pop()

    extend([])
    return out


def path_row(path):
    """The word-kernel row of a path: its edge indices (`form_of`)."""
    return np.array(form_of(path)[1], dtype=np.intp)


_SWAPS = weakref.WeakKeyDictionary()


def square_swaps(graph):
    """Each square side of the graph to the other side of its square, as
    edge-id pairs read off ``graph.squares`` (cached per graph)."""
    if graph not in _SWAPS:
        _SWAPS[graph] = {side: other for sq in graph.squares
                         for side, other in ((sq.left, sq.right), (sq.right, sq.left))}
    return _SWAPS[graph]


def all_rewrite_terminals(graph, word):
    """Explore every rewriting order of `word`; return the set of terminal
    (inversion-free) words."""
    swap = square_swaps(graph)
    seen = {tuple(word)}
    frontier = [tuple(word)]
    terminals = set()
    while frontier:
        w = frontier.pop()
        moves = [i for i in range(len(w) - 1)
                 if graph.color(w[i]) > graph.color(w[i + 1])]
        if not moves:
            terminals.add(w)
            continue
        for i in moves:
            a, b = swap[(w[i], w[i + 1])]
            nxt = w[:i] + (a, b) + w[i + 2:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return terminals


def restart_rewrite(graph, word, leftmost=True):
    """Oracle for `WordKernel.rewrite`: swap the leftmost (else the
    rightmost) inversion, then scan again from the start, until no inversion
    is left."""
    swap = square_swaps(graph)
    w = list(word)
    while True:
        positions = range(len(w) - 1)
        if not leftmost:
            positions = reversed(positions)
        for i in positions:
            if graph.color(w[i]) > graph.color(w[i + 1]):
                w[i], w[i + 1] = swap[(w[i], w[i + 1])]
                break
        else:
            return tuple(w)


def kernel_rewrite(graph, word, swaps=None):
    """One edge-id word rewritten by `WordKernel.rewrite`, as edge ids: by
    the swaps given, else by the `_swap_schedule` of its colors."""
    kernel = graph.word_kernel
    row = np.array([[kernel.position[e] for e in word]], dtype=np.intp)
    if swaps is None:
        swaps = _swap_schedule(tuple(graph.color(e) for e in word))
    return tuple(kernel.ids[e] for e in kernel.rewrite(row, swaps)[0].tolist())


def check_word(graph, word):
    """Oracle for the checks of `normal_form_rows` on one word: the edge-id
    loop that raised at the first unknown edge, else at the first pair that
    does not compose."""
    if not word:
        raise CompositionError("empty word has no endpoints; use vertex_path")
    for eid in word:
        if eid not in graph.edge_position:
            raise CompositionError(f"unknown edge id {eid!r}")
    for a, b in zip(word, word[1:]):
        if graph.edge(a).source != graph.edge(b).range:
            raise CompositionError(
                f"edges {a} and {b} are not composable (source "
                f"{graph.edge(a).source} != range {graph.edge(b).range})")


def census_path(graph, word):
    """The `Path` of a normal-form edge-id word, its degree counted letter
    by letter."""
    census = [0] * graph.k
    for eid in word:
        census[graph.color(eid) - 1] += 1
    return Path(graph, tuple(word), tuple(census), graph.edge(word[0]).range, graph.edge(word[-1]).source)


def per_word_normal_forms(graph, words, vertex_marks=False):
    """Oracle for `normal_form_rows`: one word at a time, in input order,
    checked by `check_word` and rewritten by `restart_rewrite`, as `Path`
    objects; with ``vertex_marks`` a word ``["@v"]`` is the vertex v."""
    out = []
    for word in words:
        if vertex_marks and len(word) == 1 and word[0].startswith("@"):
            out.append(vertex_path(graph, word[0][1:]))
            continue
        check_word(graph, word)
        out.append(census_path(graph, restart_rewrite(graph, word)))
    return out


def pull_prefix(graph, word, p):
    """Split a composable word as prefix * suffix with the prefix of degree
    p, by square swaps that pull each prefix letter to the front, color by
    color.  The prefix comes out in normal form; the suffix is left as
    rewritten."""
    swap = square_swaps(graph)
    rest = list(word)
    prefix = []
    for color in range(1, graph.k + 1):
        for _ in range(p[color - 1]):
            i = next(j for j, eid in enumerate(rest) if graph.color(eid) == color)
            while i > 0:
                rest[i - 1], rest[i] = swap[(rest[i - 1], rest[i])]
                i -= 1
            prefix.append(rest.pop(0))
    return tuple(prefix), tuple(rest)


def pulled_segment(path, p, q):
    """Oracle for `segment`: the prefix of degree p pulled off the word, then
    the prefix of degree q - p of what is left."""
    graph = path.graph
    if not (deg_le(p, q) and deg_le(q, path.degree)):
        raise DegreeRangeError(f"need 0 <= {p} <= {q} <= {path.degree} componentwise")
    prefix, rest = pull_prefix(graph, path.word, p)
    seg, _ = pull_prefix(graph, rest, deg_sub(q, p))
    if not seg:
        return vertex_path(graph, graph.edge(prefix[-1]).source if prefix else path.range)
    return census_path(graph, seg)


def restart_compose(p, q):
    """Oracle for `compose`: the joined words rewritten by `restart_rewrite`."""
    if p.is_vertex():
        return q
    if q.is_vertex():
        return p
    return Path(p.graph, restart_rewrite(p.graph, p.word + q.word), deg_add(p.degree, q.degree),
                p.range, q.source)


def segment_mce(lam, mu):
    """Oracle for `mce`: the extensions of lam to the join whose initial
    segment of degree d(mu) is mu, sorted."""
    graph = lam.graph
    join = tuple(max(a, b) for a, b in zip(lam.degree, mu.degree))
    return sorted(tau for tau in (restart_compose(lam, ext) for ext in
                                  enumerate_paths(graph, deg_sub(join, lam.degree), range=lam.source))
                  if pulled_segment(tau, graph.zero_degree(), mu.degree) == mu)


def digit_interval(graph, path):
    """Oracle for `embed_to_interval`: the itinerary digits added one
    Fraction at a time, sources read off the `Edge` views."""
    n = len(graph.vertices)
    digits = [graph.vertex_index[path.range]]
    digits.extend(graph.vertex_index[graph.edge(eid).source] for eid in path.word)
    lo, scale = Fraction(0), Fraction(1)
    for d in digits:
        scale /= n
        lo += d * scale
    return lo, lo + scale


def composed_refine(f, level):
    """Oracle for `refine`: each term composed with every path of the
    missing degree by `restart_compose`, summed in term order."""
    acc = {}
    for p, c in f.terms.items():
        step = deg_sub(level, p.degree)
        for mu in enumerate_paths(f.graph, step, range=p.source):
            q = restart_compose(p, mu)
            acc[q] = acc.get(q, 0.0) + c
    return CylinderFn(f.graph, acc)


def cylinder_fns_equal(f, g, tol=0.0):
    """Equality as functions: f and g agree, coefficient by coefficient
    within ``tol``, once both are refined to the join of their levels.
    Functions of two graphs raise, as adding them does."""
    _same_graph("functions", f.graph, g.graph)
    level = deg_join(f.level(), g.level())
    rf, rg = (refine(fn, level).forms for fn in (f, g))
    return all(abs(rf.get(form, 0.0) - rg.get(form, 0.0)) <= tol for form in rf.keys() | rg.keys())


def mce_inner_product(spec, f, g):
    """Oracle for `inner_product`: the sum over term pairs, with the
    cylinders of `segment_mce` and their masses one `cylinder_measure` at a
    time."""
    total = 0.0
    for lam, cf in f.terms.items():
        for mu, cg in g.terms.items():
            if lam.degree == mu.degree:
                if lam == mu:
                    total += cf * cg * float(cylinder_measure(spec, lam))
                continue
            for tau in segment_mce(lam, mu):
                total += cf * cg * float(cylinder_measure(spec, tau))
    return total


def random_word(graph, length, rng):
    """A random composable word of `length` edges in any color order."""
    word = [rng.choice(sorted(graph.edges))]
    while len(word) < length:
        into = [eid for c in range(1, graph.k + 1)
                for eid in edges_into(graph, graph.edge(word[-1]).source, c)]
        if not into:
            break
        word.append(rng.choice(into))
    return word


def pruned_paths(graph, degree, range=None, source=None, limit=None):
    """Oracle for `enumerate_paths`: a recursive search that extends words
    one edge at a time, in edge-id order, through the edges into the tail of
    the word.  With a source, ``reach[pos]`` first marks the vertices from
    which the colors after pos can still end at the source, and an edge from
    an unmarked vertex starts a dead branch; with ``limit``, the search
    stops after that many paths."""
    deg = as_degree(degree, graph.k)
    for name in (range, source):
        if name is not None and name not in graph.vertex_index:
            raise CompositionError(f"unknown vertex {name!r}")
    if sum(deg) == 0:
        verts = [v for v in graph.vertices if range in (None, v) and source in (None, v)]
        return [vertex_path(graph, v) for v in verts[:limit]]
    colors = _degree_colors(deg)
    last = len(colors) - 1
    kernel, n = graph.word_kernel, len(graph.vertices)
    reach = [None] * (last + 2)
    if source is not None:
        marks = np.zeros(n, dtype=bool)
        marks[graph.vertex_index[source]] = True
        reach[-1] = marks.tolist()
        for pos in builtins.range(last, 0, -1):
            edges = kernel._runs(colors[pos])[0]
            marks, prev = np.zeros(n, dtype=bool), marks
            marks[kernel.range[edges[prev[kernel.source[edges]]]]] = True
            reach[pos] = marks.tolist()
    into = {}
    for c in set(colors):
        by_range, starts = (a.tolist() for a in kernel._runs(c))
        into[c] = [by_range[starts[v]:starts[v + 1]] for v in builtins.range(n)]
    sources, ranges = graph.edge_source.tolist(), graph.edge_range.tolist()
    ids, vertices = graph.edge_ids, graph.vertices
    out, word = [], []

    def extend(pos, candidates, top=None):
        live = reach[pos + 1]
        for e in candidates:
            tail = sources[e]
            if live is not None and not live[tail]:
                continue
            word.append(ids[e])
            at = vertices[ranges[e]] if top is None else top
            if pos == last:
                out.append(Path(graph, tuple(word), deg, at, vertices[tail]))
            else:
                extend(pos + 1, into[colors[pos + 1]][tail], at)
            word.pop()
            if len(out) == limit:
                return

    if range is not None:
        extend(0, into[colors[0]][graph.vertex_index[range]])
    else:
        extend(0, sorted(e for run in into[colors[0]] for e in run))
    return out


def filtered_paths(graph, degree, target, source):
    """Oracle for the source and range masks of `enumerate_paths`: every
    path of the degree into `target` by `pruned_paths`, then those that
    start at `source`."""
    return [p for p in pruned_paths(graph, degree, range=target) if p.source == source]


def least_total_chooser(graph, root):
    """A preferred path of each vertex's least degree, as a `--prefs` file
    holds them, and so an oracle for `least_degrees`: for each vertex, a
    first-path search of every degree of its BFS distance, in lexicographic
    order.  Every vertex must reach the root."""
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for c in range(1, graph.k + 1):
                for eid in edges_into(graph, v, c):
                    u = graph.edge(eid).source
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
        frontier = nxt
    out = {}
    for w in graph.vertices:
        for degree in sorted(d for d in product(range(dist[w] + 1), repeat=graph.k)
                             if sum(d) == dist[w]):
            found = pruned_paths(graph, degree, range=root, source=w, limit=1)
            if found:
                out[w] = found[0]
                break
    return out


def enumerated_least_degrees(graph, root):
    """Oracle for `traffic.least_degrees`: every degree of every total in
    lexicographic order, each marking the vertices its walks lead to going
    back from the root, one step back along the color-c edges from the
    marks of d - e_c.  A vertex takes the first degree that marks it; the
    totals stop at the first that settles no vertex."""
    def degrees_of_total(total, k):
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in degrees_of_total(total - head, k - 1):
                yield (head,) + tail

    kernel = graph.word_kernel
    marks = np.zeros(len(graph.vertices), dtype=bool)
    marks[graph.vertex_index[root]] = True
    back = {graph.zero_degree(): marks}
    least = {root: graph.zero_degree()}
    settled = marks.copy()  # the vertices in `least`
    total = 0
    while len(least) < len(graph.vertices):
        below, back, count, total = back, {}, len(least), total + 1
        for d in degrees_of_total(total, graph.k):
            c = next(i for i, x in enumerate(d) if x)
            edges = kernel._runs(c + 1)[0]
            prev = below[d[:c] + (d[c] - 1,) + d[c + 1:]]
            marks = np.zeros(len(graph.vertices), dtype=bool)
            marks[kernel.source[edges[prev[kernel.range[edges]]]]] = True
            back[d] = marks
            for w in np.flatnonzero(marks & ~settled).tolist():
                least[graph.vertices[w]] = d
            settled |= marks
        if len(least) == count:
            break
    return least


def dense_traffic_family(graph, pf, degrees):
    """Oracle for `traffic_wavelet_family` on the preferred-path degree of
    each vertex: the measure by one `rho_pow` per vertex, the classes by a
    dict in graded-lex order, and every wavelet lifted to a dense n-vector.
    Returns (measure, wavelets, constant, complete) with wavelets
    ((m, J), signal) in listing order."""
    nu = np.empty(len(graph.vertices))
    with np.errstate(over="ignore"):
        for i, w in enumerate(graph.vertices):
            nu[i] = pf.rho_pow(tuple(-x for x in degrees[w])) * pf.x_lambda[i]
    ok = np.isfinite(nu) & (nu > 0)
    if not ok.all():
        raise NonFiniteResult(f"the traffic weight of vertex {graph.vertices[int(np.argmin(ok))]} "
                              "leaves the float range")
    classes = {}
    for i, w in enumerate(graph.vertices):
        classes.setdefault(tuple(degrees[w]), []).append(i)
    wavelets = []
    for J in sorted(classes, key=lambda degree: (sum(degree), degree)):
        members = classes[J]
        if len(members) < 2:
            continue
        for m, row in enumerate(complement_rows(nu[members]), start=1):
            signal = np.zeros(len(graph.vertices))
            signal[members] = row
            wavelets.append(((m, J), signal))
    if not wavelets:
        raise NoWaveletDegree("every preferred-path degree class is a singleton")
    complete = len(classes) == 1
    constant = np.full(len(graph.vertices), np.sqrt(pf.rho_pow(next(iter(classes))))) if complete else None
    return nu, wavelets, constant, complete


def traffic_gram(measure, wavelets, constant):
    """The Gram matrix in ``measure`` of the wavelets ((m, J), signal), then
    of the constant if there is one: of the parts `dense_traffic_family`
    returns, or of a family's ``measure``, ``signals()`` and ``constant``."""
    rows = np.array([signal for _, signal in wavelets] + ([] if constant is None else [constant]))
    return (rows * measure) @ rows.T


def complement_rows(weights):
    """The rows of `complement_basis` as one dense (m - 1, m) array, by the
    library's one scatter (`HaarNodes.rows`)."""
    return complement_basis(weights).rows()


def block_rows(block):
    """C_v of a `VertexBlock` as one dense (m, m) array: the constant row,
    then the node rows."""
    return np.vstack([np.full(len(block.positions), block.scale), block.nodes.rows()])


def unscaled_complement_basis(weights):
    """Oracle for `complement_basis`: the same balanced split, deepest first
    and left to right, on the weights as given."""
    w = np.asarray(weights, dtype=float)
    nodes = []

    def descend(lo, hi, depth):
        if hi - lo >= 2:
            mid = lo + (hi - lo + 1) // 2
            nodes.append((-depth, lo, mid, hi))
            descend(lo, mid, depth + 1)
            descend(mid, hi, depth + 1)

    descend(0, w.size, 0)
    rows = np.zeros((len(nodes), w.size))
    for row, (_, lo, mid, hi) in zip(rows, sorted(nodes)):
        left, right = w[lo:mid].sum(), w[mid:hi].sum()
        row[lo:mid] = np.sqrt(right / (left * (left + right)))
        row[mid:hi] = -np.sqrt(left / (right * (left + right)))
    return rows


def column_stack_words(kernel, colors):
    """Oracle for `WordKernel.words`: the builder that stacked every column
    built so far onto each letter, in time quadratic in the length."""
    words = np.flatnonzero(kernel.color == colors[0])[:, None]
    for c in colors[1:]:
        by_range, starts = kernel._runs(c)
        tail = kernel.source[words[:, -1]]
        count = starts[tail + 1] - starts[tail]
        words = np.column_stack([np.repeat(words, count, axis=0),
                                 by_range[_expand_runs(starts[tail], count)]])
    return words


def check_confluence(graph, max_census=(2, 2)):
    """Every composable word of census <= max_census rewrites to one normal
    form regardless of swap order."""
    counts = 0
    for census in product(*(range(c + 1) for c in max_census)):
        if sum(census) == 0:
            continue
        letters = [c + 1 for c, n in enumerate(census) for _ in range(n)]
        for pattern in sorted(set(permutations(letters))):
            for word in words_with_pattern(graph, pattern):
                terminals = all_rewrite_terminals(graph, word)
                assert len(terminals) == 1, f"word {word} has terminals {terminals}"
                (terminal,) = terminals
                assert terminal == normal_form(graph, word).word
                counts += 1
    return counts


def check_measure_additivity(spec, max_level=(2, 2), tol=1e-12):
    """M(Z(lambda)) equals the sum over its extensions to any higher level."""
    graph = spec.graph
    worst = 0.0
    for base in product(*(range(c + 1) for c in max_level)):
        for step in product(*(range(c + 1) for c in max_level)):
            if sum(step) == 0:
                continue
            for lam in enumerate_paths(graph, base):
                total = sum(float(cylinder_measure(spec, tau))
                            for tau in extensions(lam, step))
                worst = max(worst, abs(total - float(cylinder_measure(spec, lam))))
    assert worst < tol, worst
    return worst


def check_ip_refinement_invariance(spec, fns, levels, tol=1e-12):
    """<f, g> is unchanged when either argument is refined."""
    worst = 0.0
    for f in fns:
        for g in fns:
            base = inner_product(spec, f, g)
            for level in levels:
                worst = max(worst, abs(inner_product(spec, refine(f, level), g) - base))
                worst = max(worst, abs(inner_product(spec, f, refine(g, level)) - base))
    assert worst < tol, worst
    return worst


def check_isometry_columns(spec, path_degrees, domain_level, tol=1e-12):
    """Columns of s_matrix have unit norm exactly on source-compatible paths,
    zero otherwise."""
    graph = spec.graph
    dom = level_space(spec, domain_level)
    worst = 0.0
    for deg in path_degrees:
        for lam in enumerate_paths(graph, deg):
            mat = s_matrix(spec, lam, domain_level).matrix
            norms = np.linalg.norm(mat, axis=0)
            for j, mu in enumerate(dom.basis):
                target = 1.0 if mu.range == lam.source else 0.0
                worst = max(worst, abs(norms[j] - target))
    assert worst < tol, worst
    return worst


def pointwise_s_matrix(spec, path, domain_level):
    """Independent oracle: evaluate S_path f(x) = Theta_path(x) * factor *
    f(shift(x)) pointwise on codomain cylinders, then change to the
    normalized bases."""
    graph = spec.graph
    dom = level_space(spec, domain_level)
    cod = level_space(spec, deg_add(domain_level, path.degree))
    factor = spec.prefix_factor(path)
    mat = np.zeros((len(cod.basis), len(dom.basis)))
    zero = graph.zero_degree()
    for i, tau in enumerate(cod.basis):
        in_cylinder = segment(tau, zero, path.degree) == path
        if not in_cylinder:
            continue
        shifted = segment(tau, path.degree, tau.degree)
        for j, mu in enumerate(dom.basis):
            if shifted == mu:
                # value of S(Theta_mu / sqrt M(mu)) on Z(tau), times sqrt M(tau)
                mat[i, j] = factor / np.sqrt(float(cylinder_measure(spec, mu))) \
                    * np.sqrt(float(cylinder_measure(spec, tau)))
    return mat


def dense_ck_deviations(spec, level, matrix_of=pointwise_s_matrix):
    """Worst deviation of each of (CK1)-(CK4) at `level`, from dense matrices
    multiplied out in full.  ``matrix_of(spec, path, domain_level)`` gives the
    matrix of S_path; the default is the pointwise oracle, which shares no
    code with the index maps of ``check_ck_relations``."""
    graph = spec.graph
    level = tuple(level)
    steps = [d for d in product(*(range(t + 1) for t in level)) if any(d)]

    def proj(v, at=level):
        return matrix_of(spec, vertex_path(graph, v), at)

    ck1 = max(np.max(np.abs(proj(v) @ proj(w) - (proj(v) if v == w else 0.0)))
              for v in graph.vertices for w in graph.vertices)
    size = len(level_space(spec, level).basis)
    total = sum((proj(v) for v in graph.vertices), np.zeros((size, size)))
    ck1 = max(ck1, np.max(np.abs(total - np.eye(size))))
    ck2 = ck3 = ck4 = 0.0
    for dm in steps:
        for dl in (d for d in steps if all(a + b <= t for a, b, t in zip(dm, d, level))):
            base = deg_sub(level, deg_add(dm, dl))
            for mu in enumerate_paths(graph, dm):
                for lam in enumerate_paths(graph, dl, range=mu.source):
                    lhs = matrix_of(spec, mu, deg_add(base, dl)) @ matrix_of(spec, lam, base)
                    ck2 = max(ck2, np.max(np.abs(lhs - matrix_of(spec, compose(mu, lam), base))))
        base = deg_sub(level, dm)
        for mu in enumerate_paths(graph, dm):
            fwd = matrix_of(spec, mu, base)
            ck3 = max(ck3, np.max(np.abs(fwd.T @ fwd - proj(mu.source, base))))
        for v in graph.vertices:
            acc = np.zeros((size, size))
            for lam in enumerate_paths(graph, dm, range=v):
                fwd = matrix_of(spec, lam, base)
                acc += fwd @ fwd.T
            ck4 = max(ck4, np.max(np.abs(acc - proj(v))))
    return [float(ck1), float(ck2), float(ck3), float(ck4)]


def dense_matching(sources, ranges):
    """The pairs (i, j) with sources[i] == ranges[j], i-major, j ascending,
    from the dense table of comparisons: the oracle of `WordKernel.matching`."""
    return np.nonzero(np.asarray(sources)[:, None] == np.asarray(ranges)[None, :])


def table_index(tables):
    """Each key (x, L) of `sbfs._Tables`, as degrees, to its number q: its
    table is ``tables.table(q)``."""
    degrees = tables.stack.degrees
    return {(degrees[x], degrees[level]): q for q, (x, level, _) in enumerate(tables.keys.tolist())}


def case_prefix_table(spec, lams, degree, dom, cod, rn_tol=1e-12):
    """The table of one key of `sbfs._prefix_tables`, built on its own, with
    its pairs from `dense_matching` and its prefix factors computed for the
    call: the table of S_lambda from `dom` to `cod` for the paths `lams` of
    one degree."""
    kernel = spec.graph.word_kernel
    words, _, sources = lams
    owner, cols = dense_matching(sources, dom.ranges)
    if any(cod.level):
        rows = kernel.rank(kernel.compose(words[owner], degree, dom.words[cols], dom.level), cod.level)
    else:
        rows = cols
    vals = spec.prefix_factors(degree, words)[owner] * np.sqrt(cod.weights[rows] / dom.weights[cols])
    bad = np.flatnonzero(~(np.abs(vals - 1.0) < rn_tol))
    if len(bad):
        lam = kernel.paths(tuple(a[owner[bad[:1]]] for a in lams), degree)[0]
        raise NonConstantDerivative(f"Radon-Nikodym derivative not constant: entry "
                                    f"{vals[bad[0]]} for {lam}, {dom.basis[cols[bad[0]]]}")
    table = np.full((len(words), len(dom.weights)), -1), np.zeros((len(words), len(dom.weights)))
    table[0][owner, cols], table[1][owner, cols] = rows, vals
    return table


def _case_product(outer, i, inner, j):
    (ro, vo), (ri, vi) = outer, (inner[0][j], inner[1][j])
    at = i[:, None], ri
    return np.where(ri >= 0, ro[at], -1), np.where(ri >= 0, vo[at] * vi, 0.0)


def _case_deviation(a, b):
    (ra, va), (rb, vb) = a, b
    dev = np.where(ra == rb, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb)))
    return np.max(dev, axis=-1, initial=0.0)


def case_ck_report(spec, graph, test_level):
    """`check_ck_relations` case by case: each table built when first read;
    CK1 per vertex v, all S_v S_w at once; CK2 pairs every mu with every
    lambda by `dense_matching`, composes them and ranks the composites.  The
    oracle of the table-read CK2 and the one-pass CK1: the same report, the
    same first NonConstantDerivative."""
    test_level = as_degree(test_level, graph.k)
    worst = {relation: (0.0, {}) for relation in ("CK1", "CK2", "CK3", "CK4")}

    def record(relation, devs, witness):
        p = int(np.argmax(devs))
        if devs[p] > worst[relation][0]:
            worst[relation] = (float(devs[p]), witness(p))

    kernel, vertices = graph.word_kernel, graph.vertices
    spaces, tables = {}, {}

    def space(level):
        if level not in spaces:
            spaces[level] = level_space(spec, level)
        return spaces[level]

    def table(degree, level):
        if (degree, level) not in tables:
            tables[degree, level] = case_prefix_table(spec, kernel.level(degree), degree, space(level),
                                                      space(deg_add(level, degree)))
        return tables[degree, level]

    def word(degree, i):
        return "".join(kernel.ids[e] for e in kernel.level(degree)[0][i])

    steps = [d for d in product(*(range(t + 1) for t in test_level)) if any(d)]
    projs = table(graph.zero_degree(), test_level)
    at = np.arange(projs[0].shape[1])
    for v in range(len(vertices)):
        target = projs[0][v], np.where(np.arange(len(vertices))[:, None] == v, projs[1][v], 0.0)
        lhs = _case_product(projs, np.full(len(vertices), v), projs, np.arange(len(vertices)))
        record("CK1", _case_deviation(lhs, target), lambda w: {"vertices": [vertices[v], vertices[w]]})
    total = projs[0].max(axis=0, keepdims=True), projs[1].sum(axis=0, keepdims=True)
    record("CK1", _case_deviation(total, (at, np.ones(len(at)))), lambda _: {"vertices": "sum"})
    for d in steps:
        mus = kernel.level(d)
        for dl in (e for e in steps if deg_le(e, deg_sub(test_level, d))):
            base, both = deg_sub(test_level, deg_add(d, dl)), deg_add(d, dl)
            lams = kernel.level(dl)
            i, j = dense_matching(mus[2], lams[1])
            lhs = _case_product(table(d, deg_add(base, dl)), i, table(dl, base), j)
            at_both = kernel.rank(kernel.compose(mus[0][i], d, lams[0][j], dl), both)
            rows, vals = table(both, base)
            record("CK2", _case_deviation(lhs, (rows[at_both], vals[at_both])),
                   lambda p: {"mu": word(d, i[p]), "lambda": word(dl, j[p])})
        base = deg_sub(test_level, d)
        rows, vals = table(d, base)
        targets = table(graph.zero_degree(), base)
        dev = _case_deviation((np.arange(rows.shape[1]), vals ** 2), (targets[0][mus[2]], targets[1][mus[2]]))
        lam, col = np.nonzero(rows >= 0)
        row, val = rows[lam, col], vals[lam, col]
        key, size = lam * len(at) + row, np.abs(val)
        order = np.lexsort((-size, key))
        key, size, mu = key[order], size[order], lam[order]
        shared = np.flatnonzero(key[1:] == key[:-1])
        np.maximum.at(dev, mu[shared], size[shared] * size[shared + 1])
        record("CK3", dev, lambda p: {"mu": word(d, p)})
        acc = np.zeros(projs[1].shape)
        np.add.at(acc, (mus[1][lam], row), val ** 2)
        record("CK4", _case_deviation((at, acc), projs), lambda v: {"n": list(d), "vertex": vertices[v]})
    return CKReport(test_level, tuple(RelationCheck(r, *worst[r]) for r in worst))


def dense_wavelet_basis(family, depth):
    """Independent oracle for the cascade transform: the labels and the dense
    matrix of the depth-n basis, each member S_lambda f^{m,v} built on its
    own terms by s_apply and laid over the level space by vector_of."""
    graph, spec = family.graph, family.spec
    space = level_space(spec, tuple(depth * j for j in family.shape))
    labels, rows = [], []
    for v, fn in zip(graph.vertices, family.scaling):
        labels.append({"kind": "scaling", "vertex": v})
        rows.append(space.vector_of(fn))
    for j in range(depth):
        for v in graph.vertices:
            shifts = [vertex_path(graph, v)] if j == 0 else \
                enumerate_paths(graph, tuple(j * s for s in family.shape), source=v)
            for lam in shifts:
                for m in range(1, len(family.blocks[v].positions)):
                    labels.append({"kind": "wavelet", "j": j, "vertex": v, "m": m,
                                   "shift": list(lam.word)})
                    rows.append(space.vector_of(s_apply(spec, lam, family.wavelet(m, v))))
    return labels, np.array(rows)


def block_paths(family, vertex):
    """D_v^J of a family as `Path` objects, read off its level-J space."""
    basis = family.space.basis
    return tuple(basis[i] for i in family.blocks[vertex].positions.tolist())


def compose_cascade(family, depth):
    """Oracle for `wavelet_basis`: the cascade built path by path, each node
    of level (j+1)J composed by `compose` and placed in the level space by a
    dict keyed by `Path`.  Returns the labels, ``order`` and per layer, groups
    in vertex order, the split prefix factor of each lambda: the factor of
    lambda less its last edge e, and sqrt(w_e) (1 on level 0)."""
    graph, spec = family.graph, family.spec
    labels = [{"kind": "scaling", "vertex": v} for v in graph.vertices]
    paths = [vertex_path(graph, v) for v in graph.vertices]
    factors = []
    for j in range(depth):
        by_source = {v: [] for v in graph.vertices}
        for i, lam in enumerate(paths):
            by_source[lam.source].append(i)
        fine, layer = [], []
        for v in graph.vertices:
            block = family.blocks[v]
            lams = sorted(by_source[v], key=lambda i: paths[i].word)
            split = np.array([split_prefix_factor(spec, paths[i]) for i in lams]).reshape(-1, 2)
            layer.append((split[:, 0], split[:, 1]))
            for i in lams:
                labels.extend({"kind": "wavelet", "j": j, "vertex": v, "m": m,
                               "shift": list(paths[i].word)} for m in range(1, len(block.positions)))
                fine.extend(compose(paths[i], p) for p in block_paths(family, v))
        factors.append(layer)
        paths = fine
    level = tuple(depth * j for j in family.shape)
    index = {p: i for i, p in enumerate(enumerate_paths(graph, level))}
    return labels, np.array([index[p] for p in paths]), factors


def eager_wavelet_family(graph, shape):
    """Oracle for `build_wavelet_family`: D_v^J listed by `enumerate_paths`
    for each vertex, and every scaling function and wavelet built up front
    as a `CylinderFn`.  Returns the (paths, c_vectors) of each vertex, the
    scaling functions and the labelled wavelets."""
    spec = MeasureSpec.perron_frobenius(graph)
    space = level_space(spec, shape)
    blocks, scaling, wavelets = {}, [], []
    for i, v in enumerate(graph.vertices):
        paths = tuple(enumerate_paths(graph, shape, range=v))
        weights = space.weights[space.ranges == i]
        c = np.vstack([np.full(len(weights), 1.0 / np.sqrt(weights.sum())), complement_rows(weights)])
        blocks[v] = paths, c
        scaling.append(CylinderFn(graph, {vertex_path(graph, v): float(c[0, 0])}))
        for m in range(1, len(paths)):
            wavelets.append(((m, v), CylinderFn.combination(zip(paths, c[m]))))
    return blocks, tuple(scaling), tuple(wavelets)


def eager_family_records(graph, scaling, wavelets):
    """Oracle for `WaveletFamily.listing`: the records of --list-family, one
    dict per function with the `CylinderFn.to_records` of its terms."""
    return ([{"kind": "scaling", "vertex": v, "m": 0, "terms": fn.to_records()}
             for v, fn in zip(graph.vertices, scaling)]
            + [{"kind": "wavelet", "vertex": v, "m": m, "terms": fn.to_records()}
               for (m, v), fn in wavelets])


def per_line_records(filename, fields):
    """Oracle for `cli._read_records`: each nonblank line decoded by its own
    `json.loads` and checked, line after line, so the first faulty line
    names its fault."""
    checks = [(name, *kgraphwave.cli._RECORD_FIELDS[name]) for name in fields]
    with open(filename) as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    records = []
    for number, line in lines:
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{filename} line {number}: invalid JSON: {exc.msg} at column {exc.colno}") from exc
        if type(rec) is not dict:
            raise ParseError(f"{filename} line {number}: expected a JSON object, got {line.strip()}")
        for name, check, what in checks:
            if not check(rec.get(name)):
                raise ParseError(f"{filename} line {number}: field {name!r} must be {what}")
        records.append(rec)
    return records


def joined_emit(args, records, csv_fields=None):
    """Oracle for `cli._emit`: the whole output it writes for `records`, built
    as one string before anything is written, CSV rows in a StringIO."""
    if getattr(args, "csv", False) and csv_fields:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: rec.get(k, "") for k in csv_fields})
        return buf.getvalue()
    return "".join(json.dumps(rec) + "\n" for rec in records)


def pointwise_prefix_factor(spec, path):
    """Oracle for `MeasureSpec.prefix_factor`: rho^{d/2} for PF, and for
    Bernoulli the product of the letters' w^{-1/2} taken by numpy."""
    if spec.kind == spec.PF:
        return float(np.prod(np.asarray(spec.pf.rho) ** (np.asarray(path.degree) / 2.0)))
    letter = spec.graph.edge_position
    return float(np.prod([float(spec.weights[letter[a]]) ** -0.5 for a in path.word]))


def split_prefix_factor(spec, path):
    """Oracle for a cascade group's ``factors`` and ``roots``: the prefix
    factor of the path less its last edge e, by `pointwise_prefix_factor`
    with the degree of the whole path, and sqrt(w_e), by numpy; (rho^{d/2},
    1.0) for a vertex."""
    if not path.word:
        return pointwise_prefix_factor(spec, path), 1.0
    w = float(spec.weights[spec.graph.edge_position[path.word[-1]]]) if spec.kind == spec.BERNOULLI else 1.0
    head = SimpleNamespace(degree=path.degree, word=path.word[:-1])
    return pointwise_prefix_factor(spec, head), float(np.sqrt(w))


def record_terms(graph, records):
    """Oracle for `CylinderFn.from_records`: (normal form, coefficient)
    pairs, one per path in order of first appearance, a path named by its
    row and range, its coefficients summed in record order, the terms that
    sum to zero left out."""
    records = list(records)
    forms = normal_form_rows(graph, [rec["path"] for rec in records], vertex_marks=True)
    terms = {}
    for form, rec in zip(forms, records):
        term = terms.setdefault(form[1:3], [form, 0.0])
        term[1] += float(rec["coeff"])
    return [(form, c) for form, c in terms.values() if c != 0.0]


def refine_vector_of(space, f):
    """Oracle for `LevelSpace.vector_of`: refine f to the level, then look
    each term up in a dict keyed by `Path`."""
    index = {p: i for i, p in enumerate(enumerate_paths(space.graph, space.level))}
    vec = np.zeros(len(index))
    for p, c in refine(f, space.level).terms.items():
        vec[index[p]] = c
    return vec


def per_kind_masses(spec, level):
    """Oracle for the (rho, x, w) measure model: the formulas it replaced,
    one per measure kind, for the paths of one level in `enumerate_paths`
    order.  Returns the prefix factors (`MeasureSpec.prefix_factors`), the
    level-space weights and the cylinder masses (`cylinder_measure`, and
    `MeasureSpec.level_weights`), Fractions for an exact spec.

    PF: rho^{d/2}; rho_pow(-L) * x[source]; exactly, x[source] times
    (1/rho_i)^{L_i} for the integer radii of `rational_pf_data`.
    Bernoulli: the letters' w^{-1/2} and w multiplied left to right."""
    graph = spec.graph
    paths = enumerate_paths(graph, level)
    words, _, sources = graph.word_kernel.level(tuple(level))
    if spec.kind == spec.PF:
        factors = np.full(len(paths), float(np.prod(np.asarray(spec.pf.rho) ** (np.asarray(level) / 2.0))))
        floats = spec.pf.rho_pow(tuple(-d for d in level)) * np.asarray(spec.pf.x_lambda)[sources]
        if not spec.exact:
            return factors, floats, floats.tolist()
        rho, x = rational_pf_data(graph, spec.pf)
        masses = []
        for p in paths:
            value = x[graph.vertex_index[p.source]]
            for r, d in zip(rho, p.degree):
                value *= Fraction(1, r) ** d
            masses.append(value)
        return factors, np.array([float(m) for m in masses]), masses

    def column_product(letters):
        out = np.ones(len(words))
        for column in words.T:
            out = out * letters[column]
        return out

    factors = column_product(np.array([float(w) ** -0.5 for w in spec.weights]))
    floats = column_product(np.array([float(w) for w in spec.weights]))
    if not spec.exact:
        return factors, floats, floats.tolist()
    masses = []
    for p in paths:
        value = Fraction(1)
        for a in p.word:
            value *= Fraction(spec.weights[graph.edge_position[a]])
        masses.append(value)
    return factors, np.array([float(m) for m in masses]), masses


def compose_prefix_map(spec, path, level):
    """Oracle for the S_path index maps: each column mu composed by
    `compose` and found in the codomain by a dict keyed by `Path`.
    Returns rows, cols and values."""
    graph = spec.graph
    dom = enumerate_paths(graph, level)
    cod = {p: i for i, p in enumerate(enumerate_paths(graph, deg_add(level, path.degree)))}
    cols = [j for j, mu in enumerate(dom) if mu.range == path.source]
    rows = [cod[compose(path, dom[j])] for j in cols]
    vals = pointwise_prefix_factor(spec, path) * np.sqrt(
        np.array([float(cylinder_measure(spec, compose(path, dom[j]))) for j in cols])
        / np.array([float(cylinder_measure(spec, dom[j])) for j in cols]))
    return np.array(rows, dtype=int), np.array(cols, dtype=int), vals


def forbid_path_building(monkeypatch):
    """Make `refine` and `s_apply` raise in every kgraphwave namespace that
    holds them, and `LevelSpace.basis`, `WordKernel.paths` (through which
    `enumerate_paths` builds its paths), `CylinderFn.combination` and
    `compose` in `kgraphwave.sbfs` raise too."""
    def boom(*args, **kwargs):
        raise AssertionError("output built Path objects")

    for name, module in list(sys.modules.items()):
        if name == "kgraphwave" or name.startswith("kgraphwave."):
            for attr in ("refine", "s_apply"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, boom)
    monkeypatch.setattr(LevelSpace, "basis", property(boom))
    monkeypatch.setattr(WordKernel, "paths", boom)
    monkeypatch.setattr(CylinderFn, "combination", boom)
    monkeypatch.setattr(kgraphwave.sbfs, "compose", boom)


def count_edge_objects(monkeypatch):
    """Count every `Edge` and `FactorizationSquare` built from here on: the
    returned dict maps each class name to its count so far."""
    built = {Edge.__name__: 0, FactorizationSquare.__name__: 0}
    for cls in (Edge, FactorizationSquare):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def count_path_objects(monkeypatch):
    """Count every `Path` built from here on: the returned dict maps
    ``"Path"`` to its count so far."""
    built = {Path.__name__: 0}

    def counting(self, *args, _init=Path.__init__, **kwargs):
        built[Path.__name__] += 1
        _init(self, *args, **kwargs)
    monkeypatch.setattr(Path, "__init__", counting)
    return built


def label_records(basis):
    """Oracle for `WaveletBasis.labels`: one dict per basis vector, read off
    the cascade's groups and shift rows."""
    vertices = basis.family.graph.vertices
    ids = np.array(basis.family.graph.word_kernel.ids, dtype=object)
    labels = [{"kind": "scaling", "vertex": v} for v in vertices]
    for j, (layer, words) in enumerate(zip(basis.layers, basis.shifts)):
        shift_ids = ids[words].tolist()
        for name, g in zip(vertices, layer):
            for i in g.lams.tolist():
                labels.extend({"kind": "wavelet", "j": j, "vertex": name, "m": m,
                               "shift": list(shift_ids[i])} for m in range(1, len(g.c) + 1))
    return labels


def term_records(space, at, values):
    """Oracle for the records of `LevelSpace.lines`: one dict per nonzero
    value, with the path list of its position read off the level's rows."""
    if not any(space.level):  # vertices: positions follow graph order, records names
        return space.function_at(at, values).to_records()
    keep = values != 0.0
    paths = np.array(space.graph.word_kernel.ids, dtype=object)[space.words].tolist()
    return [{"path": paths[i], "coeff": v} for i, v in zip(at[keep].tolist(), values[keep].tolist())]


def basis_records(basis):
    """Oracle for the records of `WaveletBasis.listing`: the label dict of
    each basis vector with the term dicts of its member."""
    return [{**label, "terms": term_records(basis.space, at, values)}
            for label, (at, values) in zip(label_records(basis), basis._members())]


def coefficient_records(basis, coeffs):
    """Oracle for the records of ``wavelets --analyze``: each label dict with
    its coefficient."""
    return [{**label, "coeff": float(c)} for label, c in zip(label_records(basis), coeffs)]


def markov_labels(system):
    """Oracle for `MarkovWaveletSystem.labels`: the scaling letters, then per
    layer m each word of length m, letter and index j."""
    letters = system.graph.edge_ids
    kernel = system.graph.word_kernel
    ids = np.array(kernel.ids, dtype=object)
    labels = [{"kind": "scaling", "letter": a} for a in letters]
    for m in range(system.depth):
        words = kernel.level((m,))[0]
        labels.extend({"kind": "wavelet", "layer": m, "word": list(w), "letter": a, "m": j}
                      for w in ids[words].tolist() for a in letters for j in range(1, len(letters)))
    return labels


def markov_records(system):
    """Oracle for the records of `MarkovWaveletSystem.listing`: each label
    dict with the term dicts of its member."""
    return [{**label, "terms": term_records(system.space, at, values)}
            for label, (at, values) in zip(markov_labels(system), system._members())]


def identity_synthesis(basis):
    """Oracle for `WaveletBasis.matrix`: the cascade's synthesis of the N x N
    identity, one unit coefficient vector at a time, one row per basis vector."""
    return np.array([synthesize_vector(basis, unit) for unit in np.eye(len(basis.order))])


def row_loop_gram(members):
    """The Gram matrix of a `MemberSet` in its level's weights: one zero row
    per label, each member's values written into its row, weighted and
    multiplied out."""
    mat = np.zeros((len(members.heads), len(members.space.weights)))
    for i, (at, values) in enumerate(members._members()):
        mat[i, at] = values
    return (mat * members.space.weights[None, :]) @ mat.T


def principal_angles(u_rows, v_rows):
    """Principal angles between the row spans of two orthonormal row sets.

    Each angle is arcsin of a singular value of the projection residual (a
    sine), accurate where arccos of a cosine near 1 cannot resolve below
    ~1e-8, unless its cosine squared is at most 0.5: only when some sine
    reaches 0.7 are the cosines taken, and those angles are their arccos.
    """
    resid = (v_rows @ u_rows.T) @ u_rows
    np.subtract(v_rows, resid, out=resid)
    sines = np.minimum(np.sort(np.linalg.svd(resid, compute_uv=False)), 1.0)[:min(len(u_rows), len(v_rows))]
    if not np.any(sines >= 0.7):
        return np.sort(np.arcsin(sines))
    cosines = np.minimum(np.sort(np.linalg.svd(u_rows @ v_rows.T, compute_uv=False))[::-1], 1.0)
    return np.sort(np.where(cosines * cosines > 0.5, np.arcsin(sines), np.arccos(cosines)))


def dense_subspace_compare(family, coarse_family, angle_tol=1e-8):
    """Oracle for `subspace_compare`: the wavelet rows of the depth-l basis
    of J and of the depth-1 basis of lJ, dense over the level-lJ paths and
    scaled by the square roots of their masses, and the principal angles of
    their spans.  Returns (equal, angles, dim_fine, dim_coarse)."""
    fine = wavelet_basis(family, coarse_family.shape[0] // family.shape[0])
    n = len(family.graph.vertices)
    u, v = (basis.matrix[n:] * np.sqrt(fine.space.weights)
            for basis in (fine, wavelet_basis(coarse_family, 1)))
    angles = principal_angles(u, v)
    return len(u) == len(v) and bool(np.all(angles < angle_tol)), angles, len(u), len(v)


def two_svd_principal_angles(u_rows, v_rows):
    """Oracle for `principal_angles`: the cosines and the sines of
    the projection residual from one SVD each, and per angle arcsin of the
    sine where the cosine squared passes 0.5, arccos of the cosine elsewhere."""
    cosines = np.sort(np.linalg.svd(u_rows @ v_rows.T, compute_uv=False))[::-1]
    resid = v_rows - (v_rows @ u_rows.T) @ u_rows
    sines = np.sort(np.linalg.svd(resid, compute_uv=False))
    count = min(u_rows.shape[0], v_rows.shape[0])
    angles = np.empty(count)
    for i in range(count):
        c = min(cosines[i], 1.0) if i < len(cosines) else 0.0
        s = min(sines[i], 1.0) if i < len(sines) else 1.0
        angles[i] = np.arcsin(s) if c * c > 0.5 else np.arccos(c)
    return np.sort(angles)


def dense_listing(basis):
    """Oracle for the records of `WaveletBasis.listing`: each member read
    off its row of the dense matrix, which must be the synthesis of the
    identity to the last bit."""
    assert basis.matrix.tobytes() == identity_synthesis(basis).tobytes()
    return [{**label, "terms": basis.space.function_of(row).to_records()}
            for label, row in zip(basis.labels, basis.matrix)]


def cylinder_listing(basis):
    """Oracle for the records of `WaveletBasis.listing`: each member as a
    `CylinderFn` over `Path` terms, written by `CylinderFn.to_records`."""
    return [{**label, "terms": fn.to_records()}
            for label, fn in zip(basis.labels, basis.functions)]


def cylinder_synthesis_records(basis, coeffs):
    """Oracle for the records of ``wavelets --synthesize``: `synthesize` as a
    `CylinderFn`, written by `CylinderFn.to_records`."""
    return synthesize(basis, coeffs).to_records()


def markov_member_records(n_letters, weights, depth):
    """Oracle for the records of `markov_wavelets(...).listing()`: every
    member built on its own terms, the wavelets of layer m by `s_apply` of
    the word shift to the two-letter base wavelet, then `refine`d to the
    common level."""
    graph = bouquet_graph(n_letters)
    spec = MeasureSpec.bernoulli(graph, weights)
    letters = graph.edge_ids
    p = np.array([float(w) for w in spec.weights])
    c_rows = complement_rows(p)
    labels, functions = [], []
    for k, a in enumerate(letters):
        labels.append({"kind": "scaling", "letter": a})
        functions.append(CylinderFn(graph, {normal_form(graph, [a]): 1.0 / np.sqrt(p[k])}))
    base = {(j, a): CylinderFn.combination(
                (normal_form(graph, [a, b]), c_rows[j - 1, i] / np.sqrt(p[k]))
                for i, b in enumerate(letters))
            for k, a in enumerate(letters) for j in range(1, n_letters)}
    for m in range(depth):
        words = [()] if m == 0 else [w.word for w in enumerate_paths(graph, (m,))]
        for w in words:
            for a in letters:
                for j in range(1, n_letters):
                    fn = base[(j, a)] if not w else s_apply(spec, normal_form(graph, list(w)), base[(j, a)])
                    labels.append({"kind": "wavelet", "layer": m, "word": list(w), "letter": a, "m": j})
                    functions.append(fn)
    return [{**label, "terms": refine(fn, (depth + 1,)).to_records()}
            for label, fn in zip(labels, functions)]


def markov_run_listing(n_letters, weights, depth):
    """Oracle for `markov_wavelets(...).listing()`: the listing built by the
    run engine `markov` used before it listed cascade members.  Level
    positions count words in base n_letters, so the layer-m wavelet
    S_w psi_{j,a} covers the n**(depth-m) positions from (w*n + a) *
    n**(depth-m) on, with the value prefix_factor(w) * psi[a, j - 1, b],
    psi = C / sqrt(p_a) from one table, repeated over the extensions of
    each w*a*b."""
    graph = bouquet_graph(n_letters)
    spec = MeasureSpec.bernoulli(graph, weights)
    p = spec.w
    space = level_space(spec, (depth + 1,))
    kernel = graph.word_kernel
    letter_texts, ms = kernel.id_texts, jsonl.integers(n_letters)
    run = n_letters ** depth
    heads = [jsonl.cells('{"kind": "scaling", "letter": ', letter_texts)]
    layers = [(np.arange(n_letters) * run, np.repeat((1.0 / np.sqrt(p))[:, None], run, axis=1))]
    psi = complement_rows(p)[None, :, :] / np.sqrt(p)[:, None, None]  # [a, j - 1, b]
    for m in range(depth):
        words = kernel.level((m,))[0]
        run = n_letters ** (depth - m)
        values = spec.prefix_factors((m,), words)[:, None, None, None] * psi[None]
        layers.append((np.repeat(np.arange(len(words) * n_letters) * run, n_letters - 1),
                       np.repeat(values.reshape(-1, n_letters), run // n_letters, axis=1)))
        heads.append(jsonl.cells(
            f'{{"kind": "wavelet", "layer": {m}, "word": [',
            np.repeat(jsonl.word_lists(letter_texts, words), n_letters * (n_letters - 1)),
            '], "letter": ', np.tile(np.repeat(letter_texts, n_letters - 1), len(words)),
            ', "m": ', np.tile(ms[1:], len(words) * n_letters)))
    members = [(np.arange(start, start + len(row))[None], row[None])
               for starts, rows in layers for start, row in zip(starts.tolist(), rows)]
    return "".join(jsonl.listing(np.concatenate(heads), space.term_heads, members))


def one_join_listing(heads, term_heads, members):
    """Oracle for `jsonl.listing`: the whole listing as one join of one
    table, a row per term (per member if it keeps none)."""
    members = [member for at, values in members for member in zip(at, values)]
    at = np.concatenate([a for a, _ in members]) if members else np.empty(0, dtype=np.intp)
    values = np.concatenate([v for _, v in members]) if members else np.empty(0)
    owner = np.repeat(np.arange(len(members)), [len(a) for a, _ in members])
    keep = values != 0.0
    counts = np.bincount(owner[keep], minlength=len(members))
    rows = np.maximum(counts, 1)
    first = np.cumsum(rows) - rows
    table = np.full((rows.sum(), 5), "", dtype=object)
    table[first, 0], table[first, 1] = heads, ', "terms": ['
    filled = np.repeat(counts > 0, rows)
    table[filled, 2], table[filled, 3] = term_heads[at[keep]], jsonl.numbers(values[keep])
    table[:, 4] = "}, "
    table[first + rows - 1, 4] = np.where(counts > 0, "}]}\n", "]}\n").astype(object)
    return ["".join(table.ravel().tolist())]


def one_join_parts(*columns):
    """Oracle for `jsonl.parts`: the whole text as one join, the float
    columns made text by one `jsonl.numbers` each."""
    return [jsonl.text(*(c if isinstance(c, str) or c.dtype == object else jsonl.numbers(c) for c in columns))]


def random_cylinder_fn(graph, level, terms, rng):
    """A function of `terms` random terms at random degrees up to `level`."""
    pairs = []
    for _ in range(terms):
        degree = tuple(int(rng.integers(0, t + 1)) for t in level)
        paths = enumerate_paths(graph, degree)
        pairs.append((paths[int(rng.integers(len(paths)))], float(rng.standard_normal())))
    return CylinderFn.combination(pairs)


def path_count(graph, degree):
    """|Lambda^degree| from the vertex matrices: an independent count oracle."""
    from kgraphwave import vertex_matrices

    mats = vertex_matrices(graph)
    n = len(graph.vertices)
    acc = np.eye(n, dtype=object)
    for m, d in zip(mats, degree):
        acc = acc @ np.linalg.matrix_power(m.astype(object), d)
    return int(np.ones(n) @ acc @ np.ones(n))


def dense_pf_data(graph, tol=1e-13, max_iter=10 ** 6, steps=None):
    """Oracle for `pf_data`: power iteration on the dense float product
    A_1 ... A_k + I of the vertex matrices, stopped at the first relative
    step max |x' - x| / x' below ``tol``, or after exactly ``steps`` steps,
    and the mean Rayleigh quotient of each dense A_i.  No precondition or
    residual check."""
    from kgraphwave import PFData, vertex_matrices

    mats = [m.astype(float) for m in vertex_matrices(graph)]
    product = mats[0].copy()
    for m in mats[1:]:
        product = product @ m
    shifted = product + np.eye(len(graph.vertices))
    x = np.full(len(graph.vertices), 1.0 / len(graph.vertices))
    for step in range(1, (steps or max_iter) + 1):
        nxt = shifted @ x
        nxt /= nxt.sum()
        done = step == steps if steps else np.max(np.abs(nxt - x) / nxt) < tol
        x = nxt
        if done:
            break
    else:
        raise AssertionError(f"dense power iteration did not converge in {max_iter} steps")
    return PFData(rho=np.array([((m @ x) / x).mean() for m in mats]), x_lambda=x, iterations=step)


def patch_noncommuting_pair(monkeypatch, graph):
    """Replace the edge columns of a 4-vertex graph by two colors with no
    common eigenvector: color 1 the 16 edges of the all-ones matrix, color 2
    i loops at the i-th vertex, so A_2 = diag(1, 2, 3, 4)."""
    ranges, sources = np.divmod(np.arange(16), 4)
    loops = np.repeat(np.arange(4), [1, 2, 3, 4])
    columns = {"edge_color": np.repeat([1, 2], [16, 10]),
               "edge_source": np.concatenate([sources, loops]),
               "edge_range": np.concatenate([ranges, loops])}
    for name, column in columns.items():
        monkeypatch.setattr(graph, name, column.astype(np.intp))


def torus_document(n, m):
    """The product of an n-cycle (color 1) and an m-cycle (color 2): a
    2-graph on Z_n x Z_m whose squares are all forced."""
    def v(i, j):
        return f"v{i % n}_{j % m}"

    def edge(color, i, j):
        return f"{'ab'[color - 1]}{i % n}_{j % m}"

    edges, squares = [], []
    for i in range(n):
        for j in range(m):
            edges.append({"id": edge(1, i, j), "color": 1,
                          "source": v(i, j), "range": v(i + 1, j)})
            edges.append({"id": edge(2, i, j), "color": 2,
                          "source": v(i, j), "range": v(i, j + 1)})
            # words list edges from the range end: [color-1 edge, color-2 edge]
            squares.append({"left": [edge(1, i, j + 1), edge(2, i, j)],
                            "right": [edge(2, i + 1, j), edge(1, i, j)]})
    return {"k": 2, "vertices": [v(i, j) for i in range(n) for j in range(m)],
            "edges": edges, "squares": squares}


def twisted_circulant_document(n, shifts1, shifts2, seed):
    """A 2-graph on Z_n with a color-1 edge u -> u+a for each a in shifts1 and
    a color-2 edge u -> u+t for each t in shifts2.  Paths of the two colour
    orders with the same endpoints are matched by a seeded bijection, so the
    squares are non-trivial whenever shift sums repeat."""
    rng = random.Random(seed)

    def edge(color, start, shift):
        return f"{'ab'[color - 1]}{start % n}s{shift}"

    edges = [{"id": edge(color, u, s), "color": color,
              "source": f"v{u}", "range": f"v{(u + s) % n}"}
             for color, shifts in ((1, shifts1), (2, shifts2))
             for u in range(n) for s in shifts]
    by_sum = {}
    for a in shifts1:
        for t in shifts2:
            by_sum.setdefault((a + t) % n, []).append((a, t))
    squares = []
    for u in range(n):
        for total in sorted(by_sum):
            pairs = by_sum[total]
            image = rng.sample(pairs, len(pairs))
            for (a, t), (a2, t2) in zip(pairs, image):
                squares.append({"left": [edge(1, u + t, a), edge(2, u, t)],
                                "right": [edge(2, u + a2, t2), edge(1, u, a2)]})
    return {"k": 2, "vertices": [f"v{u}" for u in range(n)],
            "edges": edges, "squares": squares}


def star_document(n):
    """A 1-graph with a root r and n leaves v0, ..., v{n-1}: each leaf has one
    edge u_i up to r and one edge d_i down from r.  Every leaf's least path to
    r has degree 1, so default traffic makes one class of n leaves."""
    leaves = [f"v{i}" for i in range(n)]
    return {"k": 1, "vertices": ["r", *leaves], "squares": [],
            "edges": [edge for i, v in enumerate(leaves) for edge in (
                {"id": f"u{i}", "color": 1, "source": v, "range": "r"},
                {"id": f"d{i}", "color": 1, "source": "r", "range": v})]}


def skeleton_doc(squares):
    return {
        "k": 3,
        "vertices": ["v"],
        "edges": [
            {"id": "e", "color": 1, "source": "v", "range": "v"},
            {"id": "f1", "color": 2, "source": "v", "range": "v"},
            {"id": "f2", "color": 2, "source": "v", "range": "v"},
            {"id": "g1", "color": 3, "source": "v", "range": "v"},
            {"id": "g2", "color": 3, "source": "v", "range": "v"},
        ],
        "squares": squares,
    }


# bijective pair data that is NOT associative: found by exhaustive search
# over all bijection choices on this skeleton, witness word (g1, f1, e)
CUBE_VIOLATING_SQUARES = [
    {"left": ["e", "f1"], "right": ["f1", "e"]},
    {"left": ["e", "f2"], "right": ["f2", "e"]},
    {"left": ["e", "g1"], "right": ["g2", "e"]},
    {"left": ["e", "g2"], "right": ["g1", "e"]},
    {"left": ["f1", "g1"], "right": ["g1", "f1"]},
    {"left": ["f1", "g2"], "right": ["g1", "f2"]},
    {"left": ["f2", "g1"], "right": ["g2", "f1"]},
    {"left": ["f2", "g2"], "right": ["g2", "f2"]},
]

# the same skeleton with compatible choices: colors (1,2) twisted, the rest
# commuting identically
VALID_SQUARES = [
    {"left": ["e", "f1"], "right": ["f2", "e"]},
    {"left": ["e", "f2"], "right": ["f1", "e"]},
    {"left": ["e", "g1"], "right": ["g1", "e"]},
    {"left": ["e", "g2"], "right": ["g2", "e"]},
    {"left": ["f1", "g1"], "right": ["g1", "f1"]},
    {"left": ["f1", "g2"], "right": ["g2", "f1"]},
    {"left": ["f2", "g1"], "right": ["g1", "f2"]},
    {"left": ["f2", "g2"], "right": ["g2", "f2"]},
]


def double_cover(squares):
    """The two-vertex lift of ``skeleton_doc(squares)`` in which color-3 edges
    swap the vertices and the other edges stay loops.  Words lift uniquely
    from their source, so the lift meets the cube condition exactly when the
    one-vertex base does, but its edges of distinct colors no longer share
    every endpoint."""
    base = skeleton_doc(squares)
    step = {e["id"]: int(e["color"] == 3) for e in base["edges"]}

    def lift(eid, i):  # the lift of eid with source v{i}
        return f"{eid}_{i}"

    edges = [{"id": lift(e["id"], i), "color": e["color"], "source": f"v{i}",
              "range": f"v{(i + step[e['id']]) % 2}"} for e in base["edges"] for i in (0, 1)]
    lifted = [{"left": [lift(a, (i + step[b]) % 2), lift(b, i)],
               "right": [lift(c, (i + step[d]) % 2), lift(d, i)]}
              for sq in base["squares"] for (a, b), (c, d) in [(sq["left"], sq["right"])]
              for i in (0, 1)]
    return {"k": 3, "vertices": ["v0", "v1"], "edges": edges, "squares": lifted}


@st.composite
def generated_documents(draw):
    """A torus or a seeded twisted circulant, loops and repeated shift sums
    included."""
    if draw(st.booleans()):
        return torus_document(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    shifts = st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True)
    return twisted_circulant_document(draw(st.integers(1, 8)), tuple(draw(shifts)),
                                      tuple(draw(shifts)), draw(st.integers(0, 2 ** 16)))


@st.composite
def rank3_documents(draw):
    """``skeleton_doc`` or its ``double_cover`` with squares drawn at random:
    for each color pair, a bijection from its ascending words onto its
    descending ones.  Half of the 96 choices break the cube condition."""
    edges = {1: ["e"], 2: ["f1", "f2"], 3: ["g1", "g2"]}
    squares = []
    for low, high in ((1, 2), (1, 3), (2, 3)):
        ascending = [[a, b] for a in edges[low] for b in edges[high]]
        descending = draw(st.permutations([[b, a] for b in edges[high] for a in edges[low]]))
        squares += [{"left": left, "right": right} for left, right in zip(ascending, descending)]
    return draw(st.sampled_from([skeleton_doc, double_cover]))(squares)


@st.composite
def family_documents(draw):
    """A `generated_documents` graph, or a rank-3 skeleton or its double cover."""
    if draw(st.booleans()):
        return draw(generated_documents())
    return draw(st.sampled_from([skeleton_doc, double_cover]))(VALID_SQUARES)


def quadrature_reconstruct(spec, kernel, signal, t_grid=None):
    """Independent oracle for `reconstruct`: the frame quadrature summed scale
    by scale, each scale through its dense n x n wavelet operator, with
    trapezoid weights in log t.  No grid-energy check."""
    f = np.asarray(signal, dtype=float)
    t = np.sort(np.asarray(default_tgrid(spec) if t_grid is None else t_grid, dtype=float))
    du = np.diff(np.log(t))
    w = np.zeros_like(t)
    w[:-1] += du / 2
    w[1:] += du / 2
    acc = np.zeros(spec.n)
    for ti, wi in zip(t, w):
        op = wavelet_operator(spec, kernel, ti)
        acc += wi * (op @ (op @ f))  # sum_n <psi_{g,t,n}, f> psi_{g,t,n}
    return acc / cg_constant(kernel)


def wavelet_operator(spec, kernel, t):
    """The dense T_g^t: its n-th column is `spectral_wavelet` psi_{g,t,n}."""
    return np.column_stack([spectral_wavelet(spec, kernel, t, n) for n in range(spec.n)])


def probe_kernel():
    """Vanishing-order-2 kernel whose head x^2 - x^4/2 carries a quartic term.

    The default kernel is *exactly* x^2 below 1, so for small t its wavelets
    vanish identically beyond distance 2 and no decay rate is observable.
    The quartic term (with no cubic) makes the leading contribution at
    distance 3 scale like t^4 against a t^2 norm: a visible O(t^2) ratio.
    The bridge on (1/2, 2) is the cubic with the head's value and slope at
    1/2 and value 1, slope -1 at 2, where the 4/x^2 tail starts.
    """
    lo, hi = 0.5, 2.0
    mat = np.array([row for x in (lo, hi) for row in ([1, x, x ** 2, x ** 3], [0, 1, 2 * x, 3 * x ** 2])],
                   dtype=float)
    bridge = np.linalg.solve(mat, np.array([lo ** 2 - lo ** 4 / 2, 2 * lo - 2 * lo ** 3, 1.0, -1.0]))
    return KernelSpec(
        pieces=(
            KernelPiece(0.0, lo, "poly", (0.0, 0.0, 1.0, 0.0, -0.5)),
            KernelPiece(lo, hi, "poly", tuple(bridge)),
            KernelPiece(hi, math.inf, "power", (4.0, -2.0)),
        ),
        vanishing_order=2,
    )


def cg_constant_numeric(spec):
    """Oracle for `cg_constant`: C_g by 64-point Gauss-Legendre in log space
    over [1e-8, 1e6], one panel per decade within each kernel piece."""
    lo_cut, hi_cut = 1e-8, 1e6
    nodes, weights = np.polynomial.legendre.leggauss(64)
    total = 0.0
    breaks = sorted({lo_cut, hi_cut,
                     *(p.lo for p in spec.pieces if lo_cut < p.lo < hi_cut),
                     *(p.hi for p in spec.pieces if lo_cut < p.hi < hi_cut)})
    for a, b in zip(breaks, breaks[1:]):
        ua, ub = math.log(a), math.log(b)
        for lo in np.arange(ua, ub, math.log(10.0)):
            hi = min(lo + math.log(10.0), ub)
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            x = np.exp(mid + half * nodes)
            total += half * float(np.sum(weights * kernel_eval(spec, x) ** 2))
    return total


def loop_vertex_matrices(graph):
    """Oracle for `vertex_matrices`: one += per edge."""
    n = len(graph.vertices)
    mats = [np.zeros((n, n), dtype=np.int64) for _ in range(graph.k)]
    for e in graph.edges.values():
        mats[e.color - 1][graph.vertex_index[e.range], graph.vertex_index[e.source]] += 1
    return mats


def entry_incidence_matrices(graph):
    """The dense incidence matrix M_s of each color, its nonzeros written
    from `incidence_entries`, and their column orders by edge id."""
    mats, orders = [], []
    for color in range(1, graph.k + 1):
        edges, rows, cols, values = incidence_entries(graph, color)
        m = np.zeros((len(graph.vertices), len(edges)), dtype=np.int64)
        m[rows, cols] = values
        mats.append(m)
        orders.append(tuple(graph.edge_ids[i] for i in edges.tolist()))
    return mats, orders


def loop_incidence_matrices(graph):
    """Oracle for `entry_incidence_matrices`: the columns of each color
    filled edge by edge, in id order.  Returns the matrices and the column
    orders."""
    n = len(graph.vertices)
    mats, orders = [], []
    for color in range(1, graph.k + 1):
        ids = tuple(sorted(e.id for e in graph.edges.values() if e.color == color))
        m = np.zeros((n, len(ids)), dtype=np.int64)
        for j, eid in enumerate(ids):
            e = graph.edge(eid)
            if e.range != e.source:
                m[graph.vertex_index[e.range], j] = 1
                m[graph.vertex_index[e.source], j] = -1
        mats.append(m)
        orders.append(ids)
    return mats, orders


def laplacian_listing(graph):
    """Oracle for the `laplacian` listing: its records built from the dense
    `loop_incidence_matrices` and `gram_laplacian`, turned into lists and
    written one by one by `json.dumps`."""
    records = [{"kind": "incidence", "color": color, "edges": list(order), "matrix": mat.tolist()}
               for color, (mat, order) in enumerate(zip(*loop_incidence_matrices(graph)), start=1)]
    records.append({"kind": "laplacian", "matrix": gram_laplacian(graph).tolist()})
    return "".join(json.dumps(rec) + "\n" for rec in records)


def gram_laplacian(graph):
    """Oracle for `kgraph_laplacian`: sum over colors of M_s M_s^T, multiplied
    in float64 and cast back to int64."""
    mats, _ = loop_incidence_matrices(graph)
    return sum(a @ a.T for a in (m.astype(float) for m in mats)).astype(np.int64)


def loop_sign_normalize(vectors):
    """Oracle for the sign convention of `eig_sym`: column by column, negate
    when the first entry of size above 1e-12 is negative."""
    vectors = vectors.copy()
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        lead = next((x for x in v if abs(x) > 1e-12), 1.0)
        if lead < 0:
            vectors[:, col] = -v
    return vectors


def loop_reconstruct(spec, kernel, signal, t_grid=None, grid_tol=1e-3):
    """Oracle for `reconstruct`: the grid energy of each eigenvalue above
    1e-12 by its own kernel evaluation, checked against C_g in order."""
    f = np.asarray(signal, dtype=float)
    t = np.sort(np.asarray(default_tgrid(spec) if t_grid is None else t_grid, dtype=float))
    du = np.diff(np.log(t))
    w = np.zeros_like(t)
    w[:-1] += du / 2
    w[1:] += du / 2
    cg = cg_constant(kernel)
    energy = np.zeros(spec.n)
    for i, lam in enumerate(spec.eigenvalues):
        if lam <= 1e-12:
            continue
        energy[i] = np.sum(w * kernel_eval(kernel, t * lam) ** 2)
        if abs(energy[i] - cg) > grid_tol * cg:
            raise GridTooCoarse(
                f"grid energy {energy[i]:.6g} misses C_g {cg:.6g} at eigenvalue {lam:.6g}")
    vectors = spec.eigenvectors
    return vectors @ (energy / cg * (vectors.T @ f))


def scan_missing_square(doc):
    """Oracle for the square-coverage check of a k-graph document whose
    squares are otherwise valid: every composable two-color word (a, b), a in
    document order, b by color and then id, looked up among the square
    sides.  The message of the first uncovered word, or None."""
    sides = {tuple(sq[side]) for sq in doc["squares"] for side in ("left", "right")}
    for a in doc["edges"]:
        for color in range(1, doc["k"] + 1):
            if color == a["color"]:
                continue
            for b in sorted(e["id"] for e in doc["edges"]
                            if e["color"] == color and e["range"] == a["source"]):
                if (a["id"], b) not in sides:
                    return f"no square covers the composable pair ({a['id']}, {b})"
    return None


class ObjectGraph:
    """Oracle for the checks of `KGraph` and the tables it builds: the
    loader that held the graph as `Edge` and `FactorizationSquare` objects
    and checked it record by record, in document order."""

    def __init__(self, k, vertices, edges, squares):
        self.k = int(k)
        self.vertices = tuple(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        edges = list(edges)
        if len({e.id for e in edges}) != len(edges):
            raise ValidationError("duplicate_id", "duplicate edge ids")
        self.edges = {e.id: e for e in edges}
        self.squares = tuple(squares)
        self._validate_skeleton()
        self._index_edges()
        self._swap = self._build_swap()
        self._check_square_coverage()
        if self.k >= 3:
            self._check_cube_condition()

    def _validate_skeleton(self):
        if self.k < 1:
            raise ValidationError("color_out_of_range", f"k must be >= 1, got {self.k}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate_id", "duplicate vertex names")
        for e in self.edges.values():
            if not 1 <= e.color <= self.k:
                raise ValidationError(
                    "color_out_of_range", f"edge {e.id} has color {e.color}, k={self.k}")
            for v in (e.source, e.range):
                if v not in self.vertex_index:
                    raise ValidationError(
                        "dangling_reference", f"edge {e.id} references unknown vertex {v}")

    def _index_edges(self):
        self.edge_ids = tuple(sorted(self.edges))
        self.edge_position = {eid: i for i, eid in enumerate(self.edge_ids)}
        ordered = [self.edges[eid] for eid in self.edge_ids]
        self.edge_color = np.array([e.color for e in ordered], dtype=np.intp)
        self.edge_source = np.array([self.vertex_index[e.source] for e in ordered], dtype=np.intp)
        self.edge_range = np.array([self.vertex_index[e.range] for e in ordered], dtype=np.intp)
        into = {}
        for e in ordered:
            into.setdefault((e.range, e.color), []).append(e.id)
        self._by_range_color = {key: tuple(ids) for key, ids in into.items()}

    def edges_into(self, vertex, color):
        return self._by_range_color.get((vertex, color), ())

    def _build_swap(self):
        edges = self.edges
        swap = {}
        for sq in self.squares:
            left, right = sq.left, sq.right
            try:
                (le, lf), (rf, re) = [edges[i] for i in left], [edges[i] for i in right]
            except KeyError:
                eid = next(i for i in (*left, *right) if i not in edges)
                raise ValidationError(
                    "dangling_reference", f"square references unknown edge {eid}") from None
            low, high = le.color, lf.color
            if not (low < high and rf.color == high and re.color == low):
                raise ValidationError(
                    "non_bijective_squares",
                    f"square {left}/{right} does not pair ascending with descending colors")
            if sq.color_pair != (low, high):
                raise ValidationError(
                    "non_bijective_squares", f"square {left} color pair mismatch")
            if le.source != lf.range or rf.source != re.range:
                raise ValidationError(
                    "non_bijective_squares",
                    f"square side {left} or {right} is not composable")
            if le.range != rf.range or lf.source != re.source:
                raise ValidationError(
                    "non_bijective_squares",
                    f"square {left}/{right} sides have different endpoints")
            for key in (left, right):
                if key in swap:
                    raise ValidationError(
                        "non_bijective_squares", f"edge pair {key} appears in two squares")
            swap[left], swap[right] = right, left
        return swap

    def _mixed_pairs(self):
        for a in self.edges.values():
            for color in range(1, self.k + 1):
                if color != a.color:
                    for b in self.edges_into(a.source, color):
                        yield a.id, b

    def _check_square_coverage(self):
        for a, b in self._mixed_pairs():
            if (a, b) not in self._swap:
                raise ValidationError(
                    "missing_square", f"no square covers the composable pair ({a}, {b})")

    def _check_cube_condition(self):
        for x, y in self._mixed_pairs():
            for color in range(1, self.k + 1):
                if color in (self.edges[x].color, self.edges[y].color):
                    continue
                for z in self.edges_into(self.edges[y].source, color):
                    word = (x, y, z)
                    if restart_rewrite(self, word, True) != restart_rewrite(self, word, False):
                        raise ValidationError(
                            "cube_condition",
                            f"tri-colored word {word} has order-dependent normal form")

    def color(self, eid):
        return self.edges[eid].color

    def to_document(self):
        return {
            "k": self.k,
            "vertices": list(self.vertices),
            "edges": [{"id": e.id, "color": e.color, "source": e.source, "range": e.range}
                      for e in (self.edges[i] for i in sorted(self.edges))],
            "squares": [{"left": list(sq.left), "right": list(sq.right)} for sq in self.squares],
        }

    def pair_table(self):
        """The word kernel's two-way (key, first, second) table: every
        square side as its key, with the other side of its square, sorted by
        key and closed by the sentinel key."""
        pos, size = self.edge_position, len(self.edge_ids)
        pairs = sorted((pos[a] * size + pos[b], pos[c], pos[d])
                       for (a, b), (c, d) in self._swap.items())
        pairs.append((np.iinfo(np.intp).max, -1, -1))
        return tuple(np.array(column, dtype=np.intp) for column in zip(*pairs))


def object_load_kgraph(doc):
    """Oracle for `load_kgraph` on a dict document: each record checked and
    made into an `Edge` or a `FactorizationSquare`, then an `ObjectGraph`."""
    if set(doc) != {"k", "vertices", "edges", "squares"} or not isinstance(doc["k"], int):
        raise ParseError("malformed document")
    edges = []
    for rec in doc["edges"]:
        if not (type(rec) is dict and rec.keys() == {"id", "color", "source", "range"}
                and type(rec["color"]) is int
                and all(type(rec[f]) is str for f in ("id", "source", "range"))):
            raise ParseError("malformed edge record")
        edges.append(Edge(rec["id"], rec["color"], rec["source"], rec["range"]))
    color = {e.id: e.color for e in edges}
    squares = []
    for rec in doc["squares"]:
        if not (type(rec) is dict and rec.keys() == {"left", "right"}
                and all(type(s) is list and len(s) == 2 and all(type(e) is str for e in s)
                        for s in (rec["left"], rec["right"]))):
            raise ParseError("malformed square record")
        left, right = tuple(rec["left"]), tuple(rec["right"])
        squares.append(FactorizationSquare((color.get(left[0]), color.get(left[1])), left, right))
    return ObjectGraph(doc["k"], doc["vertices"], edges, squares)
