"""Shared property-suite helpers, reused by module tests and the acceptance
gate.  Each function returns the worst deviation it saw (0.0 for exact
combinatorial checks) and raises AssertionError on failure."""

import random
from itertools import permutations, product

import numpy as np
from hypothesis import strategies as st

from kgraphwave import (
    CylinderFn,
    GridTooCoarse,
    MeasureSpec,
    bouquet_graph,
    cg_constant,
    compose,
    cylinder_measure,
    default_tgrid,
    enumerate_paths,
    extensions,
    inner_product,
    kernel_eval,
    level_space,
    normal_form,
    refine,
    s_apply,
    s_matrix,
    segment,
    synthesize,
    vertex_path,
    wavelet_operator,
)
from kgraphwave.kgraph import deg_add, deg_sub
from kgraphwave.orthobasis import complement_basis


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
            candidates = graph.edges_into(graph.edge(word[-1]).source, color)
        for eid in candidates:
            word.append(eid)
            extend(word)
            word.pop()

    extend([])
    return out


def all_rewrite_terminals(graph, word):
    """Explore every rewriting order of `word`; return the set of terminal
    (inversion-free) words."""
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
            a, b = graph._swap[(w[i], w[i + 1])]
            nxt = w[:i] + (a, b) + w[i + 2:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return terminals


def restart_rewrite(graph, word, leftmost=True):
    """Oracle for ``KGraph._rewrite``: swap the leftmost (else the rightmost)
    inversion, then scan again from the start, until no inversion is left."""
    w = list(word)
    while True:
        positions = range(len(w) - 1)
        if not leftmost:
            positions = reversed(positions)
        for i in positions:
            if graph.color(w[i]) > graph.color(w[i + 1]):
                w[i], w[i + 1] = graph._swap[(w[i], w[i + 1])]
                break
        else:
            return tuple(w)


def random_word(graph, length, rng):
    """A random composable word of `length` edges in any color order."""
    word = [rng.choice(sorted(graph.edges))]
    while len(word) < length:
        into = [eid for c in range(1, graph.k + 1)
                for eid in graph.edges_into(graph.edge(word[-1]).source, c)]
        if not into:
            break
        word.append(rng.choice(into))
    return word


def filtered_paths(graph, degree, target, source):
    """Oracle for the source-pruned search: every path of the degree into
    `target`, then those that start at `source`."""
    return [p for p in enumerate_paths(graph, degree, range=target) if p.source == source]


def exhaustive_least_path(graph, root, w):
    """Oracle for the default preferred path of w: every total degree from 0
    up, every degree of that total in lexicographic order, and the first
    path of the filtered list.  None when no path joins w to the root (a
    shortest one repeats no vertex, so its total is below the vertex count)."""
    for total in range(len(graph.vertices)):
        for degree in sorted(d for d in product(range(total + 1), repeat=graph.k)
                             if sum(d) == total):
            found = filtered_paths(graph, degree, root, w)
            if found:
                return found[0]
    return None


def least_total_chooser(graph, root):
    """Oracle for the default preferred paths on graphs too large for
    `exhaustive_least_path`: for each vertex, a first-path search of every
    degree of its BFS distance, in lexicographic order.  Every vertex must
    reach the root."""
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for c in range(1, graph.k + 1):
                for eid in graph.edges_into(v, c):
                    u = graph.edge(eid).source
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
        frontier = nxt
    out = {}
    for w in graph.vertices:
        for degree in sorted(d for d in product(range(dist[w] + 1), repeat=graph.k)
                             if sum(d) == dist[w]):
            found = enumerate_paths(graph, degree, range=root, source=w, limit=1)
            if found:
                out[w] = found[0]
                break
    return out


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
                for m in range(1, len(family.blocks[v].paths)):
                    labels.append({"kind": "wavelet", "j": j, "vertex": v, "m": m,
                                   "shift": list(lam.word)})
                    rows.append(space.vector_of(s_apply(spec, lam, family.wavelet(m, v))))
    return labels, np.array(rows)


def compose_cascade(family, depth):
    """Oracle for `wavelet_basis`: the cascade built path by path, each node
    of level (j+1)J composed by `compose` and placed in the level space by a
    dict keyed by `Path`.  Returns the labels, ``order`` and the per-layer
    prefix factors, groups in vertex order."""
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
            layer.append(np.array([pointwise_prefix_factor(spec, paths[i]) for i in lams]))
            for i in lams:
                labels.extend({"kind": "wavelet", "j": j, "vertex": v, "m": m,
                               "shift": list(paths[i].word)} for m in range(1, len(block.paths)))
                fine.extend(compose(paths[i], p) for p in block.paths)
        factors.append(layer)
        paths = fine
    level = tuple(depth * j for j in family.shape)
    index = {p: i for i, p in enumerate(enumerate_paths(graph, level))}
    return labels, np.array([index[p] for p in paths]), factors


def pointwise_prefix_factor(spec, path):
    """Oracle for `MeasureSpec.prefix_factor`: rho^{d/2} for PF, and for
    Bernoulli the product of the letters' w^{-1/2} taken by numpy."""
    if spec.kind == spec.PF:
        return float(np.prod(np.asarray(spec.pf.rho) ** (np.asarray(path.degree) / 2.0)))
    letter = {a: i for i, a in enumerate(spec.alphabet)}
    return float(np.prod([float(spec.weights[letter[a]]) ** -0.5 for a in path.word]))


def refine_vector_of(space, f):
    """Oracle for `LevelSpace.vector_of`: refine f to the level, then look
    each term up in a dict keyed by `Path`."""
    index = {p: i for i, p in enumerate(enumerate_paths(space.graph, space.level))}
    vec = np.zeros(len(index))
    for p, c in refine(f, space.level).terms.items():
        vec[index[p]] = c
    return vec


def per_path_weights(spec, level):
    """Oracle for the level-space weights: `cylinder_measure` path by path."""
    return np.array([float(cylinder_measure(spec, p)) for p in enumerate_paths(spec.graph, level)])


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


def dense_listing(basis):
    """Oracle for `WaveletBasis.to_records`: each member read off its row of
    the dense matrix, the synthesis of the identity."""
    return [{**label, "terms": basis.space.function_of(row).to_records()}
            for label, row in zip(basis.labels, basis.matrix)]


def cylinder_listing(basis):
    """Oracle for `WaveletBasis.to_records`: each member as a `CylinderFn`
    over `Path` terms, written by `CylinderFn.to_records`."""
    return [{**label, "terms": fn.to_records()}
            for label, fn in zip(basis.labels, basis.functions())]


def cylinder_synthesis_records(basis, coeffs):
    """Oracle for the records of ``wavelets --synthesize``: `synthesize` as a
    `CylinderFn`, written by `CylinderFn.to_records`."""
    return synthesize(basis, coeffs).to_records()


def markov_member_records(n_letters, weights, depth):
    """Oracle for `markov_wavelets(...).to_records()`: every member built on
    its own terms, the wavelets of layer m by `s_apply` of the word shift to
    the two-letter base wavelet, then `refine`d to the common level."""
    graph = bouquet_graph(n_letters)
    spec = MeasureSpec.bernoulli(graph, weights)
    letters = spec.alphabet
    p = np.array([float(w) for w in spec.weights])
    c_rows = complement_basis(p)
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


def loop_vertex_matrices(graph):
    """Oracle for `vertex_matrices`: one += per edge."""
    n = len(graph.vertices)
    mats = [np.zeros((n, n), dtype=np.int64) for _ in range(graph.k)]
    for e in graph.edges.values():
        mats[e.color - 1][graph.vertex_index[e.range], graph.vertex_index[e.source]] += 1
    return mats


def loop_incidence_matrices(graph):
    """Oracle for `incidence_matrices`: the columns of each color filled edge
    by edge, in id order.  Returns the matrices and the column orders."""
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
