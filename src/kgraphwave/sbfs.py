"""Semibranching representation operators as prefix index maps between cylinder levels.

The prefixing operator S_lambda maps functions constant on degree-L cylinders
to functions constant on degree L + d(lambda) cylinders.  In the orthonormal
bases of measure-normalized indicators it is the index map mu -> lambda*mu on
the paths with r(mu) = s(lambda), with entries rho^{d(lambda)/2} *
sqrt(M(Z(lambda mu)) / M(Z(mu))).  These are 1, and checked to be, because the
Radon-Nikodym derivative of prefixing is constant on cylinders.  With at most
one entry per column, the S_lambda of every lambda of one degree x, at one
level L, form one column-form table: rows[i, mu] and vals[i, mu] are the row and
entry of column mu of the i-th S_lambda, -1 and 0 where the column is empty.
A table has its entries exactly at the pairs (lambda, mu) with r(mu) =
s(lambda), which the level's range index gives (`WordKernel.matching`).

All the tables a computation needs are built together (`_prefix_tables`)
into one flat store, an array of 32-bit rows and one of values, with an
offset and a shape per key (x, L); each table is a reshaped view of it.  The
levels the keys read are laid end to end once (`WordKernel.stack`).  In
chunks of bounded size, one `WordKernel.matching` through that stack pairs
every lambda with its mu, one `WordKernel.compose` writes every product
lambda*mu (one `WordKernel.rewrite`, each row by the swap schedule of its
key), and one `WordKernel.rank` finds its row: the number of these calls
follows the entries, not the number of tables.

`check_ck_relations` first refuses a test level past its budgets, before it
builds a level: the number of tables (`ck_table_count`, against
`CK_TABLE_LIMIT`) and their entries (`ck_table_entries`, against
`CK_ENTRY_LIMIT`).  It then checks the four Cuntz-Krieger relations on the
store, each in batched passes over all its cases: (CK1) over the entries of
the vertex projections, and (CK2), (CK3) and (CK4) over the entries of the
tables of every degree together, found through the same stack.
`s_matrix` reads one row of the table of one key as an `OperatorMatrix`,
whose `.matrix` is the dense view.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import jsonl
from .errors import DegreeRangeError, LevelTooSmall, NonConstantDerivative, TooLarge
from .kgraph import (
    Degree,
    KGraph,
    LevelStack,
    Path,
    _expand_runs,
    _path_count,
    _same_graph,
    as_degree,
    compose,
    deg_add,
    deg_le,
    deg_sub,
    form_of,
    path_counts,
    row_forms,
)
from .measure import CylinderFn, MeasureSpec, refine_rows


@dataclass(frozen=True)
class LevelSpace:
    """The ordered basis of degree-`level` cylinder indicators with their
    masses; Theta_lambda / sqrt(M(Z(lambda))) is the attached orthonormal
    basis.

    The paths are held as word-kernel rows (`KGraph.word_kernel`) with the
    range and source vertex index of each, in `WordKernel.level` order;
    functions on the space are built from the rows, and ``basis`` turns
    them into `Path` objects on first access.
    """

    graph: KGraph
    spec: MeasureSpec
    level: Degree
    words: np.ndarray = field(repr=False)
    ranges: np.ndarray = field(repr=False)
    sources: np.ndarray = field(repr=False)
    weights: np.ndarray

    @cached_property
    def basis(self) -> tuple[Path, ...]:
        return tuple(self.graph.word_kernel.paths((self.words, self.ranges, self.sources), self.level))

    def vector_of(self, f: CylinderFn) -> np.ndarray:
        """Coefficients of f in the (unnormalized) indicator basis: each term
        adds its coefficient at the paths that extend it, as `refine` sums
        them (`refine_rows`)."""
        _same_graph("function and level space", f.graph, self.graph)
        return refine_rows(f, self.level, len(self.words))[-1]

    def function_of(self, vec: Sequence[float]) -> CylinderFn:
        vec = np.asarray(vec, dtype=float)
        at = np.flatnonzero(vec)
        return self.function_at(at, vec[at])

    def function_at(self, at: np.ndarray, values: np.ndarray) -> CylinderFn:
        """The function with the given values at the given distinct positions."""
        forms = row_forms((self.words[at], self.ranges[at], self.sources[at]), self.level)
        return CylinderFn.from_forms(self.graph, zip(forms, values.tolist()))

    @cached_property
    def term_heads(self) -> np.ndarray:
        """The text ``{"path": [...], "coeff": `` of each position's term
        record (`jsonl`): its word, or ``@`` and its vertex at level zero."""
        if any(self.level):
            paths = jsonl.word_lists(self.graph.word_kernel.id_texts, self.words)
        else:
            paths = jsonl.strings(["@" + v for v in self.graph.vertices])[self.ranges]
        return jsonl.cells('{"path": [', paths, '], "coeff": ')

    def lines(self, at: np.ndarray, values: np.ndarray) -> Iterator[str]:
        """The JSON lines of `CylinderFn.to_records` of `function_at(at,
        values)`, from the rows, in parts (`jsonl.parts`).

        ``at`` must ascend.  At a nonzero level, position order is the
        (word, range) order the records are sorted by; at level zero they
        are sorted by vertex name.  Exact zeros, -0.0 too, are dropped as
        `CylinderFn` drops them.
        """
        keep = values != 0.0
        at, values = at[keep], values[keep]
        if not any(self.level):
            names = self.graph.vertices
            order = sorted(range(len(at)), key=lambda i: names[at[i]])
            at, values = at[order], values[order]
        return jsonl.parts(self.term_heads[at], values, "}\n")


def level_space(spec: MeasureSpec, level: Sequence[int]) -> LevelSpace:
    level = as_degree(level, spec.graph.k)
    words, ranges, sources = spec.graph.word_kernel.level(level)
    # an exact spec's masses are Fractions, rounded one by one
    weights = np.asarray(spec.level_weights(level, words, sources), dtype=float)
    return LevelSpace(spec.graph, spec, level, words, ranges, sources, weights)


@dataclass(frozen=True)
class OperatorMatrix:
    """A level-to-level operator in the normalized cylinder bases, held as an
    index map: entry vals[t] at (rows[t], cols[t]).  No column of S_path repeats."""

    domain_level: Degree
    codomain_level: Degree
    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The dense view."""
        mat = np.zeros(self.shape)
        mat[self.rows, self.cols] = self.vals
        return mat


class _Tables:
    """Prefix tables in one flat column-form store.  Key q is the row
    keys[q] = (x, L, x + L) of ids of ``stack.degrees``; its table is rows
    and vals [offset[q], offset[q] + height[q] * width[q]) read as a height
    x width matrix: entry (i, mu) is the row and the value of column mu of
    the i-th S_lambda, -1 and 0 where the column is empty.  entries[q]
    counts its nonempty cells."""

    def __init__(self, stack: LevelStack, keys: np.ndarray, offset: np.ndarray, height: np.ndarray,
                 width: np.ndarray, entries: np.ndarray, rows: np.ndarray, vals: np.ndarray):
        self.stack, self.keys, self.offset, self.height, self.width = stack, keys, offset, height, width
        self.entries, self.rows, self.vals = entries, rows, vals

    def table(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """The table of key q: views of the store."""
        lo, shape = int(self.offset[q]), (int(self.height[q]), int(self.width[q]))
        return tuple(part[lo:lo + shape[0] * shape[1]].reshape(shape) for part in (self.rows, self.vals))


# The batched passes of the CK check take tables in chunks of at most about
# this much work, or of one table where it has more: entries times letters
# per word in the builder, terms in the relations.  No temporary array of a
# pass is much larger, and the calls a pass makes per chunk stay few.
_CHUNK = 2 ** 16


def _chunks(work: list[int], limit: int = _CHUNK):
    """Consecutive runs [a, b) of the items whose work sums to at most
    `limit`, or of one item."""
    a, total = 0, 0
    for b, size in enumerate(work):
        if total and total + size > limit:
            yield a, b
            a, total = b, 0
        total += size
    if a < len(work):
        yield a, len(work)


def _prefix_tables(spec: MeasureSpec, degrees: Sequence[Degree], keys: np.ndarray,
                   first: int | None = None) -> _Tables:
    """The tables of the keys, in this order, in one store.  A key is a row
    (x, L, x + L) of ids of `degrees`, which list every degree the keys
    read.  The table of key (x, L)
    holds S_lambda from level L to level L + x for every path lambda of
    degree x (with `first`, one key's table holds only the path at that
    position of its level).  Column mu, for r(mu) = s(lambda), goes to
    the row of lambda*mu with entry `MeasureSpec.prefix_factors` *
    sqrt(M(Z(lambda mu)) / M(Z(mu))).

    The levels the keys read are laid end to end once, with their range
    indexes and rank tables (`WordKernel.stack`), and their `level_space`
    weights and `MeasureSpec.prefix_factors` beside them.  The tables are
    built together, in chunks of consecutive keys (`_chunks`), each by one
    `WordKernel.matching` through the stack into the levels L, one
    `WordKernel.compose` of every product lambda*mu (one `WordKernel.rewrite`,
    each row by the swap schedule of its key), and one `WordKernel.rank` into
    the levels x + L.  A derivative that is not constant (an entry off 1
    by 1e-12 or more) raises at the first entry, in key order, that shows
    it."""
    kernel, (kx, kl, km) = spec.graph.word_kernel, keys.T
    stack = kernel.stack(degrees)
    spaces = [level_space(spec, degree) for degree in stack.degrees]
    weights = np.concatenate([space.weights for space in spaces])
    factors = np.concatenate([spec.prefix_factors(space.level, space.words) for space in spaces])
    xs, ls = (np.array(degrees, dtype=np.intp).reshape(len(degrees), spec.graph.k)[k] for k in (kx, kl))
    zero = stack.index.get(spec.graph.zero_degree(), -1)
    height = stack.counts[kx] if first is None else np.ones(len(keys), dtype=np.intp)
    start = stack.base[kx] + (first or 0)  # the store's first lambda of each key
    width = stack.counts[kl]
    size = height * width
    offset, entries = np.cumsum(size) - size, np.zeros(len(keys), dtype=np.intp)
    # a row index fits 32 bits: no level of a table holds more paths than the table has cells
    rows, vals = np.full(int(size.sum()), -1, dtype=np.int32), np.zeros(int(size.sum()))
    # a key's chunk work: its entries times the letters of a product, each
    # lambda meeting the paths of level L with its source as range
    n, letters = len(spec.graph.vertices), stack.words.shape[1] + 1
    by_source = np.bincount(np.repeat(np.arange(len(stack.degrees)) * n, stack.counts) + stack.sources,
                            minlength=len(stack.runs)).reshape(-1, n)
    for a, b in _chunks(((by_source[kx] * stack.runs.reshape(-1, n)[kl]).sum(axis=1) * letters).tolist()):
        q = a + np.argsort(xs[a:b].sum(axis=1), kind="stable")  # by the length of lambda, for `compose`
        owner = np.repeat(q, height[q])
        lam = _expand_runs(start[q], height[q])
        pair, cols = kernel.matching(stack.sources[lam], stack, of=kl[owner])
        key, lam = owner[pair], lam[pair]
        mu = stack.base[kl[key]] + cols
        words = kernel.compose(stack.words[lam], xs[a:b], stack.words[mu], ls[a:b], of=key - a)
        # a vertex times mu is mu
        at = np.where(kx[key] == zero, cols, kernel.rank(words, stack, of=km[key]))
        val = factors[lam] * np.sqrt(weights[stack.base[km[key]] + at] / weights[mu])
        cell = offset[key] + (lam - start[key]) * width[key] + cols
        good = np.abs(val - 1.0) < 1e-12
        if not good.all():
            bad = np.flatnonzero(~good)
            bad = int(bad[np.argmin(cell[bad])])  # the first in the store, so in key order
            x, level = stack.degrees[kx[key[bad]]], stack.degrees[kl[key[bad]]]
            lam_path, mu_path = (kernel.paths((stack.words[p:p + 1, :sum(d)], stack.ranges[p:p + 1],
                                               stack.sources[p:p + 1]), d)[0]
                                 for p, d in ((lam[bad], x), (mu[bad], level)))
            raise NonConstantDerivative(f"Radon-Nikodym derivative not constant: entry "
                                        f"{val[bad]} for {lam_path}, {mu_path}")
        rows[cell], vals[cell] = at, val
        entries[a:b] = np.bincount(key - a, minlength=b - a)
    return _Tables(stack, keys, offset, height, width, entries, rows, vals)


def s_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int]) -> OperatorMatrix:
    """S_path from level `domain_level` to `domain_level + d(path)`: the row
    of the path in the table of its degree (`_prefix_tables`, one key)."""
    domain_level = as_degree(domain_level, spec.graph.k)
    _, word, r, _ = form_of(path)
    kernel, degree = spec.graph.word_kernel, path.degree
    at = int(kernel.rank(np.array([word], dtype=np.intp), degree)[0]) if any(degree) else r
    codomain = deg_add(domain_level, degree)
    levels = sorted({degree, domain_level, codomain})
    tables = _prefix_tables(spec, levels, np.array([[levels.index(d) for d in (degree, domain_level, codomain)]]), at)
    (rows,), (vals,) = tables.table(0)
    cols, size = np.flatnonzero(rows >= 0), int(tables.stack.counts[tables.keys[0, 2]])
    return OperatorMatrix(domain_level, codomain, (size, len(rows)), rows[cols].astype(np.intp), cols, vals[cols])


def s_star_matrix(spec: MeasureSpec, path: Path, domain_level: Sequence[int]) -> OperatorMatrix:
    """Adjoint of S_path, from `domain_level` down to `domain_level - d(path)`."""
    domain_level = as_degree(domain_level, spec.graph.k)
    if not deg_le(path.degree, domain_level):
        raise DegreeRangeError(
            f"adjoint needs domain level >= d(path); {domain_level} < {path.degree}")
    fwd = s_matrix(spec, path, deg_sub(domain_level, path.degree))
    return OperatorMatrix(domain_level, fwd.domain_level, fwd.shape[::-1],
                          fwd.cols, fwd.rows, fwd.vals)


def s_apply(spec: MeasureSpec, path: Path, f: CylinderFn) -> CylinderFn:
    """S_path f computed directly on the terms: Theta_mu -> factor * Theta_{path mu}."""
    factor = spec.prefix_factor(path)  # distinct terms mu give distinct path * mu
    return CylinderFn(spec.graph, {compose(path, mu): factor * c
                                   for mu, c in f.terms.items() if mu.range == path.source})


@dataclass(frozen=True)
class RelationCheck:
    relation: str
    max_deviation: float
    witness: dict


@dataclass(frozen=True)
class CKReport:
    test_level: Degree
    checks: tuple[RelationCheck, ...]

    @property
    def max_deviation(self) -> float:
        return max(c.max_deviation for c in self.checks)

    def to_records(self) -> list[dict]:
        return [asdict(c) for c in self.checks]


# The CK check holds every prefix table it builds until it returns: at most
# this many entries in all, 12 bytes each (a 32-bit row index and a value).
CK_ENTRY_LIMIT = 2 ** 24

# ... and at most this many tables, which cost time however few their
# entries.  On lambda3, whose tables hold 1-2 entries each, the check takes
# 35-60 us per table at (80, 1) (9,963 tables), (160, 1) (39,123) and
# (200, 1) (60,903 tables, 3.0-3.6 s), in process on one core of a shared
# 2-core x86-64 host.  Most of it is building the levels up to T, each
# letter by letter, and their rank tables: work that grows with T_1 as the
# table count does.
CK_TABLE_LIMIT = 2 ** 16


def ck_table_count(test_level: Sequence[int]) -> int:
    """The number of prefix tables of the CK check at `test_level` T, one per
    key (x, L) with x + L <= T: the product over the colors of (T_i + 1)(T_i + 2) / 2."""
    return math.prod((t + 1) * (t + 2) // 2 for t in test_level)


def ck_table_entries(graph: KGraph, test_level: Sequence[int]) -> int:
    """The entries of the prefix tables `check_ck_relations` holds at
    `test_level` T, counted, not built: it builds the table of every degree x
    at every level L with x + L <= T, |Lambda^x| * |Lambda^L| entries
    (`path_counts`).  An exact integer.  No other array of the check has more
    entries than its largest table, save the word rows: |L| edge indices
    per path of a level L."""
    counts = path_counts(graph, as_degree(test_level, graph.k))
    below = counts  # below[y]: the paths of all degrees <= y
    for axis in range(graph.k):
        below = np.cumsum(below, axis=axis)
    return int((counts * np.flip(below)).sum())


def _least_table_entries(graph: KGraph, test_level: Degree) -> int:
    """At most `ck_table_entries` on a graph with no sources, with no lattice
    of `path_counts` filled.  Each degree x <= T has a table of |Lambda^x| *
    |Lambda^{T-x}| entries: at least n^2, as every vertex receives a path of
    every degree, and at least |Lambda^T|, as a path of degree T factors
    uniquely through degree x.  |Lambda^T| is counted by `_path_count`,
    saturated past the limit."""
    degrees, n = math.prod(t + 1 for t in test_level), len(graph.vertices)
    if degrees * n * n > CK_ENTRY_LIMIT:
        return degrees * n * n
    return degrees * max(n * n, _path_count(graph, test_level, CK_ENTRY_LIMIT // degrees + 1))


class _Plan(NamedTuple):
    """What the CK check at one test level T reads, worked out from T alone.
    Degree ids number the degrees up to T in product order (``degrees``),
    a mixed-radix numbering, so below T they add and subtract as the degrees
    do.  ``keys`` holds the ids (x, L, x + L) of the check's tables in
    build order (`_ck_tables`).  ``ck2`` holds, for each pair of nonzero
    degrees d, dl with d + dl <= T, d-major and dl ascending, the key
    numbers of the tables (d, dl), (d, T - d), (dl, base) and (d + dl, base),
    base = T - d - dl, and the ids of d, dl and base; ``ck34``, for each
    nonzero d, those of (d, T - d) and (0, T - d), and the ids of d and
    T - d."""

    degrees: tuple[Degree, ...]
    keys: np.ndarray
    ck2: np.ndarray
    ck34: np.ndarray


def _ck_plan(test_level: Degree) -> _Plan:
    degrees = list(product(*(range(t + 1) for t in test_level)))
    size, top, digits = len(degrees), len(degrees) - 1, np.array(degrees, dtype=np.intp)
    fits = (digits[:, None, :] + digits[None, :, :] <= np.array(test_level)).all(axis=2)
    fits[0, :] = fits[:, 0] = False
    d, dl = np.nonzero(fits)  # d-major, dl ascending
    rest, base, steps = top - d, top - d - dl, np.arange(1, size)
    # each key as x * size + L, as the check first meets it: (0, T); then per
    # d, for each dl, (d, T - d), (dl, base) and (d + dl, base), then
    # (d, T - d) and (0, T - d)
    pairs = np.bincount(d, minlength=size)[1:]
    block = 3 * pairs + 2
    start = 1 + np.cumsum(block) - block
    at = start[d - 1] + 3 * (np.arange(len(d)) - (np.cumsum(pairs) - pairs)[d - 1])
    met = np.empty(1 + int(block.sum()), dtype=np.intp)
    met[0], met[at], met[at + 1], met[at + 2] = top, d * size + rest, dl * size + base, (d + dl) * size + base
    met[start + 3 * pairs], met[start + 3 * pairs + 1] = steps * size + top - steps, top - steps
    order = np.argsort(met, kind="stable")
    codes = met[np.sort(order[np.diff(met[order], prepend=-1) != 0])]  # each where first met
    key = np.zeros(size * size, dtype=np.intp)
    key[codes] = np.arange(len(codes))
    x, level = np.divmod(codes, size)
    return _Plan(tuple(degrees), np.column_stack([x, level, x + level]),
                 np.stack([key[d * size + dl], key[d * size + rest], key[dl * size + base],
                           key[(d + dl) * size + base], d, dl, base]),
                 np.stack([key[steps * size + top - steps], key[top - steps], steps, top - steps]))


def _ck_budget(graph: KGraph, test_level: Degree) -> None:
    """Raise TooLarge, before any level is built, where the CK check at
    `test_level` would build more than `CK_TABLE_LIMIT` tables or hold more
    than `CK_ENTRY_LIMIT` entries: first on the table count, then on a bound
    (`_least_table_entries`), before `ck_table_entries` fills its lattice of
    exact counts, then on that count."""
    tables = ck_table_count(test_level)
    if tables > CK_TABLE_LIMIT:
        raise TooLarge(f"the CK check at level {test_level} builds {tables} prefix tables, "
                       f"above the limit of {CK_TABLE_LIMIT}")
    least = _least_table_entries(graph, test_level)
    if least > CK_ENTRY_LIMIT:
        raise TooLarge(f"the CK check at level {test_level} holds at least {least} prefix-table entries, "
                       f"above the limit of {CK_ENTRY_LIMIT}")
    entries = ck_table_entries(graph, test_level)
    if entries > CK_ENTRY_LIMIT:
        raise TooLarge(f"the CK check at level {test_level} holds {entries} prefix-table entries, "
                       f"above the limit of {CK_ENTRY_LIMIT}")


def _ck_tables(spec: MeasureSpec, plan: _Plan) -> _Tables:
    """The table of the S_lambda of every degree x at every level L with
    x + L <= the test level of the plan (`_prefix_tables`).

    The key order is fixed: the vertex projections at the test level; then
    per nonzero degree d, for each degree dl, the tables of S_mu (d(mu) = d),
    S_lambda (d(lambda) = dl) and S_{mu lambda} that (CK2) multiplies, then
    those of S_mu and S_{s(mu)} that (CK3) reads; each key where it first
    appears.  A derivative that is not constant raises at the first table in
    this order that shows it."""
    return _prefix_tables(spec, plan.degrees, plan.keys)


def _gaps(a: tuple, b: tuple) -> np.ndarray:
    """|A - B| entry by entry, on column forms: |a - b| where the entries
    share a row, else the larger |entry|."""
    (ra, va), (rb, vb) = a, b
    return np.where(ra == rb, np.abs(va - vb), np.maximum(np.abs(va), np.abs(vb)))


def _deviation(a: tuple, b: tuple) -> np.ndarray:
    """max |A - B| per case, over the last axis of column forms."""
    return np.max(_gaps(a, b), axis=-1, initial=0.0)


def _case_max(terms: np.ndarray, case: np.ndarray, cases: int) -> np.ndarray:
    """The largest of the terms of each case, 0 for a case with none: the
    terms come case after case."""
    out, first = np.zeros(cases), np.flatnonzero(np.diff(case, prepend=-1))
    out[case[first]] = np.maximum.reduceat(terms, first) if len(first) else 0.0
    return out


def check_ck_relations(spec: MeasureSpec, graph: KGraph,
                       test_level: Sequence[int]) -> CKReport:
    """Verify (CK1)-(CK4) as matrix identities on cylinder level spaces.

    All compositions are arranged to land at degree `test_level`; the report
    carries the worst absolute deviation per relation and the first case
    where it occurred.  The relations read the prefix tables (`_ck_tables`)
    from their flat store, each in batched passes over all its cases, in
    chunks of bounded size (`_chunks`).
    """
    _same_graph("measure and graph", graph, spec.graph)
    test_level = as_degree(test_level, graph.k)
    if any(t < 1 for t in test_level):
        raise LevelTooSmall(f"test level {test_level} must be >= 1 in every color")
    _ck_budget(graph, test_level)
    plan = _ck_plan(test_level)
    tables, kernel, vertices = _ck_tables(spec, plan), graph.word_kernel, graph.vertices
    stack = tables.stack
    worst = {relation: (0.0, {}) for relation in ("CK1", "CK2", "CK3", "CK4")}

    def record(relation: str, devs: np.ndarray, witness):
        """Keep the first case with the largest deviation; ``witness(p)`` names
        case p.  No list of cases is empty: a measured graph has no sources."""
        p = int(np.argmax(devs))
        if devs[p] > worst[relation][0]:
            worst[relation] = (float(devs[p]), witness(p))

    def word(degree: Degree, i: int) -> str:
        return "".join(kernel.ids[e] for e in kernel.level(degree)[0][i])

    def matched(heads: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The nonempty cells of the rows of the paths at these stack
        positions in tables at these levels, row after row, columns
        ascending: a table has an entry exactly where the range of the column
        is the source of the row's path (`WordKernel.matching`)."""
        return kernel.matching(stack.sources[heads], stack, of=levels)

    # (CK1) S_v S_w = [v = w] S_v, and the S_v sum to 1.  Column mu of the
    # projections holds one entry, (row, val)[mu] of S_{r(mu)}, so S_v S_w
    # differs from [v = w] S_v at mu only for w = r(mu): there it holds
    # (row, val)[row[mu]] times val[mu] for v = r(row[mu]), and nothing else.
    n, ranges = len(vertices), kernel.level(test_level)[1]
    projs, at = tables.table(0), np.arange(len(ranges))  # the first key is (0, T)
    row, val = projs[0][ranges, at], projs[1][ranges, at]
    outer, same = ranges[row], ranges[row] == ranges
    dev = np.zeros(n * n)
    np.maximum.at(dev, outer * n + ranges, _gaps((row[row], val[row] * val),
                                                 (np.where(same, row, -1), np.where(same, val, 0.0))))
    np.maximum.at(dev, (ranges * (n + 1))[~same], np.abs(val[~same]))  # (w, w) misses (row, val)[mu]
    record("CK1", dev, lambda p: {"vertices": [vertices[p // n], vertices[p % n]]})
    record("CK1", _deviation((row[None], val[None]), (at, np.ones(len(at)))), lambda _: {"vertices": "sum"})

    # (CK2) S_mu S_lambda = S_{mu lambda} for each pair of nonzero degrees
    # d = d(mu), dl = d(lambda) and each lambda with r(lambda) = s(mu).  The
    # table of S_mu at level dl holds the cases, mu-major and lambda
    # ascending, at the rows of the composites: each case is one row of the
    # table of S_lambda taken on through the table of S_mu at level d(lambda)
    # + base, against one row of the table of S_{mu lambda}, term by term.
    # Both rows have their entries at the columns that `matched` gives; every
    # other term is 0 on both sides.
    base, counts = stack.base, stack.counts
    store, offset, width = (tables.rows, tables.vals), tables.offset, tables.width
    comp, outer, inner, target, d, dl, low = plan.ck2
    for a, b in _chunks((tables.entries[comp] * (tables.entries[inner] // tables.height[inner] + 1)).tolist()):
        owner = np.repeat(np.arange(a, b), counts[d[a:b]])
        case, j = matched(_expand_runs(base[d[a:b]], counts[d[a:b]]), dl[owner])
        pair = owner[case]
        i = case - (np.cumsum(counts[d[a:b]]) - counts[d[a:b]])[pair - a]
        at_both = store[0][offset[comp[pair]] + i * width[comp[pair]] + j]
        term, col = matched(base[dl[pair]] + j, low[pair])
        ri, vi = (part[(offset[inner[pair]] + j * width[inner[pair]])[term] + col] for part in store)
        via = (offset[outer[pair]] + i * width[outer[pair]])[term] + ri
        lhs = np.where(ri >= 0, store[0][via], -1), np.where(ri >= 0, store[1][via] * vi, 0.0)
        goal = (offset[target[pair]] + at_both * width[inner[pair]])[term] + col
        record("CK2", _case_max(_gaps(lhs, (store[0][goal], store[1][goal])), term, len(pair)),
               lambda p: {"mu": word(plan.degrees[d[pair[p]]], i[p]), "lambda": word(plan.degrees[dl[pair[p]]], j[p])})

    # (CK3) S_mu* S_mu = S_{s(mu)}.  S* S holds the squared entries on its
    # diagonal and, where two columns share a row, their product: the
    # largest such product in a row is that of its two largest entries.
    # (CK4) S_v = sum over v Lambda^d of S_lambda S_lambda*.  With one entry
    # per column S S* is diagonal: the squared entries summed at their rows.
    # Both read the entries of the table of each degree d at level T - d.
    own, projections, d, rest = plan.ck34
    for a, b in _chunks((tables.entries[own] + n * len(at)).tolist()):
        owner = np.repeat(np.arange(a, b), counts[d[a:b]])
        mus = _expand_runs(base[d[a:b]], counts[d[a:b]])  # in the stack
        case, col = matched(mus, rest[owner])
        across = width[own[owner]]
        cell = (offset[own[owner]] + (mus - base[d[owner]]) * across)[case] + col
        target = (offset[projections[owner]] + stack.sources[mus] * across)[case] + col
        row, val = store[0][cell], store[1][cell]
        dev = _case_max(_gaps((col, val ** 2), (store[0][target], store[1][target])), case, len(mus))
        key, size = case * len(at) + row, np.abs(val)
        order = np.lexsort((-size, key))  # by case and row, the largest entry first
        key, size, by = key[order], size[order], case[order]
        shared = np.flatnonzero(key[1:] == key[:-1])
        np.maximum.at(dev, by[shared], size[shared] * size[shared + 1])
        record("CK3", dev, lambda p: {"mu": word(plan.degrees[d[owner[p]]], mus[p] - base[d[owner[p]]])})
        acc = np.zeros((b - a, n, len(at)))
        np.add.at(acc.reshape(-1), ((owner[case] - a) * n + stack.ranges[mus[case]]) * len(at) + row, val ** 2)
        record("CK4", _deviation((at, acc), projs).reshape(-1),
               lambda p: {"n": list(plan.degrees[d[a + p // n]]), "vertex": vertices[p % n]})

    return CKReport(test_level, tuple(RelationCheck(r, *worst[r]) for r in worst))
