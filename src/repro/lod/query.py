"""A small SPARQL-like query engine over :class:`~repro.lod.graph.Graph`.

Only the features the library needs are implemented: basic graph patterns
(conjunctions of triple patterns with shared variables), optional value
filters, ``DISTINCT``, ``LIMIT`` and ``ORDER BY``.  This is enough to express
the selection queries used when pivoting LOD into datasets and when reading
published results back.

Following the library-wide two-tier protocol (see ``docs/encoded-core.md``),
pattern evaluation has two implementations that are bit-identical — same
bindings, same binding-dict key order, same row order:

* the **reference tier**: the binding-at-a-time nested-loop matcher over the
  store's dict indexes (:func:`_join_reference`);
* the **vectorized tier** (default): a selectivity-ordered join over the
  store's interned id columns (:class:`~repro.lod.triples.ColumnarTriples`),
  resolving per-binding candidate ranges with ``searchsorted`` block lookups
  and equality constraints with array masks (:func:`_join_encoded`).

Inside :func:`repro.tiers.reference`, ``select`` (and so ``ask`` and
``count``) runs the reference tier.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from typing import Any, Union

import numpy as np

from repro.exceptions import LODError
from repro.lod.graph import Graph
from repro.lod.terms import IRI, BNode, Literal
from repro.lod.triples import ColumnarTriples
from repro.tiers import use_reference


@dataclass(frozen=True, slots=True)
class Variable:
    """A query variable, written ``Variable("x")`` (think SPARQL ``?x``)."""

    name: str

    def __str__(self) -> str:
        """SPARQL-style ``?name`` form."""
        return f"?{self.name}"


Term = Union[Variable, IRI, BNode, Literal]
Binding = dict[str, Any]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple pattern whose positions may be variables or concrete terms."""

    subject: Term
    predicate: Term
    object: Term

    def variables(self) -> list[str]:
        """Names of the variables used in this pattern."""
        return [t.name for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable)]


def _resolve(term: Term, binding: Binding):
    """Replace a variable by its bound value (or ``None`` when still free)."""
    if isinstance(term, Variable):
        return binding.get(term.name)
    return term


def _match_pattern(graph: Graph, pattern: TriplePattern, binding: Binding) -> Iterable[Binding]:
    """Yield extensions of ``binding`` that satisfy ``pattern`` in ``graph``."""
    s = _resolve(pattern.subject, binding)
    p = _resolve(pattern.predicate, binding)
    o = _resolve(pattern.object, binding)
    for triple in graph.triples(s, p, o):
        extended = dict(binding)
        consistent = True
        for term, value in ((pattern.subject, triple.subject), (pattern.predicate, triple.predicate), (pattern.object, triple.object)):
            if isinstance(term, Variable):
                existing = extended.get(term.name)
                if existing is None:
                    extended[term.name] = value
                elif existing != value:
                    consistent = False
                    break
        if consistent:
            yield extended


def _pattern_selectivity(pattern: TriplePattern, bound: set[str]) -> int:
    """Heuristic: more bound positions first (cheaper join order)."""
    score = 0
    for term in (pattern.subject, pattern.predicate, pattern.object):
        if not isinstance(term, Variable) or term.name in bound:
            score += 1
    return -score


def _join_reference(graph: Graph, patterns: Sequence[TriplePattern]) -> tuple[list[Binding], set[str]]:
    """Binding-at-a-time reference join; returns ``(bindings, bound variables)``."""
    bindings: list[Binding] = [{}]
    remaining = list(patterns)
    bound: set[str] = set()
    while remaining:
        remaining.sort(key=lambda pat: _pattern_selectivity(pat, bound))
        pattern = remaining.pop(0)
        next_bindings: list[Binding] = []
        for binding in bindings:
            next_bindings.extend(_match_pattern(graph, pattern, binding))
        bindings = next_bindings
        bound.update(pattern.variables())
        if not bindings:
            break
    return bindings, bound


def _extend_encoded(
    columnar: ColumnarTriples,
    pattern: TriplePattern,
    binding_cols: dict[str, np.ndarray],
    n_bindings: int,
) -> tuple[dict[str, np.ndarray], int]:
    """One vectorized join step: extend the binding table with ``pattern``.

    ``binding_cols`` maps variable name → per-binding term-id array, with the
    dict's insertion order equal to the order the reference matcher assigns
    keys into its binding dicts.  The output preserves the reference's row
    order: bindings expand in order, and each binding's matches appear in the
    iteration order of the dict index the reference would have consulted
    (replayed here through the matching :class:`ColumnarTriples` ordering).
    """
    positions = (pattern.subject, pattern.predicate, pattern.object)
    consts: list[tuple[int, int]] = []          # (position, interned id; -1 = not in store)
    bound_vars: list[tuple[int, str]] = []      # (position, variable name)
    free: dict[str, int] = {}                   # variable name -> first position
    free_dups: list[tuple[int, int]] = []       # (position, first position of same variable)
    known = [False, False, False]
    for i, term in enumerate(positions):
        if isinstance(term, Variable):
            if term.name in binding_cols:
                bound_vars.append((i, term.name))
                known[i] = True
            elif term.name in free:
                free_dups.append((i, free[term.name]))
            else:
                free[term.name] = i
        else:
            consts.append((i, columnar.term_id(term)))
            known[i] = True

    # The reference dispatches on the first known position: SPO when the
    # subject is resolved, else POS on the predicate, else OSP on the object,
    # else a full scan (which iterates in SPO order).
    primary = 0 if known[0] else 1 if known[1] else 2 if known[2] else None
    index = {0: "spo", 1: "pos", 2: "osp", None: "spo"}[primary]
    arrays = columnar.order(index)

    if primary is None:
        lo = np.zeros(n_bindings, dtype=np.int64)
        hi = np.full(n_bindings, columnar.n_triples, dtype=np.int64)
    else:
        const_primary = next((tid for i, tid in consts if i == primary), None)
        if const_primary is not None:
            key_ids = np.full(n_bindings, const_primary, dtype=np.int64)
        else:
            name = next(name for i, name in bound_vars if i == primary)
            key_ids = binding_cols[name]
        lo, hi = columnar.block_ranges(index, key_ids)

    counts = hi - lo
    total = int(counts.sum())
    rep = np.repeat(np.arange(n_bindings, dtype=np.intp), counts)
    if total:
        cand = lo[rep] + np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    else:
        cand = np.empty(0, dtype=np.int64)

    mask: np.ndarray | None = None
    for i, term_id in consts:
        if i == primary:
            continue  # equality already enforced by the block range
        step = arrays[i][cand] == term_id
        mask = step if mask is None else mask & step
    for i, name in bound_vars:
        if i == primary:
            continue
        step = arrays[i][cand] == binding_cols[name][rep]
        mask = step if mask is None else mask & step
    for i, first in free_dups:
        step = arrays[i][cand] == arrays[first][cand]
        mask = step if mask is None else mask & step
    if mask is not None:
        rep = rep[mask]
        cand = cand[mask]

    out_cols = {name: col[rep] for name, col in binding_cols.items()}
    for name, i in free.items():  # insertion order = subject, predicate, object
        out_cols[name] = arrays[i][cand]
    return out_cols, int(rep.shape[0])


def _join_encoded(graph: Graph, patterns: Sequence[TriplePattern]) -> tuple[list[Binding], set[str]]:
    """Vectorized join over the interned id columns; bit-identical to the reference."""
    columnar = graph.store.columnar()
    binding_cols: dict[str, np.ndarray] = {}
    n_bindings = 1  # the single empty binding the reference starts from
    remaining = list(patterns)
    bound: set[str] = set()
    while remaining:
        remaining.sort(key=lambda pat: _pattern_selectivity(pat, bound))
        pattern = remaining.pop(0)
        binding_cols, n_bindings = _extend_encoded(columnar, pattern, binding_cols, n_bindings)
        bound.update(pattern.variables())
        if not n_bindings:
            break
    terms = columnar.terms
    names = list(binding_cols)
    if not names:
        return [{} for _ in range(n_bindings)], bound
    columns = [binding_cols[name].tolist() for name in names]
    bindings: list[Binding] = [
        {name: terms[column[row]] for name, column in zip(names, columns)}
        for row in range(n_bindings)
    ]
    return bindings, bound


def select(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    variables: Sequence[str] | None = None,
    where: Callable[[Binding], bool] | None = None,
    distinct: bool = False,
    order_by: str | None = None,
    descending: bool = False,
    limit: int | None = None,
) -> list[Binding]:
    """Evaluate a basic graph pattern and return variable bindings.

    Parameters
    ----------
    graph:
        The graph to query.
    patterns:
        Triple patterns; variables shared across patterns express joins.
    variables:
        Names of the variables to keep in the result rows (default: all).
    where:
        Optional predicate applied to each full binding (a SPARQL FILTER).
    distinct, order_by, descending, limit:
        Result modifiers analogous to their SPARQL counterparts.

    The join is the vectorized id-column join, or the binding-at-a-time
    reference tier inside :func:`repro.tiers.reference`.
    """
    if not patterns:
        raise LODError("select needs at least one triple pattern")

    if use_reference():
        bindings, bound = _join_reference(graph, patterns)
    else:
        bindings, bound = _join_encoded(graph, patterns)

    if where is not None:
        bindings = [b for b in bindings if where(b)]

    if variables is not None:
        missing = [v for v in variables if v not in bound]
        if missing:
            raise LODError(f"projected variables never bound by the patterns: {missing}")
        bindings = [{v: b.get(v) for v in variables} for b in bindings]

    if distinct:
        seen: set[tuple] = set()
        unique: list[Binding] = []
        for binding in bindings:
            key = tuple(sorted((k, _sort_key(v)) for k, v in binding.items()))
            if key not in seen:
                seen.add(key)
                unique.append(binding)
        bindings = unique

    if order_by is not None:
        bindings.sort(key=lambda b: _sort_key(b.get(order_by)), reverse=descending)

    if limit is not None:
        bindings = bindings[:limit]
    return bindings


def _sort_key(value: Any) -> tuple:
    """Total order over heterogeneous RDF terms for ORDER BY / DISTINCT."""
    if isinstance(value, Literal):
        inner = value.python_value()
        if isinstance(inner, (int, float)) and not isinstance(inner, bool):
            return (0, float(inner), "")
        return (1, 0.0, str(inner))
    if isinstance(value, IRI):
        return (2, 0.0, value.value)
    if isinstance(value, BNode):
        return (3, 0.0, value.identifier)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def ask(graph: Graph, patterns: Sequence[TriplePattern]) -> bool:
    """Return ``True`` when the basic graph pattern has at least one solution."""
    return bool(select(graph, patterns, limit=1))


def count(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    distinct_variable: str | None = None,
) -> int:
    """Count solutions (or distinct values of one variable) of a pattern."""
    results = select(graph, patterns)
    if distinct_variable is None:
        return len(results)
    return len({_sort_key(r.get(distinct_variable)) for r in results})
