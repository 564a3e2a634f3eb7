"""The serving tier's endpoints, as plain library calls.

Every endpoint is a pure function ``(payload, params) -> JSON-serialisable
dict`` over an *immutable* snapshot payload — no handler state, no I/O —
dispatched through :func:`evaluate` by both the HTTP front end
(:mod:`repro.serve.server`) and anything that wants the identical answer
without a socket (the parity test suite, the benchmark's direct-library
lane).  That shared dispatch is the tier's correctness anchor: a server
response is *defined* as ``encode_response(evaluate(...))`` and can be
compared bit-for-bit against a direct call on the same snapshot.

Responses are serialized by :func:`encode_response` into canonical JSON
(sorted keys, compact separators, ``ensure_ascii``), so equal results are
equal bytes — the property the fingerprint-keyed cache and the
concurrency-parity suite are built on.

Three query shapes also have a delta-maintained form, built by
:func:`query_state` with the endpoint's own parameter parsing: ``/profile``,
``/kpi`` with a ``level`` and ``/cube/aggregate`` with ``levels``.  A
:class:`QueryState` answers like :func:`evaluate` on the snapshot it was
built or last advanced on, and advances to a snapshot that appends rows by
folding in only those rows (:mod:`repro.feeds.incremental`).
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.bi.kpi import KPI, evaluate_kpis, evaluate_kpis_by_level
from repro.bi.olap import Cube, Dimension, Measure
from repro.core.advisor import Advisor
from repro.exceptions import ServeError
from repro.feeds.incremental import IncrementalKPIBoard, IncrementalProfile, incremental_cube_aggregate
from repro.lod.query import TriplePattern, Variable, ask, select
from repro.lod.terms import IRI, BNode, Literal
from repro.quality.profile import measure_quality
from repro.tabular.dataset import Dataset, is_missing_value


def encode_response(result: dict[str, Any]) -> bytes:
    """Serialize an endpoint result into its canonical response bytes."""
    return (
        json.dumps(result, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"
    ).encode("ascii")


# ---------------------------------------------------------------------------
# Parameter and result plumbing
# ---------------------------------------------------------------------------

def _expect(params: dict[str, Any], key: str, types: tuple[type, ...], kind: str,
            required: bool = False, default: Any = None) -> Any:
    """Fetch and type-check one query parameter."""
    if key not in params or params[key] is None:
        if required:
            raise ServeError(f"query needs a {key!r} parameter ({kind})")
        return default
    value = params[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        raise ServeError(f"query parameter {key!r} must be {kind}, got {type(value).__name__}")
    return value


def _cell(value: Any) -> Any:
    """One dataset cell as a JSON value (missing → ``null``, numpy unboxed)."""
    if is_missing_value(value):
        return None
    if isinstance(value, bool):
        return value
    if hasattr(value, "item"):  # numpy scalar
        value = value.item()
    if isinstance(value, (int, float, str, bool)):
        return value
    return str(value)


def _dataset_json(dataset: Dataset) -> dict[str, Any]:
    """A dataset as a JSON table: column schema plus row-major cells."""
    names = [column.name for column in dataset.columns]
    return {
        "name": dataset.name,
        "columns": [
            {"name": column.name, "type": column.ctype, "role": column.role}
            for column in dataset.columns
        ],
        "rows": [[_cell(row[name]) for name in names] for row in dataset.iter_rows()],
    }


def _parse_term(spec: Any, position: str):
    """One pattern term from its JSON form.

    Strings starting with ``?`` are variables; any other string is an IRI.
    Objects select the term kind explicitly: ``{"iri": ...}``,
    ``{"bnode": ...}``, or ``{"literal": value, "datatype"?: iri,
    "language"?: tag}``.
    """
    if isinstance(spec, str):
        if spec.startswith("?"):
            if len(spec) < 2:
                raise ServeError(f"pattern {position} has an empty variable name")
            return Variable(spec[1:])
        return IRI(spec)
    if isinstance(spec, dict):
        if "iri" in spec:
            return IRI(str(spec["iri"]))
        if "bnode" in spec:
            return BNode(str(spec["bnode"]))
        if "literal" in spec:
            datatype = spec.get("datatype")
            return Literal(
                spec["literal"],
                datatype=IRI(str(datatype)) if datatype is not None else None,
                language=spec.get("language"),
            )
        raise ServeError(
            f"pattern {position} object needs an 'iri', 'bnode' or 'literal' key"
        )
    raise ServeError(
        f"pattern {position} must be a string ('?var' or an IRI) or a term object, "
        f"got {type(spec).__name__}"
    )


def _parse_patterns(params: dict[str, Any]) -> list[TriplePattern]:
    """The ``patterns`` parameter as triple patterns."""
    raw = _expect(params, "patterns", (list,), "a list of [s, p, o] triples", required=True)
    patterns = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ServeError(f"pattern #{i} must be a 3-element [s, p, o] list")
        patterns.append(
            TriplePattern(
                _parse_term(entry[0], f"#{i} subject"),
                _parse_term(entry[1], f"#{i} predicate"),
                _parse_term(entry[2], f"#{i} object"),
            )
        )
    if not patterns:
        raise ServeError("query needs at least one triple pattern")
    return patterns


def _binding_json(binding: dict[str, Any]) -> dict[str, Any]:
    """One query solution with every bound term in N-Triples form."""
    return {name: None if term is None else term.n3() for name, term in binding.items()}


def _build_cube(dataset: Dataset, params: dict[str, Any]) -> Cube:
    """A cube from the ``dimensions``/``measures`` query parameters."""
    raw_dimensions = _expect(
        params, "dimensions", (list,), "a list of column names or {name, levels} objects",
        required=True,
    )
    dimensions = []
    for spec in raw_dimensions:
        if isinstance(spec, str):
            dimensions.append(Dimension(spec, (spec,)))
        elif isinstance(spec, dict) and "name" in spec:
            levels = spec.get("levels") or [spec["name"]]
            dimensions.append(Dimension(str(spec["name"]), tuple(str(level) for level in levels)))
        else:
            raise ServeError("each dimension must be a column name or a {name, levels} object")
    raw_measures = _expect(
        params, "measures", (list,), "a list of {column, aggregation, name} objects",
        required=True,
    )
    measures = []
    for spec in raw_measures:
        if not isinstance(spec, dict) or "column" not in spec:
            raise ServeError("each measure must be an object with at least a 'column' key")
        aggregation = str(spec.get("aggregation", "sum"))
        measures.append(
            Measure(
                str(spec.get("name", f"{aggregation}_{spec['column']}")),
                str(spec["column"]),
                aggregation,
            )
        )
    return Cube(dataset, dimensions=dimensions, measures=measures)


def _parse_kpis(params: dict[str, Any]) -> list[KPI]:
    """The ``kpis`` parameter as KPI definitions."""
    raw = _expect(
        params, "kpis", (list,), "a list of {name, column, target, ...} objects", required=True
    )
    kpis = []
    for spec in raw:
        if not isinstance(spec, dict) or not {"name", "column", "target"} <= set(spec):
            raise ServeError("each KPI needs at least 'name', 'column' and 'target' keys")
        kpis.append(
            KPI(
                name=str(spec["name"]),
                compute=str(spec["column"]),
                target=float(spec["target"]),
                higher_is_better=bool(spec.get("higher_is_better", True)),
                tolerance=float(spec.get("tolerance", 0.1)),
                description=str(spec.get("description", "")),
            )
        )
    if not kpis:
        raise ServeError("query needs at least one KPI")
    return kpis


def _criteria(params: dict[str, Any]) -> list[str] | None:
    """The ``criteria`` parameter as criterion names (``None``: the full set)."""
    criteria = _expect(params, "criteria", (list,), "a list of criterion names")
    return [str(c) for c in criteria] if criteria else None


def _kpi_query(dataset: Dataset, params: dict[str, Any]) -> tuple[list[KPI], str | None, Cube | None]:
    """The ``/kpi`` query: its KPIs, its ``level`` and, with a level, the cube over it."""
    kpis = _parse_kpis(params)
    level = _expect(params, "level", (str,), "a grouping column name")
    if level is None:
        return kpis, None, None
    cube = Cube(
        dataset,
        dimensions=[Dimension(level, (level,))],
        measures=[Measure(f"{kpi.name}_measure", kpi.compute, "mean") for kpi in kpis],
    )
    return kpis, level, cube


def _levels(params: dict[str, Any]) -> list[str] | None:
    """The ``levels`` parameter as level columns (``None``: the grand total)."""
    levels = _expect(params, "levels", (list,), "a list of level columns")
    return [str(level) for level in levels] if levels else None


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------

def profile_endpoint(dataset: Dataset, params: dict[str, Any]) -> dict[str, Any]:
    """``/profile`` — the dataset's data quality profile.

    Parameters: ``criteria`` (optional list of criterion names; default:
    the full registered set).
    """
    return _profile_result(measure_quality(dataset, criteria=_criteria(params)))


def _profile_result(profile: Any) -> dict[str, Any]:
    return {"profile": profile.to_json_dict()}


def _table_result(table: Dataset) -> dict[str, Any]:
    return {"table": _dataset_json(table)}


def advise_endpoint(dataset: Dataset, params: dict[str, Any],
                    knowledge_base: Any = None) -> dict[str, Any]:
    """``/advise`` — algorithm recommendation from the loaded knowledge base.

    Parameters: ``neighbours`` (int, default 7), ``algorithms`` (optional
    list restricting the ranking).  Needs the server started with a
    knowledge base (``repro serve --kb ...``).
    """
    if knowledge_base is None:
        raise ServeError("this server was started without a knowledge base; /advise is unavailable")
    neighbours = _expect(params, "neighbours", (int,), "an integer", default=7)
    algorithms = _expect(params, "algorithms", (list,), "a list of algorithm names")
    advisor = Advisor(knowledge_base, k=int(neighbours))
    recommendation = advisor.advise(
        dataset, algorithms=[str(a) for a in algorithms] if algorithms else None
    )
    return {"recommendation": recommendation.as_dict()}


def cube_aggregate_endpoint(dataset: Dataset, params: dict[str, Any]) -> dict[str, Any]:
    """``/cube/aggregate`` — grouped measures over dimension levels.

    Parameters: ``dimensions``, ``measures`` (see :func:`_build_cube`),
    ``levels`` (optional list of level columns to group by; default: the
    grand total).
    """
    cube = _build_cube(dataset, params)
    return _table_result(cube.aggregate(_levels(params)))


def cube_pivot_endpoint(dataset: Dataset, params: dict[str, Any]) -> dict[str, Any]:
    """``/cube/pivot`` — one measure cross-tabulated over two levels.

    Parameters: ``dimensions``, ``measures``, ``row_level``,
    ``column_level``, ``measure`` (optional measure name; default: the
    first declared measure).
    """
    cube = _build_cube(dataset, params)
    row_level = str(_expect(params, "row_level", (str,), "a level column", required=True))
    column_level = str(_expect(params, "column_level", (str,), "a level column", required=True))
    measure = _expect(params, "measure", (str,), "a measure name")
    result = cube.pivot(row_level, column_level, measure_name=measure)
    return {"table": _dataset_json(result)}


def kpi_endpoint(dataset: Dataset, params: dict[str, Any]) -> dict[str, Any]:
    """``/kpi`` — KPI statuses, whole-dataset or per group of one level.

    Parameters: ``kpis`` (list of ``{name, column, target,
    higher_is_better?, tolerance?}``), ``level`` (optional grouping
    column; with it the response is a per-group scoreboard table, without
    it a list of whole-dataset statuses).
    """
    kpis, level, cube = _kpi_query(dataset, params)
    if cube is None:
        return {"kpis": evaluate_kpis(kpis, dataset)}
    return _table_result(evaluate_kpis_by_level(kpis, cube, level))


def lod_select_endpoint(graph: Any, params: dict[str, Any]) -> dict[str, Any]:
    """``/lod/select`` — basic graph pattern query over a graph snapshot.

    Parameters: ``patterns`` (list of ``[s, p, o]``; see
    :func:`_parse_term` for the term syntax), ``variables``,
    ``distinct``, ``order_by``, ``descending``, ``limit`` — each mapping
    straight onto :func:`repro.lod.query.select`.
    """
    patterns = _parse_patterns(params)
    variables = _expect(params, "variables", (list,), "a list of variable names")
    distinct = _expect(params, "distinct", (bool,), "a boolean", default=False)
    order_by = _expect(params, "order_by", (str,), "a variable name")
    descending = _expect(params, "descending", (bool,), "a boolean", default=False)
    limit = _expect(params, "limit", (int,), "an integer")
    bindings = select(
        graph,
        patterns,
        variables=[str(v) for v in variables] if variables else None,
        distinct=bool(distinct),
        order_by=order_by,
        descending=bool(descending),
        limit=int(limit) if limit is not None else None,
    )
    return {"n_solutions": len(bindings), "bindings": [_binding_json(b) for b in bindings]}


def lod_ask_endpoint(graph: Any, params: dict[str, Any]) -> dict[str, Any]:
    """``/lod/ask`` — whether the basic graph pattern has any solution."""
    return {"answer": ask(graph, _parse_patterns(params))}


#: Endpoint table: request path → (snapshot kind consumed, function).
#: ``evaluate`` and the HTTP router both dispatch through this, so the
#: two stay in lockstep by construction.
ENDPOINTS: dict[str, tuple[str, Callable[..., dict[str, Any]]]] = {
    "/profile": ("dataset", profile_endpoint),
    "/advise": ("dataset", advise_endpoint),
    "/cube/aggregate": ("dataset", cube_aggregate_endpoint),
    "/cube/pivot": ("dataset", cube_pivot_endpoint),
    "/kpi": ("dataset", kpi_endpoint),
    "/lod/select": ("graph", lod_select_endpoint),
    "/lod/ask": ("graph", lod_ask_endpoint),
}


def evaluate(endpoint: str, payload: Any, params: dict[str, Any],
             knowledge_base: Any = None) -> dict[str, Any]:
    """Run one endpoint directly against a payload — the parity reference.

    ``endpoint`` is the request path (e.g. ``"/cube/pivot"``); ``payload``
    is the dataset or graph the path's kind expects.  The HTTP server
    produces exactly ``encode_response(evaluate(...))`` for a cache-miss
    request, which is what makes server responses comparable bit-for-bit
    against direct library calls.
    """
    spec = ENDPOINTS.get(endpoint)
    if spec is None:
        raise ServeError(f"unknown endpoint {endpoint!r} (have: {sorted(ENDPOINTS)})")
    _, fn = spec
    if fn is advise_endpoint:
        return fn(payload, params, knowledge_base=knowledge_base)
    return fn(payload, params)


# ---------------------------------------------------------------------------
# Delta-maintained queries
# ---------------------------------------------------------------------------

class QueryState:
    """The incremental state behind one recurring query on a dataset snapshot.

    :meth:`result` answers for the snapshot the state was built or last
    advanced on; :meth:`advance` folds in the rows a successor snapshot
    appends and answers for it.  Both return the endpoint's result dict,
    equal to :func:`evaluate` on that snapshot's payload, which stays the
    reference.  After an advance the state refers to the successor only.
    """

    def __init__(self, current: Callable[[], Any], refresh: Callable[[Dataset], Any],
                 wrap: Callable[[Any], dict[str, Any]]) -> None:
        """Wrap a board's current answer, its refresh and the endpoint's result shape."""
        self._current = current
        self._refresh = refresh
        self._wrap = wrap

    def result(self) -> dict[str, Any]:
        """The endpoint result for the rows folded in so far."""
        return self._wrap(self._current())

    def advance(self, merged: Dataset) -> dict[str, Any]:
        """Fold in the rows ``merged`` appends and return its endpoint result."""
        return self._wrap(self._refresh(merged))


def query_state(endpoint: str, dataset: Dataset, params: dict[str, Any]) -> QueryState | None:
    """A :class:`QueryState` seeded on ``dataset``, or ``None`` for a query shape kept batch-only.

    Maintained: ``/profile`` with any criteria, ``/kpi`` with a ``level``
    and ``/cube/aggregate`` with non-empty ``levels``.  Parameters are
    parsed as the endpoint parses them.
    """
    if endpoint == "/profile":
        board = IncrementalProfile(dataset, criteria=_criteria(params))
        return QueryState(board.profile, board.refresh, _profile_result)
    if endpoint == "/kpi":
        kpis, level, cube = _kpi_query(dataset, params)
        if cube is None:
            return None
        board = IncrementalKPIBoard(kpis, cube, level)
        return QueryState(board.result, board.refresh, _table_result)
    if endpoint == "/cube/aggregate":
        cube = _build_cube(dataset, params)
        levels = _levels(params)
        if levels is None:
            return None
        board = incremental_cube_aggregate(cube, levels)
        return QueryState(board.result, board.refresh, _table_result)
    return None
