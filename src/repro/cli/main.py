"""Argument parsing and command implementations for the OpenBI CLI.

Each subcommand is a thin orchestration of the library's public API; the heavy
lifting (quality measurement, experiments, advice, mining, publishing) lives in
the corresponding subpackages so everything here is easy to test by calling
:func:`main` with an argument list.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro._version import __version__
from repro.core import Advisor, ExperimentPlan, ExperimentRunner, KnowledgeBase, UserProfile, derive_guidance_rules
from repro.core.rules import guidance_report
from repro.datasets import CIVIC_GENERATORS
from repro.exceptions import ReproError
from repro.lod import parse_ntriples, to_ntriples, to_turtle
from repro.lod.linker import EntityLinker, LinkRule
from repro.lod.publish import publish_dataset, publish_quality_profile
from repro.lod.tabulate import tabulate_entities
from repro.lod.terms import IRI, Triple
from repro.lod.vocabulary import OWL
from repro.mining import CLASSIFIER_REGISTRY
from repro.mining.validation import cross_validate, holdout_evaluate, train_test_split
from repro.quality import measure_quality, quality_report
from repro.tabular import read_csv
from repro.tabular.dataset import ColumnRole, Dataset


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _load_dataset(path: str, target: str | None, identifier: str | None) -> Dataset:
    """Load a CSV file and apply the requested column roles."""
    dataset = read_csv(Path(path))
    if target is not None:
        if target not in dataset:
            raise ReproError(f"target column {target!r} not found in {path}")
        dataset = dataset.set_target(target)
    if identifier is not None:
        if identifier not in dataset:
            raise ReproError(f"identifier column {identifier!r} not found in {path}")
        dataset = dataset.set_role(identifier, ColumnRole.IDENTIFIER)
    return dataset


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_severities(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_profile(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data, args.target, args.identifier)
    reference = None
    if args.reference:
        reference_dataset = _load_dataset(args.reference, args.target, args.identifier)
        reference = measure_quality(reference_dataset)
    profile = measure_quality(dataset)
    if args.json:
        print(json.dumps(profile.to_json_dict(), indent=2))
    else:
        print(quality_report(profile, reference=reference, fmt=args.format))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    algorithms = _parse_list(args.algorithms)
    criteria = _parse_list(args.criteria)
    severities = _parse_severities(args.severities)
    profile = UserProfile(name="cli", algorithms=algorithms, cv_folds=args.folds)
    plan = ExperimentPlan(criteria=criteria, simple_severities=severities, mixed_severity=args.mixed_severity)

    datasets = []
    if args.data:
        datasets.append(_load_dataset(args.data, args.target, args.identifier))
    for name in _parse_list(args.civic):
        if name not in CIVIC_GENERATORS:
            raise ReproError(f"unknown civic dataset {name!r}; choose from {sorted(CIVIC_GENERATORS)}")
        datasets.append(CIVIC_GENERATORS[name](n_rows=args.rows))
    if not datasets:
        raise ReproError("give --data CSV and/or --civic names to experiment on")

    runner = ExperimentRunner(profile, plan)
    knowledge_base = runner.run(datasets)
    output = Path(args.output)
    if output.suffix == ".db":
        knowledge_base.to_sqlite(output)
    else:
        knowledge_base.to_json(output)
    summary = knowledge_base.summary()
    print(f"knowledge base written to {output} ({summary['n_records']} records, "
          f"{summary['n_algorithms']} algorithms, {summary['n_datasets']} datasets)")
    return 0


def _load_knowledge_base(path: str) -> KnowledgeBase:
    kb_path = Path(path)
    if not kb_path.exists():
        raise ReproError(f"knowledge base {path} does not exist")
    if kb_path.suffix == ".db":
        return KnowledgeBase.from_sqlite(kb_path)
    return KnowledgeBase.from_json(kb_path)


def _cmd_advise(args: argparse.Namespace) -> int:
    knowledge_base = _load_knowledge_base(args.knowledge_base)
    dataset = _load_dataset(args.data, args.target, args.identifier)
    advisor = Advisor(knowledge_base, k=args.neighbours)
    recommendation = advisor.advise(dataset)
    if args.json:
        print(json.dumps(recommendation.as_dict(), indent=2))
        return 0
    print(f"the best option is {recommendation.best_algorithm.upper()} "
          f"(expected score {recommendation.expected_score:.3f})")
    print(recommendation.rationale)
    print()
    print("full ranking:")
    for name, score in recommendation.ranked_algorithms:
        print(f"  {name:<22} {score:.3f}")
    return 0


def _cmd_rules(args: argparse.Namespace) -> int:
    knowledge_base = _load_knowledge_base(args.knowledge_base)
    rules = derive_guidance_rules(
        knowledge_base, threshold=args.threshold, min_observations=args.min_observations
    )
    print(guidance_report(rules))
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    if args.algorithm not in CLASSIFIER_REGISTRY:
        raise ReproError(f"unknown algorithm {args.algorithm!r}; choose from {sorted(CLASSIFIER_REGISTRY)}")
    dataset = _load_dataset(args.data, args.target, args.identifier)
    factory = CLASSIFIER_REGISTRY[args.algorithm]
    if args.cross_validate:
        result = cross_validate(factory, dataset, k=args.folds)
    else:
        train, test = train_test_split(dataset, test_fraction=args.test_fraction, seed=args.seed)
        result = holdout_evaluate(factory, train, test)
    print(f"algorithm : {result.algorithm}")
    print(f"accuracy  : {result.accuracy:.3f}")
    print(f"macro F1  : {result.macro_f1:.3f}")
    print(f"kappa     : {result.kappa:.3f}")
    if args.show_rules and args.algorithm in ("decision_tree", "prism", "one_r"):
        model = factory().fit(dataset)
        description = model.describe()
        rules = description.get("rules", [])
        if args.algorithm == "decision_tree":
            rules = [
                " AND ".join(rule["conditions"]) + f" => {rule['prediction']}"
                for rule in model.extract_rules()
            ]
        print("\nrules:")
        for rule in list(rules)[: args.max_rules]:
            print(f"  {rule}")
    return 0


def _cmd_publish(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data, args.target, args.identifier)
    graph = publish_dataset(dataset, base_iri=args.base_iri)
    if args.with_quality:
        publish_quality_profile(measure_quality(dataset), dataset.name, base_iri=args.base_iri, graph=graph)
    text = to_turtle(graph) if args.format == "turtle" else to_ntriples(graph)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(graph)} triples to {args.output}")
    else:
        print(text)
    return 0


def _cmd_lod_tabulate(args: argparse.Namespace) -> int:
    from repro.tabular.io_csv import write_csv

    graph = parse_ntriples(Path(args.graph))
    properties = [IRI(p) for p in _parse_list(args.properties)] if args.properties else None
    dataset = tabulate_entities(
        graph,
        IRI(args.type),
        properties=properties,
        multivalued=args.multivalued,
        min_property_coverage=args.min_coverage,
    )
    if args.output:
        path = write_csv(dataset, args.output)
        print(f"tabulated {dataset.n_rows} rows x {dataset.n_columns} columns to {path}")
    else:
        from repro.bi.reporting import dataset_to_table_text

        print(dataset_to_table_text(dataset, max_rows=args.max_rows))
    return 0


def _cmd_lod_link(args: argparse.Namespace) -> int:
    left_graph = parse_ntriples(Path(args.left))
    right_graph = parse_ntriples(Path(args.right))
    left_properties = _parse_list(args.property)
    right_properties = _parse_list(args.right_property) if args.right_property else left_properties
    if len(left_properties) != len(right_properties):
        raise ReproError("--property and --right-property need the same number of predicates")
    rules = [
        LinkRule(IRI(left), IRI(right))
        for left, right in zip(left_properties, right_properties)
    ]
    linker = EntityLinker(rules, threshold=args.threshold)
    links = linker.link(
        left_graph, IRI(args.type), right_graph, IRI(args.right_type or args.type)
    )
    for link in links:
        print(f"{link.left}\towl:sameAs\t{link.right}\t{link.score:.4f}")
    if args.output:
        from repro.lod.graph import Graph

        sameas = Graph("http://openbi.example.org/graph/links")
        for link in links:
            sameas.add_triple(Triple(link.left, OWL.sameAs, link.right))
        to_ntriples(sameas, args.output)
        print(f"wrote {len(links)} owl:sameAs links to {args.output}")
    elif not links:
        print("no links above the threshold")
    return 0


def _cmd_store_save(args: argparse.Namespace) -> int:
    """Encode a CSV or N-Triples source into a binary store file."""
    path = Path(args.data)
    if not path.exists():
        raise ReproError(f"input file {args.data} does not exist")
    is_ntriples = args.format == "ntriples" or (args.format == "auto" and path.suffix == ".nt")
    if is_ntriples:
        graph = parse_ntriples(path)
        out = graph.save(args.output)
        print(f"stored {len(graph)} triples ({len(graph.store.columnar().terms)} terms) to {out}")
    else:
        dataset = _load_dataset(args.data, args.target, args.identifier)
        out = dataset.save(args.output)
        print(f"stored {dataset.n_rows} rows x {dataset.n_columns} columns to {out}")
    return 0


def _cmd_store_open(args: argparse.Namespace) -> int:
    """Open a store file (memory-mapped) and print a summary of its payload."""
    from repro.store import StoreFile, open_dataset, open_graph
    from repro.store.format import KIND_DATASET

    # Probe the payload kind only; the probe's map is released immediately
    # and the real open below creates its own.
    with StoreFile(args.store) as probe:
        kind = probe.kind
    if kind == KIND_DATASET:
        dataset = open_dataset(args.store, verify=args.verify)
        print(f"dataset {dataset.name!r}: {dataset.n_rows} rows x {dataset.n_columns} columns")
        for name, info in dataset.summary().items():
            print(f"  {name:<24} {info['type']:<12} {info['role']:<11} "
                  f"missing={info['n_missing']} distinct={info['n_distinct']}")
        if args.head:
            from repro.bi.reporting import dataset_to_table_text

            print()
            print(dataset_to_table_text(dataset.head(args.head)))
        dataset.close()
    else:
        graph = open_graph(args.store, verify=args.verify)
        columnar = graph.store.columnar()
        print(f"graph <{graph.identifier}>: {len(graph)} triples, {len(columnar.terms)} interned terms")
        for i, triple in enumerate(graph):
            if i >= args.head:
                break
            print(f"  {triple.n3()}")
        graph.close()
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    """Print the header and section directory of a store file."""
    from repro.store import inspect_store

    info = inspect_store(args.store, verify=args.verify)
    if args.json:
        print(json.dumps(info, indent=2))
        return 0 if not info["damaged"] else 1
    print(f"{info['path']}: format v{info['format_version']}, {info['payload']} payload, "
          f"{info['n_sections']} sections, {info['file_length']} bytes")
    print(f"{'section':<18}{'kind':<6}{'derived':<9}{'offset':>10}{'length':>12}{'count':>10}  status")
    kinds = {1: "arr", 2: "str", 3: "json"}
    for section in info["sections"]:
        print(f"{section['name']:<18}{kinds.get(section['kind'], '?'):<6}"
              f"{'yes' if section['derived'] else 'no':<9}{section['offset']:>10}"
              f"{section['length']:>12}{section['count']:>10}  {section['status']}")
    if info["damaged"]:
        print(f"damaged sections: {', '.join(info['damaged'])} "
              "(see repro.recovery.salvage_store / `repro salvage`)")
        return 1
    return 0


def _cmd_salvage(args: argparse.Namespace) -> int:
    """Salvage a partially corrupt CSV, N-Triples or store file and report on it."""
    from repro.recovery import salvage_csv, salvage_ntriples

    path = Path(args.data)
    if not path.exists():
        raise ReproError(f"input file {args.data} does not exist")
    if args.format == "store" or (args.format == "auto" and path.suffix == ".rps"):
        from repro.recovery import salvage_store
        from repro.tabular.dataset import Dataset as _Dataset

        payload, report = salvage_store(path, strict=args.strict)
        if args.output:
            if isinstance(payload, _Dataset):
                from repro.tabular.io_csv import write_csv

                write_csv(payload, args.output)
                print(f"wrote {payload.n_rows} salvaged rows to {args.output}")
            else:
                to_ntriples(payload, args.output)
                print(f"wrote {len(payload)} salvaged triples to {args.output}")
        print(report.summary())
        if args.report:
            Path(args.report).write_text(
                json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
            )
            print(f"wrote salvage report to {args.report}")
        return 0
    is_ntriples = args.format == "ntriples" or (args.format == "auto" and path.suffix == ".nt")
    if is_ntriples:
        graph, report = salvage_ntriples(path, strict=args.strict)
        if args.output:
            to_ntriples(graph, args.output)
            print(f"wrote {len(graph)} salvaged triples to {args.output}")
    else:
        from repro.tabular.io_csv import write_csv

        dataset, report = salvage_csv(
            path,
            delimiter=args.delimiter,
            encoding=args.encoding,
            strict=args.strict,
        )
        if args.output:
            write_csv(dataset, args.output)
            print(f"wrote {dataset.n_rows} salvaged rows to {args.output}")
    print(report.summary())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote salvage report to {args.report}")
    return 0


#: glibc ``mallopt`` settings ``repro serve`` pins before it opens snapshots:
#: ``M_MMAP_THRESHOLD`` (-3) at 32 MiB and ``M_TRIM_THRESHOLD`` (-1) at 64 MiB,
#: the values glibc's own dynamic thresholds converge to at their ceiling.
_SERVE_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))


def _keep_heap_resident() -> None:
    """Keep the heap a long-lived server frees, instead of returning it to the kernel.

    Each ``/reload`` frees the retired snapshot's arrays.  With glibc's
    defaults, the freed heap is trimmed and the next snapshot's slightly
    larger arrays are mapped afresh, so every fresh query after a reload
    faults tens of MB back in (docs/serving.md, "Memory").  Only the CLI
    process sets this: a library must not change the allocator of the
    process that imports it.  Skipped where ``mallopt`` is not available.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for parameter, value in _SERVE_MALLOPT:
        mallopt(parameter, value)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve snapshots over HTTP until SIGTERM/SIGINT (see docs/serving.md)."""
    import signal

    from repro.serve import ENDPOINTS, create_server

    _keep_heap_resident()
    for path in (args.store or []) + (args.graph or []):
        if not Path(path).exists():
            raise ReproError(f"snapshot file {path} does not exist")
    knowledge_base = _load_knowledge_base(args.kb) if args.kb else None
    server = create_server(
        stores=args.store,
        graphs=args.graph,
        knowledge_base=knowledge_base,
        host=args.host,
        port=args.port,
        cache_entries=args.cache_entries,
        verbose=args.verbose,
    )

    class _Shutdown(BaseException):
        """Raised by the signal handlers to break out of serve_forever.

        A ``BaseException``: socketserver logs and swallows an ``Exception``
        raised while it hands a connection to a handler thread, but closes
        the connection and re-raises anything else.
        """

    def _signalled(signum, _frame):
        raise _Shutdown(signal.Signals(signum).name)

    previous = {
        sig: signal.signal(sig, _signalled) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    names = ", ".join(server.app.registry.names())
    try:
        print(f"serving {names} on {server.url} (endpoints: {', '.join(sorted(ENDPOINTS))})",
              flush=True)
        server.serve_forever(poll_interval=0.1)
    except _Shutdown as exc:
        print(f"shutting down ({exc})", flush=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.close()
    return 0


def _post_reload(url: str, name: str) -> dict:
    """POST /reload to a running ``repro serve`` instance; returns the reply."""
    import urllib.error
    import urllib.request

    body = json.dumps({"name": name}).encode("utf-8")
    request = urllib.request.Request(
        url.rstrip("/") + "/reload",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace").strip()
        raise ReproError(f"server at {url} rejected the reload: {detail}") from exc
    except (urllib.error.URLError, OSError) as exc:
        raise ReproError(f"cannot reach the server at {url}: {exc}") from exc


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Append a feed batch to a .rps dataset store, then optionally reload a server.

    The store file is replaced atomically (write to a sibling ``.tmp``, then
    ``os.replace``), so a server currently mapping the old file keeps serving
    its snapshot untorn until ``POST /reload`` swaps it.
    """
    import os

    from repro.feeds import FeedConnector, FixtureFeed

    store_path = Path(args.store)
    if not store_path.exists():
        raise ReproError(f"store file {args.store} does not exist")
    feed = FixtureFeed(args.feed, cursor_field=args.cursor_field)
    connector = FeedConnector(feed, page_size=args.limit, throttle=args.sleep)
    rows = connector.records(since=args.since)
    base = Dataset.open(store_path)
    try:
        if not rows:
            print(f"no new records in {args.feed}"
                  + (f" after cursor {args.since!r}" if args.since else "")
                  + "; store unchanged")
            return 0
        merged = base.append_rows(rows)
        tmp = store_path.with_name(store_path.name + ".tmp")
        try:
            merged.save(tmp)
            os.replace(tmp, store_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    finally:
        base.close()
    print(f"appended {len(rows)} rows to {store_path} ({merged.n_rows} rows total)")
    if args.reload_url:
        reply = _post_reload(args.reload_url, args.reload_name or store_path.stem)
        snapshot = reply.get("snapshot", {})
        print(f"reloaded snapshot {snapshot.get('name')!r} "
              f"(fingerprint {snapshot.get('fingerprint')}, changed: {reply.get('changed')})")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.tabular.io_csv import write_csv

    generator = CIVIC_GENERATORS.get(args.name)
    if generator is None:
        raise ReproError(f"unknown civic dataset {args.name!r}; choose from {sorted(CIVIC_GENERATORS)}")
    dataset = generator(n_rows=args.rows, seed=args.seed, dirty=args.dirty)
    path = write_csv(dataset, args.output)
    print(f"wrote {dataset.n_rows} rows x {dataset.n_columns} columns to {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="OpenBI: data-quality-aware, user-friendly data mining over (linked) open data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_data_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("data", help="path to a CSV file")
        sub.add_argument("--target", help="name of the class/target column")
        sub.add_argument("--identifier", help="name of the identifier column")

    profile = subparsers.add_parser("profile", help="measure the data quality of a CSV file")
    add_data_arguments(profile)
    profile.add_argument("--reference", help="CSV file of a clean reference sample to compare against")
    profile.add_argument("--format", choices=("text", "markdown"), default="text")
    profile.add_argument("--json", action="store_true", help="emit the raw profile as JSON")
    profile.set_defaults(func=_cmd_profile)

    experiment = subparsers.add_parser("experiment", help="run the experiment campaign and build a knowledge base")
    experiment.add_argument("--data", help="CSV file with a clean reference sample")
    experiment.add_argument("--target", help="target column of --data")
    experiment.add_argument("--identifier", help="identifier column of --data")
    experiment.add_argument("--civic", default="", help="comma-separated built-in civic datasets to include")
    experiment.add_argument("--rows", type=int, default=200, help="rows per built-in civic dataset")
    experiment.add_argument("--algorithms", default="decision_tree,naive_bayes,knn,one_r")
    experiment.add_argument("--criteria", default="completeness,accuracy,balance")
    experiment.add_argument("--severities", default="0.0,0.2,0.4")
    experiment.add_argument("--mixed-severity", type=float, default=0.25)
    experiment.add_argument("--folds", type=int, default=3)
    experiment.add_argument("--output", default="dq4dm.json", help=".json or .db (SQLite) output path")
    experiment.set_defaults(func=_cmd_experiment)

    advise = subparsers.add_parser("advise", help="recommend a mining algorithm for a CSV file")
    advise.add_argument("knowledge_base", help="knowledge base file (.json or .db)")
    add_data_arguments(advise)
    advise.add_argument("--neighbours", type=int, default=7, help="nearest experiment records to average")
    advise.add_argument("--json", action="store_true", help="emit the recommendation as JSON")
    advise.set_defaults(func=_cmd_advise)

    rules = subparsers.add_parser("rules", help="derive human-readable guidance rules from a knowledge base")
    rules.add_argument("knowledge_base", help="knowledge base file (.json or .db)")
    rules.add_argument("--threshold", type=float, default=0.85)
    rules.add_argument("--min-observations", type=int, default=4)
    rules.set_defaults(func=_cmd_rules)

    mine = subparsers.add_parser("mine", help="train and evaluate one algorithm on a CSV file")
    add_data_arguments(mine)
    mine.add_argument("--algorithm", default="decision_tree", help=f"one of {sorted(CLASSIFIER_REGISTRY)}")
    mine.add_argument("--cross-validate", action="store_true", help="use k-fold CV instead of a holdout split")
    mine.add_argument("--folds", type=int, default=3)
    mine.add_argument("--test-fraction", type=float, default=0.3)
    mine.add_argument("--seed", type=int, default=0)
    mine.add_argument("--show-rules", action="store_true", help="print the induced rules (tree/1R/PRISM)")
    mine.add_argument("--max-rules", type=int, default=20)
    mine.set_defaults(func=_cmd_mine)

    publish = subparsers.add_parser("publish", help="publish a CSV file (and its quality) as Linked Open Data")
    add_data_arguments(publish)
    publish.add_argument("--format", choices=("turtle", "ntriples"), default="turtle")
    publish.add_argument("--base-iri", default="http://openbi.example.org/data/")
    publish.add_argument("--with-quality", action="store_true", help="also publish the measured quality profile")
    publish.add_argument("--output", help="write to this file instead of stdout")
    publish.set_defaults(func=_cmd_publish)

    lod = subparsers.add_parser("lod", help="work with Linked Open Data graphs (tabulate, link)")
    lod_sub = lod.add_subparsers(dest="lod_command", required=True)

    tabulate = lod_sub.add_parser("tabulate", help="pivot the instances of a class into a CSV dataset")
    tabulate.add_argument("graph", help="N-Triples file holding the LOD graph")
    tabulate.add_argument("--type", required=True, help="IRI of the class whose instances become rows")
    tabulate.add_argument("--properties", help="comma-separated predicate IRIs to use as columns")
    tabulate.add_argument("--multivalued", choices=("first", "count"), default="first")
    tabulate.add_argument("--min-coverage", type=float, default=0.0,
                          help="drop discovered properties present on fewer than this fraction of rows")
    tabulate.add_argument("--output", help="CSV path to write (default: print a table)")
    tabulate.add_argument("--max-rows", type=int, default=25, help="rows to print without --output")
    tabulate.set_defaults(func=_cmd_lod_tabulate)

    link = lod_sub.add_parser("link", help="discover owl:sameAs links between two graphs")
    link.add_argument("left", help="N-Triples file of the left graph")
    link.add_argument("right", help="N-Triples file of the right graph")
    link.add_argument("--type", required=True, help="IRI of the class to link instances of")
    link.add_argument("--right-type", help="class IRI on the right side (default: --type)")
    link.add_argument("--property", required=True,
                      help="comma-separated predicate IRIs compared on the left side")
    link.add_argument("--right-property",
                      help="predicates compared on the right side (default: same as --property)")
    link.add_argument("--threshold", type=float, default=0.85, help="minimum similarity in (0, 1]")
    link.add_argument("--output", help="write the discovered links as N-Triples to this file")
    link.set_defaults(func=_cmd_lod_link)

    store = subparsers.add_parser("store", help="save, open and inspect binary encoded store files")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_save = store_sub.add_parser("save", help="encode a CSV or N-Triples source into a .rps store file")
    store_save.add_argument("data", help="path to the CSV or N-Triples input")
    store_save.add_argument("output", help=".rps store path to write")
    store_save.add_argument("--format", choices=("auto", "csv", "ntriples"), default="auto",
                            help="input format (auto: .nt is N-Triples, anything else CSV)")
    store_save.add_argument("--target", help="name of the class/target column (CSV)")
    store_save.add_argument("--identifier", help="name of the identifier column (CSV)")
    store_save.set_defaults(func=_cmd_store_save)

    store_open = store_sub.add_parser("open", help="memory-map a store file and summarise its payload")
    store_open.add_argument("store", help=".rps store file to open")
    store_open.add_argument("--head", type=int, default=5, help="rows/triples to preview (0: none)")
    store_open.add_argument("--verify", action="store_true", help="checksum every array section up front")
    store_open.set_defaults(func=_cmd_store_open)

    store_inspect = store_sub.add_parser("inspect", help="print the header and section directory of a store file")
    store_inspect.add_argument("store", help=".rps store file to inspect")
    store_inspect.add_argument("--verify", action="store_true", help="CRC-check every section payload")
    store_inspect.add_argument("--json", action="store_true", help="emit the structural summary as JSON")
    store_inspect.set_defaults(func=_cmd_store_inspect)

    salvage = subparsers.add_parser(
        "salvage", help="tolerantly parse a partially corrupt CSV, N-Triples or store file"
    )
    salvage.add_argument("data", help="path to the (possibly corrupt) input file")
    salvage.add_argument("--format", choices=("auto", "csv", "ntriples", "store"), default="auto",
                         help="input format (auto: .nt is N-Triples, .rps is a binary store, anything else CSV)")
    salvage.add_argument("--output", help="write the salvaged CSV/N-Triples to this file")
    salvage.add_argument("--report", help="write the salvage report as JSON to this file")
    salvage.add_argument("--encoding", default="utf-8", help="expected text encoding (CSV)")
    salvage.add_argument("--delimiter", help="cell delimiter (CSV; default: sniffed)")
    salvage.add_argument("--strict", action="store_true",
                         help="route through the strict reference parser (fails on any defect)")
    salvage.set_defaults(func=_cmd_salvage)

    serve = subparsers.add_parser(
        "serve", help="serve .rps snapshots over HTTP (profile, advise, cube, KPI, LOD queries)"
    )
    serve.add_argument("--store", action="append", default=[],
                       help=".rps dataset store to serve (repeatable; named after the file stem)")
    serve.add_argument("--graph", action="append", default=[],
                       help=".rps graph store to serve (repeatable; named after the file stem)")
    serve.add_argument("--kb", help="knowledge base (.json or .db) enabling the /advise endpoint")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350,
                       help="TCP port to bind (0: let the OS pick; printed on startup)")
    serve.add_argument("--cache-entries", type=int, default=256,
                       help="maximum responses kept in the fingerprint-keyed LRU result cache")
    serve.add_argument("--verbose", action="store_true", help="log each request to stderr")
    serve.set_defaults(func=_cmd_serve)

    ingest = subparsers.add_parser(
        "ingest", help="append a feed batch to a .rps dataset store (and optionally reload a server)"
    )
    ingest.add_argument("feed", help="feed fixture: a .jsonl file or a directory of .jsonl batches")
    ingest.add_argument("store", help=".rps dataset store to append to (replaced atomically)")
    ingest.add_argument("--since", help="cursor value; only records sorting after it are ingested")
    ingest.add_argument("--cursor-field", default="datum",
                        help="record field holding the feed cursor (default: datum)")
    ingest.add_argument("--limit", type=int, default=2000, help="feed page size")
    ingest.add_argument("--sleep", type=float, default=0.0, help="seconds to wait between feed pages")
    ingest.add_argument("--reload-url",
                        help="base URL of a running `repro serve`; POST /reload there after the append")
    ingest.add_argument("--reload-name", help="snapshot name to reload (default: the store file stem)")
    ingest.set_defaults(func=_cmd_ingest)

    datasets = subparsers.add_parser("datasets", help="generate one of the built-in civic datasets as CSV")
    datasets.add_argument("name", help=f"one of {sorted(CIVIC_GENERATORS)}")
    datasets.add_argument("output", help="CSV path to write")
    datasets.add_argument("--rows", type=int, default=200)
    datasets.add_argument("--seed", type=int, default=0)
    datasets.add_argument("--dirty", action="store_true", help="generate the organically dirty variant")
    datasets.set_defaults(func=_cmd_datasets)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code (0 success, 2 usage error)."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
