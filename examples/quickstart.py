"""Quickstart: from a raw open-data CSV to quality-aware mining advice and BI.

Run with ``python examples/quickstart.py``.  This script is the runnable twin
of the README's quickstart section and is executed by CI so the documentation
cannot silently rot.

The script walks the whole OpenBI loop on a small synthetic civic source:

1. write a CSV file the way an open data portal would publish it — then
   corrupt a copy of it at the byte level and salvage the corrupted file
   back with the recovery tier (see docs/recovery.md);
2. load it into a typed dataset and measure its data quality profile;
3. build a small DQ4DM knowledge base by running controlled experiments;
4. ask the advisor which mining algorithm to use on the (dirty) source;
5. train the recommended algorithm and print the resulting report;
6. roll the source up into an OLAP cube and score per-district KPIs
   (computed on the vectorized encoded core — see docs/encoded-core.md);
7. publish the source as Linked Open Data, pivot the graph back into a
   dataset on the columnar LOD tier, and cube the tabulation — the
   tabulated dataset arrives with its encoding pre-seeded, so the whole
   LOD → profile → cube chain encodes it exactly once;
8. persist the source's coded columns and the published graph to binary
   store files and reopen them as zero-copy memory maps — no cell is coded
   again, and every result is bit-identical (see docs/store-format.md).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.bi import KPI, Cube, Dimension, Measure, Report, cube_report, evaluate_kpis_by_level
from repro.bi.reporting import dataset_to_table_text
from repro.core import Advisor, ExperimentPlan, ExperimentRunner, UserProfile
from repro.datasets import service_requests
from repro.datasets.civic import CIVIC, civic_lod_graph
from repro.lod.tabulate import tabulate_entities
from repro.mining import CLASSIFIER_REGISTRY, train_test_split
from repro.quality import measure_quality, quality_report
from repro.tabular import read_csv, write_csv


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="openbi-quickstart-"))

    # 1. An open data portal publishes a messy CSV.
    raw = service_requests(n_rows=240, dirty=True)
    csv_path = write_csv(raw, workdir / "service_requests.csv")
    print(f"[1] wrote raw open data to {csv_path}")

    # 1b. Files in the wild are often worse than "dirty" — bytes get mangled
    # in transit.  Simulate that with the seeded corruptors and salvage the
    # file back; the strict reader would refuse it outright.
    from repro.recovery import apply_corruptions, salvage_csv

    corrupted = apply_corruptions(
        csv_path.read_bytes(), {"ragged_rows": 0.05, "encoding": 0.05}, seed=7
    )
    salvaged, salvage_report = salvage_csv(corrupted)
    print("\n[1b] salvaged a byte-corrupted copy of the same file:")
    print("     " + salvage_report.summary().replace("\n", "\n     "))

    # 2. Load it back and measure its data quality.
    source = read_csv(csv_path).set_target("resolved_late").set_role("request_id", "identifier")
    profile = measure_quality(source)
    print("\n[2] data quality of the published source:\n")
    print(quality_report(profile))

    # 3. Build a small knowledge base from controlled experiments on a clean sample.
    clean_sample = service_requests(n_rows=240, seed=11)
    runner = ExperimentRunner(
        profile=UserProfile(name="quickstart", algorithms=("decision_tree", "naive_bayes", "knn"), cv_folds=3),
        plan=ExperimentPlan(criteria=("completeness", "accuracy", "balance"), simple_severities=(0.0, 0.2, 0.4)),
    )
    knowledge_base = runner.run([clean_sample])
    print(f"\n[3] knowledge base built: {len(knowledge_base)} experiment records")

    # 4. Ask the advisor what to mine the dirty source with.
    advisor = Advisor(knowledge_base, k=5)
    recommendation = advisor.advise(source)
    print(f"\n[4] the best option is {recommendation.best_algorithm.upper()}")
    print(f"    {recommendation.rationale}")

    # 5. Follow the advice and report the outcome.
    train, test = train_test_split(source, test_fraction=0.3, seed=0)
    model = CLASSIFIER_REGISTRY[recommendation.best_algorithm]()
    model.fit(train)
    accuracy = model.score(test)
    report = (
        Report("Quickstart: service requests")
        .add_key_values(
            "Advice",
            {
                "recommended algorithm": recommendation.best_algorithm,
                "expected score": f"{recommendation.expected_score:.3f}",
                "achieved holdout accuracy": f"{accuracy:.3f}",
            },
        )
        .add_text("Why", recommendation.rationale)
    )
    print("\n[5] final report\n")
    print(report.render("text"))

    # 6. Serve the source as BI: an OLAP cube plus per-district KPIs.
    cube = Cube(
        source,
        dimensions=[Dimension("district", ("district",)), Dimension("topic", ("topic",))],
        measures=[
            Measure("avg_resolution_days", "resolution_days", "mean"),
            Measure("requests", "resolution_days", "count"),
        ],
    )
    print("\n[6] OLAP cube over the source\n")
    print(cube_report(cube, levels=["topic"]).render("text"))
    scoreboard = evaluate_kpis_by_level(
        [KPI("avg_resolution_days", "resolution_days", target=14.0, higher_is_better=False)],
        cube,
        "district",
    )
    print("\nper-district KPI scoreboard\n")
    print(dataset_to_table_text(scoreboard))

    # 7. Publish as Linked Open Data, pivot the graph back, and cube it.
    graph = civic_lod_graph(source, entity_class="ServiceRequest")
    print(f"\n[7] published the source as LOD: {len(graph)} triples")
    pivoted = tabulate_entities(graph, CIVIC.ServiceRequest)
    lod_cube = Cube(
        pivoted,
        dimensions=[Dimension("topic", ("topic",))],
        measures=[Measure("avg_resolution_days", "resolution_days", "mean")],
    )
    print("    cube over the tabulated LOD graph (columnar tier, one shared encoding):\n")
    print(dataset_to_table_text(lod_cube.rollup("topic")))

    # 8. Persist to the binary store and reopen as memory-mapped views.
    # The file holds the coded columns, so reopening codes no cell again;
    # profiling or cubing the reopened dataset builds each view it reads
    # the way the in-memory original does, and stays bit-identical to it.
    store_path = source.save(workdir / "service_requests.rps")
    reopened = type(source).open(store_path)
    graph_path = graph.save(workdir / "service_requests_lod.rps")
    reopened_graph = type(graph).open(graph_path)
    assert measure_quality(reopened).as_dict() == profile.as_dict()
    assert len(reopened_graph) == len(graph)
    print(f"\n[8] stored and reopened: {store_path.name} "
          f"({store_path.stat().st_size} bytes, profile identical), "
          f"{graph_path.name} ({len(reopened_graph)} triples)")

    # 9. Serve the snapshot over HTTP and watch the result cache work.
    # The same query twice: the first response computes (cache miss), the
    # second replays the identical bytes from the fingerprint-keyed cache
    # (cache hit) without touching the data.  See docs/serving.md.
    import json as _json
    import threading
    import urllib.request

    from repro.serve import CACHE_HEADER, create_server

    server = create_server(stores=[store_path])
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        query = _json.dumps({"criteria": ["completeness", "balance"]}).encode()
        responses = []
        for _ in range(2):
            request = urllib.request.Request(
                server.url + "/profile", data=query,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as reply:
                responses.append((reply.headers[CACHE_HEADER], reply.read()))
        assert responses[0][0] == "miss" and responses[1][0] == "hit"
        assert responses[0][1] == responses[1][1]
        print(f"\n[9] served {store_path.name} at {server.url}: "
              f"first /profile was a cache {responses[0][0]}, "
              f"second a cache {responses[1][0]} with identical bytes")

        # 10. A feed delivers fresh rows overnight: append them (old rows are
        # never re-encoded), refresh the profile in O(|delta|), replace the
        # store atomically and POST /reload.  The new store appends rows to
        # the served one, so the server folds them into the /profile it had
        # answered and caches the new answer before it swaps: the next
        # /profile is a hit on the new content.  See docs/ingest.md.
        import os

        from repro.feeds import IncrementalProfile
        from repro.serve import FINGERPRINT_HEADER, encode_response, evaluate

        tracker = IncrementalProfile(reopened, criteria=["completeness", "balance"])
        batch = [dict(reopened.row(i)) for i in range(3)]
        merged = reopened.append_rows(batch)
        refreshed = tracker.refresh(merged)
        assert refreshed.as_dict() == measure_quality(merged, ["completeness", "balance"]).as_dict()
        tmp_path = store_path.with_name(store_path.name + ".tmp")
        merged.save(tmp_path)
        os.replace(tmp_path, store_path)
        reload_request = urllib.request.Request(
            server.url + "/reload",
            data=_json.dumps({"name": store_path.stem}).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(reload_request, timeout=30) as reply:
            swap = _json.loads(reply.read())
        assert swap["changed"] and swap["appended_rows"] == len(batch)
        request = urllib.request.Request(
            server.url + "/profile", data=query,
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as reply:
            status, fingerprint, body = reply.headers[CACHE_HEADER], reply.headers[FINGERPRINT_HEADER], reply.read()
        direct = type(source).open(store_path)
        try:
            assert body == encode_response(evaluate("/profile", direct, _json.loads(query)))
        finally:
            direct.close()
        assert status == "hit" and fingerprint == swap["snapshot"]["fingerprint"] and body != responses[0][1]
        print(f"\n[10] ingested {len(batch)} feed rows and reloaded: refresh "
              f"bit-identical to the recompute, served /profile advanced by "
              f"{swap['appended_rows']} rows, now a cache {status}")
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.close()


if __name__ == "__main__":
    main()
