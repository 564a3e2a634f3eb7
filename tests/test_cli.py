"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core import KnowledgeBase
from repro.datasets import service_requests
from repro.tabular import read_csv, write_csv


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-data")
    path = directory / "requests.csv"
    write_csv(service_requests(n_rows=150, seed=5), path)
    return path


@pytest.fixture(scope="module")
def dirty_csv_path(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-dirty")
    path = directory / "requests_dirty.csv"
    write_csv(service_requests(n_rows=150, seed=5, dirty=True), path)
    return path


@pytest.fixture(scope="module")
def kb_path(tmp_path_factory, csv_path):
    directory = tmp_path_factory.mktemp("cli-kb")
    path = directory / "kb.json"
    code = main(
        [
            "experiment",
            "--data", str(csv_path),
            "--target", "resolved_late",
            "--identifier", "request_id",
            "--algorithms", "decision_tree,naive_bayes",
            "--criteria", "completeness,balance",
            "--severities", "0.0,0.3",
            "--output", str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        output = capsys.readouterr().out
        for command in ("profile", "experiment", "advise", "mine", "publish", "rules", "datasets"):
            assert command in output


class TestProfileCommand:
    def test_text_report(self, csv_path, capsys):
        assert main(["profile", str(csv_path), "--target", "resolved_late"]) == 0
        output = capsys.readouterr().out
        assert "Data quality report" in output
        assert "completeness" in output

    def test_json_output(self, csv_path, capsys):
        assert main(["profile", str(csv_path), "--target", "resolved_late", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "measures" in payload and "completeness" in payload["measures"]

    def test_reference_comparison(self, csv_path, dirty_csv_path, capsys):
        code = main(
            ["profile", str(dirty_csv_path), "--target", "resolved_late", "--reference", str(csv_path)]
        )
        assert code == 0
        assert "vs reference" in capsys.readouterr().out

    def test_unknown_target_is_an_error(self, csv_path, capsys):
        assert main(["profile", str(csv_path), "--target", "ghost"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExperimentAndAdvise:
    def test_experiment_writes_knowledge_base(self, kb_path):
        knowledge_base = KnowledgeBase.from_json(kb_path)
        assert len(knowledge_base) > 0
        assert set(knowledge_base.algorithms()) == {"decision_tree", "naive_bayes"}

    def test_experiment_with_civic_generator(self, tmp_path, capsys):
        output = tmp_path / "kb.db"
        code = main(
            [
                "experiment",
                "--civic", "municipal_budget",
                "--rows", "100",
                "--algorithms", "one_r,naive_bayes",
                "--criteria", "completeness",
                "--severities", "0.0,0.3",
                "--output", str(output),
            ]
        )
        assert code == 0
        assert output.exists()
        assert len(KnowledgeBase.from_sqlite(output)) > 0

    def test_experiment_without_sources_is_an_error(self, tmp_path, capsys):
        assert main(["experiment", "--output", str(tmp_path / "kb.json")]) == 2

    def test_advise_text(self, kb_path, dirty_csv_path, capsys):
        code = main(
            ["advise", str(kb_path), str(dirty_csv_path), "--target", "resolved_late", "--identifier", "request_id"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "the best option is" in output
        assert "full ranking" in output

    def test_advise_json(self, kb_path, dirty_csv_path, capsys):
        code = main(
            ["advise", str(kb_path), str(dirty_csv_path), "--target", "resolved_late", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_algorithm"] in {"decision_tree", "naive_bayes"}

    def test_advise_missing_kb_is_an_error(self, dirty_csv_path, capsys):
        assert main(["advise", "/nonexistent/kb.json", str(dirty_csv_path), "--target", "resolved_late"]) == 2

    def test_rules_command(self, kb_path, capsys):
        assert main(["rules", str(kb_path), "--threshold", "0.95", "--min-observations", "2"]) == 0
        output = capsys.readouterr().out
        assert "knowledge base" in output.lower()


class TestMineCommand:
    def test_holdout_evaluation(self, csv_path, capsys):
        code = main(
            ["mine", str(csv_path), "--target", "resolved_late", "--identifier", "request_id",
             "--algorithm", "naive_bayes"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "accuracy" in output and "kappa" in output

    def test_cross_validation_with_rules(self, csv_path, capsys):
        code = main(
            ["mine", str(csv_path), "--target", "resolved_late", "--identifier", "request_id",
             "--algorithm", "decision_tree", "--cross-validate", "--show-rules"]
        )
        assert code == 0
        assert "rules:" in capsys.readouterr().out

    def test_unknown_algorithm_is_an_error(self, csv_path, capsys):
        assert main(["mine", str(csv_path), "--target", "resolved_late", "--algorithm", "oracle"]) == 2


class TestPublishAndDatasets:
    def test_publish_turtle_to_stdout(self, csv_path, capsys):
        code = main(["publish", str(csv_path), "--identifier", "request_id"])
        assert code == 0
        output = capsys.readouterr().out
        assert "@prefix" in output and "qb:Observation" in output

    def test_publish_ntriples_with_quality_to_file(self, csv_path, tmp_path, capsys):
        output_path = tmp_path / "data.nt"
        code = main(
            ["publish", str(csv_path), "--target", "resolved_late", "--format", "ntriples",
             "--with-quality", "--output", str(output_path)]
        )
        assert code == 0
        text = output_path.read_text(encoding="utf-8")
        assert "dqv#value" in text or "dqv" in text

    def test_datasets_command_roundtrip(self, tmp_path, capsys):
        output_path = tmp_path / "budget.csv"
        code = main(["datasets", "municipal_budget", str(output_path), "--rows", "50", "--dirty"])
        assert code == 0
        loaded = read_csv(output_path)
        assert loaded.n_rows >= 50

    def test_datasets_unknown_name_is_an_error(self, tmp_path):
        assert main(["datasets", "weather_on_mars", str(tmp_path / "x.csv")]) == 2


class TestLodCommands:
    AIR_TYPE = "http://openbi.example.org/civic/AirQualityReading"

    @pytest.fixture(scope="class")
    def graph_paths(self, tmp_path_factory):
        from repro.datasets import air_quality
        from repro.datasets.civic import civic_lod_graph
        from repro.lod import to_ntriples

        directory = tmp_path_factory.mktemp("cli-lod")
        left = directory / "left.nt"
        right = directory / "right.nt"
        to_ntriples(civic_lod_graph(air_quality(n_rows=40, seed=1), entity_class="AirQualityReading"), left)
        # Same readings republished under a different class (and thus subject
        # IRIs), so linking on the shared dcterms:identifier finds every row.
        to_ntriples(civic_lod_graph(air_quality(n_rows=40, seed=1), entity_class="AirReading"), right)
        return left, right

    def test_tabulate_to_csv(self, graph_paths, tmp_path, capsys):
        output = tmp_path / "air.csv"
        code = main(["lod", "tabulate", str(graph_paths[0]), "--type", self.AIR_TYPE, "--output", str(output)])
        assert code == 0
        assert "tabulated 40 rows" in capsys.readouterr().out
        loaded = read_csv(output)
        assert loaded.n_rows == 40
        assert "no2" in loaded.column_names

    def test_tabulate_prints_a_table_without_output(self, graph_paths, capsys):
        code = main(["lod", "tabulate", str(graph_paths[0]), "--type", self.AIR_TYPE, "--max-rows", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "subject" in output and "more rows" in output

    def test_tabulate_unknown_class_is_an_error(self, graph_paths, capsys):
        assert main(["lod", "tabulate", str(graph_paths[0]), "--type", "http://example.org/Nothing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_link_writes_same_as_triples(self, graph_paths, tmp_path, capsys):
        output = tmp_path / "links.nt"
        code = main(
            ["lod", "link", str(graph_paths[0]), str(graph_paths[1]),
             "--type", self.AIR_TYPE,
             "--right-type", "http://openbi.example.org/civic/AirReading",
             "--property", "http://purl.org/dc/terms/identifier",
             "--threshold", "0.99", "--output", str(output)]
        )
        assert code == 0
        text = output.read_text(encoding="utf-8")
        assert "owl#sameAs" in text
        assert "wrote 40 owl:sameAs links" in capsys.readouterr().out

    def test_link_mismatched_properties_is_an_error(self, graph_paths, capsys):
        code = main(
            ["lod", "link", str(graph_paths[0]), str(graph_paths[1]),
             "--type", self.AIR_TYPE,
             "--property", "http://purl.org/dc/terms/identifier",
             "--right-property", "http://a.org/x,http://a.org/y"]
        )
        assert code == 2


class TestSalvageCommand:
    @pytest.fixture()
    def corrupt_csv(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("city,pop\nParis,2148000,SPILL\nLyon\nNice,342000\n", encoding="utf-8")
        return path

    @pytest.fixture()
    def corrupt_nt(self, tmp_path):
        path = tmp_path / "corrupt.nt"
        path.write_text(
            '<http://ex/a> <http://ex/p> "v"\n'
            "<http://ex/b> <http://ex/p> <http://ex/a> .\n"
            "garbage\n",
            encoding="utf-8",
        )
        return path

    def test_salvage_csv_with_output_and_report(self, corrupt_csv, tmp_path, capsys):
        cleaned = tmp_path / "clean.csv"
        report = tmp_path / "report.json"
        code = main(
            ["salvage", str(corrupt_csv), "--output", str(cleaned), "--report", str(report)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "cell recovery rate" in output
        assert read_csv(cleaned).column_names == ["city", "pop"]
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["is_clean"] is False
        assert payload["flag_counts"]

    def test_salvage_ntriples_auto_detected(self, corrupt_nt, tmp_path, capsys):
        cleaned = tmp_path / "clean.nt"
        assert main(["salvage", str(corrupt_nt), "--output", str(cleaned)]) == 0
        output = capsys.readouterr().out
        assert "repaired 1 lines, skipped 1 lines" in output
        assert cleaned.read_text(encoding="utf-8").count(" .") == 2

    def test_salvage_clean_file_reports_clean(self, csv_path, capsys):
        assert main(["salvage", str(csv_path)]) == 0
        assert "input was clean" in capsys.readouterr().out

    def test_salvage_strict_hatch_fails_on_corrupt_input(self, corrupt_csv, capsys):
        assert main(["salvage", str(corrupt_csv), "--strict"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_salvage_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["salvage", str(tmp_path / "nope.csv")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestStoreCommandErrors:
    def test_store_open_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["store", "open", str(tmp_path / "nope.rps")]) == 2
        assert "cannot open store" in capsys.readouterr().err

    def test_store_inspect_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["store", "inspect", str(tmp_path / "nope.rps")]) == 2
        assert "cannot open store" in capsys.readouterr().err

    def test_store_save_missing_input_is_an_error(self, tmp_path, capsys):
        assert main(["store", "save", str(tmp_path / "nope.csv"), str(tmp_path / "out.rps")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_salvage_store_format_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["salvage", str(tmp_path / "nope.rps"), "--format", "store"]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestIngestCommandErrors:
    @pytest.fixture()
    def ingest_store(self, tmp_path):
        from repro.tabular.dataset import Dataset

        path = tmp_path / "requests.rps"
        Dataset.from_rows(
            [{"city": "Paris", "pop": 2148000.0}, {"city": "Lyon", "pop": 516000.0}],
            name="requests",
        ).save(path)
        return path

    @pytest.fixture()
    def ingest_feed(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text('{"city": "Nice", "pop": 342000}\n', encoding="utf-8")
        return path

    def test_missing_feed_fixture_is_an_error(self, ingest_store, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope"), str(ingest_store)]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_missing_store_is_an_error(self, ingest_feed, tmp_path, capsys):
        assert main(["ingest", str(ingest_feed), str(tmp_path / "nope.rps")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unreachable_reload_url_is_an_error(self, ingest_feed, ingest_store, capsys):
        code = main(
            ["ingest", str(ingest_feed), str(ingest_store), "--reload-url", "http://127.0.0.1:1"]
        )
        assert code == 2
        assert "cannot reach the server" in capsys.readouterr().err

    def test_failed_save_leaves_the_store_and_no_tmp_file(self, ingest_feed, ingest_store, monkeypatch):
        from pathlib import Path

        from repro.tabular.dataset import Dataset

        def failing_save(self, path):
            Path(path).write_bytes(b"partial store")
            raise OSError("disk full")

        before = ingest_store.read_bytes()
        monkeypatch.setattr(Dataset, "save", failing_save)
        with pytest.raises(OSError, match="disk full"):
            main(["ingest", str(ingest_feed), str(ingest_store)])
        assert ingest_store.read_bytes() == before
        assert sorted(p.name for p in ingest_store.parent.iterdir()) == ["feed.jsonl", "requests.rps"]

    def test_schema_incompatible_delta_is_an_error(self, ingest_store, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"citta": "Roma"}\n', encoding="utf-8")
        assert main(["ingest", str(bad), str(ingest_store)]) == 2
        err = capsys.readouterr().err
        assert "schema-incompatible" in err and "citta" in err


class TestServeCommand:
    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-serve")
        return service_requests(n_rows=40, seed=7).save(directory / "requests.rps")

    def test_serve_missing_store_is_an_error(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "nope.rps"), "--port", "0"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_corrupt_store_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.rps"
        path.write_bytes(b"this is not a store file")
        assert main(["serve", "--store", str(path), "--port", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_without_snapshots_is_an_error(self, capsys):
        assert main(["serve", "--port", "0"]) == 2
        assert "at least one --store or --graph" in capsys.readouterr().err

    def test_serve_out_of_range_port_is_an_error(self, store_path, capsys):
        assert main(["serve", "--store", str(store_path), "--port", "99999"]) == 2
        assert "port must be in [0, 65535]" in capsys.readouterr().err

    def test_serve_duplicate_snapshot_names_is_an_error(self, store_path, tmp_path, capsys):
        clash = tmp_path / "requests.rps"
        clash.write_bytes(store_path.read_bytes())
        code = main(
            ["serve", "--store", str(store_path), "--store", str(clash), "--port", "0"]
        )
        assert code == 2
        assert "share the name" in capsys.readouterr().err

    def test_serve_sigterm_is_a_clean_shutdown(self, store_path):
        """The long-running server process exits 0 on SIGTERM."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving requests on http://" in banner
            process.send_signal(signal.SIGTERM)
            output = process.communicate(timeout=30)[0]
        finally:
            if process.poll() is None:
                process.kill()
        assert process.returncode == 0, output
        assert "shutting down (SIGTERM)" in output

    def test_serve_sigterm_while_accepting_a_connection_is_a_clean_shutdown(self, store_path):
        """A SIGTERM that lands inside ``process_request`` still stops the server."""
        import os
        import socket
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "from repro.serve.server import ReproServer\n"
            "accept = ReproServer.process_request\n"
            "def process_request(self, request, client_address):\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    accept(self, request, client_address)\n"
            "ReproServer.process_request = process_request\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-c", script, "serve", "--store", str(store_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving requests on http://" in banner
            host, port = banner.split("http://", 1)[1].split()[0].split(":")
            with socket.create_connection((host, int(port)), timeout=5):
                process.wait(timeout=5)
        finally:
            if process.poll() is None:
                process.kill()
            output = process.communicate()[0]
        assert process.returncode == 0, output
        assert "shutting down (SIGTERM)" in output
