"""Unit tests for the recovery tier: salvage readers, provenance, corruptors."""

from __future__ import annotations

import json

import numpy as np
import pytest
from parity import on_reference

from repro.exceptions import ExperimentError, SchemaError
from repro.lod.serialization import parse_ntriples, to_ntriples
from repro.quality import CompletenessCriterion, SalvageCriterion, measure_quality
from repro.quality.profile import DEFAULT_CRITERIA
from repro.recovery import (
    CORRUPTOR_REGISTRY,
    PROVENANCE_CODES,
    PROVENANCE_NAMES,
    apply_corruptions,
    attach_provenance,
    dataset_provenance,
    get_corruptor,
    provenance_counts,
    salvage_csv,
    salvage_csv_text,
    salvage_ntriples,
)
from repro.tabular.io_csv import read_csv_text, write_csv_text

CLEAN_CSV = (
    "city,population,score\n"
    "Alicante,330000,0.91\n"
    "Matanzas,145000,0.72\n"
    "Elx,230000,0.65\n"
)

CLEAN_NT = (
    '<http://ex/a> <http://ex/p> "v" .\n'
    '<http://ex/a> <http://ex/q> "2"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
    '<http://ex/b> <http://ex/p> <http://ex/a> .\n'
)


class TestCleanEquivalence:
    def test_clean_text_bit_identical(self):
        dataset, report = salvage_csv_text(CLEAN_CSV)
        assert dataset == read_csv_text(CLEAN_CSV)
        assert report.is_clean
        assert report.cell_recovery_rate == 1.0
        assert dataset_provenance(dataset) is None

    def test_clean_bytes_bit_identical(self):
        dataset, report = salvage_csv(CLEAN_CSV.encode())
        assert dataset == read_csv_text(CLEAN_CSV)
        assert report.is_clean and report.encoding == "utf-8"

    def test_clean_file_bit_identical(self, tmp_path):
        path = tmp_path / "clean.csv"
        path.write_text(CLEAN_CSV, encoding="utf-8")
        dataset, report = salvage_csv(path)
        assert dataset == read_csv_text(CLEAN_CSV)
        assert report.is_clean

    def test_force_strict_hatch(self):
        dataset, report = salvage_csv_text(CLEAN_CSV, strict=True)
        assert dataset == read_csv_text(CLEAN_CSV)
        assert report.is_clean
        with pytest.raises(SchemaError):
            salvage_csv_text("a,b\n1,2,3\n", strict=True)

    def test_clean_quality_profile_identical(self):
        strict_profile = measure_quality(read_csv_text(CLEAN_CSV))
        salvaged_profile = measure_quality(salvage_csv_text(CLEAN_CSV).dataset)
        assert strict_profile.to_json_dict() == salvaged_profile.to_json_dict()

    def test_crlf_round_trip_identical(self):
        # write_csv_text emits \r\n terminators; both tiers must agree on it.
        text = write_csv_text(read_csv_text(CLEAN_CSV))
        dataset, report = salvage_csv_text(text)
        assert dataset == read_csv_text(text)
        assert report.is_clean

    def test_empty_and_header_only_raise_like_strict(self):
        with pytest.raises(SchemaError):
            salvage_csv_text("   ")
        with pytest.raises(SchemaError):
            salvage_csv_text("a,b\n")


class TestCsvRepairs:
    def test_long_row_truncated_and_flagged(self):
        dataset, report = salvage_csv_text("a,b\nx,1,SPILL\ny,2\n")
        assert dataset.n_rows == 2
        assert list(dataset["a"].values) == ["x", "y"]
        assert report.flag_counts == {"TRUNCATED": 1}
        assert any(e["action"] == "row_truncated" for e in report.events)

    def test_short_row_padded_and_flagged(self):
        dataset, report = salvage_csv_text("a,b,c\nx,1,2\ny\n")
        assert dataset.n_rows == 2
        assert report.flag_counts == {"PADDED": 2}
        provenance = dataset_provenance(dataset)
        assert provenance is not None
        assert int(provenance["b"][1]) == PROVENANCE_CODES["PADDED"]

    def test_unbalanced_quote_healed(self):
        dataset, report = salvage_csv_text('a,b\n"x,1\ny,2\n')
        assert dataset.n_rows == 2
        assert list(dataset["a"].values) == ["x", "y"]
        assert "QUOTE_REPAIRED" in report.flag_counts
        assert any(e["action"] == "unbalanced_quote_healed" for e in report.events)

    def test_embedded_newline_rejoined(self):
        dataset, report = salvage_csv_text("a,b\nAli\ncante,1\nElx,2\n")
        assert dataset.n_rows == 2
        assert list(dataset["a"].values) == ["Alicante", "Elx"]
        assert report.flag_counts == {"REJOINED": 1}

    def test_duplicate_and_empty_header_disambiguated(self):
        dataset, report = salvage_csv_text("a,,a\n1,2,3\n")
        assert dataset.column_names == ["a", "column_2", "a__2"]
        assert sum(1 for e in report.events if e["action"] == "header_repaired") == 2

    def test_coercion_failure_becomes_missing(self):
        dataset, report = salvage_csv_text(
            "a,b\nx,1\ny,oops\n", ctypes={"b": "numeric"}
        )
        assert np.isnan(dataset["b"].values[1])
        assert report.flag_counts == {"COERCED_MISSING": 1}

    def test_latin1_fallback_decodes_accents(self):
        data = "name,val\ncafé,1\n".encode("latin-1")
        dataset, report = salvage_csv(data)
        assert dataset["name"].values[0] == "café"
        assert report.encoding == "latin-1"
        assert not report.is_clean

    def test_lossy_decode_flags_replaced_cells(self):
        # 0x80 is both invalid UTF-8 and a C1 control as latin-1, forcing the
        # lossy replacement decode.
        data = b"name,val\nbad\x80cell,1\nfine,2\n"
        dataset, report = salvage_csv(data)
        assert report.encoding == "utf-8+replace"
        assert report.n_replaced_characters == 1
        assert report.flag_counts.get("ENCODING_REPLACED") == 1
        assert "�" in dataset["name"].values[0]

    def test_legitimate_replacement_char_not_flagged(self):
        dataset, report = salvage_csv_text("a,b\n�,1\nx,2\n")
        assert report.is_clean
        assert dataset == read_csv_text("a,b\n�,1\nx,2\n")

    def test_stray_carriage_return_recovered(self):
        dataset, report = salvage_csv_text("a,b\nx\r,1\ny,2\n")
        assert dataset.n_rows == 2
        assert any(e["action"] == "reader_error_recovered" for e in report.events)

    def test_report_json_round_trips(self):
        _, report = salvage_csv_text("a,b\nx,1,SPILL\n")
        decoded = json.loads(json.dumps(report.to_json_dict()))
        assert decoded["flag_counts"] == {"TRUNCATED": 1}
        assert decoded["is_clean"] is False
        assert "TRUNCATED" in report.summary()


class TestNtSalvage:
    def test_clean_graph_identical(self):
        strict = parse_ntriples(CLEAN_NT)
        graph, report = salvage_ntriples(CLEAN_NT)
        assert to_ntriples(graph) == to_ntriples(strict)
        assert report.is_clean and report.n_triples == 3

    def test_missing_dot_repaired(self):
        graph, report = salvage_ntriples('<http://ex/a> <http://ex/p> "v"\n')
        assert len(graph) == 1
        assert report.n_repaired == 1
        assert report.events[0]["action"] == "repaired_missing_dot"

    def test_trailing_garbage_repaired(self):
        graph, report = salvage_ntriples('<http://ex/a> <http://ex/p> "v" . ###junk\n')
        assert len(graph) == 1
        assert report.events[0]["action"] == "repaired_trailing_garbage"

    def test_unparseable_line_skipped_with_diagnostics(self):
        source = CLEAN_NT + "complete garbage\n"
        graph, report = salvage_ntriples(source)
        assert len(graph) == 3
        assert report.n_skipped == 1
        assert report.events[0]["line"] == 4
        assert "complete garbage" in report.events[0]["detail"]
        assert report.line_recovery_rate == pytest.approx(3 / 4)

    def test_force_strict_hatch(self):
        graph, report = salvage_ntriples(CLEAN_NT, strict=True)
        assert to_ntriples(graph) == to_ntriples(parse_ntriples(CLEAN_NT))
        from repro.exceptions import LODError

        with pytest.raises(LODError):
            salvage_ntriples("garbage\n", strict=True)

    def test_path_source(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(CLEAN_NT, encoding="utf-8")
        graph, report = salvage_ntriples(path)
        assert len(graph) == 3 and report.is_clean


class TestCorruptors:
    @pytest.mark.parametrize("name", sorted(CORRUPTOR_REGISTRY))
    def test_severity_zero_is_identity(self, name):
        payload = CLEAN_CSV.encode() if not name.startswith("nt_") else CLEAN_NT.encode()
        assert get_corruptor(name).apply(payload, 0.0, seed=1) == payload

    @pytest.mark.parametrize("name", sorted(CORRUPTOR_REGISTRY))
    def test_seeded_determinism(self, name):
        payload = CLEAN_CSV.encode() if not name.startswith("nt_") else CLEAN_NT.encode()
        first = get_corruptor(name).apply(payload, 0.8, seed=3)
        second = get_corruptor(name).apply(payload, 0.8, seed=3)
        assert first == second

    def test_severity_validated(self):
        with pytest.raises(ExperimentError):
            get_corruptor("ragged_rows").apply(b"a,b\n1,2\n", 1.5)

    def test_unknown_corruptor_rejected(self):
        with pytest.raises(ExperimentError):
            get_corruptor("nope")
        with pytest.raises(ExperimentError):
            apply_corruptions(b"x", {"nope": 0.5})

    def test_apply_corruptions_registry_order(self):
        payload = CLEAN_CSV.encode()
        spec = {"encoding": 0.5, "ragged_rows": 0.5}
        # dict order at the call site must not matter
        assert apply_corruptions(payload, spec, seed=1) == apply_corruptions(
            payload, dict(reversed(list(spec.items()))), seed=1
        )


class TestRoundTripProperty:
    """Seeded corrupt → salvage → profile sweeps: salvage must never raise."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("severity", [0.1, 0.4, 0.8])
    def test_csv_sweep_never_raises(self, seed, severity):
        base = "id,name,val\n" + "".join(
            f"{i},item_{i},{i * 0.5}\n" for i in range(40)
        )
        corrupted = apply_corruptions(
            base.encode(),
            {
                "ragged_rows": severity,
                "quotes": severity,
                "newlines": severity,
                "encoding": severity,
                "truncated_file": severity * 0.2,
            },
            seed=seed,
        )
        dataset, report = salvage_csv(corrupted)
        assert dataset.n_rows >= 1
        profile = measure_quality(dataset)
        assert set(profile.as_dict()) == set(DEFAULT_CRITERIA)
        # the report's aggregate counts always match the attached provenance
        provenance = dataset_provenance(dataset)
        if provenance is not None:
            assert provenance_counts(provenance) == report.flag_counts
            assert all(len(flags) == dataset.n_rows for flags in provenance.values())

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("severity", [0.2, 0.6, 1.0])
    def test_nt_sweep_never_raises(self, seed, severity):
        corrupted = apply_corruptions(
            (CLEAN_NT * 10).encode(),
            {"nt_dots": severity, "nt_garbage": severity * 0.5},
            seed=seed,
        )
        graph, report = salvage_ntriples(corrupted.decode("utf-8", errors="replace"))
        assert report.n_triples + report.n_skipped > 0
        assert 0.0 <= report.line_recovery_rate <= 1.0

    def test_severity_zero_sweep_is_clean(self):
        corrupted = apply_corruptions(
            CLEAN_CSV.encode(), {name: 0.0 for name in CORRUPTOR_REGISTRY}, seed=0
        )
        assert corrupted == CLEAN_CSV.encode()
        dataset, report = salvage_csv(corrupted)
        assert report.is_clean and dataset == read_csv_text(CLEAN_CSV)


class TestQualityIntegration:
    def test_salvage_criterion_without_provenance(self):
        measure = SalvageCriterion().measure(read_csv_text(CLEAN_CSV))
        assert measure.score == 1.0
        assert measure.details["has_provenance"] is False

    def test_salvage_criterion_scores_flagged_fraction(self):
        dataset, _ = salvage_csv_text("a,b\nx,1,SPILL\ny\n")
        measure = SalvageCriterion().measure(dataset)
        assert measure.details["has_provenance"] is True
        assert measure.details["flag_counts"] == {"PADDED": 1, "TRUNCATED": 1}
        assert measure.score == pytest.approx(1.0 - 2 / 4)

    def test_salvage_criterion_not_in_default_profile(self):
        assert "salvage" not in DEFAULT_CRITERIA
        profile = measure_quality(read_csv_text(CLEAN_CSV))
        assert "salvage" not in profile.as_dict()

    def test_salvage_criterion_in_explicit_profile(self):
        dataset, _ = salvage_csv_text("a,b\nx,1,SPILL\ny\n")
        profile = measure_quality(dataset, criteria=[*DEFAULT_CRITERIA, "salvage"])
        assert profile.score("salvage") == pytest.approx(0.5)

    def test_completeness_surfaces_salvage_counts(self):
        dataset, _ = salvage_csv_text("a,b\nx,1,SPILL\ny\n")
        measure = CompletenessCriterion().measure(dataset)
        assert measure.details["salvage"] == {"PADDED": 1, "TRUNCATED": 1}

    def test_completeness_has_no_salvage_detail_on_strict_datasets(self):
        measure = CompletenessCriterion().measure(read_csv_text(CLEAN_CSV))
        assert "salvage" not in measure.details

    def test_completeness_encoded_row_parity_with_provenance(self):
        from repro.tabular.encoded import encode_dataset

        dataset, _ = salvage_csv_text("a,b\nx,1,SPILL\ny\n")
        encoded = encode_dataset(dataset)
        criterion = CompletenessCriterion()
        assert criterion.measure_encoded(encoded) == on_reference(criterion.measure_encoded, encoded)


class TestProvenanceHelpers:
    def test_codes_and_names_are_inverse(self):
        assert PROVENANCE_CODES == {name: code for code, name in PROVENANCE_NAMES.items()}

    def test_counts_respect_column_selection(self):
        provenance = {
            "a": np.array([0, 1, 2], dtype=np.int8),
            "b": np.array([0, 0, 4], dtype=np.int8),
        }
        assert provenance_counts(provenance) == {
            "PADDED": 1,
            "TRUNCATED": 1,
            "COERCED_MISSING": 1,
        }
        assert provenance_counts(provenance, columns=["b"]) == {"COERCED_MISSING": 1}
        assert provenance_counts(provenance, columns=["missing"]) == {}

    def test_attach_is_per_instance(self):
        dataset = read_csv_text(CLEAN_CSV)
        flags = {name: np.zeros(dataset.n_rows, dtype=np.int8) for name in dataset.column_names}
        attach_provenance(dataset, flags)
        assert dataset_provenance(dataset) is flags
        assert dataset_provenance(dataset.take([0, 1])) is None
