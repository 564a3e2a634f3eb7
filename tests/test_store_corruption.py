"""Corruption detection and salvage tests for the binary persistence tier.

Seeded byte mutators damage specific sections, truncate the file or mangle
the header; the strict opener must raise a structured
:class:`~repro.exceptions.StoreCorruptionError` naming the offending
section (with the right salvageability verdict), and
:func:`repro.recovery.salvage_store` must recover exactly what the
surviving primaries determine.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets import service_requests
from repro.exceptions import StoreCorruptionError, StoreError
from repro.lod.publish import publish_dataset
from repro.recovery import salvage_store
from repro.store import (
    FORMAT_VERSION,
    StoreFile,
    inspect_store,
    open_dataset,
    open_graph,
    save_dataset,
    save_graph,
)


def _dataset_store(tmp_path, n_rows=60):
    dataset = service_requests(n_rows=n_rows, dirty=True)
    return dataset, save_dataset(dataset, tmp_path / "ds.rps")


def _graph_store(tmp_path, n_rows=30):
    graph = publish_dataset(service_requests(n_rows=n_rows, dirty=True))
    return graph, save_graph(graph, tmp_path / "g.rps")


def _flip_bytes(path, offset, length, seed=0, n_flips=3):
    """Flip ``n_flips`` seeded-random bytes inside ``[offset, offset+length)``."""
    rng = random.Random(seed)
    data = bytearray(path.read_bytes())
    for _ in range(n_flips):
        position = offset + rng.randrange(length)
        data[position] ^= 0xFF
    path.write_bytes(bytes(data))


def _corrupt_section(path, name, seed=0):
    section = StoreFile(path).sections[name]
    _flip_bytes(path, section.offset, section.length, seed=seed)


# -- detection: the error names the section -----------------------------------


def test_bad_magic_names_header(tmp_path):
    _, path = _dataset_store(tmp_path)
    data = bytearray(path.read_bytes())
    data[0:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(StoreCorruptionError) as excinfo:
        open_dataset(path)
    assert excinfo.value.section == "header"
    assert not excinfo.value.salvageable


def test_unsupported_version_rejected(tmp_path):
    _, path = _dataset_store(tmp_path)
    data = bytearray(path.read_bytes())
    assert data[8] == FORMAT_VERSION
    # set the version *and* refresh the header CRC so only the version is bad
    import struct
    import zlib

    for version in (0, FORMAT_VERSION + 1):
        data[8:10] = struct.pack("<H", version)
        data[44:48] = struct.pack("<I", zlib.crc32(bytes(data[:44])))
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError) as excinfo:
            open_dataset(path)
        assert "version" in str(excinfo.value)


def test_directory_damage_is_detected(tmp_path):
    _, path = _dataset_store(tmp_path)
    _flip_bytes(path, 64 + 24, 8, seed=1)  # entry 0's offset field
    with pytest.raises(StoreCorruptionError) as excinfo:
        open_dataset(path)
    assert excinfo.value.section == "directory"


def test_metadata_damage_is_detected_eagerly(tmp_path):
    _, path = _dataset_store(tmp_path)
    _corrupt_section(path, "meta", seed=2)
    with pytest.raises(StoreCorruptionError) as excinfo:
        open_dataset(path)
    assert excinfo.value.section == "meta"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_damage_is_caught_by_verify(tmp_path, seed):
    dataset, path = _dataset_store(tmp_path)
    section = f"c{seed}.cod" if seed else "c1.cod"
    _corrupt_section(path, section, seed=seed)
    # the default open is O(metadata) and does not checksum bulk arrays
    open_dataset(path)
    with pytest.raises(StoreCorruptionError) as excinfo:
        open_dataset(path, verify=True)
    assert excinfo.value.section == section
    assert excinfo.value.salvageable


def test_graph_array_damage_named_by_verify(tmp_path):
    _, path = _graph_store(tmp_path)
    _corrupt_section(path, "pos.s", seed=3)
    with pytest.raises(StoreCorruptionError) as excinfo:
        open_graph(path, verify=True)
    assert excinfo.value.section == "pos.s"


@pytest.mark.parametrize("fraction", [0.2, 0.5, 0.9])
def test_truncation_sweep_is_detected_and_salvageable(tmp_path, fraction):
    _, path = _dataset_store(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * fraction)])
    with pytest.raises((StoreCorruptionError, StoreError)) as excinfo:
        open_dataset(path)
    if isinstance(excinfo.value, StoreCorruptionError):
        assert excinfo.value.section in ("header", "directory")


def test_inspect_reports_damage(tmp_path):
    _, path = _dataset_store(tmp_path)
    _corrupt_section(path, "c1.lev", seed=4)
    info = inspect_store(path, verify=True)
    assert "c1.lev" in info["damaged"]
    statuses = {s["name"]: s["status"] for s in info["sections"]}
    assert statuses["c1.lev"] != "ok"
    assert statuses["c0.cod"] == "ok"


# -- salvage: derived rebuilt, primaries drop, vitals abort -------------------


def test_salvage_rebuilds_damaged_derived_sections(tiny_store_v1):
    dataset, path = tiny_store_v1  # version 2 writes no derived dataset section
    _corrupt_section(path, "c1.msk", seed=5)
    _corrupt_section(path, "c1.nrm", seed=6)
    result = salvage_store(path)
    assert result.payload == dataset
    assert not result.report.dropped_columns
    assert set(result.report.rebuilt_sections) == {"c1.msk", "c1.nrm"}
    assert set(result.report.damaged_sections) == {"c1.msk", "c1.nrm"}


def test_salvage_drops_column_with_damaged_primary(tmp_path):
    dataset, path = _dataset_store(tmp_path)
    _corrupt_section(path, "c1.cod", seed=7)
    result = salvage_store(path)
    dropped = result.report.dropped_columns
    assert dropped == [dataset.column_names[1]]
    assert result.payload.column_names == [
        name for name in dataset.column_names if name not in dropped
    ]
    for name in result.payload.column_names:
        assert result.payload[name] == dataset[name]
    assert "damaged section" in result.report.summary()


def test_salvage_clean_file_reports_clean(tmp_path):
    dataset, path = _dataset_store(tmp_path)
    result = salvage_store(path)
    assert result.report.is_clean
    assert result.payload == dataset
    assert "clean" in result.report.summary()
    assert result.report.to_json_dict()["is_clean"]


def test_salvage_raises_when_every_column_lost(tmp_path):
    dataset = service_requests(n_rows=20, dirty=True)
    path = save_dataset(dataset, tmp_path / "ds.rps")
    for i, name in enumerate(dataset.column_names):
        store_file = StoreFile(path)
        primary = f"c{i}.val" if f"c{i}.val" in store_file.sections else f"c{i}.cod"
        _corrupt_section(path, primary, seed=10 + i)
    with pytest.raises(StoreError):
        salvage_store(path)


def test_salvage_graph_rebuilds_derived_orders(tmp_path):
    graph, path = _graph_store(tmp_path)
    _corrupt_section(path, "pos.s", seed=8)
    _corrupt_section(path, "osp.o", seed=9)
    result = salvage_store(path)
    salvaged = result.payload
    assert len(salvaged) == len(graph)
    assert {t.n3() for t in salvaged} == {t.n3() for t in graph}
    assert "pos.s" in result.report.rebuilt_sections
    assert "osp.o" in result.report.rebuilt_sections


@pytest.mark.parametrize("vital", ["term.txt", "spo.s", "dty.tab"])
def test_salvage_graph_vital_damage_is_fatal(tmp_path, vital):
    _, path = _graph_store(tmp_path)
    _corrupt_section(path, vital, seed=11)
    with pytest.raises(StoreError):
        salvage_store(path)


def test_salvage_truncated_file_recovers_leading_columns(tmp_path):
    dataset, path = _dataset_store(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: int(len(data) * 0.7)])
    result = salvage_store(path)
    assert 0 < len(result.payload.column_names) < len(dataset.column_names)
    for name in result.payload.column_names:
        assert result.payload[name] == dataset[name]
    assert result.report.dropped_columns


# -- CLI ----------------------------------------------------------------------


def test_cli_inspect_flags_damage_and_salvage_recovers(tmp_path, capsys):
    from repro.cli.main import main

    dataset, path = _dataset_store(tmp_path)
    _corrupt_section(path, "c1.cod", seed=12)
    assert main(["store", "inspect", str(path), "--verify"]) == 1
    out_csv = tmp_path / "rescued.csv"
    report_path = tmp_path / "report.json"
    assert (
        main(
            [
                "salvage",
                str(path),
                "--output",
                str(out_csv),
                "--report",
                str(report_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "store salvage" in out
    assert out_csv.exists() and report_path.exists()


def test_cli_open_refuses_corrupt_header(tmp_path, capsys):
    from repro.cli.main import main

    _, path = _dataset_store(tmp_path)
    _flip_bytes(path, 0, 8, seed=13)
    assert main(["store", "open", str(path)]) != 0


def test_cli_salvage_strict_refuses_a_damaged_store(tmp_path, capsys):
    from repro.cli.main import main

    dataset, path = _dataset_store(tmp_path, n_rows=200)
    _corrupt_section(path, "c2.cod", seed=12)
    out_csv = tmp_path / "rescued.csv"
    assert main(["salvage", str(path), "--strict", "--output", str(out_csv)]) == 2
    assert "'c2.cod'" in capsys.readouterr().err
    assert not out_csv.exists()
    clean = save_dataset(dataset, tmp_path / "clean.rps")
    assert main(["salvage", str(clean), "--strict", "--output", str(out_csv)]) == 0
    assert "file is clean" in capsys.readouterr().out
    assert out_csv.exists()
