"""Tabular data substrate: a typed, column-oriented dataset built on numpy.

Open data is mostly published as CSV, XML or HTML tables (paper, §1).  This
subpackage provides the in-memory representation those sources are loaded
into, plus the relational transforms and descriptive statistics that the data
quality and mining layers are built on.

The central classes are :class:`~repro.tabular.dataset.Column` and
:class:`~repro.tabular.dataset.Dataset`.  A numeric column holds ``float64``
values; every other column holds int64 codes into a first-seen level table,
and builds its object cells only when something reads them.
"""

from repro.tabular.dataset import Column, Dataset, ColumnType, ColumnRole
from repro.tabular.encoded import EncodedDataset, encode_dataset
from repro.tabular.schema import ColumnSpec, Schema, infer_schema
from repro.tabular.io_csv import read_csv, read_csv_text, write_csv, write_csv_text
from repro.tabular.io_json import read_json_records, write_json_records
from repro.tabular.io_xml import read_xml_records, write_xml_records
from repro.tabular.io_html import read_html_table, write_html_table
from repro.tabular import transforms, stats

__all__ = [
    "Column",
    "Dataset",
    "ColumnType",
    "ColumnRole",
    "EncodedDataset",
    "encode_dataset",
    "ColumnSpec",
    "Schema",
    "infer_schema",
    "read_csv",
    "read_csv_text",
    "write_csv",
    "write_csv_text",
    "read_json_records",
    "write_json_records",
    "read_xml_records",
    "write_xml_records",
    "read_html_table",
    "write_html_table",
    "transforms",
    "stats",
]
