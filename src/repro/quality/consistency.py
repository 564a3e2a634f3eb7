"""Consistency: agreement of the data with declared structural rules."""

from __future__ import annotations

from repro.quality.criteria import Criterion, CriterionMeasure, register_criterion
from repro.tabular.dataset import Dataset
from repro.tabular.encoded import EncodedDataset
from repro.tabular.schema import Schema, infer_schema, inferred_schema_name


@register_criterion
class ConsistencyCriterion(Criterion):
    """Fraction of cells that do not violate the (given or inferred) schema.

    With an explicit clean-reference schema this measures true rule
    violations (domains, ranges, nullability, uniqueness, row rules).  When no
    schema is given, a permissive schema is inferred from the dataset itself,
    so only internally contradictory aspects (e.g. duplicated values in a
    unique column) are counted.
    """

    name = "consistency"
    description = "Fraction of cells consistent with the declared/inferred schema."

    def __init__(self, schema: Schema | None = None) -> None:
        """Validate against ``schema``, or against one inferred from each dataset."""
        self.schema = schema

    def measure(self, dataset: Dataset) -> CriterionMeasure:
        """Count the schema violations, row by row."""
        schema = self.schema or infer_schema(dataset)
        violations = schema.validate(dataset)
        n_cells = dataset.n_rows * dataset.n_columns
        per_kind: dict[str, int] = {}
        for violation in violations:
            per_kind[violation.kind] = per_kind.get(violation.kind, 0) + 1
        score = 1.0 - min(len(violations) / n_cells, 1.0) if n_cells else 1.0
        return CriterionMeasure(
            criterion=self.name,
            score=score,
            details={
                "n_violations": len(violations),
                "violations_by_kind": per_kind,
                "schema": schema.name,
            },
        )

    def _measure_encoded(self, encoded: EncodedDataset) -> CriterionMeasure | None:
        if not self._uses_reference_measure(ConsistencyCriterion):
            return None
        if self.schema is not None:
            # An explicit schema can carry arbitrary row rules and raw-value
            # domains; only the reference path can honour those faithfully.
            return None
        # Without an explicit schema the reference path infers one from the
        # dataset itself and then validates the dataset against it.  That
        # schema is permissive by construction: specs copy each column's type,
        # bounds are the observed min/max, domains are the observed distinct
        # values, columns with missing cells are marked nullable, and neither
        # uniqueness nor row rules are ever inferred — so validation provably
        # returns zero violations and the O(cells) walk only re-derives what
        # is true by construction.  This bakes that invariant in: if
        # ``infer_schema``/``validate`` ever grows a check that can fire on a
        # schema's own source dataset, this shortcut must be revisited — the
        # row-vs-encoded equivalence tests (unit and property-based) exist to
        # catch exactly that drift.
        return CriterionMeasure(
            criterion=self.name,
            score=1.0,
            details={
                "n_violations": 0,
                "violations_by_kind": {},
                "schema": inferred_schema_name(encoded.dataset.name),
            },
        )
