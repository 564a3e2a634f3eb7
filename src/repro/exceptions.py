"""Exception hierarchy shared by every subpackage.

All exceptions raised on purpose by the library derive from
:class:`ReproError`, so callers can catch one base class when they only care
about "the library rejected my input" versus genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A dataset, schema or metamodel element was malformed or inconsistent."""


class DataQualityError(ReproError):
    """A data quality criterion could not be measured on the given data."""


class MiningError(ReproError):
    """A mining algorithm was misused (e.g. predict before fit, bad shapes)."""


class ExperimentError(ReproError):
    """An experiment plan or run was invalid (unknown injector, bad severity…)."""


class KnowledgeBaseError(ReproError):
    """The DQ4DM knowledge base rejected an operation (empty KB, bad query…)."""


class LODError(ReproError):
    """A Linked Open Data operation failed (bad term, parse error, bad query)."""


class OLAPError(ReproError):
    """An OLAP cube operation was invalid (unknown dimension, measure…)."""


class ServeError(ReproError):
    """The serving tier rejected a request or was misconfigured.

    Raised for malformed endpoint queries (unknown columns, bad pattern
    syntax, missing required parameters), references to snapshots the
    registry does not hold, and invalid server configuration (bad port,
    no snapshots).  The HTTP front end maps it to a structured 4xx JSON
    response; callers using :class:`repro.serve.ReproApp` directly catch
    it like any other :class:`ReproError`.
    """


class StoreError(ReproError):
    """A binary encoded-store file could not be written or opened."""


class StoreCorruptionError(StoreError):
    """A store file failed checksum or bounds validation.

    The error pinpoints the offending section so callers can decide whether
    the file is worth salvaging: ``section`` names the section (or the
    pseudo-sections ``"header"`` / ``"directory"``), ``reason`` describes the
    failed check, and ``salvageable`` is ``True`` when the damage is limited
    to sections the tolerant tier (:func:`repro.recovery.salvage_store`) can
    drop or rebuild from the surviving primaries.
    """

    def __init__(self, path, section: str, reason: str, salvageable: bool = False) -> None:
        self.path = str(path)
        self.section = section
        self.reason = reason
        self.salvageable = salvageable
        hint = "; repro.recovery.salvage_store may recover it" if salvageable else ""
        super().__init__(f"store {self.path}: section {section!r}: {reason}{hint}")


class FeedError(ReproError):
    """A feed connector operation failed (missing fixture, exhausted retries…)."""


class FeedTransientError(FeedError):
    """A transient feed failure that the connector may retry.

    Feed backends raise this subclass for recoverable conditions (a flaky
    page fetch, a momentarily unavailable batch file); the connector's
    retry loop catches exactly this class, sleeps, and tries again up to
    its ``max_retries`` budget before giving up with a plain
    :class:`FeedError`.
    """
