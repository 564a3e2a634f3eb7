"""The one harness behind the ``bench_perf_*`` tier benches.

Each tier bench times a fast tier against its bit-identical reference tier.
A bench module declares only what is its own:

``cases(**size)``
    Runs every case at one size and returns ``{case: fields}``, each built
    with :func:`case`: ``fast_s`` and ``ref_s`` (best wall time of the fast
    and the reference tier), ``speedup = ref_s / fast_s``, ``identical``
    (whether the two tiers' outputs match bit for bit) and any extra field a
    document reads.
``FULL`` and ``QUICK``
    ``{label: size}`` keyword sets for ``cases``: every size of a full run,
    and the one reduced size the CI guard reruns.
``GUARDED``
    The cases whose speedup the guard holds to its recorded value.
``EXACT_FIELDS`` (optional)
    Case fields holding deterministic values that a quick run must
    reproduce within :data:`EXACT_TOLERANCE`.
``check(sizes)``
    Asserts the full-size bars.

``python benchmarks/bench_perf_<name>.py`` runs every size, writes
``BENCH_perf_<name>.json`` at the repository root, prints the table and
asserts identity and the bars.  ``--quick`` reruns the quick size against
that file (:func:`guard`).  The file's schema is::

    {"sizes": {"<label>": {"<case>": {fields}}},
     "quick": {"size": "<label>", "<case>": {fields}}}

docs/benchmarks.md describes the rule and every bench.
"""

from __future__ import annotations

import argparse
import json
import struct
import time
from pathlib import Path

from repro.lod.graph import Graph
from repro.tabular.dataset import ColumnType
from repro.tabular.encoded import _CACHE_ATTR, encode_dataset

ROOT = Path(__file__).resolve().parent.parent
#: A guarded case fails the guard when its speedup drops below its recorded
#: speedup divided by this factor: loose enough for machine jitter, tight
#: enough to catch a hot path that fell back to its reference tier.
REGRESSION_FACTOR = 2.0
#: How far a deterministic value may drift from its record (float noise only).
EXACT_TOLERANCE = 1e-9
#: The fields every case has; anything else a case records is printed as extra.
_FIELDS = ("fast_s", "ref_s", "speedup", "identical")


def timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return its last value and the best wall time."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def case(fast_s: float, ref_s: float, identical: bool, **extra) -> dict:
    """One case's fields in the baseline schema."""
    return {
        "fast_s": fast_s,
        "ref_s": ref_s,
        "speedup": ref_s / fast_s if fast_s > 0 else float("inf"),
        "identical": bool(identical),
        **extra,
    }


def bits(value):
    """A bit-exact comparison key: floats by their IEEE-754 bytes."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def identical(a, b) -> bool:
    """Bit-exact dataset equality: column order, ctypes, row order, float bits."""
    if a.column_names != b.column_names or a.n_rows != b.n_rows:
        return False
    return all(
        a[name].ctype == b[name].ctype
        and list(map(bits, a[name].tolist())) == list(map(bits, b[name].tolist()))
        for name in a.column_names
    )


def encoded_bytes(dataset) -> dict[str, bytes]:
    """Every encoded view of ``dataset`` as raw bytes: the bit-identity witness of an encoding."""
    encoded = encode_dataset(dataset)
    views: dict[str, bytes] = {}
    for column in dataset.columns:
        name = column.name
        values, missing = encoded.numeric_view(name)
        views[f"{name}.num"] = values.tobytes()
        views[f"{name}.nmk"] = missing.tobytes()
        if column.ctype != ColumnType.NUMERIC:
            codes, vocabulary, _ = encoded.codes_view(name)
            views[f"{name}.cod"] = codes.tobytes()
            views[f"{name}.lev"] = "\x00".join(str(v) for v in vocabulary).encode()
            views[f"{name}.nrm"] = "\x00".join(encoded.normalised_levels(name)).encode()
    return views


def compare(fast, ref, repeats: int = 1, same=identical) -> dict:
    """Time ``fast`` then ``ref`` (best of ``repeats``) and compare their values with ``same``."""
    fast_value, fast_s = timed(fast, repeats)
    ref_value, ref_s = timed(ref, repeats)
    return case(fast_s, ref_s, same(fast_value, ref_value))


def drop_caches(payload) -> None:
    """Forget a dataset's encoding or a graph's columnar snapshot, so the next run rebuilds it."""
    if isinstance(payload, Graph):
        payload.store._columnar = None
    elif hasattr(payload, _CACHE_ATTR):
        delattr(payload, _CACHE_ATTR)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print an aligned results table (the rows the paper's tables would hold)."""
    rendered = [[f"{cell:.3f}" if isinstance(cell, float) else str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header]
    for cells in rendered:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    print("  ".join("-" * widths[i] for i in range(len(header))))
    for cells in rendered:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)))


def record(bench, baseline: Path) -> dict:
    """Run every full size and then the quick size; write both to ``baseline``."""
    results = {"sizes": {label: bench.cases(**size) for label, size in bench.FULL.items()}}
    ((label, size),) = bench.QUICK.items()
    results["quick"] = {"size": label, **bench.cases(**size)}
    baseline.write_text(json.dumps(results, indent=2) + "\n")
    return results


def _reproduces(value, recorded) -> bool:
    return (
        isinstance(recorded, list)
        and len(value) == len(recorded)
        and all(abs(a - b) <= EXACT_TOLERANCE for a, b in zip(value, recorded))
    )


def guard(bench, baseline: Path) -> int:
    """Rerun the quick size against ``baseline``; return 0 when it holds, else 1.

    Every case must still be identical, every guarded case must keep at
    least ``1 / REGRESSION_FACTOR`` of its recorded speedup, and every
    ``EXACT_FIELDS`` value must reproduce its record.  A missing baseline,
    one recorded at another quick size or without a guarded case, and a
    quick run that raises all fail too.
    """
    ((label, size),) = bench.QUICK.items()
    if not baseline.exists():
        print(f"perf guard: no baseline at {baseline}; run the full benchmark first")
        return 1
    recorded = json.loads(baseline.read_text()).get("quick", {})
    missing = [name for name in bench.GUARDED if name not in recorded]
    if recorded.get("size") != label or missing:
        print(
            f"perf guard: stale baseline (quick size {recorded.get('size')!r}, want {label!r}; "
            f"missing guarded cases: {missing or 'none'}); rerun the full benchmark"
        )
        return 1
    try:
        current = bench.cases(**size)
    except Exception as exc:  # noqa: BLE001 - any failure of the quick run fails the guard
        print(f"perf guard: the quick run raised {exc!r}")
        return 1
    failed = False
    for name, now in current.items():
        base = recorded.get(name, {})
        problems = [] if now["identical"] else ["DIVERGED from the reference tier"]
        if name in bench.GUARDED and now["speedup"] < base["speedup"] / REGRESSION_FACTOR:
            problems.append(f"REGRESSED below {base['speedup'] / REGRESSION_FACTOR:.2f}x")
        for field in getattr(bench, "EXACT_FIELDS", ()):
            if field in now and not _reproduces(now[field], base.get(field)):
                problems.append(f"{field} DRIFTED: {now[field]} != recorded {base.get(field)}")
        print(
            f"perf guard: {name}@{label}: {now['speedup']:.2f}x "
            f"(baseline {base.get('speedup', float('nan')):.2f}x) {'; '.join(problems) or 'ok'}"
        )
        failed = failed or bool(problems)
    print(f"perf guard: {'FAILED' if failed else 'within budget'}")
    return int(failed)


def main(bench, argv: list[str] | None = None) -> int:
    """Entry point of every tier bench: a full run, or ``--quick`` for the CI guard."""
    title = bench.__doc__.splitlines()[0]
    parser = argparse.ArgumentParser(description=title)
    parser.add_argument(
        "--quick", action="store_true", help="rerun the quick size against the recorded baseline"
    )
    args = parser.parse_args(argv)
    baseline = ROOT / (Path(bench.__file__).stem.replace("bench_", "BENCH_", 1) + ".json")
    if args.quick:
        return guard(bench, baseline)
    results = record(bench, baseline)
    quick = {name: fields for name, fields in results["quick"].items() if name != "size"}
    rows = []
    for label, cases in [*results["sizes"].items(), (results["quick"]["size"], quick)]:
        for name, fields in cases.items():
            extra = {key: value for key, value in fields.items() if key not in _FIELDS}
            rows.append([
                f"{name}@{label}", fields["fast_s"], fields["ref_s"], fields["speedup"],
                "yes" if fields["identical"] else "NO", json.dumps(extra) if extra else "",
            ])
    print_table(title, ["case", "fast_s", "ref_s", "speedup", "identical", "extra"], rows)
    diverged = [row[0] for row in rows if row[4] == "NO"]
    assert not diverged, f"fast tier diverged from the reference tier: {diverged}"
    bench.check(results["sizes"])
    print(f"\nresults written to {baseline}")
    return 0
