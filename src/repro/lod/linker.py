"""Entity linking across open data sources.

Integrating "different open data sources" (paper, §1) requires discovering
that a resource in one source denotes the same real-world entity as a resource
in another.  The :class:`EntityLinker` compares resources of given types using
declarative :class:`LinkRule` objects and emits ``owl:sameAs`` triples.

Linking follows the library-wide two-tier protocol (``docs/encoded-core.md``):

* the **reference tier** scores every candidate pair of resources with a
  Python double loop (:meth:`EntityLinker._link_pairwise`);
* the **blocked tier** (default when every rule uses the default
  :func:`string_similarity` comparator) prunes the pair space first —
  token-id blocking with a vectorized token-set Jaccard over the inverted
  index, plus a character-multiset upper bound on the edit similarity — and
  falls back to the exact pairwise scorer (including :func:`levenshtein`)
  only on the surviving candidates.  Both the pruning bounds are true upper
  bounds on :func:`string_similarity`, so every pair that could reach the
  linker's threshold survives and the emitted link set and scores are
  identical to the reference tier.

Inside :func:`repro.tiers.reference` linking runs the reference tier;
custom comparators fall back to it automatically.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import LODError
from repro.lod.graph import Graph
from repro.lod.terms import IRI, Literal, Predicate, Subject, Triple
from repro.lod.vocabulary import OWL
from repro.tabular.encoded import distinct_sorted
from repro.tiers import use_reference

#: When active (inside ``EntityLinker.link``/``score_pair``), memoises
#: ``normalise_string`` per distinct raw string so the costly Unicode
#: normalisation runs once per value instead of once per candidate pair.
_NORMALISE_MEMO: dict[str, str] | None = None


@contextmanager
def _memoised_normalise():
    """Activate the per-string ``normalise_string`` memo for a linking run."""
    global _NORMALISE_MEMO
    previous = _NORMALISE_MEMO
    if previous is None:
        _NORMALISE_MEMO = {}
    try:
        yield
    finally:
        _NORMALISE_MEMO = previous


def normalise_string(value: str) -> str:
    """Lower-case, strip accents and collapse whitespace/punctuation."""
    memo = _NORMALISE_MEMO
    if memo is not None and isinstance(value, str):
        cached = memo.get(value)
        if cached is not None:
            return cached
    text = unicodedata.normalize("NFKD", str(value))
    text = "".join(ch for ch in text if not unicodedata.combining(ch))
    text = re.sub(r"[^a-z0-9]+", " ", text.lower())
    result = " ".join(text.split())
    if memo is not None and isinstance(value, str):
        memo[value] = result
    return result


def jaccard_similarity(a: str, b: str) -> float:
    """Token Jaccard similarity between two normalised strings."""
    tokens_a = set(normalise_string(a).split())
    tokens_b = set(normalise_string(b).split())
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (used for fuzzy key matching)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def string_similarity(a: str, b: str) -> float:
    """Normalised similarity in [0, 1] combining exact, Jaccard and edit distance."""
    na, nb = normalise_string(a), normalise_string(b)
    if not na and not nb:
        return 1.0
    if na == nb:
        return 1.0
    jac = jaccard_similarity(na, nb)
    longest = max(len(na), len(nb))
    edit = 1.0 - levenshtein(na, nb) / longest if longest else 1.0
    return max(jac, edit)


@dataclass
class LinkRule:
    """How two resources should be compared.

    Parameters
    ----------
    left_property / right_property:
        Predicates whose values are compared on each side.
    comparator:
        Function (value_a, value_b) → similarity in [0, 1]; defaults to
        :func:`string_similarity`.
    weight:
        Relative weight of this rule in the aggregated score.
    """

    left_property: IRI
    right_property: IRI
    comparator: Callable[[str, str], float] = field(default=string_similarity)
    weight: float = 1.0


@dataclass(frozen=True)
class Link:
    """A discovered equivalence between two resources with its confidence."""

    left: Subject
    right: Subject
    score: float


#: Normalised strings only contain a-z, 0-9 and single spaces; the blocked
#: tier's character-multiset bound counts occurrences over this alphabet.
_CHAR_INDEX = {ch: i for i, ch in enumerate("abcdefghijklmnopqrstuvwxyz0123456789 ")}

#: Slack subtracted from the threshold when pruning with float bounds, so a
#: last-bit rounding difference can never prune a pair the exact reference
#: arithmetic would keep (similarities live in [0, 1]; one ulp is ~1e-16).
_PRUNE_SLACK = 1e-9

#: Cell budget per chunk of the character-bound matrix pass; the chunk's row
#: count scales inversely with the right side so the transient
#: ``rows × n_right_values × 37`` int32 intermediate stays ~64 MB no matter
#: how large either side is.
_CHUNK_CELL_BUDGET = 16_000_000

#: Pair budget per expansion chunk of the inverted token index (bounds the
#: transient arrays of the shared-token counting pass).
_TOKEN_PAIR_CHUNK = 2_000_000

#: Below this many (left value × right value) cells the shared-token counts
#: are accumulated into a dense bincount array instead of sorting the
#: expanded keys (≤ 128 MB, flat in the expansion size).
_DENSE_PAIR_CELLS = 16_000_000

#: Total pair-expansion budget per rule.  A token shared by a large fraction
#: of both sides (a stop word in every name) makes token blocking
#: near-quadratic; past this budget the blocked tier stops pretending and
#: routes the whole link through the pairwise reference, which is what the
#: candidate set would have degenerated to anyway.
_MAX_TOKEN_PAIR_EXPANSION = 10_000_000


class _BlockingOverflow(Exception):
    """Raised when a rule's token-pair expansion exceeds the budget."""


def _char_counts(norms: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per-value character-occurrence matrix and lengths over the normalised alphabet."""
    counts = np.zeros((len(norms), len(_CHAR_INDEX)), dtype=np.int32)
    lengths = np.zeros(len(norms), dtype=np.int32)
    for row, text in enumerate(norms):
        lengths[row] = len(text)
        for ch in text:
            counts[row, _CHAR_INDEX[ch]] += 1
    return counts, lengths


def _token_incidence(
    norms: Sequence[str], token_ids: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(token id, owning value index)`` incidence pairs plus token-set sizes.

    Tokens are interned into ``token_ids`` (shared across both sides of a
    rule) and each value contributes its *distinct* tokens, mirroring the
    token sets :func:`jaccard_similarity` compares.
    """
    tokens: list[int] = []
    owners: list[int] = []
    sizes = np.zeros(len(norms), dtype=np.int64)
    for row, text in enumerate(norms):
        distinct = set(text.split())
        sizes[row] = len(distinct)
        for token in distinct:
            tokens.append(token_ids.setdefault(token, len(token_ids)))
            owners.append(row)
    return np.asarray(tokens, dtype=np.int64), np.asarray(owners, dtype=np.int64), sizes


def _jaccard_candidates(
    ltokens: np.ndarray,
    lowners: np.ndarray,
    lsizes: np.ndarray,
    rtokens: np.ndarray,
    rowners: np.ndarray,
    rsizes: np.ndarray,
    n_right: int,
    floor: float,
) -> np.ndarray:
    """Value-pair keys (``left * n_right + right``) whose exact token Jaccard ≥ floor.

    The shared-token counts come from expanding the inverted token index:
    every token contributes the cross product of the values holding it, and
    the multiplicity of each pair key is exactly ``|A ∩ B|``.  The
    expansion is chunked by token so its transient arrays stay within
    :data:`_TOKEN_PAIR_CHUNK` pairs; a rule whose total expansion exceeds
    :data:`_MAX_TOKEN_PAIR_EXPANSION` (degenerate stop-word blocking)
    raises :class:`_BlockingOverflow` so the caller can fall back to the
    pairwise reference tier.
    """
    if ltokens.size == 0 or rtokens.size == 0:
        return np.empty(0, dtype=np.int64)
    lorder = np.argsort(ltokens, kind="stable")
    ltok_s, lown_s = ltokens[lorder], lowners[lorder]
    rorder = np.argsort(rtokens, kind="stable")
    rtok_s, rown_s = rtokens[rorder], rowners[rorder]
    shared = np.intersect1d(ltok_s, rtok_s)
    if shared.size == 0:
        return np.empty(0, dtype=np.int64)
    llo = np.searchsorted(ltok_s, shared, side="left")
    lhi = np.searchsorted(ltok_s, shared, side="right")
    rlo = np.searchsorted(rtok_s, shared, side="left")
    rhi = np.searchsorted(rtok_s, shared, side="right")
    per_token = (lhi - llo) * (rhi - rlo)
    total = int(per_token.sum())
    if total > _MAX_TOKEN_PAIR_EXPANSION:
        raise _BlockingOverflow
    if not total:
        return np.empty(0, dtype=np.int64)
    # Fill one preallocated key buffer (8 bytes per expanded pair) in chunks
    # of consecutive tokens, so the expansion *intermediates* (token_rep /
    # within / spans) never exceed the chunk budget.  A single token bigger
    # than the chunk budget becomes its own chunk; the total check above
    # bounds even that case.
    all_keys = np.empty(total, dtype=np.int64)
    cuts = [0]
    running = 0
    for position, pairs in enumerate(per_token.tolist()):
        if running + pairs > _TOKEN_PAIR_CHUNK and running:
            cuts.append(position)
            running = 0
        running += pairs
    cuts.append(shared.size)
    filled = 0
    for start, stop in zip(cuts[:-1], cuts[1:]):
        block = slice(start, stop)
        pairs = per_token[block]
        block_total = int(pairs.sum())
        if not block_total:
            continue
        token_rep = np.repeat(np.arange(stop - start), pairs)
        within = np.arange(block_total, dtype=np.int64) - np.repeat(np.cumsum(pairs) - pairs, pairs)
        r_span = (rhi[block] - rlo[block])[token_rep]
        left_values = lown_s[llo[block][token_rep] + within // r_span]
        right_values = rown_s[rlo[block][token_rep] + within % r_span]
        all_keys[filled : filled + block_total] = left_values * n_right + right_values
        filled += block_total
    # One counting pass: dense bincount over the pair space when it is small
    # enough (cheaper and flat in the expansion size), sorting otherwise.
    n_left = int(lsizes.size)
    if n_left * n_right <= _DENSE_PAIR_CELLS:
        dense = np.bincount(all_keys, minlength=n_left * n_right)
        del all_keys  # the buffer and the counting arrays are the memory peak
        keys = np.flatnonzero(dense)  # ascending, like np.unique
        intersections = dense[keys]
        del dense
    else:
        keys, intersections = np.unique(all_keys, return_counts=True)
        del all_keys
    unions = lsizes[keys // n_right] + rsizes[keys % n_right] - intersections
    return keys[intersections / unions >= floor]


def _edit_bound_candidates(
    lnorms: Sequence[str], rnorms: Sequence[str], floor: float
) -> np.ndarray:
    """Value-pair keys whose edit similarity *could* reach ``floor``.

    Uses ``levenshtein(a, b) ≥ max(len) − |char multiset intersection|``, so
    ``common / max(len)`` upper-bounds ``1 − levenshtein / max(len)``; pairs
    of empty normalised strings bound to 1.0 (their exact similarity).
    """
    lcounts, llen = _char_counts(lnorms)
    rcounts, rlen = _char_counts(rnorms)
    n_right = len(rnorms)
    chunk_rows = max(1, _CHUNK_CELL_BUDGET // max(1, n_right * len(_CHAR_INDEX)))
    keys: list[np.ndarray] = []
    for start in range(0, len(lnorms), chunk_rows):
        chunk = lcounts[start : start + chunk_rows]
        common = np.minimum(chunk[:, None, :], rcounts[None, :, :]).sum(axis=2)
        longest = np.maximum(llen[start : start + chunk_rows, None], rlen[None, :])
        bound = np.where(longest > 0, common / np.maximum(longest, 1), 1.0)
        left_values, right_values = np.nonzero(bound >= floor)
        keys.append((left_values + start) * n_right + right_values)
    return np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)


class EntityLinker:
    """Discover ``owl:sameAs`` links between two graphs (or within one graph).

    The linker scores every candidate pair of resources of the requested types
    with the weighted average of its rules and keeps pairs above ``threshold``.
    Candidate generation is blocked and vectorized (see the module
    docstring), and exhaustive inside :func:`repro.tiers.reference`.
    """

    def __init__(self, rules: Sequence[LinkRule], threshold: float = 0.85) -> None:
        """Validate the rules and the threshold."""
        if not rules:
            raise LODError("EntityLinker needs at least one LinkRule")
        if not 0.0 < threshold <= 1.0:
            raise LODError("threshold must be in (0, 1]")
        self.rules = list(rules)
        self.threshold = threshold
        #: (graph, subject, predicate) → value strings, active during a
        #: ``link``/``score_pair`` run (keys hold the graphs by identity).
        self._value_cache: dict[tuple[Graph, Subject, Predicate], list[str]] | None = None

    @contextmanager
    def _cached_lookups(self):
        """Activate the per-(graph, subject, predicate) value cache and the
        ``normalise_string`` memo for the duration of one linking run."""
        transient = self._value_cache is None
        if transient:
            self._value_cache = {}
        try:
            with _memoised_normalise():
                yield
        finally:
            if transient:
                self._value_cache = None

    def _values(self, graph: Graph, subject: Subject, predicate: IRI) -> list[str]:
        """Comparable string values of (subject, predicate), cached during a run."""
        cache = self._value_cache
        if cache is not None:
            cached = cache.get((graph, subject, predicate))
            if cached is not None:
                return cached
        values = []
        for obj in graph.store.objects(subject, predicate):
            if isinstance(obj, Literal):
                values.append(str(obj.python_value()))
            elif isinstance(obj, IRI):
                values.append(obj.local_name())
        if cache is not None:
            cache[(graph, subject, predicate)] = values
        return values

    def score_pair(self, left_graph: Graph, left: Subject, right_graph: Graph, right: Subject) -> float:
        """Weighted-average similarity between two resources."""
        with self._cached_lookups():
            total_weight = 0.0
            total_score = 0.0
            for rule in self.rules:
                left_values = self._values(left_graph, left, rule.left_property)
                right_values = self._values(right_graph, right, rule.right_property)
                if not left_values or not right_values:
                    continue
                best = max(rule.comparator(a, b) for a in left_values for b in right_values)
                total_score += rule.weight * best
                total_weight += rule.weight
            if total_weight == 0:
                return 0.0
            return total_score / total_weight

    def link(
        self,
        left_graph: Graph,
        left_type: IRI,
        right_graph: Graph,
        right_type: IRI,
    ) -> list[Link]:
        """Return every above-threshold link between instances of the two types."""
        left_subjects = left_graph.subjects_of_type(left_type)
        right_subjects = right_graph.subjects_of_type(right_type)
        vectorizable = all(rule.comparator is string_similarity for rule in self.rules)
        with self._cached_lookups():
            if use_reference() or not vectorizable:
                return self._link_pairwise(left_graph, left_subjects, right_graph, right_subjects)
            return self._link_blocked(left_graph, left_subjects, right_graph, right_subjects)

    def _link_pairwise(
        self,
        left_graph: Graph,
        left_subjects: Sequence[Subject],
        right_graph: Graph,
        right_subjects: Sequence[Subject],
    ) -> list[Link]:
        """Reference tier: score every pair; keep each left's first strict best."""
        links = (self._best_link(left_graph, left, right_graph, right_subjects) for left in left_subjects)
        return [link for link in links if link is not None]

    def _best_link(
        self, left_graph: Graph, left: Subject, right_graph: Graph, candidates: Sequence[Subject]
    ) -> "Link | None":
        """``left``'s first strict best among ``candidates``, if it reaches the threshold."""
        best_right = None
        best_score = 0.0
        for right in candidates:
            if left == right:
                continue
            score = self.score_pair(left_graph, left, right_graph, right)
            if score > best_score:
                best_score = score
                best_right = right
        if best_right is not None and best_score >= self.threshold:
            return Link(left, best_right, best_score)
        return None

    def _flatten_norms(
        self, graph: Graph, subjects: Sequence[Subject], predicate: IRI
    ) -> tuple[list[str], np.ndarray]:
        """Normalised property values of all subjects, with value → subject owners."""
        norms: list[str] = []
        owners: list[int] = []
        for index, subject in enumerate(subjects):
            for value in self._values(graph, subject, predicate):
                norms.append(normalise_string(value))
                owners.append(index)
        return norms, np.asarray(owners, dtype=np.int64)

    def _link_blocked(
        self,
        left_graph: Graph,
        left_subjects: Sequence[Subject],
        right_graph: Graph,
        right_subjects: Sequence[Subject],
    ) -> list[Link]:
        """Blocked tier: prune with vectorized bounds, score survivors exactly.

        A subject pair survives when some rule has a value pair whose token
        Jaccard or character-bound edit similarity reaches the threshold.
        Since the weighted-average score is bounded by the best single-rule
        similarity, every pair the reference tier would link survives; the
        survivors are then scored with the *same* :meth:`score_pair` the
        reference uses, so link sets and scores are identical.
        """
        n_right = len(right_subjects)
        if not left_subjects or not n_right:
            return []
        floor = self.threshold - _PRUNE_SLACK
        survivor_keys: list[np.ndarray] = []
        for rule in self.rules:
            lnorms, lowners = self._flatten_norms(left_graph, left_subjects, rule.left_property)
            rnorms, rowners = self._flatten_norms(right_graph, right_subjects, rule.right_property)
            if not lnorms or not rnorms:
                continue
            token_ids: dict[str, int] = {}
            ltokens, ltok_owners, lsizes = _token_incidence(lnorms, token_ids)
            rtokens, rtok_owners, rsizes = _token_incidence(rnorms, token_ids)
            try:
                jaccard_keys = _jaccard_candidates(
                    ltokens, ltok_owners, lsizes, rtokens, rtok_owners, rsizes, len(rnorms), floor
                )
            except _BlockingOverflow:
                # Stop-word-degenerate token distribution: blocking would be
                # near-quadratic anyway, so use the reference tier outright.
                return self._link_pairwise(left_graph, left_subjects, right_graph, right_subjects)
            value_keys = distinct_sorted(
                np.concatenate([jaccard_keys, _edit_bound_candidates(lnorms, rnorms, floor)])
            )
            if value_keys.size:
                subject_keys = lowners[value_keys // len(rnorms)] * n_right + rowners[value_keys % len(rnorms)]
                survivor_keys.append(distinct_sorted(subject_keys))
        if not survivor_keys:
            return []
        keys = distinct_sorted(np.concatenate(survivor_keys))

        # One block per left subject; ascending keys keep right_subjects order.
        splits = np.flatnonzero(np.diff(keys // n_right)) + 1
        links = (
            self._best_link(
                left_graph,
                left_subjects[int(block[0]) // n_right],
                right_graph,
                [right_subjects[key % n_right] for key in block.tolist()],
            )
            for block in np.split(keys, splits)
        )
        return [link for link in links if link is not None]

    def materialise(self, target_graph: Graph, links: Sequence[Link]) -> int:
        """Write ``owl:sameAs`` triples for the links into ``target_graph``."""
        added = 0
        for link in links:
            if target_graph.store.add(Triple(link.left, OWL.sameAs, link.right)):
                added += 1
        return added
