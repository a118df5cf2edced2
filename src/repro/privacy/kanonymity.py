"""k-anonymity, l-diversity, and re-identification risk (Section IV-C).

The export service's *anonymized export* and the anonymization
verification service's *holistic* degree both rest on equivalence-class
analysis: a release is k-anonymous when every combination of
quasi-identifier values is shared by at least k records.

We implement a Mondrian-style greedy multidimensional partitioner over
tabular cohort data (rows of quasi-identifiers + a sensitive attribute),
generalizing numeric attributes to ranges and categorical attributes to
sets, plus the standard diagnostics: equivalence-class sizes, l-diversity,
and expected re-identification risk (1/class size, averaged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import AnonymizationError


@dataclass(frozen=True)
class QuasiIdentifier:
    """One quasi-identifying column: name + whether it is numeric."""

    name: str
    numeric: bool = True


Row = Dict[str, Any]


@dataclass
class AnonymizedRelease:
    """Output of the anonymizer: generalized rows plus diagnostics."""

    rows: List[Row]
    k: int
    quasi_identifiers: Tuple[str, ...]
    class_sizes: List[int]

    @property
    def achieved_k(self) -> int:
        return min(self.class_sizes) if self.class_sizes else 0


def _require(row: Row, column: str) -> Any:
    """Fetch a named column, raising a typed error when it is absent."""
    if column not in row:
        raise AnonymizationError(f"row is missing required column {column!r}")
    return row[column]


def _class_key(row: Row, qi_names: Sequence[str]) -> Tuple:
    return tuple(str(_require(row, q)) for q in qi_names)


def equivalence_classes(rows: Sequence[Row],
                        qi_names: Sequence[str]) -> Dict[Tuple, List[Row]]:
    """Group rows by identical quasi-identifier values."""
    classes: Dict[Tuple, List[Row]] = {}
    for row in rows:
        classes.setdefault(_class_key(row, qi_names), []).append(row)
    return classes


def achieved_k(rows: Sequence[Row], qi_names: Sequence[str]) -> int:
    """Smallest equivalence-class size (the k the release achieves)."""
    classes = equivalence_classes(rows, qi_names)
    return min((len(v) for v in classes.values()), default=0)


def l_diversity(rows: Sequence[Row], qi_names: Sequence[str],
                sensitive: str) -> int:
    """Minimum number of distinct sensitive values in any class."""
    classes = equivalence_classes(rows, qi_names)
    return min((len({str(_require(r, sensitive)) for r in v})
                for v in classes.values()), default=0)


def reidentification_risk(rows: Sequence[Row], qi_names: Sequence[str]) -> float:
    """Average probability an adversary matching on QIs re-identifies a row."""
    classes = equivalence_classes(rows, qi_names)
    if not rows:
        return 0.0
    return sum(len(v) * (1.0 / len(v)) for v in classes.values()) / len(rows)


class MondrianAnonymizer:
    """Greedy multidimensional k-anonymizer (Mondrian, relaxed partitioning)."""

    def __init__(self, quasi_identifiers: Sequence[QuasiIdentifier], k: int) -> None:
        if k < 1:
            raise AnonymizationError("k must be >= 1")
        if not quasi_identifiers:
            raise AnonymizationError("need at least one quasi-identifier")
        self._qis = list(quasi_identifiers)
        self.k = k

    def anonymize(self, rows: Sequence[Row]) -> AnonymizedRelease:
        """Partition rows and generalize quasi-identifiers per partition."""
        if len(rows) < self.k:
            raise AnonymizationError(
                f"cannot {self.k}-anonymize {len(rows)} rows")
        partitions = self._partition([dict(r) for r in rows])
        out_rows: List[Row] = []
        class_sizes: List[int] = []
        for partition in partitions:
            class_sizes.append(len(partition))
            generalized = self._generalize(partition)
            out_rows.extend(generalized)
        qi_names = tuple(q.name for q in self._qis)
        return AnonymizedRelease(out_rows, self.k, qi_names, class_sizes)

    def _partition(self, rows: List[Row]) -> List[List[Row]]:
        """Recursively split on the widest attribute while halves stay >= k."""
        result: List[List[Row]] = []
        stack = [rows]
        while stack:
            current = stack.pop()
            split = self._best_split(current)
            if split is None:
                result.append(current)
            else:
                stack.extend(split)
        return result

    def _best_split(self, rows: List[Row]) -> Optional[List[List[Row]]]:
        if len(rows) < 2 * self.k:
            return None
        # Choose the QI with the widest normalized range/most categories.
        best: Optional[Tuple[float, QuasiIdentifier]] = None
        for qi in self._qis:
            values = [_require(r, qi.name) for r in rows]
            if qi.numeric:
                spread = float(max(values) - min(values))
            else:
                spread = float(len(set(values)))
            if spread > 0 and (best is None or spread > best[0]):
                best = (spread, qi)
        if best is None:
            return None
        qi = best[1]
        ordered = sorted(rows, key=lambda r: str(r[qi.name]) if not qi.numeric
                         else r[qi.name])
        # Median split honoring the k constraint on both sides.
        mid = len(ordered) // 2
        left, right = ordered[:mid], ordered[mid:]
        if len(left) < self.k or len(right) < self.k:
            return None
        return [left, right]

    def _generalize(self, partition: List[Row]) -> List[Row]:
        """Replace each QI value with the partition's range/set label."""
        labels: Dict[str, str] = {}
        for qi in self._qis:
            values = [_require(r, qi.name) for r in partition]
            if qi.numeric:
                low, high = min(values), max(values)
                labels[qi.name] = (str(low) if low == high
                                   else f"[{low}-{high}]")
            else:
                cats = sorted({str(v) for v in values})
                labels[qi.name] = cats[0] if len(cats) == 1 else "{" + ",".join(cats) + "}"
        out = []
        for row in partition:
            new_row = dict(row)
            for qi in self._qis:
                new_row[qi.name] = labels[qi.name]
            out.append(new_row)
        return out


def generalize_zip(zip_code: str, level: int) -> str:
    """Standard ZIP generalization ladder: 5 digits -> 3 digits -> none.

    The input must be a well-formed 5-digit US ZIP (surrounding whitespace
    is tolerated).  Anything else raises :class:`AnonymizationError`: a
    short code like ``"123"`` would otherwise produce the mask ``"123**"``,
    which reveals every digit of the original value.
    """
    normalized = str(zip_code).strip()
    if len(normalized) != 5 or not normalized.isdigit():
        raise AnonymizationError(
            f"ZIP code {zip_code!r} is not a 5-digit code")
    if level <= 0:
        return normalized
    if level == 1:
        return normalized[:3] + "**"
    return "*****"


def generalize_age(age: int, bucket: int) -> str:
    """Age -> [low, high) bucket label; HIPAA caps reported age at 90."""
    if age >= 90:
        return "90+"
    if bucket <= 1:
        return str(age)
    low = (age // bucket) * bucket
    return f"{low}-{low + bucket - 1}"
