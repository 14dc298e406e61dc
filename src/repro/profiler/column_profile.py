"""Per-column statistics computed by the data analyser."""
from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field
from typing import Any

from ..catalog.types import TypeFamily, infer_type_from_value, value_has_timezone
from .inference import DELIMITERS, best_delimiter, list_delimiters, looks_like_file_path


@dataclass
class ColumnProfile:
    """Statistics for a single column over the sampled rows.

    These are the facts the paper's data analyser collects: "the distribution
    of the data in the component columns (e.g., unique values, mean, median)"
    plus format inferences used by individual data rules.
    """

    name: str
    table: str = ""
    values_sampled: int = 0
    null_count: int = 0
    distinct_count: int = 0
    inferred_family: TypeFamily = TypeFamily.OTHER
    family_counts: dict[TypeFamily, int] = field(default_factory=dict)
    mean: float | None = None
    median: float | None = None
    min_value: Any = None
    max_value: Any = None
    average_length: float | None = None
    most_common_value: Any = None
    most_common_fraction: float = 0.0
    delimiter: str | None = None
    delimited_fraction: float = 0.0
    timezone_fraction: float = 0.0
    file_path_fraction: float = 0.0

    # -- derived ratios ------------------------------------------------------
    @property
    def non_null_count(self) -> int:
        return self.values_sampled - self.null_count

    @property
    def null_fraction(self) -> float:
        if self.values_sampled == 0:
            return 0.0
        return self.null_count / self.values_sampled

    @property
    def distinct_ratio(self) -> float:
        """Distinct values over non-null values (1.0 = all unique)."""
        if self.non_null_count == 0:
            return 0.0
        return self.distinct_count / self.non_null_count

    @property
    def is_constant(self) -> bool:
        return self.non_null_count > 0 and self.distinct_count <= 1

    @property
    def is_all_null(self) -> bool:
        return self.values_sampled > 0 and self.null_count == self.values_sampled

    @property
    def looks_delimited(self) -> bool:
        return self.delimiter is not None and self.delimited_fraction >= 0.5


#: A superset of the text ``float()`` accepts (digits, ``_``, ``.``,
#: exponents, signs, the inf/nan words, surrounding whitespace): text that
#: fails it would only make ``float()`` raise, which costs far more.
_FLOAT_LIKE_RE = re.compile(r"\s*[+-]?(?:[\d_.eE+-]+|(?i:inf|infinity|nan))\s*")

#: Type families of the number types, which skip the text heuristics: no
#: ``str()`` of a bool, int or float matches a timezone, path or list shape.
_NUMBER_FAMILIES = {
    bool: TypeFamily.BOOLEAN,
    int: TypeFamily.INTEGER,
    float: TypeFamily.APPROXIMATE_NUMERIC,
}


def profile_column(name: str, values: list[Any], table: str = "") -> ColumnProfile:
    """Compute a :class:`ColumnProfile` from sampled values.

    One pass groups the non-null values by a key that separates every pair
    of values the statistics tell apart (type and ``str()`` form, so ``1``,
    ``1.0`` and ``True`` stay apart, as do ``0.0`` and ``-0.0``); each group
    is then classified once and weighted by its size.
    """
    profile = ColumnProfile(name=name, table=table, values_sampled=len(values))
    groups: dict[Any, list] = {}  # group key -> [first value, count, number]
    order: list[list] = []  # the group of each non-null value, in sample order
    for value in values:
        if value is None:
            continue
        cls = value.__class__
        if cls is str:
            key = value
        elif cls is int or cls is bool or cls is bytes or (cls is float and value):
            # Equal values of these types print alike; only 0.0 / -0.0 do not.
            key = (cls, value)
        else:
            key = _group_key(value)
        group = groups.get(key)
        if group is None:
            group = groups[key] = [value, 0, None]
        group[1] += 1
        order.append(group)
    non_null = len(order)
    profile.null_count = len(values) - non_null
    if not non_null:
        return profile

    counts: dict[Any, int] = {}
    # [family, count] in first-seen order; TypeFamily hashes in Python, so
    # a short identity scan beats a dict keyed by family.
    family_tallies: list[list] = []
    texts: list[str] = []
    has_numbers = False
    total_length = 0
    delimiter_hits = dict.fromkeys(DELIMITERS, 0)
    timezone_hits = path_hits = 0
    for group in groups.values():
        value, count = group[0], group[1]
        cls = value.__class__
        text = str(value)
        texts.append(text)
        total_length += len(text) * count
        family = _NUMBER_FAMILIES.get(cls)
        if family is not None:
            distinct = value
            if family is not TypeFamily.BOOLEAN:
                group[2] = float(value)
                has_numbers = True
        else:
            distinct = value if cls is str else _hashable(value)
            family = infer_type_from_value(value)
            number = _as_number(value, text)
            if number is not None:
                group[2] = number
                has_numbers = True
            for delimiter in list_delimiters(text):
                delimiter_hits[delimiter] += count
            if value_has_timezone(text):
                timezone_hits += count
            if looks_like_file_path(text):
                path_hits += count
        counts[distinct] = counts.get(distinct, 0) + count
        for tally in family_tallies:
            if tally[0] is family:
                tally[1] += count
                break
        else:
            family_tallies.append([family, count])

    profile.distinct_count = len(counts)
    most_common = max(counts.items(), key=lambda kv: kv[1])
    profile.most_common_value = most_common[0]
    profile.most_common_fraction = most_common[1] / non_null
    profile.family_counts = dict(family_tallies)
    profile.inferred_family = max(family_tallies, key=lambda tally: tally[1])[0]

    if has_numbers:
        # Sample order matters: the median of equal values (0.0 / -0.0) and
        # every statistic over NaN depend on it.
        numbers = [group[2] for group in order if group[2] is not None]
        profile.mean = statistics.fmean(numbers)
        profile.median = statistics.median(numbers)
        profile.min_value = min(numbers)
        profile.max_value = max(numbers)
    else:
        profile.min_value = min(texts)
        profile.max_value = max(texts)

    profile.average_length = total_length / non_null
    profile.delimiter, profile.delimited_fraction = best_delimiter(delimiter_hits, non_null)
    profile.timezone_fraction = timezone_hits / non_null
    profile.file_path_fraction = path_hits / non_null
    return profile


def _group_key(value: Any) -> Any:
    """Group key of a value outside the fast-path types: equal values of one
    type can still print differently (``-0.0``, ``Decimal("1.0")``, aware
    datetimes at one instant), so the ``str()`` form is part of the key."""
    text = str(value)
    try:
        hash(value)
    except TypeError:
        return (value.__class__, text)
    return (value.__class__, value, text)


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return str(value)


def _as_number(value: Any, text: str) -> float | None:
    """``value`` as a float, or ``None``; ``text`` is ``str(value)``."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if not _FLOAT_LIKE_RE.fullmatch(text):
        return None
    try:
        return float(text)
    except ValueError:
        return None
