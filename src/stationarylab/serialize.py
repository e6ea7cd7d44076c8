"""JSON and CSV forms of the core objects.

Words serialize as 'a'..'z' / uppercase inverses with "1" for the identity.
Measures: {"context": k, "atoms": [{"word": "a", "p": "1/4"}, ...]}, masses
written as rational strings; algebra elements: {"context": k, "terms":
[{"word": "abA", "re": 1.0, "im": 0.0}, ...]}, each read by `_entries`.
Cylinder measures: CSV rows word,depth,mass.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, _checked_l1, _element, _exact, _tables
from .boundary import CylinderMeasure
from .errors import MalformedInputError
from .freegroup import Word, _check_rank, _is_int, word_from_str
from .walks import GroupMeasure, _mass


def measure_to_json(mu: GroupMeasure) -> dict:
    return {"context": mu.rank, "atoms": [{"word": str(w), "p": str(p)} for w, p in mu.atoms()]}


def measure_from_json(data: dict) -> GroupMeasure:
    rank, sums = _entries(data, "measure", "atoms", {"p": None}, _mass)
    return GroupMeasure({w: p for w, (p,) in sums.items()}, rank)


def element_from_json(data: dict) -> AlgebraElement:
    rank, sums = _entries(data, "element", "terms", {"re": 0, "im": 0}, _exact)
    x = _element(*_tables({w.letters: parts for w, parts in sums.items()}), rank)
    _checked_l1(x)
    return x


def _entries(data: dict, kind: str, key: str, parts: dict, read) -> tuple[int, dict]:
    """The integer context of a JSON `kind` and, by word, the exact sums of
    the `parts` of its entries under `key`, each read by `read`, which reads
    numbers by `algebra._exact`; a part whose default is None is required.
    MalformedInputError "bad `kind` JSON: ..." on a missing key or a context
    that is not an int; `_check_rank` refuses a context outside 1..MAX_RANK,
    and `word_from_str` a word that is not a str."""
    try:
        rank = data["context"]
        if not _is_int(rank):
            raise TypeError(f"context {rank!r} is not an integer")
        _check_rank(rank)
        sums: dict[Word, tuple] = {}
        for entry in data[key]:
            w = word_from_str(entry["word"], rank)
            new = [read(entry[k] if d is None else entry.get(k, d), f'"{k}" of {w}')
                   for k, d in parts.items()]
            sums[w] = tuple(a + b for a, b in zip(sums.get(w, (0,) * len(parts)), new))
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad {kind} JSON: {exc}") from exc
    return rank, sums


def cylinder_csv_rows(nu: CylinderMeasure) -> list[tuple[str, int, str]]:
    return [
        (str(w), len(w), str(m) if isinstance(m, Fraction) else repr(float(m)))
        for w, m in nu.cylinders()
    ]
