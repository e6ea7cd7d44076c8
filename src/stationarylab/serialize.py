"""JSON and CSV forms of the core objects.

Words serialize as 'a'..'z' / uppercase inverses with "1" for the identity.
Measures: {"context": k, "atoms": [{"word": "a", "p": "1/4"}, ...]}; a mass
is read from a rational string, an integer or a decimal (at its exact binary
value) and written as a rational string.  Algebra elements:
{"context": k, "terms": [{"word": "abA", "re": 1.0, "im": 0.0}, ...]}, each
part read at its exact binary value and the terms of one word added
exactly; the parts must be finite, and the squared l1 norm below the top of
the float range.
Cylinder measures: CSV rows word,depth,mass.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, _checked_l1, _element, _tables
from .boundary import CylinderMeasure
from .errors import MalformedInputError
from .freegroup import word_from_str
from .walks import GroupMeasure


def measure_to_json(mu: GroupMeasure) -> dict:
    return {"context": mu.rank, "atoms": [{"word": str(w), "p": str(p)} for w, p in mu.atoms()]}


def measure_from_json(data: dict) -> GroupMeasure:
    try:
        rank = int(data["context"])
        atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad measure JSON: {exc}") from exc
    return GroupMeasure({word_from_str(atom["word"], rank): atom["p"] for atom in atoms}, rank)


def element_from_json(data: dict) -> AlgebraElement:
    try:
        rank = int(data["context"])
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad element JSON: {exc}") from exc
    parts: dict[bytes, tuple[Fraction, Fraction]] = {}
    for term in terms:
        w = word_from_str(term["word"], rank)
        try:
            re, im = (Fraction(float(term.get(key, 0.0))) for key in ("re", "im"))
        except (ValueError, OverflowError) as exc:
            raise MalformedInputError(f"a coefficient of {w} is not finite") from exc
        old_re, old_im = parts.get(w.letters, (0, 0))
        parts[w.letters] = (old_re + re, old_im + im)
    x = _element(*_tables(parts), rank)
    _checked_l1(x)
    return x


def cylinder_csv_rows(nu: CylinderMeasure) -> list[tuple[str, int, str]]:
    return [
        (str(w), len(w), str(m) if isinstance(m, Fraction) else repr(float(m)))
        for w, m in nu.cylinders()
    ]
