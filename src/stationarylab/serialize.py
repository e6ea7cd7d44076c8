"""JSON and CSV forms of the core objects.

Words serialize as 'a'..'z' / uppercase inverses with "1" for the identity.
Measures: {"context": k, "atoms": [{"word": "a", "p": "1/4"}, ...]} with
rational strings or decimals.  Algebra elements:
{"context": k, "terms": [{"word": "abA", "re": 1.0, "im": 0.0}, ...]} with
finite coefficients and a finite squared l1 norm.
Cylinder measures: CSV rows word,depth,mass.
"""

from __future__ import annotations

from cmath import isfinite
from fractions import Fraction
from math import hypot

from .algebra import AlgebraElement
from .boundary import CylinderMeasure
from .errors import MalformedInputError
from .freegroup import Word, word_from_str
from .walks import GroupMeasure


def measure_to_json(mu: GroupMeasure) -> dict:
    atoms = []
    for w, p in mu.atoms():
        atoms.append(
            {"word": str(w), "p": str(p) if isinstance(p, Fraction) else float(p)}
        )
    return {"context": mu.rank, "atoms": atoms}


def measure_from_json(data: dict) -> GroupMeasure:
    try:
        rank = int(data["context"])
        atoms = data["atoms"]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad measure JSON: {exc}") from exc
    table = {}
    for atom in atoms:
        w = word_from_str(atom["word"], rank)
        p = atom["p"]
        table[w] = Fraction(p) if isinstance(p, str) else float(p)
    return GroupMeasure(table, rank)


def element_to_json(x: AlgebraElement) -> dict:
    terms = []
    for w, c in x.terms():
        terms.append({"word": str(w), "re": c.real, "im": c.imag})
    return {"context": x.rank, "terms": terms}


def element_from_json(data: dict) -> AlgebraElement:
    try:
        rank = int(data["context"])
        terms = data["terms"]
    except (KeyError, TypeError) as exc:
        raise MalformedInputError(f"bad element JSON: {exc}") from exc
    table: dict[Word, complex] = {}
    for term in terms:
        w = word_from_str(term["word"], rank)
        c = table.get(w, 0) + complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
        if not isfinite(c):
            raise MalformedInputError(f"coefficient {c} of {w} is not finite")
        table[w] = c
    # ||x||^2 <= ||x||_1^2, so this bounds every float the norm brackets form
    l1 = sum(hypot(c.real, c.imag) for c in table.values())
    if not isfinite(l1 * l1):
        raise MalformedInputError("the squared l1 norm of the element overflows a float")
    return AlgebraElement(table, rank)


def cylinder_csv_rows(nu: CylinderMeasure) -> list[tuple[str, int, str]]:
    return [
        (str(w), len(w), str(m) if isinstance(m, Fraction) else repr(float(m)))
        for w, m in nu.cylinders()
    ]
