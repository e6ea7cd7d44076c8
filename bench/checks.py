"""Output checks for benchmark jobs; each returns a list of problems found.

They run outside the timed region and read only what cli.run wrote.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

from stationarylab import cli

KESTEN_NORM = 2 * math.sqrt(3)
# Acceptance criterion 3 of the test suite: the generator-sum lower bound at
# 64 moments is at least this.
KESTEN_LOWER_FLOOR = 3.39
BOUNDARY_TOL = 1e-9
PSD_TOL = -1e-9

BRACKET_FILES = ("norm.csv", "cesaro.csv")


def read_rows(path: Path) -> list[dict[str, str]]:
    """CSV rows below the anchor comment, keyed by the header."""
    lines = path.read_text().splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


def bracket_rows(out: Path) -> list[tuple[float, float]]:
    """(lower, upper) of every certified norm bracket the job wrote."""
    return [
        (float(r["lower"]), float(r["upper"]))
        for name in BRACKET_FILES if (out / name).exists()
        for r in read_rows(out / name)
    ]


def _uniform_cylinder_mass(n: int) -> Fraction:
    return Fraction(1, 4 * 3 ** (n - 1))


def check_job(job_id: str, config: dict, out: Path) -> list[str]:
    """Problems with the outputs one job wrote to `out`; empty if none."""
    problems = []
    if not cli.verify(out / "manifest.json"):
        problems.append("manifest does not verify")
    for lower, upper in bracket_rows(out):
        if not lower <= upper:
            problems.append(f"inverted bracket [{lower}, {upper}]")
    kind = config["experiment"]
    if job_id == "kesten":
        (lower, upper), = bracket_rows(out)
        if not lower <= KESTEN_NORM <= upper:
            problems.append(f"bracket [{lower}, {upper}] misses 2*sqrt(3)")
        if lower < KESTEN_LOWER_FLOOR:
            problems.append(f"lower bound {lower} below {KESTEN_LOWER_FLOOR}")
    elif kind == "boundary-solve" and "mu" not in config:
        for r in read_rows(out / "stationary.csv"):
            expected = _uniform_cylinder_mass(int(r["depth"]))
            if abs(Fraction(r["mass"]) - expected) > BOUNDARY_TOL:
                problems.append(f"mass of {r['word']} is {r['mass']}, not {expected}")
        summary = json.loads((out / "stationary_summary.json").read_text())
        if summary["hitting_agrees"] is not True:
            problems.append("hitting probabilities disagree")
    elif kind == "fix-mass":
        for r in read_rows(out / "fixmass.csv"):
            expected = float(2 * _uniform_cylinder_mass(int(r["depth"])))
            if not math.isclose(float(r["upper_bound"]), expected, rel_tol=1e-12):
                problems.append(f"fix-mass of {r['word']} is {r['upper_bound']}, "
                                f"not {expected}")
    elif kind == "srs-escape":
        summary = json.loads((out / "escape_summary.json").read_text())
        if summary["verdict"] != "escaping":
            problems.append(f"srs-escape verdict {summary['verdict']!r}")
    elif kind == "pdf-check":
        worst = min(float(r["min_eigenvalue"]) for r in read_rows(out / "pdfcheck.csv"))
        if worst < PSD_TOL:
            problems.append(f"Gram eigenvalue {worst} below {PSD_TOL}")
    return problems
