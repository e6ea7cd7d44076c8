"""Seed-generated job lists for the three benchmark workloads.

Each workload is a fixed list of job templates. The workload seed draws, per
job, a signed permutation of the generators a, b (an automorphism of F_2)
and applies it to the template's words, and it draws the sampling seeds of
the stochastic experiments. An automorphism changes the inputs the program
sees but, apart from word-hash collisions, not the amount of work, so one
workload costs about the same on every seed and the spread between runs
measures the program and the host. The build-mu job at L=2 is not relabelled
(see _build).

Sizes are capped where the cost explodes: a 4-term non-radial element at
n_moments 16 takes minutes, so norm jobs stay at n_moments 8 over words of
length <= 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RANK = 2

# The radial generator sum a + A + b + B has norm 2*sqrt(3) (Kesten 1959).
# Every workload carries it: it is the one bracket with an exact oracle, and
# it gives bracket_width a value on workloads that write no other bracket.
KESTEN = {
    "experiment": "norm",
    "rank": RANK,
    "element": {"context": RANK, "terms": [{"word": w, "re": 1.0} for w in "aAbB"]},
    "n_moments": 64,
}

# A non-nearest-neighbour law for boundary-solve, 1/4 on each word.
LENGTH2_LAW = ("a", "B", "ab", "bA")

# Non-radial elements for the norm jobs: (word, coefficient) terms.
NORM_TEMPLATES = (
    (("a", 1.0), ("ab", 0.5), ("Ba", 0.3)),
    (("ab", 1.0), ("b", -0.4), ("AB", 0.6)),
    (("aa", 0.8), ("bA", 0.5), ("B", 0.7)),
    (("a", 1.0), ("ab", 0.5), ("Ba", 0.3), ("bb", 0.7)),
    (("ab", 1.0), ("aB", 0.5), ("BA", 0.3), ("b", 0.7)),
    (("a", 0.6), ("b", 0.6), ("ab", -0.4), ("BA", 0.2)),
)
CESARO_TEMPLATES = ("a", "ab", "aa", "aB")
BUILD_L1_FAMILIES = (("ab", "aB"), ("a", "bb"), ("aa", "ab"), ("ab", "ba"))
POWERS_TEMPLATES = ("a", "aab", "abAB", "aaB")
SRS_STARTS = ("a", "b", "ab")

WORKLOADS = ("build", "brackets", "dynamics")


@dataclass(frozen=True)
class Job:
    """One cli.run invocation: an id unique in its workload and the config."""

    id: str
    config: dict


def _automorphism(rng: random.Random) -> dict[str, str]:
    """A random signed permutation of the generators, as a letter map."""
    images = ["a", "b"]
    rng.shuffle(images)
    images = [g.upper() if rng.random() < 0.5 else g for g in images]
    return {
        "a": images[0], "A": images[0].swapcase(),
        "b": images[1], "B": images[1].swapcase(),
    }


def _apply(phi: dict[str, str], word: str) -> str:
    return "".join(phi[c] for c in word)


def _build(rng: random.Random) -> list[Job]:
    # The staged builder at L=2 is the slowest path the CLI has; the L=1
    # builds and the powers searches add fold and upper-bound work on other
    # words without touching the moment engine or boundary code. The L=2
    # family is not relabelled: its cost depends on the letter signs through
    # word-hash collisions (ab takes 25% longer than Ab), and one job that
    # long would make the spread between seeds measure the relabelling.
    jobs = [Job("build-mu-L2", {"experiment": "build-mu", "rank": RANK, "levels": 2,
                                "family": ["ab"]})]
    for i, fam in enumerate(BUILD_L1_FAMILIES):
        phi = _automorphism(rng)
        jobs.append(Job(f"build-mu-L1-{i}", {
            "experiment": "build-mu", "rank": RANK, "levels": 1,
            "family": [_apply(phi, w) for w in fam]}))
    for i, g in enumerate(POWERS_TEMPLATES):
        phi = _automorphism(rng)
        jobs.append(Job(f"powers-{i}", {
            "experiment": "powers", "rank": RANK, "g": _apply(phi, g),
            "eps": 0.75, "strategy": "geometric", "budget": 16}))
    jobs.append(Job("kesten", KESTEN))
    return jobs


def _brackets(rng: random.Random) -> list[Job]:
    # Sparse convolution over short words and the trace-moment engine do
    # almost all the work; folding and measure products stay under 2%.
    jobs = [Job("kesten", KESTEN)]
    for i, w in enumerate(CESARO_TEMPLATES):
        phi = _automorphism(rng)
        jobs.append(Job(f"cesaro-{i}", {
            "experiment": "cesaro", "rank": RANK, "element": _apply(phi, w),
            "n_max": 6}))
    for i, terms in enumerate(NORM_TEMPLATES):
        phi = _automorphism(rng)
        jobs.append(Job(f"norm-{i}", {
            "experiment": "norm", "rank": RANK, "n_moments": 8,
            "element": {"context": RANK, "terms": [
                {"word": _apply(phi, w), "re": c} for w, c in terms]}}))
    return jobs


def _dynamics(rng: random.Random) -> list[Job]:
    # Long-word multiply and conjugation, the boundary transfer operator and
    # numpy gathers; no sparse algebra products.
    def seed() -> int:
        return rng.randrange(1, 1_000_000)

    jobs = [
        Job(f"srs-escape-{i}", {
            "experiment": "srs-escape", "rank": RANK, "steps": 200, "trials": 100,
            "start": rng.choice(SRS_STARTS), "seed": seed()})
        for i in range(2)
    ]
    jobs.append(Job("bnd-map", {"experiment": "bnd-map", "rank": RANK, "length": 400,
                                "paths": 200, "seed": seed()}))
    jobs.append(Job("conditional", {
        "experiment": "conditional", "rank": RANK, "n": 30, "paths": 100,
        "nu_depth": 6, "out_depth": 3, "seed": seed()}))
    jobs.append(Job("pdf-check", {"experiment": "pdf-check", "rank": RANK,
                                  "measures": 20, "tuples": 100, "seed": seed()}))
    jobs.append(Job("boundary-solve-simple", {"experiment": "boundary-solve",
                                              "rank": RANK, "depth": 6}))
    phi = _automorphism(rng)
    jobs.append(Job("boundary-solve-length2", {
        "experiment": "boundary-solve", "rank": RANK, "depth": 4,
        "mu": {"context": RANK, "atoms": [
            {"word": _apply(phi, w), "p": "1/4"} for w in LENGTH2_LAW]}}))
    jobs.append(Job("fix-mass", {"experiment": "fix-mass", "rank": RANK, "depth": 10,
                                 "gens": "ball3"}))
    jobs.append(Job("kesten", KESTEN))
    return jobs


_GENERATORS = {"build": _build, "brackets": _brackets, "dynamics": _dynamics}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the same seed always gives the same list."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
