"""Seeded request lists for the four benchmark workloads.

A request is the argv a user would type after ``qtmoments``.  Each workload is
a list of *slot classes*: a class fixes the size of a request (command, n,
method) and lists every content variant of that size (rational point, word,
convention, output format).  A seed picks, for every class, a fixed number of
distinct variants and then shuffles the whole list.  So every seed asks the
same multiset of request sizes, no exact request repeats within a list, and
the union of all variants (``universe``) is finite: ``expected.json`` holds a
confirmed fingerprint for each of them, which covers every seed.

No request passes ``--workers`` or ``--gauge``.  Rationals are written
``--q=-1/4``: with a space, argparse reads ``-1/4`` as a flag.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables", "queries", "gate", "enumerate")

#: (q, t, lambda) sample points; q may be negative.
POINTS = (
    ("1/3", "2/3", "1"),
    ("-1/4", "2/3", "3/2"),
    ("1/2", "1", "2"),
    ("2/5", "3/4", "1/2"),
    ("-1/3", "1/2", "1"),
    ("3/4", "1/3", "5/4"),
    ("1/5", "4/5", "3"),
    ("-2/3", "3/5", "2/3"),
    ("5/6", "1/6", "1"),
    ("-1/2", "5/4", "4/3"),
    ("1/4", "1/2", "5/2"),
    ("2/3", "3/2", "3/4"),
)

#: (m, p, q, t) for the rational binomial family.
BINOMIAL_PARAMS = (
    ("10", "1/10", "1/3", "2/3"),
    ("7/2", "2/5", "-1/2", "3/4"),
    ("5", "1/2", "1/2", "1/2"),
    ("12", "1/4", "2/3", "1/3"),
    ("3", "1/3", "-1/4", "1"),
    ("8", "3/5", "1/5", "4/5"),
    ("20", "1/20", "3/4", "1/2"),
    ("9/2", "1/6", "-1/3", "2/3"),
    ("6", "2/3", "1/4", "5/4"),
    ("15", "1/5", "2/5", "3/5"),
    ("4", "1/8", "-2/3", "1/2"),
    ("11", "3/10", "1/6", "5/6"),
)

MOMENT_SLOTS = {6: 16, 7: 14, 8: 12, 9: 8, 10: 5}  # per method
CHARLIER_SLOTS = {6: 10, 7: 8, 8: 7, 9: 5, 10: 3}  # per preset
BINOMIAL_SLOTS = {12: 20, 24: 10}
WORD_LENGTHS = range(6, 13)
WORD_SLOTS = 7  # per length, for `word` and again for `cards --word`
WORDS_PER_LENGTH = 12


def _point_flags(point) -> list:
    q, t, lam = point
    return [f"--q={q}", f"--t={t}", f"--lambda={lam}"]


def _mode_flags(mode: str) -> list:
    return [] if mode == "strict" else ["--mode", mode]


def contributor_words(length: int) -> list:
    """A fixed pool of distinct contributor words of one length.

    Words are drawn by a random walk over levels in application order (the
    rightmost letter acts first), so every word has a nonzero vacuum
    expectation.  The pool depends only on the length, never on a run seed.
    """
    rng = random.Random(f"contributors/{length}")
    pool: list = []
    while len(pool) < WORDS_PER_LENGTH:
        level, applied = 0, []
        for pos in range(length):
            remaining = length - pos
            options = [
                letter for letter, step in (("C", 1), ("A", -1), ("N", 0), ("S", 0))
                if 0 <= level + step <= remaining - 1 and not (letter == "N" and level < 1)
            ]
            letter = rng.choice(options)
            applied.append(letter)
            level += {"C": 1, "A": -1}.get(letter, 0)
        word = "".join(reversed(applied))
        if word not in pool:
            pool.append(word)
    return pool


def _queries_classes() -> list:
    classes = []
    for method in ("operator", "motzkin"):
        for n, count in MOMENT_SLOTS.items():
            variants = [
                ["moments", "--n", str(n), "--method", method, *_point_flags(point),
                 *_mode_flags(mode), "--output", output]
                for point in POINTS
                for mode in ("strict", "covered")
                for output in ("json", "csv")
            ]
            classes.append((count, variants))
    for preset in ("strict", "tgauge"):
        for n, count in CHARLIER_SLOTS.items():
            variants = [
                ["charlier", "--n-max", str(n), "--preset", preset, *_point_flags(point),
                 "--output", output]
                for point in POINTS
                for output in ("csv", "json")
            ]
            classes.append((count, variants))
    for n, count in BINOMIAL_SLOTS.items():
        variants = [
            ["binomial", "--n-max", str(n), "--m", m, "--p", p, f"--q={q}", f"--t={t}",
             "--output", output]
            for m, p, q, t in BINOMIAL_PARAMS
            for output in ("csv", "json")
        ]
        classes.append((count, variants))
    for command in ("word", "cards"):
        for length in WORD_LENGTHS:
            variants = [
                [command, "--word", word, *_mode_flags(mode), "--output", output]
                for word in contributor_words(length)
                for mode in ("strict", "covered")
                for output in ("pretty", "json")
            ]
            classes.append((WORD_SLOTS, variants))
    return classes


def _classes(workload: str) -> list:
    if workload == "tables":
        fixed = [
            ["moments", "--n", "14", "--method", method, *_mode_flags(mode), "--output", "json"]
            for method in ("operator", "motzkin")
            for mode in ("strict", "covered")
        ]
        fixed += [["cfrac", "--order", "10", "--preset", p, "--output", "json"]
                  for p in ("strict", "tgauge")]
        fixed += [["charlier", "--n-max", "10", "--preset", p, "--output", "json"]
                  for p in ("strict", "tgauge")]
        return [(1, [argv]) for argv in fixed]
    if workload == "queries":
        return _queries_classes()
    if workload == "gate":
        return [(1, [["verify", "--suite", "all", "--n-max", "8"]])]
    if workload == "enumerate":
        fixed = [
            ["moments", "--n", "10", "--method", method, *_mode_flags(mode), "--output", "json"]
            for method in ("partitions", "cards")
            for mode in ("strict", "covered")
        ]
        fixed.append(["partitions", "--n", "9"])
        classes = [(1, [argv]) for argv in fixed]
        classes.append((1, [["cards", "--n", "8", *_mode_flags(mode), "--output", "json"]
                            for mode in ("strict", "covered")]))
        return classes
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload: str, seed: int) -> list:
    """The request list of one pass: the same seed always gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for count, variants in _classes(workload):
        out.extend(rng.sample(variants, count))
    rng.shuffle(out)
    return out


def universe(workload: str) -> list:
    """Every request any seed can generate for the workload."""
    return [argv for _, variants in _classes(workload) for argv in variants]


def key(argv) -> str:
    """The expected-output table key of a request."""
    return " ".join(argv)
