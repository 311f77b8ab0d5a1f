"""Seeded job lists for the three CLI routes.

Every job is the argv of one ``hilbfock`` run.  Jobs are drawn from a
finite universe (a fixed class pool times a grid of sizes), so that
every job any seed can produce has a reference digest recorded in
``reference.json``.  A run is a whole number of rounds; the sizes in a
round are fixed, so that every seed puts the same size mix on the
program.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("closedform-tables", "fixedpoint-vectors", "verify-battery")
PRESETS = ("todd", "l-genus", "a-hat", "chern-total")
FORMATS = ("json", "csv")
TABLE_TARGETS = (
    ("tangent", "theorem"),
    ("tangent", "universal"),
    ("tautological", "theorem"),
)
TABLE_DEGREES = (12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32)
EQUIVARIANT_LEVELS = (6, 7, 8, 9, 10, 11)
# Twists below 1 can hit degenerate fixed-point denominators (gamma = -1
# fails at level 8), and a failing job measures nothing.
EQUIVARIANT_GAMMAS = (1, 2, 3, 4, 5)
VERIFY_ORDERS = (8, 9, 10, 11, 12, 13, 14)
DEFAULT_EQUIVARIANT_BOUND = 10
POOL_SEED = 20061031
POOL_SIZE = 8


def random_class_pool(size: int = POOL_SIZE, seed: int = POOL_SEED) -> tuple[str, ...]:
    """Small-height rational classes c1,...,cm with 2 <= m <= 5.

    Numerators and denominators are at most 9.  The first coefficient is
    positive so that the argument never looks like a flag.
    """
    rng = random.Random(seed)
    pool = []
    while len(pool) < size:
        terms = []
        for index in range(rng.randint(2, 5)):
            sign = 1 if index == 0 else rng.choice((-1, 1))
            terms.append(str(Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))))
        label = ",".join(terms)
        if label not in pool:
            pool.append(label)
    return tuple(pool)


CLASSES = PRESETS + random_class_pool()


def _format(*indices: int) -> str:
    return FORMATS[sum(indices) % 2]


def table_job(class_index: int, degree: int, target_index: int) -> tuple[str, ...]:
    target, basis = TABLE_TARGETS[target_index]
    argv = ["table", "--class", CLASSES[class_index], "--max-degree", str(degree)]
    if target != "tangent":
        argv += ["--target", target]
    if basis != "theorem":
        argv += ["--basis", basis]
    argv += ["--format", _format(class_index, degree, target_index)]
    return tuple(argv)


def equivariant_job(class_index: int, gamma: int, level: int) -> tuple[str, ...]:
    argv = ["equivariant", "--class", CLASSES[class_index], "--gamma", str(gamma)]
    argv += ["--level", str(level)]
    if level > DEFAULT_EQUIVARIANT_BOUND:
        argv += ["--bound", str(level)]
    argv += ["--format", _format(class_index, gamma, level)]
    return tuple(argv)


def verify_job(class_name: str, order: int) -> tuple[str, ...]:
    return ("verify", "--class", class_name, "--order", str(order))


VERIFY_CLASSES = CLASSES + ("chern-character",)


def universe(workload: str) -> list[tuple[str, ...]]:
    """Every job the workload can draw, in a fixed order."""
    if workload == "closedform-tables":
        return [
            table_job(c, n, t)
            for c in range(len(CLASSES))
            for t in range(len(TABLE_TARGETS))
            for n in TABLE_DEGREES
        ]
    if workload == "fixedpoint-vectors":
        return [
            equivariant_job(c, g, n)
            for c in range(len(CLASSES))
            for g in EQUIVARIANT_GAMMAS
            for n in EQUIVARIANT_LEVELS
        ]
    if workload == "verify-battery":
        return [verify_job(name, n) for name in VERIFY_CLASSES for n in VERIFY_ORDERS]
    raise ValueError(f"unknown workload {workload!r}")


# The rounds of each workload, used in turn: (drawn sizes, fixed sizes).
# Each round reaches down to the CLI defaults (table degree 12, verify
# order 8), so that an asymptotic win that costs small inputs shows, and
# up to the largest size.  The mix of sizes is a design choice, not a
# model of how the CLI is used: it puts the median job and the tail
# percentile each well inside a large block of jobs of about one cost,
# so that neither sits on the edge between two sizes or hangs on a few
# jobs.  Two rounds draw a whole number of times from the deck of
# classes (of class and target pairs in closedform-tables), so every
# class appears equally often among the drawn jobs of a run.  A tuple in the fixed part is a whole job.  The tail blocks of
# closedform-tables and fixedpoint-vectors repeat one job: at degree 20
# or level 8 the cost of a job varies up to threefold with its class and
# target or twist, so a block of different jobs would leave the tail
# percentile on whichever single job falls at its rank, while a block
# of one job puts it at an order statistic of a dozen runs of that job.
_CC = "chern-character"
TABLE_TAIL = table_job(0, 20, 0)
EQUIVARIANT_TAIL = equivariant_job(0, 2, 8)
ROUNDS = {
    "closedform-tables": (
        ((12,) * 18, (14, 16, 18) + (TABLE_TAIL,) * 6 + (22, 26, 30)),
        ((12,) * 18, (14, 16, 18) + (TABLE_TAIL,) * 6 + (24, 28, 32)),
    ),
    "fixedpoint-vectors": (
        ((6,) * 18, (7,) + (EQUIVARIANT_TAIL,) * 8 + (11,)),
        ((6,) * 18, (7,) + (EQUIVARIANT_TAIL,) * 8 + (9, 10)),
    ),
    "verify-battery": (
        (
            (8,) * 12,
            tuple(verify_job(_CC, n) for n in (8, 10, 12, 14)) + (9, 10, 14),
        ),
        (
            (8,) * 12,
            tuple(verify_job(_CC, n) for n in (9, 11, 13)) + (9, 11, 12, 13),
        ),
    ),
}
# Wall time of one round on a shared 2-core x86 machine with Python 3.11
# at the commit that added the benchmark; the machine's speed varied by
# up to 1.5x from minute to minute, and these are mid-range figures.  A
# run of ``--seconds S`` is the whole number of rounds closest to S at
# that speed, so that the parent and a change always run the same jobs.
ROUND_SECONDS = {"closedform-tables": 11.0, "fixedpoint-vectors": 14.0, "verify-battery": 14.0}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


class _Deck:
    """Draws every item once, in seeded order, before drawing any again."""

    def __init__(self, items, rng: random.Random) -> None:
        self._items, self._rng, self._left = list(items), rng, []

    def draw(self):
        if not self._left:
            self._left = self._items[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


def _job(workload: str, size, class_index: int, variant: int) -> tuple[str, ...]:
    if workload == "closedform-tables":
        return table_job(class_index, size, variant % len(TABLE_TARGETS))
    if workload == "fixedpoint-vectors":
        return equivariant_job(class_index, EQUIVARIANT_GAMMAS[variant % len(EQUIVARIANT_GAMMAS)], size)
    return verify_job(CLASSES[class_index], size)


def plan(workload: str, seed: int, rounds: int) -> list[list[tuple[str, ...]]]:
    """The first ``rounds`` rounds of jobs for a workload and seed.

    The seed picks the class and the target or twist of every job of a
    drawn size, and the order of the jobs in a round.  The jobs of fixed
    sizes, which take most of a round's time, rotate through the classes
    and targets or twists whatever the seed: the cost of a class varies
    up to fivefold at the largest sizes, so drawing them by seed would
    let the drawn costs, not the program, set the spread between seeds.
    The whole jobs of the fixed part run as they stand.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "closedform-tables":
        # Two rounds deal each (class, target) pair once, so every seed
        # runs the same degree-12 jobs, the block that holds the median.
        pairs = _Deck([(c, t) for c in range(len(CLASSES)) for t in range(len(TABLE_TARGETS))], rng)
        draw = pairs.draw
    else:
        classes = _Deck(range(len(CLASSES)), rng)
        variants = _Deck(range(len(EQUIVARIANT_GAMMAS)), rng)

        def draw():
            return classes.draw(), variants.draw()

    shapes = ROUNDS[workload]
    result = []
    rotation = 0
    for number in range(rounds):
        drawn, fixed = shapes[number % len(shapes)]
        jobs = [_job(workload, size, *draw()) for size in drawn]
        for size in fixed:
            if isinstance(size, tuple):
                jobs.append(size)
                continue
            jobs.append(_job(workload, size, rotation % len(CLASSES), rotation))
            rotation += 1
        rng.shuffle(jobs)
        result.append(jobs)
    return result
