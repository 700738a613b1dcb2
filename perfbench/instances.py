"""The fixed instances behind the four workloads, as plain data.

A pattern is named by its canonical region profile (a1, a2, a3, a12, a13,
a23, a123); its uniformity is a1 + a12 + a13 + a123.
"""

TRIANGLE = (0, 0, 0, 1, 1, 1, 0)
K4MINUS = (0, 0, 0, 1, 1, 1, 1)
EXPANDED_TRIANGLE_2 = (0, 0, 0, 2, 2, 2, 0)

# (label, profile, n, seed with max_odd_bipartite). Sparse conflict systems
# with many nodes: 45,938 in all, nearly all of the time in the search.
LADDER = (
    ("triangle", TRIANGLE, 11, False),
    ("triangle", TRIANGLE, 12, False),
    ("k4minus", K4MINUS, 7, False),
    ("expanded-triangle-k2", EXPANDED_TRIANGLE_2, 7, True),
    ("expanded-triangle-k2", EXPANDED_TRIANGLE_2, 8, True),
    ("r3-class", (1, 1, 1, 0, 0, 0, 2), 7, False),
)

CENSUS_R = (3, 4, 5)
CENSUS_N = (6, 7)
# r=3 classes also solved at n=8, except these three: none closes within
# 8 s at the parent commit (k4minus alone takes about 30 s).
CENSUS_N8_EXCLUDED = (
    (0, 0, 0, 1, 1, 1, 1),
    (1, 1, 1, 0, 0, 0, 2),
    (2, 2, 2, 0, 0, 0, 1),
)

# A requery pass asks every pre-filled (class, n) this many times, which
# hit, and every class once at REQUERY_MISS_N, which misses, solves and
# appends: 648 hits and 81 misses. One query in REQUERY_CLI_EVERY of each
# kind goes through the CLI.
REQUERY_HITS_PER_RECORD = 4
REQUERY_MISS_N = 5
REQUERY_CLI_EVERY = 4

CLASSIFY_R = tuple(range(2, 9))
CLASSIFY_REPEAT = 40
REDUCE_R = (3, 4, 5, 6)
# Even-uniformity inputs for best_partition: (n, r, flipped edges).
STABILITY_BEST = ((12, 4, 12), (13, 4, 16), (14, 4, 20), (14, 4, 28))
STABILITY_THRESHOLD = 2
# Odd-uniformity inputs for the per-vertex link scan: (n, r, flipped edges).
STABILITY_LINKS = ((10, 3, 6), (11, 3, 8))
# (label, profile, n, at_least or None for the ILP form). The r=4 pattern
# takes copies_of's general path; the triangle takes its r/2 fast path.
EXPORTS = (
    ("general", (0, 1, 2, 2, 1, 0, 1), 9, 30),
    ("general", (0, 1, 2, 2, 1, 0, 1), 9, None),
    ("fast-path", TRIANGLE, 30, 225),
    ("fast-path", TRIANGLE, 30, None),
)


def uniformity(profile) -> int:
    a1, _, _, a12, a13, _, a123 = profile
    return a1 + a12 + a13 + a123


def pin_key(profile, n: int) -> str:
    return f"{','.join(map(str, profile))}@{n}"


def census_ns(profile) -> tuple[int, ...]:
    if uniformity(profile) == 3 and tuple(profile) not in CENSUS_N8_EXCLUDED:
        return CENSUS_N + (8,)
    return CENSUS_N
