"""Seeded case lists for the four workloads.

A case is one `ramify` command line plus what its answer must be.  The
seed changes only the presentation of an input (the `--seed` handed to
randomized subcommands, basis order and labels of algebra files, point
labels of permutation generators), never its size or the case order,
so every seed asks for the same work and the same answers.

`Case.key` names the mathematical question and is the same for every
seed; the transcript captured at the seed commit is keyed by it.
`Case.expect` tells `checks.py` what a correct answer looks like.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

@dataclass(frozen=True)
class Case:
    key: str
    argv: tuple
    expect: dict


def _case(key, argv, **expect):
    return Case(key, tuple(str(a) for a in argv), expect)


def _over_limit(case):
    """An input past what the program can answer in time: the closed-form
    answer or a refusal (exit 2 with a reason) is correct."""
    return Case(case.key, case.argv, dict(case.expect, or_refusal=True))


# ---------------------------------------------------------------------------
# tower: Tor of A_r = Z/p^N[y]/(y q_r) over the accepted grid


def _grid():
    """(p, n, r) with rank p^(rn) <= 64, r in {1, 2}."""
    for p in (2, 3, 5, 7):
        for r in (1, 2):
            n = 1
            while p ** (r * n) <= 64:
                yield p, n, r
                n += 1


# Weierstrass preparation fails at these (p, n, r, N): a known defect.
WEIERSTRASS_DEFECTS = ((2, 3, 1, 8), (2, 3, 1, 9), (2, 3, 2, 8), (2, 3, 2, 9), (2, 4, 1, 16))


def _tor(p, n, r, N):
    return _case(
        "tor p=%d n=%d r=%d N=%d" % (p, n, r, N),
        ["tor", "--p", p, "--n", n, "--r", r, "--N", N, "--format", "json"],
        kind="tor", p=p, r=r,
    )


def _compare(p, n, k, rng):
    return _case(
        "compare p=%d n=%d k=%d" % (p, n, k),
        ["compare", "--p", p, "--n", n, "--k", k, "--seed", rng.randrange(1000),
         "--format", "json"],
        kind="compare", p=p, k=k,
    )


def tower(seed, workdir):
    rng = random.Random(seed)
    cases = []
    for p, n, r in _grid():
        for N in range(r + 1, 9):
            if (p, n, r, N) not in WEIERSTRASS_DEFECTS:
                cases.append(_tor(p, n, r, N))
    # one rank-64 point at high precision, ~2 s of p-series work: the tail,
    # long enough that its median over the passes is steady
    cases.append(_tor(2, 3, 2, 14))
    for p, n, k in itertools.product((2, 3), (1, 2), (2, 3)):
        if (p, n, k) != (3, 2, 3):
            cases.append(_compare(p, n, k, rng))
    for p, n, r in itertools.product((2, 3), (1, 2), (1, 2)):
        if p ** (r * n) > 64:
            continue
        base = ["--p", p, "--n", n, "--r", r, "--format", "json"]
        tag = "p=%d n=%d r=%d N=8" % (p, n, r)
        cases.append(_case("rational " + tag, ["rational"] + base, kind="rational"))
        cases.append(_case("converge " + tag, ["converge"] + base,
                           kind="converge", p=p, r=r, rational=False))
        cases.append(_case("converge --rational " + tag, ["converge", "--rational"] + base,
                           kind="converge", p=p, r=r, rational=True))
    probes = [_tor(*point) for point in WEIERSTRASS_DEFECTS]
    probes.append(_over_limit(_tor(2, 2, 6, 8)))
    probes.append(_over_limit(_compare(3, 2, 3, rng)))
    return cases, probes


# ---------------------------------------------------------------------------
# fp_modules: library-built F_p algebras and modules


def _reduce_k(p, n, r):
    return _case(
        "reduce-k p=%d n=%d r=%d" % (p, n, r),
        ["reduce-k", "--p", p, "--n", n, "--r", r, "--format", "json"],
        kind="reduce-k", rank=p ** (r * n),
    )


def fp_modules(seed, workdir):
    rng = random.Random(seed)
    cases = []
    for p, ladder in ((2, (2, 5, 10, 20, 30)), (3, (2, 5, 10, 20))):
        for m in ladder:
            cases.append(_case("socle p=%d m=%d" % (p, m),
                               ["socle", "--p", p, "--m", m, "--format", "json"],
                               kind="socle", dims=list(range(1, m + 1))))
    for p in (2, 3):
        for m in (2, 4, 8, 16):
            cases.append(_case("betti p=%d m=%d" % (p, m),
                               ["betti", "--p", p, "--m", m, "--format", "json"],
                               kind="betti", betti=[1] * 7))
    cases.append(_case("nakayama p=2 m=16",
                       ["nakayama", "--p", 2, "--m", 16, "--count", 10,
                        "--seed", rng.randrange(10 ** 6), "--format", "json"],
                       kind="nakayama", count=10))
    # every (p, n, r) of rank <= 16 except the Weierstrass defect (2, 3, 1)
    for p, n, r in ((2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 1), (2, 2, 2),
                    (2, 4, 1), (3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1), (7, 1, 1)):
        cases.append(_reduce_k(p, n, r))
    return cases, [_reduce_k(2, 3, 1), _over_limit(_reduce_k(2, 1, 6))]


# ---------------------------------------------------------------------------
# emss_pages: divided-power page turning


def _emss(p, S):
    return _case("emss p=%d S=%d" % (p, S),
                 ["emss", "--p", p, "--S", S, "--format", "json"],
                 kind="emss", p=p)


def emss_pages(seed, workdir):
    # page turning takes only (p, S): nothing here depends on the seed
    cases = [_emss(p, S) for p, top in ((3, 6), (5, 4), (7, 3)) for S in range(2, top + 1)]
    return cases, [_over_limit(_emss(3, 9))]


# ---------------------------------------------------------------------------
# user_inputs: algebra files and generator strings from outside


# (p, [(truncation height, parity), ...], betti --smax); an odd factor has
# height 2.  From s = 3 on a resolution of the larger files costs 0.3-0.8 s
# per step; the dimension-25 file goes to s = 4 (~1.7 s, rref-bound) to be
# the workload's tail, long enough that its median over the passes is steady.
ALGEBRA_SHAPES = (
    (2, [(2, 0), (2, 0)], 2),
    (2, [(4, 0), (4, 0)], 2),
    (2, [(2, 0), (2, 0), (2, 0)], 2),
    (3, [(3, 0), (3, 0)], 2),
    (3, [(2, 1), (3, 0)], 2),
    (3, [(2, 1), (2, 1), (3, 0)], 2),
    (3, [(9, 0), (2, 0)], 2),
    (5, [(5, 0), (5, 0)], 4),
    (5, [(2, 1), (5, 0)], 2),
)


def _shape_name(p, factors):
    return "p=%d %s" % (p, "x".join("%d%s" % (a, "o" if par else "") for a, par in factors))


def algebra_text(p, factors, rng):
    """Algebra file for the graded tensor product of F_p[x_i]/(x_i^a_i).

    The unit stays first; the other monomials, the labels, the mul
    lines and a few comments are shuffled by rng.  Signs follow the
    Koszul rule: moving an odd x_l past an odd x_t costs -1.
    """
    names = rng.sample("abcdefghuvwxz", len(factors))
    monos = list(itertools.product(*[range(a) for a, _ in factors]))
    rest = monos[1:]
    rng.shuffle(rest)
    monos = [monos[0]] + rest
    index = {m: i for i, m in enumerate(monos)}

    def label(m):
        parts = [v if e == 1 else "%s^%d" % (v, e) for v, e in zip(names, m) if e]
        return "*".join(parts) or "1"

    def parity(m):
        return sum(e * par for e, (_, par) in zip(m, factors)) % 2

    muls = []
    for x, y in itertools.product(monos, repeat=2):
        z = tuple(i + j for i, j in zip(x, y))
        if any(e >= a for e, (a, _) in zip(z, factors)):
            continue
        flips = sum(
            x[l] * factors[l][1] * y[t] * factors[t][1]
            for l in range(len(factors)) for t in range(l)
        )
        muls.append("mul: %d %d %d %d" % (index[x], index[y], index[z],
                                          (-1) ** flips % p))
    rng.shuffle(muls)
    lines = ["# %s, seeded presentation" % _shape_name(p, factors),
             "labels: " + " ".join(label(m) for m in monos),
             "parities: " + " ".join(str(parity(m)) for m in monos),
             "aug: " + " ".join("1" if i == 0 else "0" for i in range(len(monos)))]
    for _ in range(3):
        muls.insert(rng.randrange(len(muls) + 1), "# comment %d" % rng.randrange(10 ** 6))
    return "\n".join(lines + muls) + "\n"


def _corrupt(text, how, rng):
    """One malformed variant of a valid algebra file."""
    lines = text.splitlines()
    muls = [i for i, line in enumerate(lines) if line.startswith("mul:")]
    i = rng.choice(muls)
    if how == "missing-aug":
        lines = [line for line in lines if not line.startswith("aug:")]
    elif how == "index-range":
        lines[i] = "mul: 0 %d 0 1" % (len(lines) + 100)
    elif how == "unknown-key":
        lines.insert(i, "mult: 1 1 1 1")
    elif how == "no-key":
        lines.insert(i, "1 2 3 4")
    elif how == "short-mul":
        lines[i] = lines[i].rsplit(" ", 1)[0]
    return "\n".join(lines) + "\n"


MALFORMED = ("missing-aug", "index-range", "unknown-key", "no-key", "short-mul")


def _cycles(perm_cycles):
    return "".join("(" + ",".join(str(x) for x in c) + ")" for c in perm_cycles)


# name -> (order, degree, generators as cycle lists on points 1..degree)
GROUP_SHAPES = {
    "C12": (12, 12, [[list(range(1, 13))]]),
    "C16": (16, 16, [[list(range(1, 17))]]),
    "C27": (27, 27, [[list(range(1, 28))]]),
    "D10": (20, 10, [[list(range(1, 11))], [[i, 11 - i] for i in range(1, 6)]]),
    "D8": (16, 8, [[list(range(1, 9))], [[i, 9 - i] for i in range(1, 5)]]),
    "A4": (12, 4, [[[1, 2, 3]], [[2, 3, 4]]]),
    "S4": (24, 4, [[[1, 2]], [[1, 2, 3, 4]]]),
    "A5": (60, 5, [[[1, 2, 3]], [[1, 2, 3, 4, 5]]]),
    "S5": (120, 5, [[[1, 2]], [[1, 2, 3, 4, 5]]]),
    # Q8 acting on itself by right multiplication by i and j
    "Q8": (8, 8, [[[1, 3, 2, 4], [5, 8, 6, 7]], [[1, 5, 2, 6], [3, 7, 4, 8]]]),
    "C5xS3": (30, 8, [[[1, 2, 3, 4, 5]], [[6, 7]], [[6, 7, 8]]]),
    "C3wrC2": (18, 6, [[[1, 2, 3]], [[1, 4], [2, 5], [3, 6]]]),
    "S6": (720, 6, [[[1, 2]], [[1, 2, 3, 4, 5, 6]]]),
}


# (group, p) pairs asked in each group subcommand
GROUP_QUERIES = (
    ("C12", 2), ("C12", 3), ("C16", 2), ("C27", 3), ("D10", 2), ("D10", 5),
    ("D8", 2), ("A4", 2), ("A4", 3), ("S4", 2), ("S4", 3), ("A5", 2), ("A5", 5),
    ("S5", 2), ("S5", 3), ("Q8", 2), ("C5xS3", 2), ("C5xS3", 3), ("C5xS3", 5),
    ("C3wrC2", 2), ("C3wrC2", 3),
)


def relabeled_gens(name, rng):
    """Generator string of a named group with its points relabeled."""
    _, degree, gens = GROUP_SHAPES[name]
    relabel = list(range(1, degree + 1))
    rng.shuffle(relabel)
    perms = [[[relabel[x - 1] for x in c] for c in g] for g in gens]
    rng.shuffle(perms)
    return ";".join(_cycles(g) for g in perms)


FILE_COUNT = 1  # random modules per nakayama call; each costs ~0.4 s at dim 25


def user_inputs(seed, workdir):
    rng = random.Random(seed)
    cases = []
    for n_shape, (p, factors, smax) in enumerate(ALGEBRA_SHAPES):
        name = _shape_name(p, factors)
        path = os.path.join(workdir, "alg%d.txt" % n_shape)
        text = algebra_text(p, factors, rng)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        heights = [a for a, _ in factors]
        for cmd, extra in (("socle", []), ("betti", ["--smax", smax]),
                           ("nakayama", ["--count", FILE_COUNT, "--seed", rng.randrange(10 ** 6)])):
            cases.append(_case("%s %s" % (cmd, name),
                               [cmd, "--p", p, "--algebra", path] + extra + ["--format", "json"],
                               kind=cmd + "-file", heights=heights, count=FILE_COUNT, smax=smax))
        if n_shape < len(MALFORMED):
            how = MALFORMED[n_shape]
            bad = os.path.join(workdir, "bad%d.txt" % n_shape)
            with open(bad, "w", encoding="utf-8") as fh:
                fh.write(_corrupt(text, how, rng))
            cases.append(_case("socle malformed %s" % how,
                               ["socle", "--p", p, "--algebra", bad],
                               kind="refusal", codes=[65], reason="malformed algebra file"))
    for name, p in GROUP_QUERIES:
        order = GROUP_SHAPES[name][0]
        for sub in ("sylow", "complement", "conjnil"):
            gens = relabeled_gens(name, rng)
            argv = ["group", sub, "--p", p, "--gens", gens, "--format", "json"]
            if sub == "sylow":
                argv[-2:-2] = ["--seed", rng.randrange(1000)]
            cases.append(_case("group %s %s p=%d" % (sub, name, p), argv,
                               kind="group-" + sub, p=p, order=order, gens=gens))
    cases.append(_case("group sylow S6 over cap",
                       ["group", "sylow", "--p", 2, "--gens", relabeled_gens("S6", rng)],
                       kind="refusal", codes=[2, 65], reason="exceeds cap"))
    return cases, []


BUILDERS = {
    "tower": tower,
    "fp_modules": fp_modules,
    "emss_pages": emss_pages,
    "user_inputs": user_inputs,
}
WORKLOADS = tuple(BUILDERS)


def make_cases(workload, seed, workdir):
    """(sweep cases, probe cases) for one workload and seed."""
    return BUILDERS[workload](seed, workdir)
