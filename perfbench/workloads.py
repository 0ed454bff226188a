"""The four seeded workloads of the bredonkit benchmark.

A workload is a list of strata.  A stratum holds interchangeable variants of
the same cost: the same grading written two ways, a window shifted by one
degree, an Euler class for another character of the same order.  A seed picks one variant of every
stratum and shuffles the order.  So every seed runs the same mix of work on
different inputs, and the spread between seeds stays small.  Choices that
would change the cost (which of two spheres, which surrogate size, which
skeleton height) are fixed, not drawn.  The answer to every variant of every
stratum was recorded at the commit that defined the benchmark and is stored in
answers.json (regenerate with `python3 perfbench/run.py --record`).

This module only describes inputs; it imports no bredonkit code, so the parent
process can plan a run without loading the package it measures.
"""

import random

WORKLOADS = ("point_table", "graded_reads", "euler_chain", "certificates")

# Every load is a closed loop: one client in one thread issues the next query
# only after the previous answer came back, as CLI and API callers do.
LOOP = "closed loop, 1 client, 1 thread"

WORK_DIR = "perfbench/_work"


class Job:
    """One unit of a plan: a CLI call, an API call, or an API chain.

    key       the name of the job in answers.json
    kind      'cli', 'chain' or 'euler2'
    argv      CLI arguments (kind 'cli')
    check     name of the independent check in checks.py, or None
    params    what the check and the API kinds need
    """

    def __init__(self, key, kind, argv=None, check=None, params=None):
        self.key = key
        self.kind = kind
        self.argv = list(argv or ())
        self.check = check
        self.params = dict(params or {})


def _cli(argv, check=None, **params):
    return Job(" ".join(argv), "cli", argv=argv, check=check, params=params)


# ---------------------------------------------------------------------------
# spaces written at set-up (graded_reads) or built in memory (euler_chain)
#
# name -> (group order, {character label: multiplicity}, kind)
#   kind 'unit'    unit sphere S(V) (sphere_of_rep), free
#   kind 'onept'   one-point compactification S^V (rep_sphere), based

SPACES = {
    "S2xi_C3": (3, {1: 2}, "unit"),
    "S3xi_C3": (3, {1: 3}, "unit"),
    "S2xi_C5": (5, {1: 2}, "unit"),
    "Sxi_xi2_C5": (5, {1: 1, 2: 1}, "unit"),
    "S3xi_C5": (5, {1: 3}, "unit"),
    "S2xi_C7": (7, {1: 2}, "unit"),
    "Sxi_xi2_C7": (7, {1: 1, 2: 1}, "unit"),
    "Sv_2xi_xi2_C4": (4, {1: 2, 2: 1}, "onept"),
    "Sv_xi_xi2_xi3_C6": (6, {1: 1, 2: 1, 3: 1}, "onept"),
}


def space_path(name):
    return "%s/%s.gcw" % (WORK_DIR, name)


def sphere_dim(name):
    """Top dimension of a free unit sphere S(V): dim V - 1."""
    order, labels, kind = SPACES[name]
    assert kind == "unit"
    return sum(2 * mult for mult in labels.values()) - 1


# ---------------------------------------------------------------------------
# point_table: disjoint `point` windows plus a minority of `euler` calls

POINT_PRIMES = (2, 3, 5, 7)
POINT_N_BLOCKS = (-24, -16, -8, 0, 8, 16)      # 8 characters per window
POINT_M_BLOCKS = (-11, 0)                       # 10 degrees per window
EULER_MAX_N = 30
# --reduced-regular for n = 29 alone takes 2.4 s, a third of a pass; it is
# left out so that a run holds enough passes for steady figures
REGULAR_MAX_N = 28


def _point_strata():
    strata = []
    for p in POINT_PRIMES:
        for coeff in ("fp", "z"):
            for n0 in POINT_N_BLOCKS:
                for m0 in POINT_M_BLOCKS:
                    # a seed shifts each window by one degree or not: the cost
                    # hardly changes, and the windows of a pass stay disjoint
                    variants = []
                    for m in (m0, m0 + 1):
                        argv = ["point", "--p", str(p),
                                "--m-range", "%d:%d" % (m, m + 9),
                                "--n-range", "%d:%d" % (n0, n0 + 7)]
                        if coeff == "z":
                            argv += ["--coeff", "z"]
                        variants.append(_cli(
                            argv, check="point_rows" if coeff == "fp" else None,
                            p=p, m=(m, m + 9), n=(n0, n0 + 7)))
                    strata.append(variants)
    for n in range(2, EULER_MAX_N + 1):
        strata.append([_cli(["euler", "--n", str(n), "--rep", "xi^%d" % k],
                            check="euler_order", n=n, k=k)
                       for k in range(1, n // 2 + 1)])
        if n <= REGULAR_MAX_N:
            strata.append([_cli(["euler", "--n", str(n), "--reduced-regular"],
                                check="euler_regular", n=n)])
    return strata


# ---------------------------------------------------------------------------
# graded_reads: `space FILE --grading ...` on complexes saved at set-up

def _rep_text(m, n, form):
    """m + n*xi written two ways; both parse to the same grading."""
    if form == 0:
        return "%d%+d*xi" % (m, n)
    return "%+d*xi%+d" % (n, m)


def _space_read(name, m, n, form):
    p = SPACES[name][0]
    argv = ["space", space_path(name), "--grading=" + _rep_text(m, n, form)]
    return _cli(argv, check="free_table", space=name, p=p, m=m, n=n)


def _graded_strata():
    strata = []
    # negative reads take the smash route; the C_5 and C_7 two-character
    # spheres of equal size take turns by degree (their costs differ, so a
    # seed does not choose between them)
    twins = [("S2xi_C5", "Sxi_xi2_C5"), ("S2xi_C7", "Sxi_xi2_C7"),
             ("S3xi_C3",)]
    for names in twins:
        top = sphere_dim(names[0])
        for n in (1, 2):
            for m in range(0, top + 2 * n + 2):
                name = names[m % len(names)]
                strata.append([_space_read(name, m, -n, form)
                               for form in (0, 1)])
    # S(3xi) over C_5 with -xi only: -2xi costs up to 24 s a read, and
    # degrees 4 and 5 of -xi cost 5.5 s each
    for m in (0, 1, 2, 3, 6, 7, 8):
        strata.append([_space_read("S3xi_C5", m, -1, form) for form in (0, 1)])
    # positive reads go through quotient periodicity
    for names in twins + [("S2xi_C3",), ("S3xi_C5",)]:
        top = sphere_dim(names[0])
        for n in (1, 2):
            for s in range(-1, top + 2):
                name = names[s % len(names)]
                strata.append([_space_read(name, s - 2 * n, n, form)
                               for form in (0, 1)])
    # integral degree reads on one-point compactifications
    for name in ("Sv_2xi_xi2_C4", "Sv_xi_xi2_xi3_C6"):
        for k in range(-1, 7):
            strata.append([_cli(["space", space_path(name), "--coeff", "z",
                                 "--reduced", "--grading=%d" % k], space=name)])
    return strata


# ---------------------------------------------------------------------------
# euler_chain: module_action chains and two-character Euler classes (API)

CHAIN_PRIMES = (2, 3, 5, 7, 11)
CHAIN_TOPS = (9, 15, 21)
CHAIN_SPHERES = ("S2xi_C3", "S3xi_C3", "S2xi_C5", "Sxi_xi2_C5", "S3xi_C5")
EULER2 = ((3, 4), (5, 3), (7, 3), (11, 3))     # (p, m) of ecp_skeleton(p, m)


def _chain(space, **params):
    return Job("chain " + space, "chain", params=dict(params, space=space))


def _euler_chain_strata():
    strata = []
    for p in CHAIN_PRIMES:
        for top in CHAIN_TOPS:
            strata.append([_chain("periodic(%d,%d)" % (p, top), p=p, top=top)])
    for name in CHAIN_SPHERES:
        strata.append([_chain(name, p=SPACES[name][0])])
    for p, m in EULER2:
        labels = range(1, p // 2 + 1)
        strata.append([Job("euler2 ecp(%d,%d) xi^%d+xi^%d" % (p, m, k1, k2),
                           "euler2", check="euler2_scaling",
                           params={"p": p, "m": m, "k1": k1, "k2": k2})
                       for k1 in labels for k2 in labels if k1 <= k2])
    return strata


# ---------------------------------------------------------------------------
# certificates: `obstruct` over distinct (p, d, --surrogate m) triples

# (p, d) pairs issued once with the default source; the heavy ones
# (p=2 d>=9, p=3 d=6, p=5 d=3) appear only here
LADDER = ([(2, d) for d in range(2, 11)] + [(3, d) for d in range(2, 7)]
          + [(5, 2), (5, 3), (7, 2)])
# (p, d, surrogate sizes in a pass): the sizes just past the critical
# exponent, fixed rather than drawn, since the cost grows with the size.
# The ten p=2 d=8 and p=3 d=5 calls (about 0.09 s each) hold the 90th
# percentile of a pass inside one cost cluster, away from its edges.
SURROGATES = ([(2, d, 8) for d in range(2, 8)]
              + [(3, d, 8) for d in (2, 3, 4)]
              + [(5, 2, 8), (7, 2, 3), (2, 8, 5), (3, 5, 3)])


def _critical_exponent(p, d):
    return d - 1 if p == 2 else (p - 1) * (d - 1) // 2


def _obstruct(p, d, m=None):
    argv = ["obstruct", "--p", str(p), "--d", str(d)]
    if m is not None:
        argv += ["--surrogate", str(m)]
    return _cli(argv, check="recheck", p=p, d=d)


def _certificate_strata():
    strata = [[_obstruct(p, d)] for p, d in LADDER]
    for p, d, count in SURROGATES:
        first = _critical_exponent(p, d) + 1
        strata += [[_obstruct(p, d, m)] for m in range(first, first + count)]
    return strata


_STRATA = {
    "point_table": _point_strata,
    "graded_reads": _graded_strata,
    "euler_chain": _euler_chain_strata,
    "certificates": _certificate_strata,
}


def strata(workload):
    return _STRATA[workload]()


def universe(workload):
    """Every job any seed can draw, once each, in a fixed order."""
    seen = {}
    for stratum in strata(workload):
        for job in stratum:
            seen.setdefault(job.key, job)
    return list(seen.values())


def plan(workload, seed):
    """The jobs of one pass for this seed: one variant per stratum."""
    rng = random.Random("%s:%d" % (workload, seed))
    chosen = [rng.choice(stratum) for stratum in strata(workload)]
    rng.shuffle(chosen)
    return chosen


def spaces_needed(jobs):
    """Names of the SPACES entries a list of jobs reads."""
    return sorted({job.params["space"] for job in jobs
                   if job.params.get("space") in SPACES})
