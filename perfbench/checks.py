"""Independent answer checks of the bredonkit benchmark.

Each check recomputes an answer by a route other than the one the query took
and returns None when the answer holds, or a one-line reason when it does not.
Every answer is also compared with the digest recorded in answers.json; these
checks add a second opinion where the library has one:

  point_table   fp windows against method c (the closed form); Euler orders
                against n/gcd(n, k); regular-class vanishing against the
                number of distinct prime divisors
  graded_reads  fp reads of a free sphere against its quotient table
                free_cohomology(x).dim(m + 2n)
  euler_chain   a = y.u on every step; a^k . 1 nonzero exactly while
                k * step <= dim; e(xi^i + xi^j) = i*j * a^2
  certificates  recheck() of the certificate parsed from the JSON payload
"""

import json
import math

import bredonkit


def _rows(payload):
    return json.loads(payload)["rows"]


def point_rows(job, payload, ctx):
    p = job.params["p"]
    m0, m1 = job.params["m"]
    n0, n1 = job.params["n"]
    rows = _rows(payload)
    want = [(m, n) for m in range(m0, m1 + 1) for n in range(n0, n1 + 1)]
    if [(r["m"], r["n"]) for r in rows] != want:
        return "rows do not cover the window"
    for r in rows:
        g = bredonkit.mp_group(p, (r["m"], r["n"]), "c")
        if (r["dim"], r["group"], r["label"]) != (g.dim, g.describe(),
                                                  ";".join(g.labels)):
            return "(%d, %d) differs from the closed form" % (r["m"], r["n"])
    return None


def euler_order(job, payload, ctx):
    n, k = job.params["n"], job.params["k"]
    (row,) = _rows(payload)
    order = n // math.gcd(n, k)
    if (row["order"], row["nontrivial"]) != (order, order > 1):
        return "order %r, expected %d" % (row["order"], order)
    return None


def _distinct_primes(n):
    return sum(1 for q in range(2, n + 1)
               if n % q == 0 and all(q % r for r in range(2, q)))


def euler_regular(job, payload, ctx):
    n = job.params["n"]
    (row,) = _rows(payload)
    if row["vanishes"] != (_distinct_primes(n) >= 2):
        return "vanishing %r for C_%d" % (row["vanishes"], n)
    return None


def _fp_dim(text, p):
    if text == "0":
        return 0
    if text == "F_%d" % p:
        return 1
    base, _, exp = text.partition("^")
    if base != "F_%d" % p or not exp.isdigit():
        raise ValueError("not an F_%d vector space: %r" % (p, text))
    return int(exp)


def free_table(job, payload, ctx):
    name, p = job.params["space"], job.params["p"]
    if name not in ctx:
        with open(job.argv[1]) as handle:
            ctx[name] = bredonkit.free_cohomology(
                bredonkit.load_gcw(handle.read()))
    step = 1 if p == 2 else 2
    s = job.params["m"] + step * job.params["n"]
    (row,) = _rows(payload)
    got, want = _fp_dim(row["group"], p), ctx[name].dim(s)
    if got != want:
        return "dim %d, quotient table has %d in degree %d" % (got, want, s)
    return None


def recheck(job, payload, ctx):
    cert = json.loads(payload)["certificate"]
    if cert["rechecked"] is not True:
        return "certificate was not rechecked when issued"
    try:
        bredonkit.recheck(cert)
    except bredonkit.CertificateFailed as err:
        return "recheck failed: %s" % err
    return None


def chain(x, table, classes):
    """classes = [1, a.1, a^2.1, ...] ending with the first zero class."""
    step = x.group.label_dim(1)
    if table != (1,) * (x.dim + 1):
        return "quotient table %r is not one F_p per degree" % (table,)
    for c, nxt in zip(classes, classes[1:]):
        via_yu = bredonkit.module_action(
            x, "u", bredonkit.module_action(x, "y", c))
        if via_yu != nxt:
            return "a != y.u at grading %s" % (c.grading,)
    alive = [not c.is_zero() for c in classes[1:]]
    if alive != [True] * (x.dim // step) + [False]:
        return "a-powers nonzero for %r, expected k <= %d" % (
            alive, x.dim // step)
    return None


def euler2_scaling(x, unit, k1, k2, result):
    p = x.group.order
    a2 = bredonkit.module_action(x, "a", bredonkit.module_action(x, "a", unit))
    want = tuple((k1 * k2 * v) % p for v in a2.vector)
    got = tuple(v % p for v in result.vector)
    if got != want or result.grading != a2.grading:
        return "e(xi^%d + xi^%d) is %r, expected %r" % (k1, k2, got, want)
    return None


CLI_CHECKS = {
    "point_rows": point_rows,
    "euler_order": euler_order,
    "euler_regular": euler_regular,
    "free_table": free_table,
    "recheck": recheck,
}
