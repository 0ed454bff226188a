"""Command-line surface: point tables, space reads, Euler orders, certificates.

Subcommands
    point     graded point cohomology over a window of gradings
    space     one graded group of a complex loaded from a file
    euler     Euler-class orders of characters; regular-representation check
    obstruct  non-existence certificates for maps to representation spheres
    selftest  fast internal consistency battery

Exit codes: 0 success, 1 mathematical failure (a vanishing witness, a failed
check, a refused computation such as F_p coefficients with (p-1)^2 >= 2^63),
2 usage or parse error.  Output formats are json, csv and md; payloads are
deterministic apart from the timestamp field.
"""

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from datetime import datetime, timezone

from .cyclic_reps import CyclicGroup, irrep, parse_rep, trivial_rep
from .errors import (BredonKitError, NotPrime, ParseError, TrivialCharacter)
from .exact_linalg import check_prime
from .gcw_complex import (based_zero_sphere, load_gcw, minimal_rep_sphere,
                          periodic_free_model, plus_point, sphere_of_rep)
from .mackey_bredon import (MackeyCoefficients, bredon_cohomology,
                            ro_graded_cohomology)
from .obstruction import (ENGINE_VERSION, certify, conf2_problem,
                          lemma_cohsphere_check, surrogate_problem,
                          user_problem)
from .point_algebra import euler_order, euler_reduced_regular_vanishes, mp_group

_USAGE_ERRORS = (ValueError, ParseError, NotPrime, TrivialCharacter)


class OutputDocument:
    """One renderable result: rows (and optionally a nested certificate)."""

    def __init__(self, command, fieldnames, rows, certificate=None):
        self.metadata = {
            "engine_version": ENGINE_VERSION,
            "command": command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        self.fieldnames = list(fieldnames)
        self.rows = list(rows)
        self.certificate = certificate

    def render(self, fmt):
        if fmt == "json":
            payload = {"metadata": self.metadata, "rows": self.rows}
            if self.certificate is not None:
                payload["certificate"] = self.certificate
            return json.dumps(payload, indent=2, sort_keys=True)
        if fmt == "csv":
            out = io.StringIO()
            writer = csv.DictWriter(out, fieldnames=self.fieldnames,
                                    lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: self._flat(row.get(k, ""))
                                 for k in self.fieldnames})
            return out.getvalue().rstrip("\n")
        if fmt == "md":
            head = "| " + " | ".join(self.fieldnames) + " |"
            rule = "|" + "|".join(" --- " for _ in self.fieldnames) + "|"
            lines = [head, rule]
            for row in self.rows:
                lines.append("| " + " | ".join(
                    str(self._flat(row.get(k, ""))) for k in self.fieldnames)
                    + " |")
            return "\n".join(lines)
        raise ValueError("unknown format %r" % (fmt,))

    @staticmethod
    def _flat(value):
        if isinstance(value, (list, tuple, dict)):
            return json.dumps(value, sort_keys=True)
        return value


def _parse_range(text):
    parts = str(text).split(":")
    if len(parts) != 2:
        raise ValueError("range must look like a:b, got %r" % (text,))
    a, b = int(parts[0]), int(parts[1])
    if a > b:
        raise ValueError("empty range %r" % (text,))
    return range(a, b + 1)


# ---------------------------------------------------------------------------
# point

_POINT_FIELDS = ("m", "n", "dim", "group", "label")
MAX_POINT_GRADINGS = 10_000


def cmd_point(args):
    p = check_prime(args.p)
    coeff = args.coeff or "fp"
    method = args.method
    if coeff == "z":
        if method not in (None, "a"):
            raise ValueError("integer coefficients support only --method a")
        method = "a"
    elif method is None:
        method = "all"
    ms, ns = _parse_range(args.m_range), _parse_range(args.n_range)
    count = (ms.stop - ms.start) * (ns.stop - ns.start)  # len() stops at 2^63
    if count > MAX_POINT_GRADINGS:
        raise ValueError("the window has %d gradings, more than the limit of %d"
                         % (count, MAX_POINT_GRADINGS))
    gradings = [(m, n) for m in ms for n in ns]

    if coeff == "z":
        group = CyclicGroup(p)
        mackey = MackeyCoefficients(group, "Z")
        sphere = based_zero_sphere(group)

        def one(g):
            pres = ro_graded_cohomology(sphere, mackey, g)
            return {"m": g[0], "n": g[1], "dim": pres.rank,
                    "group": pres.describe(), "label": ""}
    else:
        methods = ("a", "b", "c") if method == "all" else (method,)

        def one(g):
            results = [mp_group(p, g, tag) for tag in methods]
            first = results[0]
            for other in results[1:]:
                if (other.dim, other.labels) != (first.dim, first.labels):
                    raise BredonKitError(
                        "methods disagree at %s: %r vs %r"
                        % (g, (first.dim, first.labels),
                           (other.dim, other.labels)))
            return {"m": g[0], "n": g[1], "dim": first.dim,
                    "group": first.describe(),
                    "label": ";".join(first.labels)}

    rows = [one(g) for g in gradings]
    return OutputDocument(_echo(args), _POINT_FIELDS, rows), 0


# ---------------------------------------------------------------------------
# space

_SPACE_FIELDS = ("file", "grading", "coeff", "reduced", "group")


def cmd_space(args):
    with open(args.path) as handle:
        x = load_gcw(handle.read())
    coeff = args.coeff or "fp"
    ring = "Z" if coeff == "z" else ("F", x.group.order)
    mackey = MackeyCoefficients(x.group, ring)
    text = args.grading.strip()
    try:
        degree = int(text)
        is_degree = True
    except ValueError:
        is_degree = False
    if is_degree:
        if args.reduced and not x.is_based:
            x = plus_point(x)
        pres = bredon_cohomology(x, mackey, degree, reduced=bool(args.reduced))
        shown = str(degree)
        reduced = bool(args.reduced)
    else:
        v = parse_rep(text, x.group)
        pres = ro_graded_cohomology(x, mackey, v)
        shown = text
        reduced = True
    row = {"file": args.path, "grading": shown, "coeff": coeff,
           "reduced": reduced, "group": pres.describe()}
    return OutputDocument(_echo(args), _SPACE_FIELDS, [row]), 0


# ---------------------------------------------------------------------------
# euler

_EULER_FIELDS = ("n", "rep", "order", "nontrivial")
_EULER_RR_FIELDS = ("n", "vanishes", "order", "witnesses")


def cmd_euler(args):
    group = CyclicGroup(int(args.n))
    if args.reduced_regular and args.rep:
        raise ValueError("give either --rep or --reduced-regular, not both")
    if args.reduced_regular:
        rep = euler_reduced_regular_vanishes(group)
        row = {"n": group.order, "vanishes": rep["vanishes"],
               "order": rep["order"], "witnesses": rep["witnesses"]}
        return OutputDocument(_echo(args), _EULER_RR_FIELDS, [row]), 0
    if not args.rep:
        raise ValueError("euler needs --rep STR or --reduced-regular")
    v = parse_rep(args.rep, group)
    order = euler_order(group, v)   # single characters only
    row = {"n": group.order, "rep": args.rep, "order": order,
           "nontrivial": order > 1}
    return OutputDocument(_echo(args), _EULER_FIELDS, [row]), 0


# ---------------------------------------------------------------------------
# obstruct

_OBSTRUCT_FIELDS = ("p", "d", "kind", "k", "target_group", "witness_home",
                    "witness_vector", "assumptions", "rechecked")


def cmd_obstruct(args):
    p, d = int(args.p), int(args.d)
    if args.model and args.surrogate is not None:
        raise ValueError("give either --model or --surrogate, not both")
    if args.model:
        with open(args.model) as handle:
            problem = user_problem(p, d, load_gcw(handle.read()))
    elif p == 2 and args.surrogate is None:
        problem = conf2_problem(d)
    else:
        problem = surrogate_problem(p, d, args.surrogate)
    cert = certify(problem)
    row = {
        "p": p, "d": d, "kind": cert["problem"]["kind"],
        "k": cert["problem"]["k"],
        "target_group": cert["target_record"]["group"],
        "witness_home": cert["witness_record"]["home"],
        "witness_vector": cert["witness_record"]["vector"],
        "assumptions": len(cert["assumptions"]),
        "rechecked": cert["rechecked"],
    }
    return OutputDocument(_echo(args), _OBSTRUCT_FIELDS, [row],
                          certificate=cert.data), 0


# ---------------------------------------------------------------------------
# selftest

_SELFTEST_FIELDS = ("check", "ok", "detail")


def _check_point_methods():
    count = 0
    for m in range(-6, 7):
        for n in range(-3, 4):
            groups = [mp_group(3, (m, n), tag) for tag in "abc"]
            dims = {(g.dim, g.labels) for g in groups}
            if len(dims) != 1:
                return False, "disagreement at (%d, %d)" % (m, n)
            count += 1
    return True, "%d gradings, methods a=b=c" % count


def _check_euler_orders():
    for n in range(2, 13):
        group = CyclicGroup(n)
        for k in group.nontrivial_labels():
            want = n // math.gcd(n, k)
            if euler_order(group, k) != want:
                return False, "order mismatch at n=%d k=%d" % (n, k)
    return True, "orders n/gcd(n,k) for n <= 12"


def _check_regular_vanishing():
    for n, want in ((6, True), (12, True), (3, False), (4, False), (5, False)):
        got = euler_reduced_regular_vanishes(CyclicGroup(n))["vanishes"]
        if got is not want:
            return False, "C_%d: expected %s" % (n, want)
    return True, "vanishes iff two distinct prime divisors"


def _check_sphere_vanishing():
    g = CyclicGroup(3)
    for v in (irrep(g, 1), irrep(g, 1) * 2):
        for w in (v, v + trivial_rep(g), v + irrep(g, 1)):
            if lemma_cohsphere_check(3, v, w).dim != 0:
                return False, "nonzero at %r / %r" % (v, w)
    return True, "containing gradings vanish on S(V)"


def _check_certificates():
    for problem in (conf2_problem(2), conf2_problem(3), surrogate_problem(3, 2)):
        cert = certify(problem)
        if not cert["rechecked"]:
            return False, "certificate did not recheck"
    return True, "3 certificates issued and rechecked"


def _check_dd_fuzz():
    rng = random.Random(20260814)
    for i in range(40):
        n = rng.choice((2, 3, 4, 5, 6))
        group = CyclicGroup(n)
        kind = rng.randrange(3)
        if kind == 0:
            labels = [rng.choice(group.nontrivial_labels())
                      for _ in range(rng.randint(1, 2))]
            v = trivial_rep(group, rng.randint(0, 1))
            for k in labels:
                v = v + irrep(group, k)
            x = sphere_of_rep(v)
        elif kind == 1:
            x = periodic_free_model(rng.choice((2, 3, 5)), rng.randint(1, 4))
        else:
            x = minimal_rep_sphere(rng.choice((2, 3, 5)), rng.randint(1, 2))
        x.verify_dd()
    return True, "40 complexes, d.d = 0"


def cmd_selftest(args):
    checks = (
        ("point-methods", _check_point_methods),
        ("euler-orders", _check_euler_orders),
        ("regular-vanishing", _check_regular_vanishing),
        ("sphere-vanishing", _check_sphere_vanishing),
        ("certificates", _check_certificates),
        ("dd-fuzz", _check_dd_fuzz),
    )
    rows = []
    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as err:  # a crash is a failed check, not a crash
            ok, detail = False, "%s: %s" % (type(err).__name__, err)
        rows.append({"check": name, "ok": ok, "detail": detail})
        if not ok:
            failed += 1
    return OutputDocument(_echo(args), _SELFTEST_FIELDS, rows), (1 if failed else 0)


# ---------------------------------------------------------------------------
# wiring

def _echo(args):
    return "bredonkit " + " ".join(args._argv)


# built once per process: parse_args leaves the parser as it was, and help
# text reads the terminal width when it is printed, not when it is built
@functools.lru_cache(maxsize=1)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bredonkit",
        description="Graded Bredon cohomology tables, Euler-class orders, "
                    "and equivariant non-existence certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", help="point cohomology over a grading window")
    point.add_argument("--p", required=True, type=int, help="prime group order")
    point.add_argument("--m-range", dest="m_range", required=True,
                       help="integer degrees a:b (inclusive)")
    point.add_argument("--n-range", dest="n_range", required=True,
                       help="character multiplicities a:b (inclusive)")
    point.add_argument("--coeff", choices=("z", "fp"), default=None)
    point.add_argument("--method", choices=("a", "b", "c", "all"), default=None)

    space = sub.add_parser("space", help="one graded group of a stored complex")
    space.add_argument("path", help="complex in the gcw text format")
    space.add_argument("--grading", required=True,
                       help="integer degree or rep syntax like 'xi^2+1'")
    space.add_argument("--coeff", choices=("z", "fp"), default=None)
    space.add_argument("--reduced", action="store_true",
                       help="reduced groups for integer degrees")

    euler = sub.add_parser("euler", help="Euler-class orders of characters")
    euler.add_argument("--n", required=True, type=int, help="cyclic group order")
    euler.add_argument("--rep", default=None, help="a single character, e.g. 'xi^2'")
    euler.add_argument("--reduced-regular", dest="reduced_regular",
                       action="store_true",
                       help="test the reduced regular representation instead")

    obstruct = sub.add_parser("obstruct", help="emit a non-existence certificate")
    obstruct.add_argument("--p", required=True, type=int)
    obstruct.add_argument("--d", required=True, type=int)
    obstruct.add_argument("--model", default=None,
                          help="user source model in the gcw text format")
    obstruct.add_argument("--surrogate", type=int, default=None,
                          help="skeleton parameter m for the surrogate source")

    selftest = sub.add_parser("selftest",
                              help="run the internal consistency battery")

    for p in (point, space, euler, obstruct, selftest):
        p.add_argument("--format", choices=("json", "csv", "md"),
                       default="json")
    return parser


_COMMANDS = {
    "point": cmd_point,
    "space": cmd_space,
    "euler": cmd_euler,
    "obstruct": cmd_obstruct,
    "selftest": cmd_selftest,
}


def _join_range_flags(argv):
    # ranges like -4:4 start with a dash; glue them to their flag so the
    # parser does not mistake them for options
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--m-range", "--n-range") and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    try:
        args = _build_parser().parse_args(_join_range_flags(argv))
    except SystemExit as err:
        return 2 if err.code else 0
    args._argv = list(argv)
    try:
        doc, code = _COMMANDS[args.command](args)
    except _USAGE_ERRORS as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except BredonKitError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    fmt = getattr(args, "format", "json")
    print(doc.render(fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
