"""Non-existence certificates for equivariant maps into representation spheres.

The pipeline has two halves.  On the target side, the reduced graded
cohomology of the unit sphere S(V) of a fixed-point-free representation
vanishes in every grading that contains V — exactly, or after the mod-p
collapse of rotation characters.  On the source side, a free complex
carries a nonzero Euler power a^k . 1 in that same grading.  A C_p-map
from the source to S(V) would have to carry the witness through the zero
group while preserving it, so computing both records certifies that no
such map exists.

For p = 2 the antipodal (d-1)-sphere is an honest equivariant model of
the two-point configuration space of R^d, and the certificate is
unconditional (a Borsuk-Ulam statement).  For odd p no finite free model
of the configuration space is shipped; certificates run on skeletal
stand-ins of the universal free space and carry an explicit assumption
flag recording the comparison range needed to transfer the conclusion.
"""

import json
import weakref

from .cyclic_reps import (CyclicGroup, canonicalize, dim, format_rep, irrep,
                          reduced_regular)
from .errors import (BredonKitError, CertificateFailed, ContainmentFails,
                     EmptyRepresentation, WitnessVanishes)
from .exact_linalg import check_prime
from .free_space import free_prime, module_action, unit_class
from .gcw_complex import (conf2_model, ecp_skeleton, load_gcw, save_gcw,
                          sphere_of_rep)
from .mackey_bredon import MackeyCoefficients, ro_graded_cohomology

ENGINE_VERSION = "0.1.0"

ASSUMPTION_SURROGATE = (
    "skeletal surrogate source: transferring the conclusion to the p-point "
    "configuration space of R^d assumes the comparison map stays nontrivial "
    "through degree (p-1)(d-1)")
ASSUMPTION_USER = (
    "user-supplied source model: its equivalence to the intended "
    "configuration space is assumed, not verified")


def critical_exponent(p, d):
    """The Euler power that obstructs maps to S(V) for V the (d-1)-fold
    reduced regular representation: half its dimension for odd p (each
    rotation character is planar), the full dimension d-1 for p = 2."""
    p = check_prime(p)
    d = int(d)
    if d < 2:
        raise ValueError("need d >= 2, got %d" % d)
    if p == 2:
        return d - 1
    return (p - 1) * (d - 1) // 2


def target_rep(p, d):
    """V = (d-1) copies of the reduced regular representation of C_p."""
    return reduced_regular(CyclicGroup(check_prime(p))) * (int(d) - 1)


# S(V) models that some caller still holds, by (group order, multiplicities);
# a model leaves the map as soon as its last holder lets go of it
_live_spheres = weakref.WeakValueDictionary()


def _unit_sphere(v):
    """sphere_of_rep(v), or the live model of the same S(V) if one is held."""
    key = (v.group.order, tuple(sorted(v.mult.items())))
    x = _live_spheres.get(key)
    if x is None:
        x = _live_spheres[key] = sphere_of_rep(v)
    return x


def lemma_cohsphere_check(p, v, w):
    """Reduced cohomology of S(V)_+ in grading W, for W containing V.

    Containment is accepted either multiplicity-by-multiplicity (W an
    actual representation with W - V actual) or after the mod-p collapse
    of rotation characters (canonical grading (m, n) with m >= 0 and n at
    least the number of characters in V).  Returns the computed group;
    the containment hypothesis forces it to vanish, which callers assert.
    """
    p = check_prime(p)
    group = CyclicGroup(p)
    if v.group != group or w.group != group:
        raise ValueError("V and W must be representations of C_%d" % p)
    if not v.is_actual or v.is_zero:
        raise EmptyRepresentation("V must be an actual nonzero representation")
    if not v.is_fixed_point_free():
        raise ValueError("S(V) needs a fixed-point-free V")
    n_v = sum(c for k, c in v.mult.items() if k != 0)
    g = canonicalize(w, p)
    if not (w.is_actual and w.contains(v)):
        if not (g.m >= 0 and g.n >= n_v):
            raise ContainmentFails(
                "W does not contain V even after the mod-p collapse: need "
                "m >= 0 and n >= %d, got (%d, %d)" % (n_v, g.m, g.n))
    mackey = MackeyCoefficients(group, ("F", p))
    return ro_graded_cohomology(_unit_sphere(v), mackey, (g.m, g.n))


def source_witness(x, k, p):
    """The Euler power a^k . 1 on a free complex, verified nonzero.

    Raises WitnessVanishes when the power dies, which means the complex
    is inadequate as a source model for exponent k (too small a skeleton,
    or a quotient with no cohomology in the witness degree).
    """
    p = check_prime(p)
    if x.group.order != p:
        raise ValueError("source lives over C_%d, expected C_%d"
                         % (x.group.order, p))
    k = int(k)
    if k < 0:
        raise ValueError("need k >= 0")
    c = unit_class(x)
    for _ in range(k):
        c = module_action(x, "a", c)
    if c.is_zero():
        raise WitnessVanishes(
            "a^%d . 1 vanishes on this source (quotient degree %d is empty)"
            % (k, k * x.group.label_dim(1)))
    return c


class ObstructionProblem:
    """One non-existence question: does a C_p-map source -> S(V) exist?

    V is always the (d-1)-fold reduced regular representation; the source
    is a free complex tagged by how it was obtained (honest two-point
    configuration model, skeletal surrogate, or user-supplied).
    """

    KINDS = ("conf2-model", "surrogate-skeleton", "user-model")

    def __init__(self, p, d, source, kind, surrogate_m=None):
        self.p = check_prime(p)
        self.d = int(d)
        if self.d < 2:
            raise ValueError("need d >= 2, got %d" % self.d)
        if kind not in self.KINDS:
            raise ValueError("unknown source kind %r" % (kind,))
        if source.group.order != self.p:
            raise ValueError("source lives over C_%d, expected C_%d"
                             % (source.group.order, self.p))
        free_prime(source)
        self.source = source
        self.kind = kind
        self.surrogate_m = surrogate_m
        self.rep = target_rep(self.p, self.d)
        self.k = critical_exponent(self.p, self.d)
        expected = (self.p - 1) * (self.d - 1)
        if dim(self.rep) != expected:
            raise ValueError("target representation has the wrong dimension")

    def to_record(self):
        rec = {
            "p": self.p,
            "d": self.d,
            "kind": self.kind,
            "k": self.k,
            "rep": format_rep(self.rep),
            "source_cells": list(self.source.cell_count()),
        }
        if self.kind == "surrogate-skeleton":
            rec["surrogate_m"] = self.surrogate_m
        if self.kind == "user-model":
            rec["model"] = save_gcw(self.source)
        return rec

    def __repr__(self):
        return "<obstruction p=%d d=%d via %s>" % (self.p, self.d, self.kind)


def conf2_problem(d):
    """The honest p = 2 problem: antipodal S^(d-1) vs S((d-1) sign reps)."""
    return ObstructionProblem(2, d, conf2_model(d), "conf2-model")


def surrogate_problem(p, d, m=None):
    """Odd-p problem on the skeletal stand-in S(m xi) of the free universal
    space; m defaults to the smallest skeleton whose dimension exceeds the
    witness degree (m = k + 1)."""
    p = check_prime(p)
    k = critical_exponent(p, d)
    if m is None:
        m = k + 1
    m = int(m)
    return ObstructionProblem(p, d, ecp_skeleton(p, m), "surrogate-skeleton",
                              surrogate_m=m)


def user_problem(p, d, source):
    """Problem over a caller-supplied free source model (assumption-flagged)."""
    return ObstructionProblem(p, d, source, "user-model")


class ObstructionCertificate:
    """A re-checkable non-existence record: both halves recompute."""

    def __init__(self, data):
        self.data = dict(data)

    def __getitem__(self, key):
        return self.data[key]

    def to_json(self, indent=2):
        return json.dumps(self.data, indent=indent, sort_keys=True)

    def __repr__(self):
        return "<certificate p=%d d=%d rechecked=%s>" % (
            self.data["problem"]["p"], self.data["problem"]["d"],
            self.data["rechecked"])


def _conclusion(problem):
    base = ("no C_%d-equivariant map from the source model to S(%s) exists: "
            "the Euler power a^%d . 1 is nonzero on the source but every "
            "potential image group on the sphere vanishes"
            % (problem.p, format_rep(problem.rep), problem.k))
    if problem.kind == "conf2-model":
        return (base + "; the source is an equivariant model of the "
                "two-point configuration space of R^%d, so this is a "
                "Borsuk-Ulam statement" % problem.d)
    if problem.kind == "surrogate-skeleton":
        return (base + "; subject to the recorded assumption this rules out "
                "such maps from the %d-point configuration space of R^%d"
                % (problem.p, problem.d))
    return base


def certify(problem):
    """Run both halves of the pipeline and emit the certificate.

    Raises CertificateFailed when the target group refuses to vanish or
    the source witness dies; otherwise the returned certificate has been
    rebuilt from its own serialized problem and re-verified.  The target's
    S(V) model is held until certify returns, so that recheck reads the same
    model instead of building it again.
    """
    sphere = _unit_sphere(problem.rep)
    try:
        records = _records(problem)
        if problem.kind == "conf2-model":
            assumptions = []
        elif problem.kind == "surrogate-skeleton":
            assumptions = [ASSUMPTION_SURROGATE]
        else:
            assumptions = [ASSUMPTION_USER]
        cert = ObstructionCertificate({
            "problem": problem.to_record(),
            **records,
            "assumptions": assumptions,
            "conclusion": _conclusion(problem),
            "engine_version": ENGINE_VERSION,
            "rechecked": False,
        })
        recheck(cert)
        cert.data["rechecked"] = True
        return cert
    finally:
        del sphere    # a traceback keeps this frame, so let go of it here


def _records(problem):
    """The target and witness records of a problem, both computed afresh."""
    group = CyclicGroup(problem.p)
    w = irrep(group, 1) * problem.k
    target = lemma_cohsphere_check(problem.p, problem.rep, w)
    if target.dim != 0:
        raise CertificateFailed(
            "target group in grading (0, %d) is %s, expected 0"
            % (problem.k, target.describe()))
    try:
        witness = source_witness(problem.source, problem.k, problem.p)
    except WitnessVanishes as err:
        raise CertificateFailed("source witness vanishes: %s" % err)
    gm, gn = witness.grading
    return {
        "target_record": {
            "rep": format_rep(problem.rep),
            "grading": [0, problem.k],
            "group": target.describe(),
            "sphere_dim": dim(problem.rep) - 1,
        },
        "witness_record": {
            "k": problem.k,
            "grading": [gm, gn],
            "vector": list(witness.vector),
            "home": witness.home.describe(),
            "degree": problem.k * group.label_dim(1),
        },
    }


def _rebuild_problem(record):
    kind = record["kind"]
    if kind == "conf2-model":
        return conf2_problem(record["d"])
    if kind == "surrogate-skeleton":
        return surrogate_problem(record["p"], record["d"],
                                 record["surrogate_m"])
    if kind == "user-model":
        return user_problem(record["p"], record["d"],
                            load_gcw(record["model"]))
    raise ValueError("unknown source kind %r" % (kind,))


def recheck(cert):
    """Rebuild the problem from the certificate and recompute both records.

    Returns True; raises CertificateFailed on any discrepancy and when cert
    is not a mapping, or its problem is missing, malformed or unbuildable.
    """
    try:
        data = cert.data if isinstance(cert, ObstructionCertificate) else dict(cert)
        problem = _rebuild_problem(data["problem"])
    except (KeyError, TypeError, ValueError, BredonKitError) as err:
        raise CertificateFailed("stored problem cannot be rebuilt: %s: %s"
                                % (type(err).__name__, err))
    for key, record in _records(problem).items():
        if record != data.get(key):
            raise CertificateFailed(
                "stored %s does not recompute: %r vs %r"
                % (key, data.get(key), record))
    return True
