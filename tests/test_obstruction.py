"""Certificates of non-existence for equivariant maps to repr. spheres."""

import itertools
import json
import weakref

import pytest

from bredonkit import obstruction
from bredonkit.cyclic_reps import (CyclicGroup, VirtualRep, dim, format_rep,
                                   irrep, trivial_rep)
from bredonkit.errors import (CertificateFailed, ContainmentFails,
                              EmptyRepresentation, NotFree, NotPrime,
                              WitnessVanishes)
from bredonkit.gcw_complex import conf2_model, ecp_skeleton, free_points
from bredonkit.obstruction import (ASSUMPTION_SURROGATE, ASSUMPTION_USER,
                                   ObstructionProblem, certify, conf2_problem,
                                   critical_exponent, lemma_cohsphere_check,
                                   recheck, source_witness, surrogate_problem,
                                   target_rep, user_problem)

C2 = CyclicGroup(2)
C3 = CyclicGroup(3)
C5 = CyclicGroup(5)


def test_critical_exponents_and_target_reps():
    assert critical_exponent(3, 2) == 1
    assert critical_exponent(3, 3) == 2
    assert critical_exponent(5, 2) == 2
    assert critical_exponent(5, 3) == 4
    assert critical_exponent(2, 3) == 2
    assert critical_exponent(2, 5) == 4
    for p, d in itertools.product((2, 3, 5), (2, 3, 4)):
        v = target_rep(p, d)
        assert dim(v) == (p - 1) * (d - 1)
        k = critical_exponent(p, d)
        if p == 2:
            assert k == dim(v)
        else:
            assert 2 * k == dim(v)
    with pytest.raises(NotPrime):
        critical_exponent(6, 2)
    with pytest.raises(ValueError):
        critical_exponent(3, 1)


def test_sphere_vanishing_in_containing_gradings():
    assert lemma_cohsphere_check(3, irrep(C3, 1), irrep(C3, 1)).dim == 0
    v = irrep(C5, 1) + irrep(C5, 2)
    assert lemma_cohsphere_check(5, v, v).dim == 0
    assert lemma_cohsphere_check(
        3, irrep(C3, 1), trivial_rep(C3) + irrep(C3, 1)).dim == 0


def test_sphere_vanishing_through_the_mod_p_collapse():
    # W = 2xi does not contain xi + xi^2 literally, but collapses to (0, 2)
    v = irrep(C5, 1) + irrep(C5, 2)
    assert lemma_cohsphere_check(5, v, irrep(C5, 1) * 2).dim == 0


def test_sphere_vanishing_sweep():
    for p in (3, 5):
        g = CyclicGroup(p)
        labels = g.nontrivial_labels()
        shapes = [c for r in (1, 2)
                  for c in itertools.combinations_with_replacement(labels, r)]
        for shape in shapes:
            v = VirtualRep(g, {})
            for k in shape:
                v = v + irrep(g, k)
            for w in (v, v + trivial_rep(g), v + irrep(g, 1)):
                assert lemma_cohsphere_check(p, v, w).dim == 0, (p, shape, w)


def test_containment_is_enforced():
    v2 = irrep(C3, 1) * 2
    with pytest.raises(ContainmentFails):
        lemma_cohsphere_check(3, v2, irrep(C3, 1))
    # virtual W with a negative trivial part collapses to m < 0
    with pytest.raises(ContainmentFails):
        lemma_cohsphere_check(3, irrep(C3, 1),
                              irrep(C3, 1) - trivial_rep(C3))
    with pytest.raises(EmptyRepresentation):
        lemma_cohsphere_check(3, irrep(C3, 1) - irrep(C3, 1), irrep(C3, 1))
    with pytest.raises(ValueError):
        lemma_cohsphere_check(3, trivial_rep(C3) + irrep(C3, 1), irrep(C3, 1))
    with pytest.raises(ValueError):
        lemma_cohsphere_check(3, irrep(C5, 1), irrep(C5, 1))


def test_source_witness_values():
    w = source_witness(ecp_skeleton(3, 2), 1, 3)
    assert w.grading == (0, 1) and not w.is_zero()
    assert w.home.describe() == "F_3"
    w = source_witness(conf2_model(3), 2, 2)
    assert w.grading == (0, 2) and w.vector == (1,)
    # k = 0 is the unit itself
    assert source_witness(conf2_model(2), 0, 2).grading == (0, 0)


def test_source_witness_vanishing():
    with pytest.raises(WitnessVanishes):
        source_witness(free_points(C3, 1), 1, 3)
    # skeleton too small for the requested power
    with pytest.raises(WitnessVanishes):
        source_witness(ecp_skeleton(3, 2), 2, 3)
    with pytest.raises(ValueError):
        source_witness(ecp_skeleton(3, 2), 1, 5)


def test_problem_validation():
    with pytest.raises(ValueError):
        ObstructionProblem(3, 1, ecp_skeleton(3, 2), "surrogate-skeleton")
    with pytest.raises(ValueError):
        ObstructionProblem(3, 2, ecp_skeleton(3, 2), "mystery-model")
    with pytest.raises(ValueError):
        ObstructionProblem(5, 2, ecp_skeleton(3, 3), "surrogate-skeleton")
    with pytest.raises(NotFree):
        from bredonkit.gcw_complex import rep_sphere
        ObstructionProblem(3, 2, rep_sphere(irrep(C3, 1)), "user-model")
    with pytest.raises(NotPrime):
        surrogate_problem(9, 2)


def test_antipodal_certificates_are_unconditional():
    for d in (2, 3, 4, 5):
        cert = certify(conf2_problem(d))
        assert cert.data["rechecked"] is True
        assert cert["assumptions"] == []
        assert cert.data["target_record"]["group"] == "0"
        assert cert.data["witness_record"]["vector"] == [1]
        assert cert.data["witness_record"]["k"] == d - 1
        assert "Borsuk-Ulam" in cert["conclusion"]
        assert cert.data["problem"]["kind"] == "conf2-model"


def test_surrogate_certificates_carry_the_assumption():
    for p, d in ((3, 2), (3, 3), (5, 2)):
        cert = certify(surrogate_problem(p, d))
        assert cert.data["rechecked"] is True
        assert cert["assumptions"] == [ASSUMPTION_SURROGATE]
        assert cert.data["target_record"]["group"] == "0"
        assert cert.data["witness_record"]["vector"] != []
        k = critical_exponent(p, d)
        assert cert.data["problem"]["surrogate_m"] == k + 1
        assert cert.data["witness_record"]["grading"] == [0, k]


def test_bigger_surrogate_skeletons_also_witness():
    for p, d, ms in ((3, 2, (2, 3, 4)), (5, 2, (3, 4))):
        for m in ms:
            cert = certify(surrogate_problem(p, d, m))
            assert cert.data["rechecked"] is True
            assert cert.data["problem"]["surrogate_m"] == m


def test_inadequate_sources_fail_loudly():
    with pytest.raises(CertificateFailed) as info:
        certify(user_problem(3, 2, free_points(C3, 1)))
    assert "witness vanishes" in str(info.value)
    # a skeleton below the witness degree fails the same way
    with pytest.raises(CertificateFailed):
        certify(surrogate_problem(3, 3, 2))


def test_user_model_certificates_round_trip_through_json():
    cert = certify(user_problem(2, 3, conf2_model(3)))
    assert cert["assumptions"] == [ASSUMPTION_USER]
    assert "group cyclic 2" in cert.data["problem"]["model"]
    blob = cert.to_json()
    assert recheck(json.loads(blob)) is True


def test_tampered_certificates_are_rejected():
    cert = certify(conf2_problem(3))
    data = json.loads(cert.to_json())
    data["witness_record"]["vector"] = [0]
    with pytest.raises(CertificateFailed):
        recheck(data)
    data = json.loads(cert.to_json())
    data["target_record"]["group"] = "F_2"
    with pytest.raises(CertificateFailed):
        recheck(data)


def test_malformed_certificates_are_rejected():
    blob = certify(conf2_problem(3)).to_json()

    def without_target(data):
        del data["target_record"]

    def without_d(data):
        del data["problem"]["d"]

    def d_as_text(data):
        data["problem"]["d"] = "three"

    def emptied(data):
        data.clear()

    for mutate in (without_target, without_d, d_as_text, emptied):
        data = json.loads(blob)
        mutate(data)
        with pytest.raises(CertificateFailed):
            recheck(data)


def test_a_certificate_as_json_text_is_rejected():
    # to_json() is text, not a mapping: parse it with json.loads first
    with pytest.raises(CertificateFailed):
        recheck(certify(conf2_problem(3)).to_json())


def test_no_certificate_is_rejected():
    with pytest.raises(CertificateFailed):
        recheck(None)


def test_certificate_payload_shape():
    cert = certify(surrogate_problem(3, 2))
    data = json.loads(cert.to_json())
    assert sorted(data) == ["assumptions", "conclusion", "engine_version",
                            "problem", "rechecked", "target_record",
                            "witness_record"]
    assert data["engine_version"]
    assert data["target_record"]["rep"] == format_rep(target_rep(3, 2))
    assert data["target_record"]["sphere_dim"] == 1
    assert data["witness_record"]["degree"] == 2


@pytest.fixture
def builds(monkeypatch):
    """Weak references to every S(V) model built, in build order."""
    out = []
    build = obstruction.sphere_of_rep

    def counted(v):
        x = build(v)
        out.append(weakref.ref(x))
        return x
    monkeypatch.setattr(obstruction, "sphere_of_rep", counted)
    return out


def test_certify_and_its_recheck_share_one_sphere_model(builds):
    cert = certify(conf2_problem(4))
    assert cert.data["rechecked"] is True
    assert len(builds) == 1
    # nothing outlives the certificate
    assert len(obstruction._live_spheres) == 0
    assert builds[0]() is None
    with pytest.raises(CertificateFailed) as info:
        certify(surrogate_problem(3, 3, 2))
    assert "witness vanishes" in str(info.value)
    assert len(builds) == 2
    assert len(obstruction._live_spheres) == 0
    assert builds[1]() is None


def test_a_stored_certificate_rechecks_on_its_own_model(builds):
    blob = certify(conf2_problem(3)).to_json()
    assert len(builds) == 1
    assert recheck(json.loads(blob)) is True
    assert len(builds) == 2
    # the recheck still recomputes both records from the rebuilt problem
    for key, field, wrong in (("target_record", "group", "F_2"),
                              ("witness_record", "vector", [0])):
        data = json.loads(blob)
        data[key][field] = wrong
        with pytest.raises(CertificateFailed):
            recheck(data)
    assert len(builds) == 4
    assert len(obstruction._live_spheres) == 0


def test_direct_sphere_checks_build_their_own_models(builds):
    v = irrep(C5, 1) + irrep(C5, 2)
    for _ in range(2):
        assert lemma_cohsphere_check(5, v, v).dim == 0
    assert len(builds) == 2
    assert all(ref() is None for ref in builds)
