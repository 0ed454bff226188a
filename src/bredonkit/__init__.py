"""bredonkit: exact RO(C_n)-graded Bredon cohomology for cyclic groups.

Everything is integer or mod-p arithmetic; no floats, no approximation.
The main entry points:

    CyclicGroup, irrep, parse_rep        representations of C_n
    load_gcw, save_gcw, sphere_of_rep    equivariant cell complexes
    bredon_cohomology                    integer-graded groups
    ro_graded_cohomology                 representation-graded groups
    mp_group                             the C_p point table, three ways
    euler_order                          order of a character's Euler class
    free_cohomology, module_action       free complexes and the u/a/kappa ops
    certify, recheck                     non-existence certificates
"""

from .cyclic_reps import (CyclicGroup, VirtualRep, canonicalize, irrep,
                          format_rep, parse_grading, parse_rep,
                          reduced_regular, trivial_rep)
from .errors import (BredonKitError, CertificateFailed, ContainmentFails,
                     InvariantViolation, KappaUnsupported, NotFree, NotPrime,
                     ParseError, TrivialCharacter, UnsupportedGrading,
                     WitnessVanishes)
from .exact_linalg import GroupPresentation, IntMatrix, homology_at, snf
from .gcw_complex import (Cell, GCWComplex, based_zero_sphere, conf2_model,
                          ecp_skeleton, free_points, join, load_gcw,
                          minimal_rep_sphere, periodic_free_model, plus_point,
                          rep_sphere, save_gcw, smash, sphere_of_rep)
from .mackey_bredon import (BredonComplex, CohomologyClass,
                            MackeyCoefficients, bredon_cohomology,
                            bredon_homology, euler_action,
                            ro_graded_cohomology)
from .point_algebra import (euler_order, euler_reduced_regular_vanishes,
                            mp_group, render_label)
from .free_space import (FreeSpaceCohomology, euler_action_free,
                         free_cohomology, module_action,
                         skeletal_range_check, unit_class)
from .obstruction import (ENGINE_VERSION, ObstructionCertificate,
                          ObstructionProblem, certify, conf2_problem,
                          critical_exponent, lemma_cohsphere_check, recheck,
                          source_witness, surrogate_problem, target_rep,
                          user_problem)

__version__ = "0.1.0"
