"""Property tests over random actual representations of C_2 ... C_8.

Each drawn V keeps the join model of S(V + 1), the largest complex built
from it, at 2000 predicted orbit cells or fewer.  The draws are
derandomized, so every run checks the same examples.
"""

from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bredonkit.cyclic_reps import CyclicGroup, VirtualRep, dim, trivial_rep
from bredonkit.gcw_complex import (_join_cell_count, _sphere_pieces, load_gcw,
                                   plus_point, rep_sphere, save_gcw,
                                   sphere_of_rep)

MAX_PREDICTED_CELLS = 2000

_bounded = settings(derandomize=True, database=None, max_examples=20,
                    deadline=None)


@st.composite
def actual_reps(draw):
    group = CyclicGroup(draw(st.integers(2, 8)))
    labels = draw(st.lists(st.integers(0, group.order // 2),
                           min_size=1, max_size=4))
    v = VirtualRep(group, Counter(labels))
    pieces = _sphere_pieces(v + trivial_rep(group))
    assume(_join_cell_count(pieces) <= MAX_PREDICTED_CELLS)
    return v


def _spaces(v):
    """(name, complex, Euler characteristic) of S(V), S^V and S(V)_+."""
    odd = dim(v) % 2
    unit = sphere_of_rep(v)
    return (("S(V)", unit, 2 * odd),
            ("S^V", rep_sphere(v), 2 - 2 * odd),
            ("S(V)_+", plus_point(unit), 2 * odd + 1))


@_bounded
@given(actual_reps())
def test_saved_complexes_load_back_equal(v):
    for name, x, _ in _spaces(v):
        y = load_gcw(save_gcw(x))
        assert y == x, name
        assert y.basepoint == x.basepoint, name


@_bounded
@given(actual_reps())
def test_euler_characteristics_agree(v):
    for name, x, want in _spaces(v):
        layers = tuple(map(len, x.expand().layers))
        assert layers == x.cell_count(), name
        chi = sum((-1) ** k * c for k, c in enumerate(x.cell_count()))
        assert chi == want, name
