from fractions import Fraction

import pytest

from quadlie.parabolic import build_nilradical
from quadlie.roots import (
    CartanType,
    build,
    cartan_matrix,
    epsilon_to_simple,
    lemma_subsroot,
    matrix_constants_agree,
)

Q = Fraction

GAMMA_MAX = {
    "A1": (1,),
    "A3": (1, 1, 1),
    "A5": (1, 1, 1, 1, 1),
    "B2": (1, 2),
    "B3": (1, 2, 2),
    "B5": (1, 2, 2, 2, 2),
    "C3": (2, 2, 1),
    "C5": (2, 2, 2, 2, 1),
    "D4": (1, 2, 1, 1),
    "D5": (1, 2, 2, 1, 1),
    "E6": (1, 2, 2, 3, 2, 1),
    "E7": (2, 2, 3, 4, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
    "F4": (2, 3, 4, 2),
    "G2": (3, 2),
}

COUNTS = {
    "A1": 1,
    "A3": 6,
    "A5": 15,
    "B2": 4,
    "B3": 9,
    "B5": 25,
    "C3": 9,
    "C5": 25,
    "D4": 12,
    "D5": 20,
    "E6": 36,
    "E7": 63,
    "E8": 120,
    "F4": 24,
    "G2": 6,
}


def test_rank_bounds():
    with pytest.raises(ValueError):
        CartanType("B", 1)
    with pytest.raises(ValueError):
        CartanType("C", 2)
    with pytest.raises(ValueError):
        CartanType("D", 3)
    with pytest.raises(ValueError):
        CartanType("E", 9)
    with pytest.raises(ValueError):
        CartanType("F", 5)
    with pytest.raises(ValueError):
        CartanType.parse("H4")
    assert CartanType.parse("a2") == CartanType("A", 2)


def test_a2_positive_roots():
    rs = build("A2")
    assert rs.positive == ((0, 1), (1, 0), (1, 1))
    assert rs.gamma_max == (1, 1)


@pytest.mark.parametrize("name", sorted(GAMMA_MAX))
def test_positive_count_and_highest_root_goldens(name):
    rs = build(name)
    assert len(rs.positive) == COUNTS[name]
    assert rs.gamma_max == GAMMA_MAX[name]


def test_e6_highest_root_pairs_only_with_node_two():
    rs = build("E6")
    for i, alpha in enumerate(rs.simple):
        expected = 1 if i == 1 else 0
        assert rs.cartan_pair(rs.gamma_max, alpha) == expected


def test_root_strings():
    a2 = build("A2")
    assert a2.root_string((1, 0), (0, 1)) == (0, 1)
    e6 = build("E6")
    assert e6.root_string(e6.gamma_max, e6.simple[1]) == (-1, 0)
    g2 = build("G2")
    assert g2.root_string((0, 1), (1, 0)) == (0, 3)
    with pytest.raises(ValueError):
        g2.root_string((1, 0), (1, 0))
    with pytest.raises(ValueError):
        a2.root_string((2, 2), (1, 0))


def test_lemma_subsroot_cases():
    e6 = build("E6")
    rep = lemma_subsroot(e6, e6.gamma_max, e6.simple[1])
    assert rep.ok
    assert not rep.sum_is_root and rep.difference_is_root and rep.pairing_sign > 0

    a2 = build("A2")
    rep = lemma_subsroot(a2, (1, 0), (0, 1))
    assert rep.ok
    assert rep.sum_is_root and not rep.difference_is_root and rep.pairing_sign < 0

    # orthogonal, neither sum nor difference a root: clauses vacuously hold
    d4 = build("D4")
    rep = lemma_subsroot(d4, (0, 0, 1, 0), (1, 0, 0, 0))
    assert rep.ok
    assert not rep.sum_is_root and not rep.difference_is_root and rep.pairing_sign == 0


def test_chevalley_a2_and_g2_magnitudes():
    a2 = build("A2")
    assert abs(a2.n_constant((1, 0), (0, 1))) == 1
    g2 = build("G2")
    assert abs(g2.n_constant((1, 0), (1, 1))) == 2  # string p = 1
    assert abs(g2.n_constant((1, 0), (2, 1))) == 3  # string p = 2
    # antisymmetry of the stored map
    assert g2.n_constant((1, 1), (1, 0)) == -g2.n_constant((1, 0), (1, 1))


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_positive_part_satisfies_jacobi(name):
    rs = build(name)
    # the nilradical with every simple root marked is the whole positive part
    algebra = build_nilradical(name, range(1, rs.rank + 1)).algebra  # validates Jacobi
    assert algebra.dim == COUNTS[name]


def test_chevalley_magnitudes_match_strings_everywhere():
    for name in ["B3", "C3", "D4", "G2", "F4"]:
        rs = build(name)
        for (a, b), n in rs.chevalley.items():
            assert abs(n) == rs._p_value(a, b) + 1


def test_epsilon_round_trip_and_cartan_consistency():
    for name in ["A3", "B3", "C4", "D4"]:
        rs = build(name)
        for root, eps in rs.epsilon.items():
            assert epsilon_to_simple(rs, eps) == root
        # Cartan integers re-derived from the epsilon dot products
        for i, a in enumerate(rs.simple):
            for j, b in enumerate(rs.simple):
                ea, eb = rs.epsilon[a], rs.epsilon[b]
                dot_ab = sum(x * y for x, y in zip(ea, eb))
                dot_bb = sum(x * x for x in eb)
                assert Q(2) * dot_ab / dot_bb == rs.cartan[i][j]


@pytest.mark.parametrize("name", ["A3", "B3", "B4", "C3", "C4", "D4", "D5"])
def test_matrix_realization_cross_check(name):
    assert matrix_constants_agree(build(name))


def test_cartan_matrix_shapes():
    assert cartan_matrix(CartanType("G", 2)) == ((2, -1), (-3, 2))
    b3 = cartan_matrix(CartanType("B", 3))
    assert b3[1][2] == -2 and b3[2][1] == -1
    c3 = cartan_matrix(CartanType("C", 3))
    assert c3[1][2] == -1 and c3[2][1] == -2
