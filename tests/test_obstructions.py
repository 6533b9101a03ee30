from fractions import Fraction

import pytest

from quadlie.forms import decide_nondegenerate, invariant_form_space, radical
from quadlie.hall import free_nilpotent
from quadlie.liealg import LieAlgebra, abelian, heisenberg
from quadlie.linalg import Subspace
from quadlie.obstructions import (
    Decomposition,
    HypothesesFail,
    coordinate_complement,
    default_decompositions,
    dim_series_obstruction,
    heisenberg_reiter_obstruction,
    theta_ideal,
    theta_search,
    validate_decomposition,
)

Q = Fraction


def eight_dim() -> LieAlgebra:
    return LieAlgebra(
        8, {(0, 1): {6: 1}, (1, 2): {7: 1}, (2, 3): {4: 1}, (0, 3): {5: 1}}
    )


def test_dim_series_heisenberg_fails_at_one():
    cert = dim_series_obstruction(heisenberg())
    assert cert is not None
    assert cert.j == 1
    assert (cert.dim_descending, cert.dim_ascending, cert.dim) == (1, 1, 3)
    assert cert.verify(heisenberg())


def test_dim_series_passes():
    assert dim_series_obstruction(free_nilpotent(3, 2)) is None
    assert dim_series_obstruction(abelian(4)) is None


def test_dim_series_free_two_step_iff_three_generators():
    for p in (2, 4, 5):
        cert = dim_series_obstruction(free_nilpotent(p, 2))
        assert cert is not None and cert.j == 1


def test_theta_abelian_single_part_is_zero():
    g = abelian(3)
    d = Decomposition((Subspace.full(3),), "whole space")
    assert theta_ideal(g, d).is_zero()


def test_decomposition_validation():
    g = heisenberg()
    with pytest.raises(ValueError):
        validate_decomposition(g, Decomposition(()))
    with pytest.raises(ValueError):
        validate_decomposition(g, Decomposition((Subspace.zero(3),)))
    with pytest.raises(ValueError):
        # too small: span{e1} + C^1(g) misses e2
        validate_decomposition(g, Decomposition((Subspace.spanned_by(3, [[1, 0, 0]]),)))
    with pytest.raises(ValueError):
        # not direct
        validate_decomposition(
            g,
            Decomposition(
                (Subspace.spanned_by(3, [[1, 0, 0]]), Subspace.spanned_by(3, [[1, 0, 0]])),
            ),
        )


def test_theta_search_heisenberg_finds_singleton_split():
    cert = theta_search(heisenberg())
    assert cert is not None
    assert len(cert.decomposition.parts) == 2
    assert cert.theta == Subspace.spanned_by(3, [[0, 0, 1]])
    assert cert.verify(heisenberg())


def test_theta_search_free_three_two_exhausts_to_none():
    assert theta_search(free_nilpotent(3, 2)) is None


def test_theta_zero_for_all_decompositions_when_metric_exists():
    g = free_nilpotent(3, 2)
    for d in default_decompositions(g):
        assert theta_ideal(g, d).is_zero()


def test_coordinate_complement():
    g = heisenberg()
    assert coordinate_complement(g) == [0, 1]


def test_heisenberg_reiter_eight_dim():
    g = eight_dim()
    v1 = Subspace.spanned_by(8, [g.basis_vector(0), g.basis_vector(2)])
    v2 = Subspace.spanned_by(8, [g.basis_vector(1), g.basis_vector(3)])
    cert = heisenberg_reiter_obstruction(g, v1, v2)
    assert not isinstance(cert, HypothesesFail)
    assert cert.verify(g)


def test_heisenberg_reiter_fails_on_free_three_two():
    g = free_nilpotent(3, 2)
    v1 = Subspace.spanned_by(6, [g.basis_vector(0), g.basis_vector(1)])
    v2 = Subspace.spanned_by(6, [g.basis_vector(2)])
    out = heisenberg_reiter_obstruction(g, v1, v2)
    assert isinstance(out, HypothesesFail)
    assert "[V1,V1]" in out.reason


def test_soundness_certificate_implies_never_admits():
    for g in (heisenberg(), free_nilpotent(4, 2), eight_dim()):
        has_cert = dim_series_obstruction(g) is not None or theta_search(g) is not None
        assert has_cert
        verdict = decide_nondegenerate(invariant_form_space(g))
        assert not verdict.admits


def test_theta_contained_in_radical_of_any_witness():
    g = free_nilpotent(3, 2)
    verdict = decide_nondegenerate(invariant_form_space(g))
    assert verdict.admits
    rad = radical(g, verdict.witness)
    assert rad.is_zero()
    for d in default_decompositions(g):
        assert theta_ideal(g, d).is_zero()
