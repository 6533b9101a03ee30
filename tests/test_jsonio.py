from fractions import Fraction

import pytest

from quadlie.hall import free_nilpotent
from quadlie.jsonio import (
    InputError,
    algebra_from_json,
    algebra_to_json,
    format_rational,
    load_algebra,
    parse_rational,
    subspace_from_json,
    subspace_to_json,
)
from quadlie.liealg import heisenberg
from quadlie.linalg import Subspace


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational(7) == 7
    for bad in ("1/0", "0.5", 1.5, "x", True, None, "1/-2"):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_format_round_trip():
    for q in (Fraction(1), Fraction(-3, 7), Fraction(0)):
        assert parse_rational(format_rational(q)) == q


def test_algebra_round_trip():
    for g in (heisenberg(), free_nilpotent(2, 3)):
        obj = algebra_to_json(g)
        back = algebra_from_json(obj)
        assert back.dim == g.dim
        assert back.labels == g.labels
        assert back.brackets == g.brackets


def test_algebra_json_validation():
    with pytest.raises(InputError):
        algebra_from_json({"dim": 3, "brackets": [{"i": 2, "j": 1, "terms": []}]})
    with pytest.raises(InputError):
        algebra_from_json({"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 4, "c": "1"}]}]})
    with pytest.raises(InputError):
        algebra_from_json(
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
                    {"i": 1, "j": 2, "terms": [{"k": 3, "c": "2"}]},
                ],
            }
        )
    with pytest.raises(InputError):
        load_algebra('{"dim": 3, "brackets": [{"i": 1, "j": 2, "terms": [{"k": 3, "c": "1/0"}]}]}')
    with pytest.raises(InputError):
        load_algebra("not json")
    # JSON true is not an index, nor 1.0; brackets and terms are lists of objects
    h3 = {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]}
    for bad in (
        {"dim": True, "brackets": []},
        {"dim": 3, "brackets": [{**h3, "i": 1.0}]},
        {"dim": 3, "brackets": [{**h3, "j": True}]},
        {"dim": 3, "brackets": [{**h3, "terms": {"k": 3}}]},
        {"dim": 3, "brackets": [{**h3, "terms": [{"k": True, "c": "1"}]}]},
        {"dim": 3, "brackets": {"i": 1}},
        {"dim": 3, "brackets": [[1, 2]]},
        {"dim": 3, "labels": 3},
    ):
        with pytest.raises(InputError):
            algebra_from_json(bad)
    # Jacobi failure surfaces as input error text
    with pytest.raises(InputError):
        algebra_from_json(
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "terms": [{"k": 3, "c": "1"}]},
                    {"i": 1, "j": 3, "terms": [{"k": 1, "c": "1"}]},
                ],
            }
        )


def test_subspace_round_trip():
    s = Subspace.spanned_by(4, [[1, 2, 0, 0], [0, 0, 1, Fraction(1, 2)]])
    obj = subspace_to_json(s)
    assert subspace_from_json(obj) == s
    with pytest.raises(InputError):
        subspace_from_json({"vectors": []})
    for bad in (
        {"ambient_dim": True, "vectors": [["1"]]},
        {"ambient_dim": 3, "vectors": ["101"]},
        {"ambient_dim": 3, "vectors": {"a": ["1", "0", "1"]}},
    ):
        with pytest.raises(InputError):
            subspace_from_json(bad)
