import random

from quadlie import kernels
from quadlie.linalg import Matrix, rref


def random_matrix(rng, nrows, ncols, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def test_active_backend_exposed():
    assert kernels.BACKEND == "pure"


def test_kernels_do_not_mutate_input():
    m = [[2, 4], [1, 2]]
    snapshot = [row[:] for row in m]
    kernels.rref_int(m, 2)
    kernels.det_int(m)
    assert m == snapshot


def test_det_known_values():
    assert kernels.det_int([]) == 1
    assert kernels.det_int([[7]]) == 7
    assert kernels.det_int([[1, 2], [3, 4]]) == -2
    assert kernels.det_int([[0, 1], [1, 0]]) == -1
    assert kernels.det_int([[1, 2], [2, 4]]) == 0


def test_rref_canonical_form_properties():
    rng = random.Random(44)
    from math import gcd

    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), bound=7)
        ncols = len(m[0])
        rows, pivots = kernels.rref_int(m, ncols)
        for r, c in enumerate(pivots):
            row = rows[r]
            assert row[c] > 0
            g = 0
            for x in row:
                g = gcd(g, x)
            assert g in (0, 1)
            # pivot column clear elsewhere
            for rr in range(len(rows)):
                if rr != r and rr < len(pivots):
                    assert rows[rr][c] == 0
        for r in range(len(pivots), len(rows)):
            assert not any(rows[r])
        # agreement with the Fraction-level RREF rank
        _, rank = rref(Matrix.from_rows(m, ncols))
        assert rank == len(pivots)
