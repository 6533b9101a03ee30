import copy
import math
import random

import pytest
from test_integer_paths import ref_rref

from quadlie import kernels
from quadlie.linalg import Matrix, rref


def random_matrix(rng, nrows, ncols, bound=50):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def reference(rows, ncols):
    """{pivot: row} from Fraction Gauss-Jordan, each RREF row scaled to its
    primitive integer multiple (positive at the pivot, where it is 1)."""
    reduced, pivots = ref_rref(dense(rows, ncols), ncols)
    out = {}
    for row, p in zip(reduced, pivots):
        m = math.lcm(*(x.denominator for x in row))
        out[p] = {c: int(x * m) for c, x in enumerate(row) if x}
    return out


def test_active_backend_exposed():
    assert kernels.BACKEND == "pure"


def test_kernels_do_not_mutate_input():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 2, 2: 0}, {1: -3}, {}]
    snapshot = copy.deepcopy(rows)
    kernels.rref_int(rows, 3)
    assert rows == snapshot
    m = [[2, 4], [1, 2]]
    kernels.det_int(m)
    assert m == [[2, 4], [1, 2]]


def test_det_known_values():
    assert kernels.det_int([]) == 1
    assert kernels.det_int([[7]]) == 7
    assert kernels.det_int([[1, 2], [3, 4]]) == -2
    assert kernels.det_int([[0, 1], [1, 0]]) == -1
    assert kernels.det_int([[1, 2], [2, 4]]) == 0


def check_canonical(rows, ncols):
    """rref_int is the canonical form: primitive rows, positive pivots at
    each row's first column, zero at every other pivot, equal to the
    Fraction reference."""
    got = kernels.rref_int(rows, ncols)
    for p, row in got.items():
        assert min(row) == p and row[p] > 0
        assert 0 not in row.values()
        assert math.gcd(*row.values()) == 1
        assert not any(q in row for q in got if q != p)
    assert got == reference(rows, ncols)
    return got


def test_rref_canonical_form_properties():
    rng = random.Random(44)
    for _ in range(25):
        ncols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 6), ncols, bound=7)
        got = check_canonical(sparse(m), ncols)
        # agreement with the Fraction-level RREF rank
        _, rank = rref(Matrix.from_rows(m, ncols))
        assert rank == len(got)


def test_rref_of_no_rows_and_of_zero_rows():
    assert kernels.rref_int([], 4) == {}
    assert kernels.rref_int([{}, {2: 0}, {0: 0, 3: 0}], 4) == {}


EDGE_INPUTS = {
    # zero coefficients kept in the maps
    "zero_coefficients": ([{0: 0, 1: 2, 2: 4}, {0: 3, 1: 0, 2: 0}, {2: 0}], 3),
    # repeats, negated and scaled repeats, between independent rows
    "duplicates": ([{0: 2, 2: -4}, {1: 3}, {0: 2, 2: -4}, {0: -1, 2: 2}, {0: 6, 2: -12}], 3),
    # more columns than rows, pivots far apart, a non-primitive row
    "wide": ([{7: 5, 9: -3}, {2: 4, 7: 6}, {0: 6, 2: 4, 9: 2}], 10),
    # each new pivot lies right of the older ones, which must be cleared there
    "ascending_leads": ([{0: 1, 1: 2, 2: 3, 3: 1}, {1: 2, 2: -1}, {2: 3, 3: 1}], 4),
    # full rank before the last row
    "full_rank_early": ([{1: 1}, {0: 2, 1: 1}, {0: 3, 1: -9}], 2),
    "single_entries": ([{4: -6}, {1: 9}], 5),
}


@pytest.mark.parametrize("name", EDGE_INPUTS)
def test_rref_edge_inputs_match_reference(name):
    rows, ncols = EDGE_INPUTS[name]
    check_canonical(rows, ncols)


def zassenhaus(u, w, n):
    """The intersection stack [U|U; W|0] as sparse rows over 2n columns."""
    return [{**row, **{c + n: v for c, v in row.items()}} for row in sparse(u)] + sparse(w)


def test_rref_of_zassenhaus_stacks_matches_reference():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 5)
        u = random_matrix(rng, rng.randint(0, n), n, bound=3)
        w = random_matrix(rng, rng.randint(0, n), n, bound=3)
        w += [row[:] for row in u[: rng.randint(0, len(u))]]  # force a shared part
        check_canonical(zassenhaus(u, w, n), 2 * n)


def test_rref_random_sparse_rows_with_repeats_match_reference():
    rng = random.Random(7)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(0, 9)):
            if rows and rng.random() < 0.25:
                k = rng.choice([-2, -1, 1, 3])
                rows.append({c: k * v for c, v in rng.choice(rows).items()})
            else:
                cols = rng.sample(range(ncols), rng.randint(0, min(3, ncols)))
                rows.append({c: rng.randint(-4, 4) for c in cols})
        check_canonical(rows, ncols)
