import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk import linsolve
from urnwalk.errors import SingularSystemError

from _reference import gauss_jordan_solve, rows_times


def dense_to_sparse(matrix):
    return [
        {j: Fraction(entry) for j, entry in enumerate(row) if entry}
        for row in matrix
    ]


def integer_rows(rows):
    """``{column: int}`` rows as ``linsolve.IntegerRows``, each row's columns ascending."""
    indptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    entries = [(j, row[j]) for row in rows for j in sorted(row)]
    indices = np.array([j for j, _ in entries], dtype=np.int64)
    data = np.array([c for _, c in entries], dtype=np.int64)
    return linsolve.IntegerRows(indptr, indices, data)


def path_rows(size, diagonal):
    """Symmetric tridiagonal rows: ``diagonal(i)`` on the diagonal, -1 beside it."""
    rows = []
    for i in range(size):
        row = {i: diagonal(i)}
        if i > 0:
            row[i - 1] = -1
        if i < size - 1:
            row[i + 1] = -1
        rows.append(row)
    return rows


def nonsymmetric_rows(size):
    """A strictly dominant path with one entry unlike its mirror image."""
    rows = path_rows(size, lambda i: 4)
    rows[0][1] = -2
    return rows


def laplacian_rows(size):
    """A path graph's Laplacian: symmetric, every row sum zero, so singular."""
    return path_rows(size, lambda i: 2 - (i in (0, size - 1)))


def two_block_rows(half):
    """Two diagonal blocks, symmetric and weakly dominant throughout: the
    first strictly dominant, the second a path Laplacian with no strict row."""
    return path_rows(half, lambda i: 3) + [
        {i + half: c for i, c in row.items()} for row in laplacian_rows(half)
    ]


@st.composite
def diagonally_dominant_system(draw, max_size=8):
    """Random integer system with a guaranteed unique solution."""
    size = draw(st.integers(1, max_size))
    rows = []
    for _ in range(size):
        row = draw(
            st.lists(st.integers(-5, 5), min_size=size, max_size=size)
        )
        rows.append(row)
    for i in range(size):
        rows[i][i] = 1 + sum(abs(v) for j, v in enumerate(rows[i]) if j != i)
    solution = [
        Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12)))
        for _ in range(size)
    ]
    rhs = [
        sum((Fraction(row[j]) * solution[j] for j in range(size)), Fraction(0))
        for row in rows
    ]
    return rows, solution, rhs


def path_arrays(size):
    """The CSR arrays of ``path_rows(size, 3)``, as constructor arguments."""
    rows = integer_rows(path_rows(size, lambda i: 3))
    return {"indptr": rows.indptr, "indices": rows.indices, "data": rows.data}


def int64(*values):
    return np.array(values, dtype=np.int64)


# a 3-unknown path's arrays, indptr (0, 2, 5, 7), with one array replaced:
# the case, the argument, its replacement, the error and its message
MALFORMED = [
    ("list", "indices", [0, 1, 0, 1, 2, 1, 2], TypeError, "indices must be an int64"),
    ("int32", "indptr", np.array([0, 2, 5, 7], dtype=np.int32), TypeError, "indptr must be"),
    ("2-D", "data", np.full((7, 1), 3, dtype=np.int64), ValueError, "data must be 1-D"),
    ("empty-indptr", "indptr", int64(), ValueError, "start at 0"),
    ("indptr-start", "indptr", int64(1, 2, 5, 7), ValueError, "start at 0"),
    ("indptr-decreases", "indptr", int64(0, 5, 2, 7), ValueError, "never decrease"),
    ("indptr-end", "indptr", int64(0, 2, 5, 6), ValueError, "end at len"),
    ("data-length", "data", int64(3, -1, -1, 3, -1, -1), ValueError, "end at len"),
    ("column-past-size", "indices", int64(0, 1, 0, 1, 2, 1, 3), ValueError, "columns"),
    ("negative-column", "indices", int64(0, 1, 0, 1, 2, -1, 2), ValueError, "columns"),
]


class TestIntegerRowsInput:
    """``IntegerRows`` takes three 1-D int64 ndarrays forming square CSR rows,
    and keeps them read-only."""

    def test_float_data_rejected(self):
        # a 20-unknown path with 2.5 on the diagonal; the integer solvers
        # read the arrays as integers
        arrays = path_arrays(20)
        arrays["data"] = np.where(arrays["data"] == 3, 2.5, -1.0)
        with pytest.raises(TypeError, match="data must be an int64 ndarray"):
            linsolve.IntegerRows(**arrays)

    @pytest.mark.parametrize(
        "name, value, error, message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_arrays_rejected(self, name, value, error, message):
        arrays = path_arrays(3)
        arrays[name] = value
        with pytest.raises(error, match=message):
            linsolve.IntegerRows(**arrays)

    def test_arrays_are_read_only(self):
        # the facts the gate keeps on the rows stay true for their arrays
        rows = path_rows(20, lambda i: 3)
        matrix = integer_rows(rows)
        for array in (matrix.indptr, matrix.indices, matrix.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2
        assert rows_times(rows, list(linsolve.solve_exact(matrix, [1] * 20))) == [1] * 20


class TestDenseFractionPath:
    """``solve_dense`` on small ``{column: value}`` rows, rational ones too."""

    def test_hand_system(self):
        rows = dense_to_sparse([[2, 1], [1, 3]])
        rhs = [Fraction(5), Fraction(10)]
        assert linsolve.solve_dense(rows, rhs) == [Fraction(1), Fraction(3)]

    def test_matches_reference_solver(self):
        matrix = [[3, 1, 0], [1, 4, 2], [0, 2, 5]]
        rhs = [Fraction(1), Fraction(2), Fraction(3)]
        expected = gauss_jordan_solve(matrix, rhs)
        assert linsolve.solve_dense(dense_to_sparse(matrix), rhs) == expected

    def test_singular_detected(self):
        rows = dense_to_sparse([[1, 1], [1, 1]])
        with pytest.raises(SingularSystemError):
            linsolve.solve_dense(rows, [Fraction(1), Fraction(2)])

    def test_empty_system(self):
        assert linsolve.solve_dense([], []) == []
        assert list(linsolve.solve_exact(integer_rows([]), [])) == []

    def test_size_mismatch_rejected(self):
        # an extra right-hand-side entry is an error, not silently dropped
        with pytest.raises(ValueError, match="sizes differ"):
            linsolve.solve_dense([{0: 1}], [1, 2])
        with pytest.raises(ValueError, match="sizes differ"):
            linsolve.solve_exact(integer_rows([{0: 1}]), [1, 2])

    @given(diagonally_dominant_system())
    @settings(max_examples=60)
    def test_recovers_known_solution(self, system):
        rows, solution, rhs = system
        assert linsolve.solve_dense(dense_to_sparse(rows), rhs) == solution


@st.composite
def sparse_dominant_system(draw, min_size, max_size, symmetric):
    """Sparse, diagonally dominant integer rows and an integer right-hand side.

    ``solve_exact`` refines a symmetric system and refuses a non-symmetric
    one, which ``solve_dense`` solves.  Dominance makes the solution
    unique, so a solve is checked by its exact residual.
    """
    size = draw(st.integers(min_size, max_size))
    rng = draw(st.randoms(use_true_random=False))
    rows = [dict() for _ in range(size)]
    for i in range(size):
        for j in rng.sample(range(size), rng.randint(0, min(4, size))):
            if j != i:
                rows[i][j] = rng.choice([-1, 1]) * rng.randint(1, 9)
                if symmetric:
                    rows[j][i] = rows[i][j]
    if not symmetric:
        rows[0][1] = abs(rows[1].get(0, 0)) + 1
    for i, row in enumerate(rows):
        row[i] = 1 + sum(abs(c) for j, c in row.items() if j != i)
    rhs = [rng.randint(-300, 300) for _ in range(size)]
    return rows, rhs


def refused(rows, rhs):
    """Assert that ``solve_exact``'s certificate gate refuses the system."""
    with pytest.raises(ValueError, match="solve_exact needs a certified"):
        linsolve.solve_exact(integer_rows(rows), rhs)


class TestNonSymmetricPastDenseLimit:
    """``solve_exact`` refuses non-symmetric systems, tiny ones too;
    ``solve_dense`` solves them, and reports singular ones."""

    @given(sparse_dominant_system(17, 40, symmetric=False))
    @settings(max_examples=15, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, rhs = system
        refused(rows, rhs)
        assert rows_times(rows, linsolve.solve_dense(integer_rows(rows), rhs)) == rhs

    def test_singular_detected(self):
        size = 20  # the last row repeats the first
        rows = [{i: 3, (i + 1) % size: -1} for i in range(size)]
        rows[-1] = dict(rows[0])
        refused(rows, [1] * size)
        with pytest.raises(SingularSystemError):
            linsolve.solve_dense(integer_rows(rows), [1] * size)

    def test_two_unknowns_refused(self):
        # strictly dominant, so uniquely solvable, but not symmetric
        rows = [{0: 3, 1: -1}, {0: -2, 1: 3}]
        refused(rows, [1, 2])
        assert linsolve.solve_dense(integer_rows(rows), [1, 2]) == [Fraction(5, 7), Fraction(8, 7)]

    def test_two_unknown_singular_system_refused(self):
        # symmetric, but no row is strictly dominant: the gate refuses it
        # before any solve, and elimination reports it singular
        rows = [{0: 1, 1: -1}, {0: -1, 1: 1}]
        refused(rows, [1, -1])
        with pytest.raises(SingularSystemError):
            linsolve.solve_dense(integer_rows(rows), [1, -1])


class TestWalkSystem:
    def test_dense_fallback_matches_refined_solve(self):
        # the hitting system the oracle actually builds, also solved by
        # dense elimination; must agree with the refined solve exactly
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 81 states
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        rhs = [params.degree] * len(system.transient_states)
        assert linsolve.solve_dense(system.rows, rhs) == list(
            linsolve.solve_exact(system.rows, rhs)
        )

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_rational_rhs_is_rejected(self, solver):
        # the integer solvers take integers only; a rational system is
        # solve_dense's, whatever its size
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 80 unknowns
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        size = len(system.rows)
        for rhs in ([Fraction(1, 3)] * size, [1] * (size - 1) + [Fraction(1, 3)]):
            with pytest.raises(TypeError, match="solve_dense"):
                solver(system.rows, rhs)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_dict_rows_are_rejected(self, solver):
        for size in (2, 20):
            rows = [{i: 3} for i in range(size)]
            with pytest.raises(TypeError, match="solve_dense"):
                solver(rows, [1] * size)
            assert linsolve.solve_dense(rows, [1] * size) == [Fraction(1, 3)] * size

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_all_absorbing_system_has_no_unknowns(self, solver):
        # every state of the 2-urn, 1-ball walk absorbed: no unknowns, and
        # an empty solution from each integer solver
        from urnwalk import oracle
        from urnwalk.model import ModelParams

        system = oracle.build_absorbing_system(ModelParams(2, 1), frozenset({0, 1}))
        assert len(system.rows) == 0
        solved = solver(system.rows, [])
        if solver is linsolve.solve_float:
            values, residual = solved
            assert values.shape == (0,) and residual == 0.0
        else:
            assert isinstance(solved, linsolve.RationalVector) and list(solved) == []


class TestBandedSystemAndFloatSolve:
    """``solve_float``, and a banded non-symmetric system, which
    ``solve_exact`` refuses and ``solve_dense`` solves."""

    def test_banded_system_recovers_exact_solution(self):
        size = 120
        rows = []
        for i in range(size):
            row = {i: 10}
            if i > 0:
                row[i - 1] = -1
            if i < size - 1:
                row[i + 1] = -2
            rows.append(row)
        rhs = [i % 7 + 1 for i in range(size)]
        refused(rows, rhs)
        assert rows_times(rows, linsolve.solve_dense(integer_rows(rows), rhs)) == rhs

    def test_solve_float_residual(self):
        rows = integer_rows([{0: 4, 1: 1}, {0: 1, 1: 3}])
        values, residual = linsolve.solve_float(rows, [1, 2])
        assert residual < 1e-12
        assert abs(values[0] - 1 / 11) < 1e-12


class TestRefinementPath:
    @given(sparse_dominant_system(1, 16, symmetric=True))
    @settings(max_examples=40, deadline=None)
    def test_tiny_systems_match_elimination(self, system):
        # refinement solves every integer system, from one unknown up, to
        # elimination's exact solution
        rows, rhs = system
        assert list(linsolve.solve_exact(integer_rows(rows), rhs)) == linsolve.solve_dense(
            rows, rhs
        )

    @given(sparse_dominant_system(65, 200, symmetric=True))
    @settings(max_examples=12, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, rhs = system
        facts = linsolve._certified(integer_rows(rows), rhs, "solve_exact")
        refined = linsolve._solve_refined(facts, np.array(rhs, dtype=object))
        assert rows_times(rows, list(refined)) == rhs
        assert list(linsolve.solve_exact(integer_rows(rows), rhs)) == list(refined)

    def test_stall_raises_instead_of_eliminating(self, monkeypatch):
        # a CG round that corrects nothing and claims no accuracy leaves no
        # positive k: refinement stalls, and nothing eliminates
        monkeypatch.setattr(
            linsolve, "_cg_round", lambda approximate, residual: (np.zeros(len(residual)), 1.0)
        )
        rows = integer_rows(path_rows(70, lambda i: 3))  # symmetric, strictly dominant
        with mock.patch.object(linsolve, "solve_dense", wraps=linsolve.solve_dense) as dense:
            with pytest.raises(ValueError, match="stalled; solve_dense"):
                linsolve.solve_exact(rows, [i * i for i in range(70)])
        dense.assert_not_called()

    @pytest.mark.parametrize(
        "top", [2**510, 2**900, -(2**1000) + 20], ids=["2**510", "2**900", "-(2**1000)+20"]
    )
    def test_right_hand_side_up_to_the_bound(self, top):
        # unscaled, CG's dot products overflow past about 2**509
        rows = integer_rows(path_rows(20, lambda i: 3))
        rhs = [top + i for i in range(20)]
        solution = linsolve.solve_exact(rows, rhs)
        assert list(solution) == linsolve.solve_dense(rows, rhs)
        values, residual = linsolve.solve_float(rows, rhs)
        assert residual < 1e-12
        assert np.allclose(values, [float(x) for x in solution], rtol=1e-12)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    @pytest.mark.parametrize(
        "entry", [2**1000, -(2**1000), 2**1100], ids=["2**1000", "-(2**1000)", "2**1100"]
    )
    def test_right_hand_side_past_the_bound_refused(self, solver, entry):
        rows = integer_rows(path_rows(20, lambda i: 3))
        with mock.patch.object(linsolve, "_cg_round") as cg:
            with pytest.raises(ValueError, match=r"entries below 2\*\*1000 in absolute value"):
                solver(rows, [1] * 19 + [entry])
        cg.assert_not_called()

    def test_each_rows_certified_once(self):
        # the gate keeps the facts, or the refusal, on the rows: later
        # solves on the same rows, exact or float, certify nothing again
        rows = path_rows(20, lambda i: 3)
        rhs = [i * i for i in range(20)]
        certified, uncertified = integer_rows(rows), integer_rows(nonsymmetric_rows(20))
        with mock.patch.object(linsolve, "_is_certified", wraps=linsolve._is_certified) as spy:
            solution = linsolve.solve_exact(certified, rhs)
            values, _ = linsolve.solve_float(certified, rhs)
            assert spy.call_count == 1
            for solver in (linsolve.solve_exact, linsolve.solve_float):
                with pytest.raises(ValueError, match=f"{solver.__name__} needs a certified"):
                    solver(uncertified, rhs)
            assert spy.call_count == 2
        assert rows_times(rows, solution) == rhs
        assert np.allclose(values, [float(x) for x in solution], rtol=1e-12)

    def test_singular_symmetric_system_detected(self):
        size = 70
        rows = laplacian_rows(size)
        # consistent right-hand side: every x + t (1, ..., 1) solves it
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(size)])]
        refused(rows, rhs)
        with pytest.raises(SingularSystemError):
            linsolve.solve_dense(integer_rows(rows), rhs)

    def test_block_without_a_strict_row_is_not_certified(self):
        # The search from the strict rows never reaches the second block.
        # The system is singular, so it must not be refined.
        rows = two_block_rows(10)  # 20 unknowns
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(len(rows))])]
        refused(rows, rhs)
        with pytest.raises(SingularSystemError):
            linsolve.solve_dense(integer_rows(rows), rhs)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    @pytest.mark.parametrize(
        "rows",
        [
            nonsymmetric_rows(20),
            laplacian_rows(70),
            two_block_rows(10),
            # certified, but a row's absolute sum reaches 2**62
            path_rows(20, lambda i: 2**62 - 2),
        ],
        ids=["nonsymmetric", "singular-path", "block-without-a-strict-row", "row-sum-2**62"],
    )
    def test_solve_float_rejects_uncertified_matrix(self, solver, rows):
        # CG would return one of many solutions of the singular symmetric
        # systems, with a tiny residual; the one certificate gate refuses
        # them first, for both integer solvers
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(len(rows))])]
        with pytest.raises(ValueError, match=f"{solver.__name__} needs a certified") as raised:
            solver(integer_rows(rows), rhs)
        assert raised.traceback[-1].name == "_certified"


class TestDenseFallback:
    """``solve_dense`` on a system that ``solve_exact`` refuses."""

    def test_nonsymmetric_system_with_large_denominators(self):
        # Its solution has denominators above 400 bits.  solve_exact refuses
        # the non-symmetric matrix, and solve_dense solves it.
        rng = random.Random(3)
        size = 120
        rows = []
        for i in range(size):
            row = {
                j: rng.randint(-9, 9) or 1
                for j in rng.sample(range(size), 4)
                if j != i
            }
            row[i] = sum(abs(v) for v in row.values()) + rng.randint(1, 5)
            rows.append(row)
        rhs = [rng.randint(-(1 << 20), 1 << 20) for _ in range(size)]
        refused(rows, rhs)
        solution = linsolve.solve_dense(integer_rows(rows), rhs)
        assert min(x.denominator for x in solution).bit_length() > 400
        assert rows_times(rows, solution) == rhs


VECTOR_SYSTEMS = {
    # 6 unknowns, every entry of 7 * I - J nonzero: x = (b + 14) / 7, entries
    # 2, 15/7, 16/7, 17/7, 18/7 and 18/7 over the common denominator 7
    "dense": ([{j: 7 * (i == j) - 1 for j in range(6)} for i in range(6)], [0, 1, 2, 3, 4, 4]),
    # a sparse path; some entries reduce to an eighth of the common
    # denominator 267914296
    "refined": (path_rows(20, lambda i: 3), [i * i for i in range(20)]),
}


class TestRationalVector:
    """``solve_exact``'s one denominator and its numerators, on a tiny dense
    matrix and a sparse one."""

    @pytest.fixture(params=sorted(VECTOR_SYSTEMS))
    def solved(self, request):
        rows, rhs = VECTOR_SYSTEMS[request.param]
        return linsolve.solve_exact(integer_rows(rows), rhs), linsolve.solve_dense(rows, rhs)

    def test_entries_are_solve_dense_reduced(self, solved):
        vector, dense = solved
        assert isinstance(vector, linsolve.RationalVector)
        entries = [vector[i] for i in range(len(dense))]
        assert entries == dense
        for x in entries:
            assert type(x) is Fraction
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
        # one denominator is held for all; some entries reduce below it
        assert all(vector.denominator % x.denominator == 0 for x in entries)
        assert {x.denominator for x in entries} != {vector.denominator}

    def test_length_and_indices(self, solved):
        vector, dense = solved
        size = len(dense)
        assert len(vector) == size
        assert vector[-1] == dense[-1]
        assert vector[-size] == dense[0]
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                vector[i]

    def test_iteration_makes_the_indexed_entries(self, solved):
        vector, dense = solved
        entries = list(vector)
        assert entries == [vector[i] for i in range(len(vector))] == dense
        assert all(math.gcd(x.numerator, x.denominator) == 1 for x in entries)

    def test_read_only(self, solved):
        vector, _ = solved
        with pytest.raises(TypeError):
            vector[0] = Fraction(0)
