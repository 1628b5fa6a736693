import random
from fractions import Fraction

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
        assert linsolve.solve_exact(integer_rows([]), []) == []

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

    Past the dense limit, so ``solve_exact`` refines a symmetric system and
    falls back to dense elimination on a non-symmetric one.  Dominance makes
    the solution unique, so a solve is checked by its exact residual.
    """
    size = draw(st.integers(min_size, max_size))
    rng = draw(st.randoms(use_true_random=False))
    rows = [dict() for _ in range(size)]
    for i in range(size):
        for j in rng.sample(range(size), rng.randint(0, 4)):
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


class TestNonSymmetricPastDenseLimit:
    """Non-symmetric systems past the dense limit take the dense rational
    fallback, which also reports singular ones."""

    @given(sparse_dominant_system(17, 40, symmetric=False))
    @settings(max_examples=15, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, rhs = system
        matrix = integer_rows(rows)
        assert not linsolve._is_certified(linsolve._csr(matrix))
        assert rows_times(rows, linsolve.solve_exact(matrix, rhs)) == rhs

    def test_singular_detected(self):
        size = 20  # past the dense limit; the last row repeats the first
        rows = [{i: 3, (i + 1) % size: -1} for i in range(size)]
        rows[-1] = dict(rows[0])
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(integer_rows(rows), [1] * size)


class TestWalkSystem:
    def test_dense_fallback_matches_refined_solve(self):
        # the hitting system the oracle actually builds, forced down the
        # dense fallback; must agree with the refined solve exactly
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 81 states
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        rhs = [params.degree] * len(system.transient_states)
        assert linsolve.solve_dense(
            system.rows, rhs
        ) == linsolve.solve_exact(system.rows, rhs)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_rational_rhs_is_rejected(self, solver):
        # the integer solvers take integers only; a rational system is
        # solve_dense's, whatever its size
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 80 unknowns, past the dense limit
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        size = len(system.rows)
        assert size > linsolve.DENSE_FRACTION_LIMIT
        for rhs in ([Fraction(1, 3)] * size, [1] * (size - 1) + [Fraction(1, 3)]):
            with pytest.raises(TypeError, match="solve_dense"):
                solver(system.rows, rhs)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_dict_rows_are_rejected(self, solver):
        for size in (2, 20):  # up to and past the dense limit
            rows = [{i: 3} for i in range(size)]
            with pytest.raises(TypeError, match="solve_dense"):
                solver(rows, [1] * size)
            assert linsolve.solve_dense(rows, [1] * size) == [Fraction(1, 3)] * size


class TestBandedSystemAndFloatSolve:
    """``solve_float``, and a banded non-symmetric system past the dense
    limit, which takes the dense fallback."""

    def test_banded_system_recovers_exact_solution(self):
        size = 120  # beyond the dense-fraction limit
        rows = []
        for i in range(size):
            row = {i: 10}
            if i > 0:
                row[i - 1] = -1
            if i < size - 1:
                row[i + 1] = -2
            rows.append(row)
        rhs = [i % 7 + 1 for i in range(size)]
        assert rows_times(rows, linsolve.solve_exact(integer_rows(rows), rhs)) == rhs

    def test_solve_float_residual(self):
        rows = integer_rows([{0: 4, 1: 1}, {0: 1, 1: 3}])
        values, residual = linsolve.solve_float(rows, [1, 2])
        assert residual < 1e-12
        assert abs(values[0] - 1 / 11) < 1e-12


class TestRefinementPath:
    @given(sparse_dominant_system(65, 200, symmetric=True))
    @settings(max_examples=12, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, rhs = system
        matrix = linsolve._csr(integer_rows(rows))
        assert linsolve._is_certified(matrix)
        refined = linsolve._solve_refined(matrix, np.array(rhs, dtype=object))
        assert rows_times(rows, refined) == rhs
        assert linsolve.solve_exact(integer_rows(rows), rhs) == refined

    def test_singular_symmetric_system_detected(self):
        size = 70
        rows = laplacian_rows(size)
        # consistent right-hand side: every x + t (1, ..., 1) solves it
        rhs = rows_times(rows, [i * i for i in range(size)])
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(integer_rows(rows), [int(v) for v in rhs])

    def test_block_without_a_strict_row_is_not_certified(self):
        # The search from the strict rows never reaches the second block.
        # The system is singular, so it must not be refined.
        rows = two_block_rows(10)  # 20 unknowns, past the dense limit
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(len(rows))])]
        assert not linsolve._is_certified(linsolve._csr(integer_rows(rows)))
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(integer_rows(rows), rhs)

    @pytest.mark.parametrize(
        "rows",
        [[{0: 4, 1: 1}, {0: 2, 1: 3}], laplacian_rows(70), two_block_rows(10)],
        ids=["nonsymmetric", "singular-path", "block-without-a-strict-row"],
    )
    def test_solve_float_rejects_uncertified_matrix(self, rows):
        # CG would return one of many solutions of the singular symmetric
        # systems, with a tiny residual; the certificate refuses them first
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(len(rows))])]
        with pytest.raises(ValueError, match="solve_float needs"):
            linsolve.solve_float(integer_rows(rows), rhs)


class TestDenseFallback:
    def test_nonsymmetric_system_with_large_denominators(self):
        # Its solution has denominators above 400 bits.
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
        solution = linsolve.solve_exact(integer_rows(rows), rhs)
        assert min(x.denominator for x in solution).bit_length() > 400
        assert rows_times(rows, solution) == rhs

    def test_refinement_stall_falls_back(self, monkeypatch):
        stalled = []

        def stall(matrix, rhs):
            stalled.append(matrix.shape[0])
            return None

        monkeypatch.setattr(linsolve, "_solve_refined", stall)
        size = 70  # symmetric and strictly dominant, past the dense limit
        rows = path_rows(size, lambda i: 3)
        rhs = [i * i for i in range(size)]
        assert rows_times(rows, linsolve.solve_exact(integer_rows(rows), rhs)) == rhs
        assert stalled == [size]
