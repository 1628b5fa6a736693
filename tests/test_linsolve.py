import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk import linsolve
from urnwalk.errors import SingularSystemError

from _reference import gauss_jordan_solve


def dense_to_sparse(matrix):
    return [
        {j: Fraction(entry) for j, entry in enumerate(row) if entry}
        for row in matrix
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
    def test_hand_system(self):
        rows = dense_to_sparse([[2, 1], [1, 3]])
        rhs = [Fraction(5), Fraction(10)]
        assert linsolve.solve_exact(rows, rhs) == [Fraction(1), Fraction(3)]

    def test_matches_reference_solver(self):
        matrix = [[3, 1, 0], [1, 4, 2], [0, 2, 5]]
        rhs = [Fraction(1), Fraction(2), Fraction(3)]
        expected = gauss_jordan_solve(matrix, rhs)
        assert linsolve.solve_exact(dense_to_sparse(matrix), rhs) == expected

    def test_singular_detected(self):
        rows = dense_to_sparse([[1, 1], [1, 1]])
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(rows, [Fraction(1), Fraction(2)])

    def test_empty_system(self):
        assert linsolve.solve_exact([], []) == []

    @given(diagonally_dominant_system())
    @settings(max_examples=60)
    def test_recovers_known_solution(self, system):
        rows, solution, rhs = system
        assert linsolve.solve_exact(dense_to_sparse(rows), rhs) == solution


@st.composite
def sparse_dominant_system(draw, min_size, max_size, symmetric):
    """Sparse, diagonally dominant integer system with a known solution.

    Past the dense limit, so ``solve_exact`` refines a symmetric one and
    falls back to dense elimination on a non-symmetric one.
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
    solution = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(size)]
    rhs = [sum((c * solution[j] for j, c in row.items()), Fraction(0)) for row in rows]
    return rows, solution, rhs


class TestNonSymmetricPastDenseLimit:
    """Non-symmetric systems past the dense limit take the dense rational
    fallback, which also reports singular ones."""

    @given(sparse_dominant_system(17, 40, symmetric=False))
    @settings(max_examples=15, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, solution, rhs = system
        sparse_rows = [{j: Fraction(c) for j, c in row.items()} for row in rows]
        assert linsolve.solve_exact(sparse_rows, rhs) == solution

    def test_singular_detected(self):
        size = 20  # past the dense limit; the last row repeats the first
        rows = [{i: Fraction(3), (i + 1) % size: Fraction(-1)} for i in range(size)]
        rows[-1] = dict(rows[0])
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(rows, [Fraction(1)] * size)


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
        assert linsolve._dense_fraction_solve(
            system.rows, rhs
        ) == linsolve.solve_exact(system.rows, rhs)

    def test_rational_rhs_on_integer_rows_is_not_truncated(self):
        # the oracle's integer matrix with a right-hand side of thirds: the
        # lcm scales the whole system, and no entry is cut to an int
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 80 unknowns, past the dense limit
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        size = len(system.rows)
        assert size > linsolve.DENSE_FRACTION_LIMIT
        ones = linsolve.solve_exact(system.rows, [1] * size)
        assert linsolve.solve_exact(system.rows, [Fraction(1, 3)] * size) == [
            x / 3 for x in ones
        ]
        values, residual = linsolve.solve_float(system.rows, [Fraction(1, 3)] * size)
        assert residual < 1e-12
        assert np.allclose(values, [float(x / 3) for x in ones], rtol=1e-9, atol=0)

    def test_rhs_scale_past_int64_takes_the_dense_path(self, monkeypatch):
        # the lcm 2**62 takes the scaled diagonal out of int64: the integer
        # matrix is rejected, and the dense path solves the system exactly
        from urnwalk import oracle
        from urnwalk.model import ModelParams

        sizes = []
        dense = linsolve._dense_fraction_solve

        def spy(rows, rhs):
            sizes.append(len(rows))
            return dense(rows, rhs)

        params = ModelParams(2, 5)  # 31 unknowns, past the dense limit
        system = oracle.build_absorbing_system(params, frozenset({31}))
        size = len(system.rows)
        ones = linsolve.solve_exact(system.rows, [1] * size)
        monkeypatch.setattr(linsolve, "_dense_fraction_solve", spy)
        tiny = Fraction(1, 2**62)
        assert linsolve.solve_exact(system.rows, [tiny] * size) == [x * tiny for x in ones]
        assert sizes == [size]


class TestBandedSystemAndFloatSolve:
    """``solve_float``, and a banded non-symmetric system past the dense
    limit, which takes the dense fallback."""

    def test_banded_system_recovers_exact_solution(self):
        size = 120  # beyond the dense-fraction limit
        rows = []
        rhs = []
        solution = [Fraction(i % 7 + 1, 9) for i in range(size)]
        for i in range(size):
            row = {i: Fraction(10)}
            if i > 0:
                row[i - 1] = Fraction(-1)
            if i < size - 1:
                row[i + 1] = Fraction(-2)
            rows.append(row)
            rhs.append(
                sum((coeff * solution[j] for j, coeff in row.items()), Fraction(0))
            )
        assert linsolve.solve_exact(rows, rhs) == solution

    def test_solve_float_residual(self):
        rows = dense_to_sparse([[4, 1], [1, 3]])
        values, residual = linsolve.solve_float(rows, [Fraction(1), Fraction(2)])
        assert residual < 1e-12
        assert abs(values[0] - 1 / 11) < 1e-12


class TestRefinementPath:
    @given(sparse_dominant_system(65, 200, symmetric=True))
    @settings(max_examples=12, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, solution, rhs = system
        sparse_rows = [{j: Fraction(c) for j, c in row.items()} for row in rows]
        matrix, b = linsolve._integer_system(sparse_rows, rhs)
        assert linsolve._is_certified(matrix)
        assert linsolve._solve_refined(matrix, b) == solution
        assert linsolve.solve_exact(sparse_rows, rhs) == solution

    def test_singular_symmetric_system_detected(self):
        # a path graph's Laplacian: symmetric, every row sum zero, so singular
        size = 70
        rows = []
        for i in range(size):
            row = {i: Fraction(2 - (i in (0, size - 1)))}
            if i > 0:
                row[i - 1] = Fraction(-1)
            if i < size - 1:
                row[i + 1] = Fraction(-1)
            rows.append(row)
        # consistent right-hand side: every x + t (1, ..., 1) solves it
        x = [Fraction(i * i) for i in range(size)]
        rhs = [sum((c * x[j] for j, c in row.items()), Fraction(0)) for row in rows]
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(rows, rhs)

    def test_block_without_a_strict_row_is_not_certified(self):
        # Two diagonal blocks, symmetric and weakly dominant throughout:
        # the first is strictly dominant, the second a path Laplacian with
        # no strict row, which the search from the strict rows never
        # reaches.  The system is singular, so it must not be refined.
        half = 10  # 20 unknowns, past the dense limit
        rows = []
        for i in range(2 * half):
            first, last = i % half == 0, i % half == half - 1
            row = {i: Fraction(3 if i < half else 2 - first - last)}
            if not first:
                row[i - 1] = Fraction(-1)
            if not last:
                row[i + 1] = Fraction(-1)
            rows.append(row)
        x = [Fraction(i * i, 7) for i in range(2 * half)]
        rhs = [sum((c * x[j] for j, c in row.items()), Fraction(0)) for row in rows]
        matrix, _ = linsolve._integer_system(rows, rhs)
        assert not linsolve._is_certified(matrix)
        with pytest.raises(SingularSystemError):
            linsolve.solve_exact(rows, rhs)

    def test_solve_float_rejects_nonsymmetric_matrix(self):
        rows = dense_to_sparse([[4, 1], [2, 3]])
        with pytest.raises(ValueError):
            linsolve.solve_float(rows, [Fraction(1), Fraction(2)])


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
            rows.append({j: Fraction(c) for j, c in row.items()})
        den = rng.getrandbits(420) | 1 << 419 | 1
        solution = [
            Fraction(rng.getrandbits(420) - (1 << 419), den) for _ in range(size)
        ]
        assert min(x.denominator for x in solution).bit_length() > 400
        rhs = [
            sum((c * solution[j] for j, c in row.items()), Fraction(0))
            for row in rows
        ]
        assert linsolve.solve_exact(rows, rhs) == solution

    def test_refinement_stall_falls_back(self, monkeypatch):
        stalled = []

        def stall(matrix, rhs):
            stalled.append(matrix.shape[0])
            return None

        monkeypatch.setattr(linsolve, "_solve_refined", stall)
        size = 70  # symmetric and strictly dominant, past the dense limit
        rows = []
        for i in range(size):
            row = {i: Fraction(3)}
            if i > 0:
                row[i - 1] = Fraction(-1)
            if i < size - 1:
                row[i + 1] = Fraction(-1)
            rows.append(row)
        solution = [Fraction(i * i, 11) for i in range(size)]
        rhs = [sum((c * solution[j] for j, c in row.items()), Fraction(0)) for row in rows]
        assert linsolve.solve_exact(rows, rhs) == solution
        assert stalled == [size]
