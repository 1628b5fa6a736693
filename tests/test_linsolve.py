from fractions import Fraction

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


class TestModularPath:
    @given(diagonally_dominant_system())
    @settings(max_examples=40)
    def test_recovers_known_solution(self, system):
        rows, solution, rhs = system
        int_rows, int_rhs = linsolve._integer_rows(dense_to_sparse(rows), rhs)
        assert linsolve._solve_modular(int_rows, int_rhs) == solution

    def test_singular_detected(self):
        rows = dense_to_sparse([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        int_rows, int_rhs = linsolve._integer_rows(
            rows, [Fraction(1), Fraction(2), Fraction(1)]
        )
        with pytest.raises(SingularSystemError):
            linsolve._solve_modular(int_rows, int_rhs)

    @given(
        st.integers(-10**6, 10**6),
        st.integers(1, 10**4),
    )
    def test_rational_reconstruction_round_trip(self, numerator, denominator):
        from math import gcd

        modulus = 1
        for p in linsolve._PRIMES[:3]:
            modulus *= p
        if gcd(denominator, modulus) != 1:
            return
        value = Fraction(numerator, denominator)
        residue = (
            value.numerator * pow(value.denominator, -1, modulus)
        ) % modulus
        assert linsolve._rational_reconstruct(residue, modulus) == value


class TestModularPathOnWalkSystem:
    def test_matches_float_snap_result(self):
        # the hitting system the oracle actually builds, forced down the
        # modular path; must agree with the normal solve exactly
        from fractions import Fraction as F

        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 5)  # 243 states
        target = index_of((2,) * 5, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        rhs = [F(1)] * len(system.transient_states)
        int_rows, int_rhs = linsolve._integer_rows(system.rows, rhs)
        assert linsolve._solve_modular(int_rows, int_rhs) == linsolve.solve_exact(
            system.rows, rhs
        )


class TestFloatSnapPath:
    def test_snap_recovers_exact_solution(self):
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


@st.composite
def symmetric_dominant_system(draw, min_size=65, max_size=200):
    """Sparse symmetric, diagonally dominant integer system with a known solution.

    Past the dense limit, so ``solve_exact`` takes the refinement path.
    """
    size = draw(st.integers(min_size, max_size))
    rng = draw(st.randoms(use_true_random=False))
    rows = [{} for _ in range(size)]
    for i in range(size):
        for j in rng.sample(range(size), rng.randint(0, 4)):
            if j != i:
                rows[i][j] = rows[j][i] = rng.choice([-1, 1]) * rng.randint(1, 9)
    for i, row in enumerate(rows):
        row[i] = 1 + sum(abs(c) for j, c in row.items() if j != i)
    solution = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(size)]
    rhs = [sum((c * solution[j] for j, c in row.items()), Fraction(0)) for row in rows]
    return rows, solution, rhs


class TestRefinementPath:
    @given(symmetric_dominant_system())
    @settings(max_examples=12, deadline=None)
    def test_matches_modular_path(self, system):
        rows, solution, rhs = system
        sparse_rows = [{j: Fraction(c) for j, c in row.items()} for row in rows]
        int_rows, int_rhs = linsolve._integer_rows(sparse_rows, rhs)
        refined = linsolve._solve_refined(int_rows, int_rhs)
        assert refined is not None
        assert refined == linsolve._solve_modular(int_rows, int_rhs) == solution
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

    def test_solve_float_rejects_nonsymmetric_matrix(self):
        rows = dense_to_sparse([[4, 1], [2, 3]])
        with pytest.raises(ValueError):
            linsolve.solve_float(rows, [Fraction(1), Fraction(2)])


class TestPrimePool:
    def test_primes_are_prime_and_distinct(self):
        primes = linsolve._PRIMES
        assert len(set(primes)) == len(primes)
        for p in primes:
            assert p > 2**29
            for q in range(2, 2000):
                assert p % q != 0 or p == q
