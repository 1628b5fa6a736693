import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnwalk import linsolve

from _reference import (
    IntegerRows,
    gauss_jordan_solve,
    integer_rows,
    reconstruct,
    rows_times,
    single_scan_reconstruct,
)


def dense(rows):
    """``{column: value}`` rows as a dense list of rows, for ``gauss_jordan_solve``."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


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
    """The CSR operator the generic solver tests run on takes three 1-D
    int64 ndarrays forming square CSR rows, and keeps them read-only."""

    def test_float_data_rejected(self):
        # a 20-unknown path with 2.5 on the diagonal; the integer solvers
        # read the arrays as integers
        arrays = path_arrays(20)
        arrays["data"] = np.where(arrays["data"] == 3, 2.5, -1.0)
        with pytest.raises(TypeError, match="data must be an int64 ndarray"):
            IntegerRows(**arrays)

    @pytest.mark.parametrize(
        "name, value, error, message",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_arrays_rejected(self, name, value, error, message):
        arrays = path_arrays(3)
        arrays[name] = value
        with pytest.raises(error, match=message):
            IntegerRows(**arrays)

    def test_arrays_are_read_only(self):
        # the facts the gate keeps on the rows stay true for their arrays
        rows = path_rows(20, lambda i: 3)
        matrix = integer_rows(rows)
        for array in (matrix.indptr, matrix.indices, matrix.data):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 2
        assert rows_times(rows, list(linsolve.solve_exact(matrix, [1] * 20))) == [1] * 20

    def test_index_must_be_an_integer(self):
        matrix = integer_rows(path_rows(3, lambda i: 3))
        assert matrix[np.int64(1)] == matrix[-2] == {0: -1, 1: 3, 2: -1}
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            matrix[0:2]


@st.composite
def sparse_dominant_system(draw, min_size, max_size, symmetric):
    """Sparse, diagonally dominant integer rows and an integer right-hand side.

    ``solve_exact`` refines a symmetric system and refuses a non-symmetric
    one.  Dominance makes the solution unique, so a solve is checked by its
    exact residual.
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
    """``solve_exact`` refuses non-symmetric systems, tiny ones too, and
    singular ones, before any solve."""

    @given(sparse_dominant_system(17, 40, symmetric=False))
    @settings(max_examples=15, deadline=None)
    def test_random_systems_refused(self, system):
        refused(*system)

    def test_singular_detected(self):
        size = 20  # the last row repeats the first
        rows = [{i: 3, (i + 1) % size: -1} for i in range(size)]
        rows[-1] = dict(rows[0])
        refused(rows, [1] * size)

    def test_two_unknowns_refused(self):
        # strictly dominant, so uniquely solvable, but not symmetric
        refused([{0: 3, 1: -1}, {0: -2, 1: 3}], [1, 2])

    def test_two_unknown_singular_system_refused(self):
        # symmetric, but no row is strictly dominant: the gate refuses it
        # before any solve
        refused([{0: 1, 1: -1}, {0: -1, 1: 1}], [1, -1])


class TestWalkSystem:
    def test_dense_fallback_matches_refined_solve(self):
        # the hitting system the oracle actually builds: the refined solve
        # leaves an exact residual of 0 on its rows, which pins the unique
        # solution
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 81 states
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        rhs = [params.degree] * len(system.transient_states)
        assert rows_times(system.rows, list(linsolve.solve_exact(system.rows, rhs))) == rhs

    @pytest.mark.parametrize("urns, balls", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_integer_hitting_times_come_over_one(self, urns, balls):
        # every hitting time to all-in-urn-2 is an integer here: the
        # residual reaches 0, and the dyadic scale reduces away
        from urnwalk import oracle
        from urnwalk.model import ModelParams, all_in_urn

        params = ModelParams(urns, balls)
        vector = oracle.target_system(params, all_in_urn(params, 2)).hitting_time_vector()
        assert vector.denominator == 1
        assert all(type(n) is int for n in vector.numerators)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_rational_rhs_is_rejected(self, solver):
        # the integer solvers take integers only, whatever the size
        from urnwalk import oracle
        from urnwalk.model import ModelParams, index_of

        params = ModelParams(3, 4)  # 80 unknowns
        target = index_of((2,) * 4, params)
        system = oracle.build_absorbing_system(params, frozenset({target}))
        size = len(system.rows)
        for rhs in ([Fraction(1, 3)] * size, [1] * (size - 1) + [Fraction(1, 3)]):
            with pytest.raises(TypeError, match="takes an integer right-hand side"):
                solver(system.rows, rhs)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_dict_rows_are_rejected(self, solver):
        for size in (2, 20):
            rows = [{i: 3} for i in range(size)]
            with pytest.raises(TypeError, match="takes an integer operator, not list"):
                solver(rows, [1] * size)

    def test_size_mismatch_rejected(self):
        # an extra right-hand-side entry is an error, not silently dropped
        for solver in (linsolve.solve_exact, linsolve.solve_float):
            with pytest.raises(ValueError, match="sizes differ"):
                solver(integer_rows([{0: 1}]), [1, 2])

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


class TestExactProductOnTheWalk:
    """``_exact_product`` runs the walk operator in int64 only while its
    bound, ``2 n M`` per unit of ``max|x|``, keeps every value in range,
    for a vector of Python ints or of int64."""

    def isolated_row(self):
        # 2 urns, 3 balls, every neighbour of state 0 absorbed: one unknown,
        # a row of degree 3 alone, yet the operator forms 2 * 3 * x on the way
        from urnwalk.model import ModelParams, WalkOperator

        params = ModelParams(2, 3)
        mask = np.ones(params.state_count, dtype=bool)
        mask[0] = False
        return WalkOperator(params, mask), [{0: 3}]

    @pytest.mark.parametrize(
        "top, path",
        [
            (2**63 // 12, np.int64),  # the last value the int64 path takes
            (2**63 // 12 + 1, object),  # just past the bound
            # below 2**63 / 3 the row sum alone stays in range, but 6 x does not
            (2**63 // 6 + 1, object),
            (2**63 // 3 - 1, object),
        ],
        ids=["at-the-bound", "past-the-bound", "6x-overflows", "row-sum-in-range"],
    )
    def test_python_ints_past_the_bound(self, monkeypatch, top, path):
        walk, rows = self.isolated_row()
        seen = []
        times = walk.times

        def spy(x):
            seen.append(x.dtype)
            return times(x)

        monkeypatch.setattr(walk, "times", spy)
        for value in (top, -top):
            for dtype in (object, np.int64):
                product = linsolve._exact_product(walk, np.array([value], dtype=dtype))
                assert product.tolist() == rows_times(rows, [Fraction(value)])
        assert seen == [np.dtype(path)] * 4


class TestBandedSystemAndFloatSolve:
    """``solve_float``, and a banded system: ``solve_exact`` refuses the
    non-symmetric band and solves the symmetric one."""

    def test_banded_system_recovers_exact_solution(self):
        # 10 on the diagonal, -2 above it and ``below`` below it
        size = 120
        rhs = [i % 7 + 1 for i in range(size)]

        def band(below):
            rows = [{i: 10} for i in range(size)]
            for i in range(size - 1):
                rows[i][i + 1], rows[i + 1][i] = -2, below
            return rows

        refused(band(-1), rhs)
        rows = band(-2)
        assert rows_times(rows, list(linsolve.solve_exact(integer_rows(rows), rhs))) == rhs

    def test_solve_float_residual(self):
        rows = integer_rows([{0: 4, 1: 1}, {0: 1, 1: 3}])
        values, residual = linsolve.solve_float(rows, [1, 2])
        assert residual < 1e-12
        assert abs(values[0] - 1 / 11) < 1e-12


def traced_peak(call):
    """``call()``'s result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCGRound:
    """One CG round holds a fixed number of vectors, whatever its number of
    steps."""

    def test_round_holds_five_vectors_of_its_own(self):
        # the operator's products land in one buffer it made beforehand, so
        # all the round traces is its own: the scaled r, z, CG's residual
        # and direction and one work vector.  A loop that made alpha * p,
        # alpha * q and a new p each step peaked at seven.
        size = 2**16

        class Diagonal:
            def __init__(self):
                self.diagonal, self.out = 2.0 + np.arange(size) % 7, np.empty(size)

            def times(self, x):
                return np.multiply(self.diagonal, x, out=self.out)

        rows, rhs = Diagonal(), np.arange(size, dtype=np.int64) % 11 + 1
        (z, accuracy), peak = traced_peak(lambda: linsolve._cg_round(rows, rhs))
        assert accuracy < 1e-14 and np.allclose(z * rows.diagonal, rhs, rtol=1e-14)
        assert peak < 5.5 * size * 8

    def test_4x9_round_peaks_below_ten_vectors(self):
        # 262,143 unknowns, 2 MiB a float vector.  Beside the round's five
        # and the last product, each product holds its input's full-length
        # copy, its output and the result gathered from it: nine.  The round
        # peaked at 11 while each run's product made a transposed copy.
        from urnwalk import oracle
        from urnwalk.model import ModelParams

        params = ModelParams(4, 9)
        system = oracle.target_system(params, (2,) * 9, budget=params.state_count)
        rhs = np.full(len(system.rows), params.degree, dtype=np.int64)
        system.rows.times(np.zeros(len(rhs)))  # the walk's runs are built and cached
        (z, accuracy), peak = traced_peak(lambda: linsolve._cg_round(system.rows, rhs))
        assert accuracy < 1e-9 and z.min() > 0
        assert peak < 10 * params.state_count * 8


CG_ROUND = linsolve._cg_round


def partial_correction(rows, residual):
    """0.6 of CG's correction, claiming an accuracy of 2**-20: each round
    leaves 0.4 of the residual, scaled by 2**17, so it grows."""
    return 0.6 * CG_ROUND(rows, residual)[0], 2.0**-20


def infinite_correction(rows, residual):
    return np.full(len(residual), np.inf), 0.0


def no_correction(rows, residual):
    """No correction, claiming an accuracy of 2**-48: the residual comes
    back scaled by 2**45, unshrunk."""
    return np.zeros(len(residual)), 2.0**-48


class TestRefinementPath:
    @given(sparse_dominant_system(1, 16, symmetric=True))
    @settings(max_examples=40, deadline=None)
    def test_tiny_systems_match_elimination(self, system):
        # refinement solves every integer system, from one unknown up, to
        # elimination's exact solution
        rows, rhs = system
        solution = gauss_jordan_solve(dense(rows), rhs)
        assert list(linsolve.solve_exact(integer_rows(rows), rhs)) == solution

    @given(sparse_dominant_system(65, 200, symmetric=True))
    @settings(max_examples=12, deadline=None)
    def test_recovers_known_solution(self, system):
        rows, rhs = system
        matrix = integer_rows(rows)
        limit_bits = linsolve._certified(matrix, rhs, "solve_exact")
        refined = linsolve._solve_refined(matrix, np.array(rhs, dtype=object), limit_bits)
        assert rows_times(rows, list(refined)) == rhs
        assert list(linsolve.solve_exact(integer_rows(rows), rhs)) == list(refined)

    def test_stall_raises_instead_of_eliminating(self, monkeypatch):
        # a CG round that corrects nothing and claims no accuracy leaves no
        # positive k: refinement stalls and raises, as no other solver exists
        monkeypatch.setattr(
            linsolve, "_cg_round", lambda rows, residual: (np.zeros(len(residual)), 1.0)
        )
        rows = integer_rows(path_rows(70, lambda i: 3))  # symmetric, strictly dominant
        with pytest.raises(ValueError, match=r"refinement stalled \(no positive k was left\)"):
            linsolve.solve_exact(rows, [i * i for i in range(70)])

    @pytest.mark.parametrize(
        "cg_round, top, reason",
        [
            (partial_correction, 2**999, r"the residual passed 2\*\*1000"),
            (infinite_correction, 0, "CG returned a non-finite correction"),
            (no_correction, 0, "the residual shrank by less than half"),
        ],
        ids=["residual-bound", "non-finite", "no-shrink"],
    )
    def test_each_stall_names_its_bound(self, monkeypatch, cg_round, top, reason):
        monkeypatch.setattr(linsolve, "_cg_round", cg_round)
        rows = integer_rows(path_rows(20, lambda i: 3))
        with pytest.raises(ValueError, match=rf"refinement stalled \({reason}\)"):
            linsolve.solve_exact(rows, [top + i * i for i in range(20)])

    def test_stall_past_the_hadamard_bound(self):
        # the solution's denominator 267914296 needs more than the round
        # with scale 1: past a Hadamard bound of 0 bits, the next round stops
        rows, rhs = VECTOR_SYSTEMS["refined"]
        with pytest.raises(ValueError, match="refinement stalled.*the scale passed the Hadamard"):
            linsolve._solve_refined(integer_rows(rows), np.array(rhs, dtype=object), 0)

    @given(sparse_dominant_system(1, 80, symmetric=True))
    @settings(max_examples=30, deadline=None)
    def test_denominator_is_least_common(self, system):
        # over either exit, the one denominator is the lcm of the entries'
        rows, rhs = system
        vector = linsolve.solve_exact(integer_rows(rows), rhs)
        assert vector.denominator == math.lcm(*(x.denominator for x in vector))

    @pytest.mark.parametrize(
        "top", [2**510, 2**900, -(2**1000) + 20], ids=["2**510", "2**900", "-(2**1000)+20"]
    )
    def test_right_hand_side_up_to_the_bound(self, top):
        # unscaled, CG's dot products overflow past about 2**509
        rows = path_rows(20, lambda i: 3)
        rhs = [top + i for i in range(20)]
        solution = linsolve.solve_exact(integer_rows(rows), rhs)
        assert rows_times(rows, list(solution)) == rhs
        values, residual = linsolve.solve_float(integer_rows(rows), rhs)
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
        # the operator keeps its verdict, or its refusal: later solves on
        # the same operator, exact or float, certify nothing again
        rows = path_rows(20, lambda i: 3)
        rhs = [i * i for i in range(20)]
        certified, uncertified = integer_rows(rows), integer_rows(nonsymmetric_rows(20))
        verdict = IntegerRows.__dict__["certificate"]  # the cached property
        with mock.patch.object(verdict, "func", wraps=verdict.func) as spy:
            solution = linsolve.solve_exact(certified, rhs)
            values, _ = linsolve.solve_float(certified, rhs)
            assert spy.call_count == 1
            for solver in (linsolve.solve_exact, linsolve.solve_float):
                with pytest.raises(ValueError, match=f"{solver.__name__} needs a certified"):
                    solver(uncertified, rhs)
            assert [call.args[0] for call in spy.call_args_list] == [certified, uncertified]
        assert uncertified.certificate is False
        assert rows_times(rows, solution) == rhs
        assert np.allclose(values, [float(x) for x in solution], rtol=1e-12)

    def test_verdict_of_zero_bits_passes_the_gate(self):
        # the gate refuses False by identity, not the 0 it equals
        rows = integer_rows([{0: 1}])
        assert rows.certificate == 0 and rows.certificate is not False
        assert list(linsolve.solve_exact(rows, [3])) == [3]
        values, residual = linsolve.solve_float(rows, [3])
        assert values.tolist() == [3.0] and residual == 0.0

    def test_singular_symmetric_system_detected(self):
        size = 70
        rows = laplacian_rows(size)
        # consistent right-hand side: every x + t (1, ..., 1) solves it
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(size)])]
        refused(rows, rhs)

    def test_block_without_a_strict_row_is_not_certified(self):
        # The search from the strict rows never reaches the second block.
        # The system is singular, so it must not be refined.
        rows = two_block_rows(10)  # 20 unknowns
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(len(rows))])]
        refused(rows, rhs)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    @pytest.mark.parametrize(
        "rows",
        [
            nonsymmetric_rows(20),
            laplacian_rows(70),
            two_block_rows(10),
            # certified, but a row's absolute sum reaches 2**62
            path_rows(20, lambda i: 2**62 - 2),
            # certified, and every row sum is at most 2**61, but the product
            # bound, the largest entry 2**61 times the longest row's 3
            # entries, reaches 2**62
            [{0: 2**61}] + [{j + 1: c for j, c in r.items()} for r in path_rows(4, lambda i: 4)],
        ],
        ids=[
            "nonsymmetric",
            "singular-path",
            "block-without-a-strict-row",
            "row-sum-2**62",
            "entry-times-row-length-2**62",
        ],
    )
    def test_solve_float_rejects_uncertified_matrix(self, solver, rows):
        # CG would return one of many solutions of the singular symmetric
        # systems, with a tiny residual; the one certificate gate refuses
        # them first, for both integer solvers
        rhs = [int(v) for v in rows_times(rows, [i * i for i in range(len(rows))])]
        with pytest.raises(ValueError, match=f"{solver.__name__} needs a certified") as raised:
            solver(integer_rows(rows), rhs)
        assert raised.traceback[-1].name == "_certified"


def python_int_solve(rows, rhs):
    """``solve_exact`` with the int64 width lowered to 0 bits: every step
    of refinement runs on Python ints."""
    with mock.patch.object(linsolve, "_INT64_BITS", 0):
        return linsolve.solve_exact(rows, rhs)


def reconstruct_calls(monkeypatch):
    """Each ``_reconstruct`` call, in call order, as ``(kind, scale, error)``:
    the dtype kind of its numerators, "i" for int64 and "O" for Python ints,
    the dyadic scale ``D`` and the error it was given.  Refinement tries a
    candidate after each step, so each new scale is one step."""
    calls = []
    reconstruct = linsolve._reconstruct

    def spy(numerators, scale, error):
        calls.append((numerators.dtype.kind, scale, error))
        return reconstruct(numerators, scale, error)

    monkeypatch.setattr(linsolve, "_reconstruct", spy)
    return calls


def kinds(calls):
    return [kind for kind, _, _ in calls]


def cg_rounds(monkeypatch):
    """A one-item list that counts the ``_cg_round`` calls."""
    count = [0]

    def spy(rows, residual):
        count[0] += 1
        return CG_ROUND(rows, residual)

    monkeypatch.setattr(linsolve, "_cg_round", spy)
    return count


def least_terms(solution):
    """Whether a solution is over the least common denominator of its entries."""
    return math.gcd(solution.denominator, *solution.numerators) == 1


@st.composite
def absorbed_walks(draw):
    """A walk of 3 to 128 states, an absorbed set that leaves unknowns, and
    a goal state in it."""
    from urnwalk.model import ModelParams

    params = draw(
        st.sampled_from(
            [ModelParams(n, m) for n in range(2, 6) for m in range(1, 8) if 2 < n**m <= 128]
        )
    )
    states = st.integers(0, params.state_count - 1)
    absorbing = draw(st.frozensets(states, min_size=1, max_size=min(6, params.state_count - 1)))
    return params, absorbing, draw(st.sampled_from(sorted(absorbing)))


def vector(solution):
    return solution.denominator, solution.numerators


# a right-hand side entry on each side of the int64 bounds; 2**63 has no int64
RHS_BOUNDARY = [2**62 - 1, 2**62, 2**63, -(2**63)]


class TestInt64Refinement:
    """Refinement carries ``b``, ``r``, ``x`` and ``N`` in int64 while its
    bounds prove every value fits, and Python ints past them.  Either way it
    returns the same ``RationalVector``."""

    @given(absorbed_walks())
    @settings(max_examples=40, deadline=None)
    def test_walk_solves_match_the_python_int_path(self, case):
        from urnwalk import oracle

        params, absorbing, goal = case
        system = oracle.build_absorbing_system(params, absorbing)
        times = system.hitting_time_vector()
        probabilities = system.absorption_probability_vector(frozenset({goal}))
        with mock.patch.object(linsolve, "_INT64_BITS", 0):
            assert vector(system.hitting_time_vector()) == vector(times)
            assert vector(system.absorption_probability_vector(frozenset({goal}))) == vector(
                probabilities
            )
        assert all(type(n) is int for n in times.numerators + probabilities.numerators)
        assert least_terms(times) and least_terms(probabilities)

    @pytest.mark.parametrize("top", RHS_BOUNDARY, ids=["2**62-1", "2**62", "2**63", "-(2**63)"])
    def test_right_hand_side_at_the_int64_bounds(self, top):
        from urnwalk.model import ModelParams, WalkOperator

        walk = WalkOperator(ModelParams(2, 4), np.arange(16) == 0)  # 15 unknowns
        for rows in (integer_rows(path_rows(20, lambda i: 3)), walk):
            rhs = [top] + [(i * i) % 7 - 3 for i in range(len(rows) - 1)]
            want = gauss_jordan_solve(dense(list(rows)), rhs)
            solved = linsolve.solve_exact(rows, rhs)
            assert list(solved) == want
            assert vector(python_int_solve(rows, rhs)) == vector(solved)
            values, residual = linsolve.solve_float(rows, rhs)
            if top < 2**63:  # it fits int64: the array gives the same solutions
                array = np.array(rhs, dtype=np.int64)
                assert vector(linsolve.solve_exact(rows, array)) == vector(solved)
                assert vector(python_int_solve(rows, array)) == vector(solved)
                array_values, array_residual = linsolve.solve_float(rows, array)
                assert np.array_equal(array_values, values) and array_residual == residual

    def test_numerators_cross_2_to_the_62(self, monkeypatch):
        # 2x6 absorbed at 4 states: two rounds, and the second step promotes
        # the numerators to Python ints before their candidate is accepted
        from urnwalk import oracle
        from urnwalk.model import ModelParams

        calls = reconstruct_calls(monkeypatch)
        system = oracle.build_absorbing_system(ModelParams(2, 6), frozenset({16, 19, 42, 43}))
        times = system.hitting_time_vector()
        assert kinds(calls) == ["i", "O"]
        rhs = [system.params.degree] * len(system.rows)
        assert list(times) == gauss_jordan_solve(dense(list(system.rows)), rhs)
        assert vector(python_int_solve(system.rows, rhs)) == vector(times)

    def test_numerators_reach_2_to_the_62_three_bits_a_round(self, monkeypatch):
        # CG's correction, claiming an accuracy of 2**-6: k is 3 in every
        # round, so N grows by 3 bits a round, and bits(N) + k reaches 64, 62
        # and 63 in the round that takes N from int64 to Python ints.  At
        # least two steps keep N in int64 before it.
        monkeypatch.setattr(
            linsolve, "_cg_round", lambda rows, residual: (CG_ROUND(rows, residual)[0], 2.0**-6)
        )
        calls = reconstruct_calls(monkeypatch)
        rows = path_rows(20, lambda i: 3)
        for top in (2**40, 2**50, 2**55):
            calls.clear()
            rhs = [top + i * i for i in range(20)]
            solved = linsolve.solve_exact(integer_rows(rows), rhs)
            assert list(solved) == gauss_jordan_solve(dense(rows), rhs)
            assert vector(python_int_solve(integer_rows(rows), rhs)) == vector(solved)
            promoted = kinds(calls).index("O")
            assert promoted > 1 and set(kinds(calls)[:promoted]) == {"i"}

    @pytest.mark.parametrize("seed", [2, 4, 9])
    def test_seeded_2x9_absorbing_sets(self, monkeypatch, seed):
        # three rounds each: int64 numerators after the first step, Python
        # ints after the second and the third
        from urnwalk import oracle
        from urnwalk.model import ModelParams, neighbour_counts

        params = ModelParams(2, 9)
        absorbing = sorted(random.Random(seed).sample(range(params.state_count), 4))
        system = oracle.build_absorbing_system(params, frozenset(absorbing))
        calls = reconstruct_calls(monkeypatch)
        times = system.hitting_time_vector()
        assert kinds(calls) == ["i", "O", "O"]
        inside = np.isin(np.arange(params.state_count), absorbing[:1])
        counts = neighbour_counts(params, inside)[system.rows.states].tolist()
        probabilities = system.absorption_probability_vector(frozenset(absorbing[:1]))
        rows = list(system.rows)
        assert rows_times(rows, list(times)) == [params.degree] * len(rows)
        assert rows_times(rows, list(probabilities)) == counts
        assert vector(python_int_solve(system.rows, counts)) == vector(probabilities)
        assert least_terms(times) and least_terms(probabilities)

    @pytest.mark.parametrize("solver", [linsolve.solve_exact, linsolve.solve_float])
    def test_right_hand_side_that_is_no_integer_vector_refused(self, solver):
        rows = integer_rows(path_rows(4, lambda i: 3))
        for rhs in (
            np.ones(4),
            [1, 2, 3.0, 4],
            np.ones(4, dtype=np.int32),
            np.ones((4, 1), dtype=np.int64),
        ):
            with pytest.raises(TypeError, match=f"{solver.__name__} takes an integer right-hand side"):
                solver(rows, rhs)

    def test_python_int_path_takes_no_int64_step(self, monkeypatch):
        # lowered to 0 bits, the bound promotes the all-zero int64 numerators
        # at the first step: every candidate is tried on Python ints
        calls = reconstruct_calls(monkeypatch)
        rows, rhs = VECTOR_SYSTEMS["refined"]
        solved = python_int_solve(integer_rows(rows), rhs)
        assert set(kinds(calls)) == {"O"} and len(calls) > 1
        assert list(solved) == gauss_jordan_solve(dense(rows), rhs)


INTEGER_VECTORS = {
    "int64": int64(5, -7),
    "float64": np.array([5.0, -7.0]),
    "python-ints": np.array([5, -7], dtype=object),
}


class TestIntegers:
    """``_integers``, refinement's one choice between int64 and Python ints:
    int64 below ``2**_INT64_BITS``, Python ints from there on, and never
    Python floats."""

    @pytest.mark.parametrize("name", sorted(INTEGER_VECTORS))
    def test_int64_below_the_bound_and_python_ints_from_it(self, name):
        v = INTEGER_VECTORS[name]
        below = linsolve._integers(v, 2**63 - 1)
        assert below.dtype == np.int64 and below.tolist() == [5, -7]
        past = linsolve._integers(v, 2**63)
        assert past.dtype == object and [type(e) for e in past] == [int, int]
        assert past.tolist() == [5, -7]

    def test_float64_past_the_bound_becomes_python_ints(self):
        # astype(object) would give Python floats, which no shift accepts
        v = np.array([2.0**70, -(2.0**60) - 2048, 3.0])
        got = linsolve._integers(v, 2**80)
        assert [type(e) for e in got] == [int, int, int]
        assert got.tolist() == [2**70, -(2**60) - 2048, 3]

    def test_a_vector_in_the_chosen_dtype_is_not_copied(self):
        v, w = INTEGER_VECTORS["int64"], INTEGER_VECTORS["python-ints"]
        assert linsolve._integers(v, 0) is v and linsolve._integers(w, 2**63) is w

    @pytest.mark.parametrize("name", sorted(INTEGER_VECTORS))
    def test_lowered_to_0_bits_every_input_is_python_ints(self, monkeypatch, name):
        monkeypatch.setattr(linsolve, "_INT64_BITS", 0)
        for bound in (1, 2**62):  # 1 is the least bound a nonzero vector gives
            got = linsolve._integers(INTEGER_VECTORS[name], bound)
            assert got.dtype == object and [type(e) for e in got] == [int, int]

    def test_zero_residual_exit_on_python_int_numerators(self, monkeypatch):
        # the 4x4 transfer system: 255 unknowns, every hitting time an
        # integer, so the residual reaches 0 and N / D goes to _reduced, as
        # int64 and, lowered to 0 bits, as Python ints
        from urnwalk import oracle
        from urnwalk.model import ModelParams

        system = oracle.target_system(ModelParams(4, 4), (1, 1, 1, 1))
        seen = []
        reduced = linsolve._reduced

        def spy(numerators, scale):
            seen.append(numerators.dtype)
            return reduced(numerators, scale)

        monkeypatch.setattr(linsolve, "_reduced", spy)
        times = system.hitting_time_vector()
        with mock.patch.object(linsolve, "_INT64_BITS", 0):
            solved = system.hitting_time_vector()
        assert seen == [np.dtype(np.int64), np.dtype(object)]
        assert len(solved) == 255 and solved.denominator == 1
        assert vector(solved) == vector(times)
        assert all(type(n) is int for n in solved.numerators)


class TestRoundStructure:
    """Refinement tries a candidate right after each step, with an error
    estimated from the CG round just run, so no round's correction is
    discarded; only the exact gate ``A n == d b`` accepts a candidate."""

    @pytest.mark.parametrize("seed", [2, 4, 9])
    def test_seeded_2x9_sets_discard_no_cg_round(self, monkeypatch, seed):
        # one CG round per step, three of each: the candidate after the
        # third step passes the gate, with no fourth round run to size it
        from urnwalk import oracle
        from urnwalk.model import ModelParams

        params = ModelParams(2, 9)
        absorbing = sorted(random.Random(seed).sample(range(params.state_count), 4))
        system = oracle.build_absorbing_system(params, frozenset(absorbing))
        rounds = cg_rounds(monkeypatch)
        calls = reconstruct_calls(monkeypatch)
        for solve in (
            system.hitting_time_vector,
            lambda: system.absorption_probability_vector(frozenset(absorbing[:1])),
        ):
            rounds[0] = 0
            calls.clear()
            assert least_terms(solve())
            steps = len({scale for _, scale, _ in calls})
            assert rounds[0] == steps == len(calls) == 3

    @pytest.mark.parametrize(
        "urns, start, target",
        [(4, (3, 4, 4, 3, 3, 2), (2, 2, 1, 3, 4, 3)), (3, (2, 1, 2, 3, 1, 1, 3), (1, 2, 3, 1, 3, 1, 1))],
        ids=["4x6", "3x7"],
    )
    def test_oracle_pairs_take_one_cg_round(self, monkeypatch, urns, start, target):
        # the candidate after the first step is the solution: the second
        # round, which only sized its error, is gone
        from urnwalk import exact, oracle
        from urnwalk.model import ModelParams, hamming_distance

        params = ModelParams(urns, len(start))
        rounds = cg_rounds(monkeypatch)
        value = oracle.expected_hitting_time(params, start, target)
        assert rounds[0] == 1
        query = exact.HittingQuery(params, hamming_distance(start, target))
        assert value == exact.general_hitting_time(query)

    @pytest.mark.parametrize("size, top", [(5, 2**40), (20, 2**900)], ids=["5", "20"])
    def test_error_estimate_far_too_small(self, monkeypatch, size, top):
        # an estimate of 1 where the float correction of entries near ``top``
        # leaves N / D further off: the candidate tried after the last step
        # finds nothing, the next CG round measures the error, and the
        # retry with it passes the gate
        rows = integer_rows(path_rows(size, lambda i: 3))
        rhs = [top + i * i for i in range(size)]
        want = linsolve.solve_exact(rows, rhs)
        monkeypatch.setattr(linsolve, "_estimated_error", lambda *args: 1)
        calls = reconstruct_calls(monkeypatch)
        with mock.patch.object(linsolve, "_reduced", wraps=linsolve._reduced) as reduced:
            solved = linsolve.solve_exact(rows, rhs)
        reduced.assert_not_called()
        assert vector(solved) == vector(want) and least_terms(solved)
        assert list(solved) == gauss_jordan_solve(dense(list(rows)), rhs)
        (_, before, tried), (_, scale, measured) = calls[-2:]
        assert before == scale and tried == 1 < measured

    def test_error_estimate_on_hand_computed_values(self):
        # 2 ceil(accuracy max(1, norm) 2**k + 1/2) + 2, in exact arithmetic
        cases = [
            ((2.0**-30, 2**10, 25), 68),  # 2**-20 2**25 == 32
            ((0.75, 3, 2), 22),  # 2.25 * 4 == 9
            ((2.0**-10, 0, 10), 6),  # a zero residual counts as one
            ((0.0, 2**20, 40), 4),  # the rounding alone
            ((2.0**-60, 2**61, 1000), 2**1002 + 4),  # 2 2**1000, past the floats
        ]
        for args, want in cases:
            assert linsolve._estimated_error(*args) == want


class TestDenseFallback:
    """No solver falls back to elimination: ``solve_exact`` refuses a
    non-symmetric system, and refines a symmetric one of the same kind to
    its exact solution, however large its denominators."""

    def test_nonsymmetric_system_with_large_denominators(self):
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
        # each off-diagonal entry set on both sides, then the diagonal made
        # dominant again
        symmetric = [{} for _ in range(size)]
        for i, row in enumerate(rows):
            for j, c in row.items():
                if j != i:
                    symmetric[i][j] = symmetric[j][i] = c
        for i, row in enumerate(symmetric):
            row[i] = sum(abs(v) for v in row.values()) + 1
        solution = list(linsolve.solve_exact(integer_rows(symmetric), rhs))
        assert min(x.denominator for x in solution).bit_length() > 400
        assert rows_times(symmetric, solution) == rhs


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
        return linsolve.solve_exact(integer_rows(rows), rhs), gauss_jordan_solve(dense(rows), rhs)

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

    def test_index_must_be_an_integer(self, solved):
        vector, dense = solved
        assert vector[np.int64(1)] == dense[1]
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            vector[1:3]


def reconstruction_input(rng):
    """``(numerators, scale, error)`` for ``_reconstruct``: noise, or entries
    within ``error`` of ``scale`` times rationals over different divisors of
    one denominator, so that the common denominator grows over several steps."""
    size = rng.randint(1, 12)
    scale = 2 ** rng.randint(0, 140) if rng.random() < 0.8 else rng.randint(1, 2**140)
    error = rng.randint(1, 40)
    if rng.random() < 0.25:
        values = [rng.randint(-4 * scale, 4 * scale) for _ in range(size)]
    else:
        factors = [rng.choice([2, 3, 5, 7, 11, 13, 101, 65_537]) for _ in range(rng.randint(0, 4))]
        values = []
        for _ in range(size):
            q = math.prod(rng.sample(factors, rng.randint(0, len(factors))))
            p = rng.randint(-20 * q, 20 * q)
            values.append(round(Fraction(p * scale, q)) + rng.randint(-error, error))
    return np.array(values, dtype=object), scale, error


@st.composite
def chunk_scan_input(draw):
    """``(numerators, scale, error)`` for ``_reconstruct``, of up to 300
    entries, so that a scan reads up to four chunks: noise, or entries near
    ``scale`` times rationals whose denominators take each of a few factors
    at a drawn rate, so that a factor may first appear in any chunk; at a
    dyadic or any scale on either side of ``2**63``."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    size = draw(st.integers(1, 300))
    bits = draw(st.integers(0, 140))
    scale = 2**bits if draw(st.booleans()) else rng.randint(2**bits, 2 ** (bits + 1))
    error = draw(st.integers(1, 40))
    if draw(st.integers(0, 3)) == 0:
        values = [rng.randint(-4 * scale, 4 * scale) for _ in range(size)]
    else:
        factors = [rng.choice([2, 3, 5, 7, 11, 13, 101, 65_537]) for _ in range(rng.randint(0, 4))]
        rate = draw(st.sampled_from([0.5, 0.05, 0.01]))
        values = []
        for _ in range(size):
            q = math.prod(f for f in factors if rng.random() < rate)
            p = rng.randint(-20 * q, 20 * q)
            # p * scale / q rounded, then moved by up to the error
            values.append((2 * p * scale + q) // (2 * q) + rng.randint(-error, error))
    return np.array(values, dtype=object), scale, error


class TestReconstruct:
    @given(chunk_scan_input())
    @settings(max_examples=300, deadline=None)
    def test_chunks_match_the_single_scan(self, case):
        # the chunked scan finds what one scan of every remaining entry
        # finds, in the same dtype, for Python-int numerators and, where
        # they fit, int64 ones
        numerators, scale, error = case
        inputs = [numerators]
        if max(map(abs, numerators)) < 2**62:
            inputs.append(numerators.astype(np.int64))
        for given_numerators in inputs:
            want = single_scan_reconstruct(given_numerators, scale, error)
            got = linsolve._reconstruct(given_numerators, scale, error)
            if want is None:
                assert got is None
                continue
            assert got is not None and got[0] == want[0]
            assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()

    def test_matches_the_rescaling_reference(self):
        rng = random.Random(2024)
        outcomes = {"none": 0, "integer": 0, "fraction": 0}
        for _ in range(3000):
            numerators, scale, error = reconstruction_input(rng)
            want = reconstruct(numerators, scale, error)
            got = linsolve._reconstruct(numerators, scale, error)
            if want is None:
                assert got is None
                outcomes["none"] += 1
                continue
            assert got is not None
            assert got[0] == want[0]
            assert got[1].dtype == object and got[1].tolist() == want[1].tolist()
            outcomes["integer" if want[0] == 1 else "fraction"] += 1
        # the sample reaches every exit: None, an integer vector and a fraction
        assert min(outcomes.values()) > 100

    def test_int64_numerators_match_python_ints(self):
        # int64 N scan and divide in int64 while D and d (|N| + 2 error)
        # stay below 2**63, and fall back to Python ints past that
        rng = random.Random(2025)
        kinds = {"i": 0, "O": 0}
        for _ in range(3000):
            numerators, scale, error = reconstruction_input(rng)
            if max(map(abs, numerators)) >= 2**62:
                continue
            want = linsolve._reconstruct(numerators, scale, error)
            got = linsolve._reconstruct(numerators.astype(np.int64), scale, error)
            if want is None:
                assert got is None
                continue
            assert got[0] == want[0] and got[1].tolist() == want[1].tolist()
            kinds[got[1].dtype.kind] += 1
        # the sample reaches both: 382 int64 and 63 Python-int results
        assert min(kinds.values()) > 40
