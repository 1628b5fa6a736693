"""Exact solvers for the integer and rational linear systems built by the oracle.

:func:`solve_exact` always returns the exact rational solution of
``A x = b`` for an int64 matrix stated as :class:`IntegerRows` and an
integer right-hand side.  Two strategies share one soundness argument, so
speed never costs correctness:

1. numeric-symbolic iterative refinement, for every system past the dense
   limit: conjugate gradient (CG) in floating point approximates
   ``A^-1 r``, the correction is scaled by ``2**k`` and rounded to
   integers, and the residual is updated exactly, so every round adds
   about ``k`` correct bits to a dyadic approximation ``N / D`` of the
   solution.  Continued fractions then recover one common denominator
   (Wan 2006, J. Symbolic Comput. 41; Saunders, Wood & Youse, ISSAC 2011);
2. dense rational Gaussian elimination, :func:`solve_dense`, for tiny
   systems, rational systems, and a stalled refinement.  It takes any
   ``{column: value}`` rows, rational ones too, such as the non-symmetric
   lumped first-visit system.

Past the dense limit refinement and :func:`solve_float`, its first CG
round alone, pass one certificate gate: the matrix must be certified
symmetric positive definite (symmetry, row sums, and a search from the
strict rows by sparse products), as the oracle's ``degree * I - A`` always
is, with row sums below ``2**62``; else they raise ValueError.

Refinement accepts a candidate ``y = n / d`` only through the exact integer
check ``A n == d b`` on a certified, hence nonsingular, matrix, so a verified
candidate is the unique solution.  Elimination is exact by construction and
the one route that reports a singular system.  Both are deterministic:
pivots are the first nonzero choice, and CG runs the same floating-point
operations on the same input.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction

import numpy as np

from .errors import SingularSystemError

# Dense Fraction elimination is cubic in rational operations: a few ms up
# to 16 unknowns, but 0.5 s at 63, where refinement takes 2 ms.  Up to the
# limit it also spares a one-shot caller the scipy import.
DENSE_FRACTION_LIMIT = 16
# No solver reads this any more; the benchmark tracer (bench/tracing.py)
# still uses its largest value to label solves with large denominators.
SNAP_DENOMINATOR_BOUNDS = (1_000, 1_000_000)
_CG_RTOL = 1e-14
# Refinement gives up once the dyadic scale passes the Hadamard bound on
# the determinant squared by this many spare bits.
_REFINE_SPARE_BITS = 64


class IntegerRows(Sequence):
    """A square int64 matrix as CSR arrays, read as a sequence of ``{column: value}`` rows.

    ``indptr``, ``indices`` and ``data`` are plain numpy int64 arrays, with
    each row's columns ascending.  Indexing builds one row's mapping of
    Python ints, for readers and the dense path; the solvers past the dense
    limit read the arrays.
    """

    __slots__ = ("indptr", "indices", "data")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        self.indptr, self.indices, self.data = indptr, indices, data

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> dict[int, int]:
        i = range(len(self))[i]  # negative indices count from the end; IndexError past it
        start, stop = self.indptr[i : i + 2].tolist()
        return dict(zip(self.indices[start:stop].tolist(), self.data[start:stop].tolist()))


def solve_exact(rows: IntegerRows, rhs: Sequence[int]) -> list[Fraction]:
    """Exact solution of the square integer system ``rows @ x == rhs``: by
    :func:`solve_dense` up to the dense limit, by refinement past it, where
    the certificate gate may raise ValueError and a stalled refinement falls
    back to :func:`solve_dense`."""
    if len(rows) <= DENSE_FRACTION_LIMIT:
        _check_integer_system(rows, rhs, "solve_exact")
        return solve_dense(rows, rhs)
    refined = _solve_refined(_certified(rows, rhs, "solve_exact"), np.array(rhs, dtype=object))
    return solve_dense(rows, rhs) if refined is None else refined


def solve_float(rows: IntegerRows, rhs: Sequence[int]) -> tuple[np.ndarray, float]:
    """The first CG round of :func:`solve_exact`'s refinement, as (solution,
    relative residual); ValueError for a matrix its certificate refuses."""
    matrix = _certified(rows, rhs, "solve_float")
    return _cg_round(matrix.astype(np.float64), np.array(rhs, dtype=object))


def _check_integer_system(rows: IntegerRows, rhs: Sequence[int], solver: str) -> None:
    if not isinstance(rows, IntegerRows):
        raise TypeError(f"{solver} takes IntegerRows; solve_dense takes other rows")
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not all(isinstance(v, int) for v in rhs):
        raise TypeError(
            f"{solver} takes an integer right-hand side; solve_dense takes a rational one"
        )


def _certified(rows: IntegerRows, rhs: Sequence[int], solver: str):
    """The certificate gate: the rows as a scipy CSR matrix over their arrays,
    or ValueError unless :func:`_is_certified` holds and every row's absolute
    sum is below ``2**62``, past which int64 products could not be trusted."""
    import scipy.sparse as sparse

    _check_integer_system(rows, rhs, solver)
    data, size = rows.data, len(rows)
    matrix = sparse.csr_array((data, rows.indices, rows.indptr), shape=(size, size))
    bound = np.abs(data, dtype=np.float64).max(initial=0) * np.diff(rows.indptr).max(initial=0)
    if bound >= 2.0**62 or not _is_certified(matrix):
        raise ValueError(
            f"{solver} needs a certified symmetric positive definite matrix "
            "with row sums below 2**62; solve_dense takes any"
        )
    return matrix


def _cg_round(approximate, residual: np.ndarray) -> tuple[np.ndarray, float]:
    """CG from zero on ``A z ~ r`` for the float copy ``r`` of an integer residual.

    Returns ``z`` and the relative residual ``|r - A z|inf / max(1, |r|inf)``.
    Rounding can keep CG above the tolerance; the iteration cap then bounds
    the work, and the residual reports the accuracy CG actually got.
    """
    from scipy.sparse.linalg import cg

    r = residual.astype(np.float64)
    z, _ = cg(approximate, r, rtol=_CG_RTOL, atol=0.0, maxiter=2 * len(r))
    scale = max(1.0, float(np.abs(r).max()))
    return z, float(np.abs(r - approximate @ z).max()) / scale


def solve_dense(
    rows: Sequence[Mapping[int, int | Fraction]], rhs: Sequence[int | Fraction]
) -> list[Fraction]:
    """Exact solution of the square system ``rows @ x == rhs`` by dense elimination.

    Rows are ``{column: value}`` mappings with integer or rational entries.
    The cost is cubic in rational operations, so past a few dozen unknowns
    :func:`solve_exact` is the solver for an integer system.  Raises
    SingularSystemError when a column has no pivot.
    """
    size = len(rows)
    if len(rhs) != size:
        raise ValueError("matrix and right-hand side sizes differ")
    a = [[Fraction(0)] * size for _ in range(size)]
    for i, row in enumerate(rows):
        for j, coeff in row.items():
            a[i][j] = Fraction(coeff)
    b = [Fraction(v) for v in rhs]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot_row is None:
            raise SingularSystemError(f"no pivot in column {col}")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        pivot = a[col][col]
        if pivot != 1:
            a[col] = [entry / pivot for entry in a[col]]
            b[col] /= pivot
        for r in range(col + 1, size):
            factor = a[r][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] -= factor * b[col]
    x = [Fraction(0)] * size
    for i in range(size - 1, -1, -1):
        acc = b[i]
        row = a[i]
        for j in range(i + 1, size):
            if row[j]:
                acc -= row[j] * x[j]
        x[i] = acc
    return x


# ---------------------------------------------------------------------------
# refinement path
# ---------------------------------------------------------------------------


def _is_certified(matrix) -> bool:
    """Symmetry and weakly chained diagonal dominance with a positive diagonal.

    Every row has ``a_ii >= sum |a_ij|`` over ``j != i``, and through
    nonzero entries reaches a row where the inequality is strict.  Such a
    matrix is nonsingular (Shivakumar & Chew 1974); when it is also
    symmetric it is positive definite, so CG converges on it.  The search
    grows the set of rows reached from the strict rows by one sparse
    product per step; by symmetry, row ``i`` has a nonzero entry in a
    reached column exactly when a reached row has one in column ``i``.
    """
    if (matrix != matrix.T).nnz:
        return False
    magnitudes = abs(matrix)
    diagonal = matrix.diagonal()
    off = magnitudes.sum(axis=1) - np.abs(diagonal)
    if (diagonal <= 0).any() or (diagonal < off).any():
        return False
    reached = diagonal > off
    frontier = reached
    while frontier.any():
        frontier = (magnitudes @ frontier.astype(np.int64) > 0) & ~reached
        reached = reached | frontier
    return bool(reached.all())


def _exact_product(matrix, spread: int, x: np.ndarray) -> np.ndarray:
    """Exact ``matrix @ x`` for a vector of Python ints, as Python ints.

    In int64 when ``spread * max|x|`` is below ``2**63``, ``spread``
    bounding each row's absolute sum, so that every product and partial
    sum is in range; with Python ints otherwise.  Every row must hold an
    entry (a certified matrix holds its diagonal).
    """
    if spread * int(np.abs(x).max()) < 2**63:
        return (matrix @ x.astype(np.int64)).astype(object)
    products = matrix.data.astype(object) * x[matrix.indices]
    return np.add.reduceat(products, matrix.indptr[:-1])


def _solve_refined(matrix, rhs: np.ndarray) -> list[Fraction] | None:
    """Iterative refinement on a symmetric positive definite integer system.

    Keeps ``A N == D b - r`` exactly, with ``D = 2**K``.  Each round solves
    ``A z ~ r`` by CG, picks ``k`` from the accuracy CG reached, and moves
    ``N, D, r`` to ``2**k N + x, 2**k D, 2**k r - A x`` for ``x = round(2**k z)``.
    A candidate ``n / d`` is accepted only through the exact gate
    ``A n == d b``.  None when CG stops reducing the residual or
    reconstruction never verifies before the Hadamard bound.
    """
    spread = int(abs(matrix).sum(axis=1).max())  # bounds |A x| / |x|
    approximate = matrix.astype(np.float64)
    # twice the Hadamard bound on log2 det(A): denominators divide det(A)
    limit_bits = _REFINE_SPARE_BITS + math.ceil(
        np.log2(approximate.multiply(approximate).sum(axis=1)).sum()
    )
    residual = rhs
    numerators = np.zeros(len(rhs), dtype=object)
    scale = 1
    while True:
        norm = int(np.abs(residual).max())
        if norm == 0:
            candidate = (scale, numerators)  # N / D is exact
        else:
            if norm.bit_length() > 1000:
                return None  # the float copy of the residual would overflow
            z, accuracy = _cg_round(approximate, residual)
            z_max = float(np.abs(z).max())
            if not math.isfinite(z_max):
                return None
            if scale.bit_length() > limit_bits + int(z_max).bit_length():
                return None
            # x - N / D == A^-1 r / D, and z ~ A^-1 r
            candidate = _reconstruct(numerators, scale, 2 * int(z_max) + 2)
        if candidate is not None:
            den, nums = candidate
            if (_exact_product(matrix, spread, nums) == den * rhs).all():
                return [Fraction(n, den) for n in nums]
        if norm == 0:
            return None

        k_accurate = -math.frexp(max(accuracy, 2.0**-48))[1] - 2  # 2**k * accuracy <= 1/4
        # below this k, 2**k r and A x stay within int64
        k_int64 = 61 - math.frexp(norm + spread * (z_max + 1))[1]
        k = min(k_accurate, k_int64) if k_int64 > 0 else k_accurate
        if k < 1:
            return None
        step = np.array([int(v) for v in np.rint(np.ldexp(z, k)).tolist()], dtype=object)
        new = (residual << k) - _exact_product(matrix, spread, step)
        if int(np.abs(new).max()) > norm << (k - 1):
            return None  # the scaled residual shrank by less than half: CG stalled
        residual = new
        numerators = (numerators << k) + step
        scale <<= k


def _reconstruct(
    numerators: np.ndarray, scale: int, error: int
) -> tuple[int, np.ndarray] | None:
    """A common denominator ``d`` and numerators ``n`` with ``n / d`` near ``N / D``.

    Assumes every entry ``N_j / D`` is within ``error / D`` of a rational
    whose denominator is at most ``sqrt(D / (4 error))``; that rational is
    then the unique one so close, and continued fractions find it.  The
    denominator starts at 1 and grows by the part each inconsistent entry
    still needs.  None when no denominator within the bound fits.
    """
    bound = math.isqrt(scale // (4 * error))
    den = 1
    while den <= bound:
        scaled = numerators * den
        nearest = (2 * scaled + scale) // (2 * scale)
        off = np.flatnonzero(np.abs(scaled - nearest * scale) > den * error)
        if off.size == 0:
            return den, nearest
        entry = Fraction(int(scaled[off[0]]), scale).limit_denominator(bound // den)
        if entry.denominator == 1:
            return None
        den *= entry.denominator
    return None
