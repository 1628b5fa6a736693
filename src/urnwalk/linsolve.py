"""Exact solvers for the sparse rational linear systems built by the oracle.

:func:`solve_exact` always returns the exact rational solution of
``A x = b``.  Two strategies share one soundness argument, so speed never
costs correctness:

1. numeric-symbolic iterative refinement, for systems past the dense limit
   whose integer-scaled matrix is certified symmetric positive definite
   (the oracle's I - Q always is): conjugate gradient (CG) in floating
   point approximates ``A^-1 r``, the correction is scaled by ``2**k`` and
   rounded to integers, and the residual is updated exactly, so every round
   adds about ``k`` correct bits to a dyadic approximation ``N / D`` of the
   solution.  Continued fractions then recover one common denominator
   (Wan 2006, J. Symbolic Comput. 41; Saunders, Wood & Youse, ISSAC 2011);
2. dense rational Gaussian elimination for everything else: tiny systems,
   systems refinement cannot certify, and any refinement that stalls.

Refinement accepts a candidate ``y = n / d`` only through the exact integer
gate ``A n == d b``, and it runs only on weakly chained diagonally dominant
matrices, which are nonsingular, so a verified candidate is the unique
solution.  Elimination is exact by construction and is the one route that
reports a singular system.  Both are deterministic: pivots are the first
nonzero choice, and CG runs the same floating-point operations on the
same input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import SingularSystemError

SparseRows = Sequence[Mapping[int, Fraction]]

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


def solve_exact(rows: SparseRows, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact solution of the square sparse system ``rows @ x == rhs``."""
    size = len(rows)
    if size != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if size > DENSE_FRACTION_LIMIT:
        int_rows, int_rhs = _integer_rows(rows, rhs)
        if _is_symmetric(int_rows) and _is_chained_dominant(int_rows):
            candidate = _solve_refined(int_rows, int_rhs)
            if candidate is not None:
                return candidate
    return _dense_fraction_solve(rows, rhs)


def solve_float(
    rows: SparseRows, rhs: Sequence[Fraction | float]
) -> tuple[np.ndarray, float]:
    """Approximate solve by conjugate gradient; returns (solution, relative residual).

    The matrix must be symmetric once each row is scaled to integers, and
    positive definite for the residual to be small.
    """
    int_rows, int_rhs = _integer_rows(rows, rhs)
    if not _is_symmetric(int_rows):
        raise ValueError("solve_float needs a symmetric matrix")
    matrix = _csr(int_rows, np.float64)
    b = np.array(int_rhs, dtype=np.float64)
    x = _conjugate_gradient(matrix, b)
    residual = np.abs(matrix @ x - b).max()
    scale = max(1.0, float(np.abs(b).max()))
    return x, float(residual / scale)


def _csr(int_rows: Sequence[Mapping[int, int]], dtype):
    import scipy.sparse as sparse

    indptr, indices, data = [0], [], []
    for row in int_rows:
        indices.extend(row.keys())
        data.extend(row.values())
        indptr.append(len(indices))
    size = len(int_rows)
    return sparse.csr_matrix(
        (np.array(data, dtype=dtype), indices, indptr), shape=(size, size)
    )


def _conjugate_gradient(matrix, rhs: np.ndarray) -> np.ndarray:
    """CG from zero on a symmetric positive definite ``matrix``.

    Rounding can keep CG above the tolerance; the iteration cap then bounds
    the work, and callers measure the accuracy they actually got.
    """
    from scipy.sparse.linalg import cg

    x, _ = cg(matrix, rhs, rtol=_CG_RTOL, atol=0.0, maxiter=2 * len(rhs))
    return x


def _dense_fraction_solve(rows: SparseRows, rhs: Sequence[Fraction]) -> list[Fraction]:
    size = len(rows)
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


def _integer_rows(
    rows: SparseRows, rhs: Sequence[Fraction]
) -> tuple[list[dict[int, int]], list[int]]:
    """Clear denominators so every coefficient is an integer.

    One scale serves the whole system, so a symmetric matrix stays symmetric.
    """
    rhs = [Fraction(b) for b in rhs]
    scale = math.lcm(
        *(b.denominator for b in rhs),
        *(c.denominator for row in rows for c in row.values()),
    )
    int_rows = [
        {j: c.numerator * (scale // c.denominator) for j, c in row.items()}
        for row in rows
    ]
    int_rhs = [b.numerator * (scale // b.denominator) for b in rhs]
    return int_rows, int_rhs


def _satisfies(
    int_rows: Sequence[Mapping[int, int]],
    int_rhs: Sequence[int],
    numerators: Sequence[int],
    denominator: int,
) -> bool:
    """The exact gate: ``A n == d b`` in integers, i.e. ``n / d`` solves ``A x = b``."""
    return all(
        sum(c * numerators[j] for j, c in row.items()) == denominator * b
        for row, b in zip(int_rows, int_rhs)
    )


# ---------------------------------------------------------------------------
# refinement path
# ---------------------------------------------------------------------------


def _is_symmetric(int_rows: Sequence[Mapping[int, int]]) -> bool:
    return all(
        int_rows[j].get(i, 0) == c
        for i, row in enumerate(int_rows)
        for j, c in row.items()
    )


def _is_chained_dominant(int_rows: Sequence[Mapping[int, int]]) -> bool:
    """Weakly chained diagonal dominance with a positive diagonal.

    Every row has ``a_ii >= sum |a_ij|`` over ``j != i``, and through
    nonzero entries reaches a row where the inequality is strict.  Such a
    matrix is nonsingular (Shivakumar & Chew 1974); when it is also
    symmetric it is positive definite, so CG converges on it.
    """
    strict = []
    for i, row in enumerate(int_rows):
        diagonal = row.get(i, 0)
        off = sum(abs(c) for j, c in row.items() if j != i)
        if diagonal <= 0 or diagonal < off:
            return False
        if diagonal > off:
            strict.append(i)
    seen = set(strict)
    while strict:
        for j, c in int_rows[strict.pop()].items():
            if c and j not in seen:
                seen.add(j)
                strict.append(j)
    return len(seen) == len(int_rows)


def _solve_refined(
    int_rows: list[dict[int, int]], int_rhs: list[int]
) -> list[Fraction] | None:
    """Iterative refinement on a symmetric positive definite integer system.

    Keeps ``A N == D b - r`` exactly, with ``D = 2**K``.  Each round solves
    ``A z ~ r`` by CG, picks ``k`` from the accuracy CG reached, and moves
    ``N, D, r`` to ``2**k N + x, 2**k D, 2**k r - A x`` for ``x = round(2**k z)``.
    None when CG stops reducing the residual or reconstruction never
    verifies before the Hadamard bound.
    """
    spread = max(sum(map(abs, row.values())) for row in int_rows)  # bounds |A x| / |x|
    if spread >= 2**62:
        return None  # the int64 copy of the matrix could not hold it
    exact = _csr(int_rows, np.int64)
    matrix = exact.astype(np.float64)
    # twice the Hadamard bound on log2 det(A): denominators divide det(A)
    limit_bits = _REFINE_SPARE_BITS + math.ceil(
        sum(math.log2(sum(c * c for c in row.values())) for row in int_rows)
    )
    residual = list(int_rhs)
    numerators = [0] * len(int_rows)
    scale = 1
    while True:
        norm = max(map(abs, residual))
        if norm == 0:
            candidate = (scale, numerators)  # N / D is exact
        else:
            if norm.bit_length() > 1000:
                return None  # the float copy of the residual would overflow
            r = np.array(residual, dtype=np.float64)
            z = _conjugate_gradient(matrix, r)
            z_max = float(np.abs(z).max())
            if not math.isfinite(z_max):
                return None
            if scale.bit_length() > limit_bits + int(z_max).bit_length():
                return None
            # x - N / D == A^-1 r / D, and z ~ A^-1 r
            candidate = _reconstruct(numerators, scale, 2 * int(z_max) + 2)
        if candidate is not None and _satisfies(int_rows, int_rhs, candidate[1], candidate[0]):
            den, nums = candidate
            return [Fraction(n, den) for n in nums]
        if norm == 0:
            return None

        accuracy = max(float(np.abs(r - matrix @ z).max()) / norm, 2.0**-48)
        k_accurate = -math.frexp(accuracy)[1] - 2  # 2**k * accuracy <= 1/4
        k_int64 = 61 - math.frexp(norm + spread * (z_max + 1))[1]
        k = min(k_accurate, k_int64) if k_int64 > 0 else k_accurate
        if k < 1:
            return None
        correction = np.rint(np.ldexp(z, k))
        bound = (norm << k) + spread * int(np.abs(correction).max())
        if bound < 2**63:  # every int64 product and partial sum below is in range
            c64 = correction.astype(np.int64)
            step = c64.tolist()
            new = ((np.array(residual, dtype=np.int64) << k) - exact @ c64).tolist()
        else:
            step = [int(v) for v in correction]
            new = [
                (v << k) - sum(c * step[j] for j, c in row.items())
                for v, row in zip(residual, int_rows)
            ]
        if max(map(abs, new)) > norm << (k - 1):
            return None  # the scaled residual shrank by less than half: CG stalled
        residual = new
        numerators = [(n << k) + s for n, s in zip(numerators, step)]
        scale <<= k


def _reconstruct(
    numerators: list[int], scale: int, error: int
) -> tuple[int, list[int]] | None:
    """A common denominator ``d`` and numerators ``n`` with ``n / d`` near ``N / D``.

    Assumes every entry ``N_j / D`` is within ``error / D`` of a rational
    whose denominator is at most ``sqrt(D / (4 error))``; that rational is
    then the unique one so close, and continued fractions find it.  The
    denominator starts at 1 and grows by the part each inconsistent entry
    still needs.  None when no denominator within the bound fits.
    """
    bound = math.isqrt(scale // (4 * error))
    values = np.array(numerators, dtype=object)
    den = 1
    while den <= bound:
        scaled = values * den
        nearest = (2 * scaled + scale) // (2 * scale)
        off = np.flatnonzero(np.abs(scaled - nearest * scale) > den * error)
        if off.size == 0:
            return den, nearest.tolist()
        entry = Fraction(int(scaled[off[0]]), scale).limit_denominator(bound // den)
        if entry.denominator == 1:
            return None
        den *= entry.denominator
    return None
