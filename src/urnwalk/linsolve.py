"""The exact solver of the integer linear systems built by the oracle.

:func:`solve_exact` always returns the exact rational solution of
``A x = b`` for an int64 matrix stated as :class:`IntegerRows` and an
integer right-hand side, as a :class:`RationalVector`: the least common
denominator of its entries and the integer numerators over it, a read-only
sequence that makes an entry's reduced Fraction only when the entry is
read.  It solves every system, whatever its size, by numeric-symbolic
iterative refinement: conjugate gradient (CG) in floating point
approximates ``A^-1 r``, the correction is scaled by ``2**k`` and rounded
to integers, and the residual is updated exactly, so every round adds
about ``k`` correct bits to a dyadic approximation ``N / D`` of the
solution.  Continued fractions then recover one common denominator (Wan
2006, J. Symbolic Comput. 41; Saunders, Wood & Youse, ISSAC 2011).
:func:`solve_float` is its first CG round alone.

Both pass one certificate gate: the matrix must be certified symmetric
positive definite (symmetry, row sums, and a search from the strict rows
by sparse products), as the oracle's ``degree * I - A`` always is, with
its largest absolute entry times its longest row's entry count below
``2**62``, and every right-hand side entry must lie below ``2**1000`` in
absolute value; else they raise ValueError.  A system of no unknowns
needs no gate, and solves to an empty vector.  CG runs on the residual
scaled by a power of two, so its float arithmetic stays in range up to
that bound.  The gate works out the matrix's facts (the certificate, the
float copy CG reads, the largest absolute row sum and the Hadamard bound)
on the first solve and keeps them, or the refusal, on the
:class:`IntegerRows`, whose arrays are read-only: every later solve on
the same rows reads them.  A refinement that stalls raises ValueError
too, naming the bound that stopped it.

Refinement accepts a candidate ``y = n / d`` only through the exact integer
check ``A n == d b`` on a certified, hence nonsingular, matrix, so a verified
candidate is the unique solution; a dyadic ``N / D`` whose exactly updated
residual reaches 0 satisfies that check by construction.  It is
deterministic: CG runs the same floating-point operations on the same
input.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from typing import Any, Literal, NamedTuple

import numpy as np

# No solver reads this any more: refinement solves every integer system.
# The benchmark tracer (bench/tracing.py) labels a solve of at most this
# many unknowns as dense, so it counts none.
DENSE_FRACTION_LIMIT = 0
# No solver reads this any more; the benchmark tracer (bench/tracing.py)
# still uses its largest value to label solves with large denominators.
SNAP_DENOMINATOR_BOUNDS = (1_000, 1_000_000)
_CG_RTOL = 1e-14
# Right-hand sides, and the residuals refinement carries, stay below
# 2**_FLOAT_BITS in absolute value, so that their float copies and CG's
# solutions on them stay finite.
_FLOAT_BITS = 1000
# Refinement gives up once the dyadic scale passes the Hadamard bound on
# the determinant squared by this many spare bits.
_REFINE_SPARE_BITS = 64
# every refinement that stops without a verified solution names its reason
_STALLED = "solve_exact: refinement stalled ({})"


class _MatrixFacts(NamedTuple):
    """What the integer solvers read of a certified matrix."""

    matrix: Any  # the scipy CSR matrix over the rows' arrays
    approximate: Any  # its float64 copy, which CG reads
    spread: int  # the largest absolute row sum: it bounds |A x| / |x|
    limit_bits: int  # twice the Hadamard bound on log2 det(A), plus spare bits


class IntegerRows(Sequence):
    """A square int64 matrix as CSR arrays, read as a sequence of ``{column: value}`` rows.

    ``indptr``, ``indices`` and ``data`` are 1-D numpy int64 arrays, with
    each row's columns ascending.  Construction checks their types and
    shapes (TypeError for a wrong type or dtype, ValueError for a wrong
    shape) and makes them read-only.  Indexing builds one row's mapping of
    Python ints, for readers; the integer solvers, :func:`solve_exact` and
    :func:`solve_float`, read the arrays.  Their gate keeps in ``_facts``
    what it worked out on the first solve: None before it, then the
    matrix's facts, or False for a refusal; both stay true because the
    arrays cannot change.
    """

    __slots__ = ("indptr", "indices", "data", "_facts")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        arrays = {"indptr": indptr, "indices": indices, "data": data}
        for name, array in arrays.items():
            if not isinstance(array, np.ndarray) or array.dtype != np.int64:
                raise TypeError(f"IntegerRows {name} must be an int64 ndarray")
            if array.ndim != 1:
                raise ValueError(f"IntegerRows {name} must be 1-D")
        if len(indptr) == 0 or indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("IntegerRows indptr must start at 0 and never decrease")
        if not indptr[-1] == len(indices) == len(data):
            raise ValueError("IntegerRows indptr must end at len(indices) == len(data)")
        if len(indices) and (indices.min() < 0 or indices.max() >= len(indptr) - 1):
            raise ValueError("IntegerRows indices must be columns of the square matrix")
        for array in arrays.values():
            array.flags.writeable = False
        self.indptr, self.indices, self.data = indptr, indices, data
        self._facts = None

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, i: int) -> dict[int, int]:
        i = range(len(self))[operator.index(i)]  # negative from the end; IndexError past it
        start, stop = self.indptr[i : i + 2].tolist()
        return dict(zip(self.indices[start:stop].tolist(), self.data[start:stop].tolist()))


class RationalVector(Sequence):
    """A rational vector as integer ``numerators`` over one positive ``denominator``.

    Read-only.  Indexing entry ``i``, an integer, makes its reduced Fraction
    ``numerators[i] / denominator`` (negative indices count from the end,
    IndexError past it); iteration makes each entry once, in order.  A
    caller that reads a few entries of a large solution makes only those.
    """

    __slots__ = ("denominator", "numerators")

    def __init__(self, denominator: int, numerators: Sequence[int]) -> None:
        self.denominator = denominator
        self.numerators = tuple(numerators)

    def __len__(self) -> int:
        return len(self.numerators)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.numerators[operator.index(i)], self.denominator)

    def __iter__(self):
        den = self.denominator
        return (Fraction(n, den) for n in self.numerators)


def solve_exact(rows: IntegerRows, rhs: Sequence[int]) -> RationalVector:
    """Exact solution of the square integer system ``rows @ x == rhs``, as
    the least common denominator of its entries and their numerators
    (:class:`RationalVector`).

    Refinement solves it at every size; a system of no unknowns solves to
    an empty vector.  ValueError comes from the certificate gate, for a
    matrix it refuses or a right-hand side entry at or past ``2**1000``, or
    from a refinement that stalls, naming the bound that stopped it.
    """
    facts = _certified(rows, rhs, "solve_exact")
    if facts is None:
        return RationalVector(1, ())
    return _solve_refined(facts, np.array(rhs, dtype=object))


def solve_float(rows: IntegerRows, rhs: Sequence[int]) -> tuple[np.ndarray, float]:
    """The first CG round of :func:`solve_exact`'s refinement, as (solution,
    relative residual); ValueError for a matrix its certificate refuses."""
    facts = _certified(rows, rhs, "solve_float")
    if facts is None:
        return np.zeros(0), 0.0
    return _cg_round(facts.approximate, np.array(rhs, dtype=object))


def _certified(rows: IntegerRows, rhs: Sequence[int], solver: str) -> _MatrixFacts | None:
    """The certificate gate: the facts of the rows' matrix, worked out on the
    rows' first gate and kept on them, ValueError when it was refused, or
    None for a system of no unknowns, which needs none."""
    if not isinstance(rows, IntegerRows):
        raise TypeError(f"{solver} takes IntegerRows, not {type(rows).__name__}")
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not all(isinstance(v, int) for v in rhs):
        raise TypeError(f"{solver} takes an integer right-hand side")
    if len(rows) == 0:
        return None
    if max(map(abs, rhs)).bit_length() > _FLOAT_BITS:
        raise ValueError(
            f"{solver} takes right-hand side entries below 2**{_FLOAT_BITS} "
            "in absolute value"
        )
    if rows._facts is None:
        rows._facts = _matrix_facts(rows)
    if rows._facts is False:
        raise ValueError(
            f"{solver} needs a certified symmetric positive definite matrix "
            "whose largest absolute entry times its longest row's entry count "
            "is below 2**62"
        )
    return rows._facts


def _matrix_facts(rows: IntegerRows) -> _MatrixFacts | Literal[False]:
    """Every fact the solvers read of the rows' matrix, or False unless
    :func:`_is_certified` holds and the largest absolute entry times the
    longest row's entry count is below ``2**62``: that product bounds every
    absolute row sum, past which int64 products could not be trusted."""
    import scipy.sparse as sparse

    data, size = rows.data, len(rows)
    matrix = sparse.csr_array((data, rows.indices, rows.indptr), shape=(size, size))
    bound = np.abs(data, dtype=np.float64).max(initial=0) * np.diff(rows.indptr).max(initial=0)
    if bound >= 2.0**62:
        return False
    magnitudes = abs(matrix)
    row_sums = magnitudes.sum(axis=1)
    if not _is_certified(matrix, magnitudes, row_sums):
        return False
    # free |A| for the float copy of the same size to reuse: else the heap
    # grows, and glibc malloc trims and refaults it on every solve (1,187
    # against 912 page faults per 4x6 `oracle` query)
    del magnitudes
    approximate = matrix.astype(np.float64)
    # log2 of Hadamard's bound on det(A)**2, from the rows' sums of squares
    # (no row of a certified matrix is empty); solution denominators divide det(A)
    squares = np.add.reduceat(np.square(approximate.data), approximate.indptr[:-1])
    hadamard_bits = math.ceil(np.log2(squares).sum())
    return _MatrixFacts(
        matrix, approximate, int(row_sums.max()), _REFINE_SPARE_BITS + hadamard_bits
    )


def _cg_round(approximate, residual: np.ndarray) -> tuple[np.ndarray, float]:
    """CG from zero on ``A z ~ r`` for the float copy ``r`` of an integer residual.

    Returns ``z`` and the relative residual ``|r - A z|inf / max(1, |r|inf)``.
    CG runs on ``r`` scaled by the power of two that puts its largest entry
    in [1/2, 1), so its dot products cannot overflow; the scaling is exact,
    and ``z`` is scaled back.  Rounding can keep CG above the tolerance; the
    iteration cap then bounds the work, and the residual reports the
    accuracy CG actually got.
    """
    from scipy.sparse.linalg import cg

    r = residual.astype(np.float64)
    exponent = math.frexp(float(np.abs(r).max()))[1]
    r = np.ldexp(r, -exponent)
    z, _ = cg(approximate, r, rtol=_CG_RTOL, atol=0.0, maxiter=2 * len(r))
    scale = max(math.ldexp(1.0, -exponent), float(np.abs(r).max()))  # max(1, |r|inf), scaled
    return np.ldexp(z, exponent), float(np.abs(r - approximate @ z).max()) / scale


# ---------------------------------------------------------------------------
# refinement path
# ---------------------------------------------------------------------------


def _is_certified(matrix, magnitudes, row_sums: np.ndarray) -> bool:
    """Symmetry and weakly chained diagonal dominance with a positive diagonal,
    given ``magnitudes``, the matrix of absolute values, and its row sums.

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
    diagonal = matrix.diagonal()
    off = row_sums - np.abs(diagonal)
    if (diagonal <= 0).any() or (diagonal < off).any():
        return False
    reached = diagonal > off
    frontier = reached
    while frontier.any():
        frontier = (magnitudes @ frontier.astype(np.int64) > 0) & ~reached
        reached = reached | frontier
    return bool(reached.all())


def _exact_product(facts: _MatrixFacts, x: np.ndarray) -> np.ndarray:
    """Exact ``A @ x`` for a vector of Python ints, as Python ints.

    In int64 when ``spread * max|x|`` is below ``2**63``, so that every
    product and partial sum is in range; with Python ints otherwise.  Every
    row must hold an entry (a certified matrix holds its diagonal).
    """
    matrix = facts.matrix
    if facts.spread * int(np.abs(x).max()) < 2**63:
        return (matrix @ x.astype(np.int64)).astype(object)
    products = matrix.data.astype(object) * x[matrix.indices]
    return np.add.reduceat(products, matrix.indptr[:-1])


def _solve_refined(facts: _MatrixFacts, rhs: np.ndarray) -> RationalVector:
    """Iterative refinement on a symmetric positive definite integer system.

    Keeps ``A N == D b - r`` exactly, with ``D = 2**K``.  Each round solves
    ``A z ~ r`` by CG, picks ``k`` from the accuracy CG reached, and moves
    ``N, D, r`` to ``2**k N + x, 2**k D, 2**k r - A x`` for ``x = round(2**k z)``.
    Once ``r`` is 0 the invariant makes ``N / D`` the solution.  Before that,
    a candidate ``n / d`` is accepted only through the exact gate
    ``A n == d b``.  Either is returned over its least common denominator.
    ValueError names the bound that stopped a refinement that got neither.
    """
    residual = rhs
    numerators = np.zeros(len(rhs), dtype=object)
    scale = 1
    while True:
        norm = int(np.abs(residual).max())
        if norm == 0:
            common = math.gcd(scale, *numerators.tolist())
            return RationalVector(scale // common, (numerators // common).tolist())
        if norm.bit_length() > _FLOAT_BITS:
            raise ValueError(_STALLED.format(f"the residual passed 2**{_FLOAT_BITS}"))
        z, accuracy = _cg_round(facts.approximate, residual)
        z_max = float(np.abs(z).max())
        if not math.isfinite(z_max):
            raise ValueError(_STALLED.format("CG returned a non-finite correction"))
        if scale.bit_length() > facts.limit_bits + int(z_max).bit_length():
            raise ValueError(_STALLED.format("the scale passed the Hadamard bound"))
        # x - N / D == A^-1 r / D, and z ~ A^-1 r
        candidate = _reconstruct(numerators, scale, 2 * int(z_max) + 2)
        if candidate is not None:
            den, nums = candidate
            if (_exact_product(facts, nums) == den * rhs).all():
                return RationalVector(den, nums.tolist())

        k_accurate = -math.frexp(max(accuracy, 2.0**-48))[1] - 2  # 2**k * accuracy <= 1/4
        # below this k, 2**k r and A x stay within int64
        k_int64 = 61 - math.frexp(norm + facts.spread * (z_max + 1))[1]
        k = min(k_accurate, k_int64) if k_int64 > 0 else k_accurate
        k = min(k, 1022 - math.frexp(z_max)[1])  # 2**k z stays finite
        if k < 1:
            raise ValueError(_STALLED.format("no positive k was left"))
        step = np.array([int(v) for v in np.rint(np.ldexp(z, k)).tolist()], dtype=object)
        new = (residual << k) - _exact_product(facts, step)
        if int(np.abs(new).max()) > norm << (k - 1):
            raise ValueError(_STALLED.format("the residual shrank by less than half"))
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
