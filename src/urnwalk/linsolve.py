"""Exact solvers for the sparse rational linear systems built by the oracle.

:func:`solve_exact` always returns the exact rational solution of
``A x = b``.  Three strategies share one soundness argument, so speed never
costs correctness:

1. dense rational Gaussian elimination with partial pivoting, used
   directly for tiny systems;
2. numeric-symbolic iterative refinement, for larger systems whose
   integer-scaled matrix is certified symmetric positive definite (the
   oracle's I - Q always is): conjugate gradient (CG) in floating point
   approximates ``A^-1 r``, the correction is scaled by ``2**k`` and rounded
   to integers, and the residual is updated exactly, so every round adds
   about ``k`` correct bits to a dyadic approximation ``N / D`` of the
   solution.  Continued fractions then recover one common denominator
   (Wan 2006, J. Symbolic Comput. 41; Saunders, Wood & Youse, ISSAC 2011);
3. a modular path for everything else, or when refinement stalls: eliminate
   over several word-sized prime fields, combine by the Chinese remainder
   theorem and lift each residue back to a rational.

Paths 2 and 3 accept a candidate ``y = n / d`` only through one exact
integer gate, ``A n == d b``.  A verified candidate is the unique solution
because the matrix is nonsingular: path 2 runs only on matrices that are
weakly chained diagonally dominant, which certifies it, and path 3
certifies it as a byproduct (a matrix invertible modulo a prime is
invertible over the rationals).  Past the dense limit, path 3 is therefore
the one route that reports a singular system.  All paths are deterministic: pivots are the
first nonzero choice, the prime sequence is fixed, and CG runs the same
floating-point operations on the same input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import InternalCheckError, SingularSystemError

SparseRows = Sequence[Mapping[int, Fraction]]

# Dense Fraction elimination is cubic in rational operations: a few ms up
# to 16 unknowns, but 0.5 s at 63, where refinement takes 2 ms.  Up to the
# limit it also spares a one-shot caller the scipy import.
DENSE_FRACTION_LIMIT = 16
# No solver reads this any more; the benchmark tracer (bench/tracing.py)
# still uses its largest value to label solves with large denominators.
SNAP_DENOMINATOR_BOUNDS = (1_000, 1_000_000)
_PRIME_FLOOR = 2**29  # keeps products of two residues inside int64
_CG_RTOL = 1e-14
# Refinement gives up once the dyadic scale passes the Hadamard bound on
# the determinant squared by this many spare bits.
_REFINE_SPARE_BITS = 64


def solve_exact(rows: SparseRows, rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact solution of the square sparse system ``rows @ x == rhs``."""
    size = len(rows)
    if size != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if size == 0:
        return []
    if size <= DENSE_FRACTION_LIMIT:
        return _dense_fraction_solve(rows, rhs)
    int_rows, int_rhs = _integer_rows(rows, rhs)
    if _is_symmetric(int_rows) and _is_chained_dominant(int_rows):
        candidate = _solve_refined(int_rows, int_rhs)
        if candidate is not None:
            return candidate
    return _solve_modular(int_rows, int_rhs)


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


# ---------------------------------------------------------------------------
# modular path
# ---------------------------------------------------------------------------


def _is_prime(candidate: int) -> bool:
    if candidate % 2 == 0:
        return candidate == 2
    d, s = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if base % candidate == 0:
            continue
        x = pow(base, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(s - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def _prime_sequence(count: int = 24) -> list[int]:
    primes = []
    candidate = 2**30 - 1
    while len(primes) < count:
        if candidate < _PRIME_FLOOR:
            raise InternalCheckError("prime pool exhausted")
        if _is_prime(candidate):
            primes.append(candidate)
        candidate -= 2
    return primes


_PRIMES = _prime_sequence()


def _solve_mod_prime(
    int_rows: list[dict[int, int]], int_rhs: list[int], p: int
) -> np.ndarray | None:
    """Gaussian elimination over GF(p); None when singular modulo p."""
    size = len(int_rows)
    aug = np.zeros((size, size + 1), dtype=np.int64)
    for i, row in enumerate(int_rows):
        for j, coeff in row.items():
            aug[i, j] = coeff % p
        aug[i, size] = int_rhs[i] % p
    for col in range(size):
        column = aug[col:, col]
        nonzero = np.flatnonzero(column)
        if nonzero.size == 0:
            return None
        pivot_row = col + int(nonzero[0])
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        inverse = pow(int(aug[col, col]), p - 2, p)
        aug[col, col:] = (aug[col, col:] * inverse) % p
        block = aug[col + 1 :, col:]
        factors = block[:, 0]
        mask = factors != 0
        if mask.any():
            block[mask] = (block[mask] - factors[mask, None] * aug[col, col:]) % p
    x = np.zeros(size, dtype=np.int64)
    for i in range(size - 1, -1, -1):
        if i < size - 1:
            acc = int(((aug[i, i + 1 : size] * x[i + 1 :]) % p).sum()) % p
        else:
            acc = 0
        x[i] = (int(aug[i, size]) - acc) % p
    return x


def _rational_reconstruct(residue: int, modulus: int) -> Fraction | None:
    """Lift a residue to the unique small rational congruent to it, if any."""
    residue %= modulus
    if residue == 0:
        return Fraction(0)
    bound = math.isqrt(modulus // 2)
    r_prev, r_curr = modulus, residue
    s_prev, s_curr = 0, 1
    while r_curr > bound:
        q = r_prev // r_curr
        r_prev, r_curr = r_curr, r_prev - q * r_curr
        s_prev, s_curr = s_curr, s_prev - q * s_curr
    if s_curr == 0 or abs(s_curr) > bound:
        return None
    if math.gcd(r_curr, abs(s_curr)) != 1:
        return None
    if s_curr < 0:
        return Fraction(-r_curr, -s_curr)
    return Fraction(r_curr, s_curr)


def _solve_modular(
    int_rows: list[dict[int, int]], int_rhs: list[int]
) -> list[Fraction]:
    residues: list[int] | None = None
    modulus = 0
    singular_primes = 0
    for p in _PRIMES:
        solution = _solve_mod_prime(int_rows, int_rhs, p)
        if solution is None:
            # could be an unlucky prime dividing the determinant; three in a
            # row from independent word-sized primes means genuinely singular
            singular_primes += 1
            if singular_primes >= 3:
                raise SingularSystemError(
                    "system is singular modulo three independent primes"
                )
            continue
        if residues is None:
            residues = [int(v) for v in solution]
            modulus = p
        else:
            m_inverse = pow(modulus, -1, p)
            residues = [
                r + modulus * ((int(v) - r) * m_inverse % p)
                for r, v in zip(residues, solution)
            ]
            modulus *= p
        candidate = [_rational_reconstruct(r, modulus) for r in residues]
        if any(entry is None for entry in candidate):
            continue
        den = math.lcm(*(entry.denominator for entry in candidate))
        numerators = [entry.numerator * (den // entry.denominator) for entry in candidate]
        if _satisfies(int_rows, int_rhs, numerators, den):
            return candidate  # type: ignore[return-value]
    raise InternalCheckError(
        "modular solve exhausted its prime pool without a verified solution"
    )
