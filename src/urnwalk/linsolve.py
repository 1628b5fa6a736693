"""The exact solver of the integer linear systems built by the oracle.

:func:`solve_exact` always returns the exact rational solution of
``A x = b`` for an integer operator ``A`` and an integer right-hand side,
as a :class:`RationalVector`: the least common denominator of its entries
and the integer numerators over it, a read-only sequence that makes an
entry's reduced Fraction only when the entry is read.  It solves every
system, whatever its size, by numeric-symbolic iterative refinement:
conjugate gradient (CG) in floating point approximates ``A^-1 r``, the
correction is scaled by ``2**k`` and rounded to integers, and the residual
is updated exactly, so every round adds about ``k`` correct bits to a
dyadic approximation ``N / D`` of the solution.  Continued fractions then
recover one common denominator (Wan 2006, J. Symbolic Comput. 41;
Saunders, Wood & Youse, ISSAC 2011).  They are tried right after each
step, with the error of ``N / D`` estimated from the CG round just run, so
no round is run only to measure it.  :func:`solve_float` is its first CG
round alone.  The right-hand side is a sequence of ints or a 1-D int64
array.  Refinement carries it, the residual, each correction and the
numerators as int64 arrays while a bound checked before each step proves
that every value fits, and as Python ints past that bound; the solution
is the same either way.

The solvers read the matrix only through an operator such as
:class:`urnwalk.model.WalkOperator`: ``len(A)`` unknowns, ``A[i]`` row
``i`` as ``{column: value}`` (for readers), ``A.times(x)`` the product
with a 1-D int64, float64 or Python-int vector in its dtype, ``A.bound``
(per unit of ``max|x|``, a bound on every value ``times`` forms) and
``A.certificate``, the operator's own verdict on itself: False unless the
matrix is symmetric positive definite, else ``ceil(log2)`` of a Hadamard
bound on its determinant squared.  The walk operator knows its verdict by
construction, in closed form from its size, with no pass over its states.

Both pass one certificate gate: the operator's verdict must not be False,
its product bound must lie below ``2**62``, and every right-hand side
entry must lie below ``2**1000`` in absolute value, so that CG, run on the
residual scaled by a power of two, stays in the float range.  Else they
raise ValueError, as does a refinement that stalls, naming the bound that
stopped it.  A system of no unknowns needs no gate, and solves to an
empty vector.

An estimated error may be wrong, so what continued fractions give is only
a candidate.  Refinement accepts a candidate ``y = n / d`` only through the
exact integer check ``A n == d b`` on a certified, hence nonsingular,
matrix, so a verified candidate is the unique solution; a dyadic ``N / D``
whose exactly updated residual reaches 0 satisfies that check by
construction.  Refinement is deterministic: CG runs the same
floating-point operations on the same input.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

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
# int64 holds every integer below 2**_INT64_BITS in absolute value.  Each
# int64 step of refinement checks a bound against it before it runs, as
# int64 wraps silently; lowered to 0, every step runs on Python ints.
_INT64_BITS = 63
# every refinement that stops without a verified solution names its reason
_STALLED = "solve_exact: refinement stalled ({})"


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


def solve_exact(rows, rhs: Sequence[int] | np.ndarray) -> RationalVector:
    """Exact solution of the square integer system ``rows @ x == rhs``, for
    an operator ``rows`` as the module docstring describes and a
    right-hand side of ints or a 1-D int64 array, as the least common
    denominator of its entries and their numerators (:class:`RationalVector`).

    Refinement solves it at every size; a system of no unknowns solves to
    an empty vector.  ValueError comes from the certificate gate, for a
    matrix it refuses or a right-hand side entry at or past ``2**1000``, or
    from a refinement that stalls, naming the bound that stopped it.
    """
    limit_bits = _certified(rows, rhs, "solve_exact")
    if limit_bits is None:
        return RationalVector(1, ())
    return _solve_refined(rows, _vector(rhs), limit_bits)


def solve_float(rows, rhs: Sequence[int] | np.ndarray) -> tuple[np.ndarray, float]:
    """The first CG round of :func:`solve_exact`'s refinement, as (solution,
    relative residual); ValueError for a matrix its certificate refuses."""
    if _certified(rows, rhs, "solve_float") is None:
        return np.zeros(0), 0.0
    return _cg_round(rows, _vector(rhs))


def _is_int64(rhs) -> bool:
    return isinstance(rhs, np.ndarray) and rhs.dtype == np.int64 and rhs.ndim == 1


def _vector(rhs) -> np.ndarray:
    """A right-hand side the gate passed, as an array: a 1-D int64 array as
    it is, any other sequence as Python ints."""
    return rhs if _is_int64(rhs) else np.array(rhs, dtype=object)


def _certified(rows, rhs, solver: str) -> int | None:
    """The certificate gate: the bound on the scale that refinement reads,
    from the operator's verdict, ValueError when refused, or None for no
    unknowns.

    A 1-D int64 array needs no check of its entries: each is an integer
    below ``2**63``.  Any other right-hand side is checked entry by entry.
    """
    if not callable(getattr(rows, "times", None)):
        raise TypeError(f"{solver} takes an integer operator, not {type(rows).__name__}")
    if len(rows) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    int64 = _is_int64(rhs)
    if not (int64 or all(isinstance(v, int) for v in rhs)):
        raise TypeError(f"{solver} takes an integer right-hand side")
    if len(rows) == 0:
        return None
    if not int64 and max(map(abs, rhs)).bit_length() > _FLOAT_BITS:
        raise ValueError(
            f"{solver} takes right-hand side entries below 2**{_FLOAT_BITS} "
            "in absolute value"
        )
    if not rows.bound < 2**62 or rows.certificate is False:
        raise ValueError(
            f"{solver} needs a certified symmetric positive definite matrix "
            "whose product bound is below 2**62"
        )
    # the Hadamard bound on log2 det(A)**2 bounds the scale, as denominators
    # divide det(A)
    return _REFINE_SPARE_BITS + rows.certificate


def _cg_round(rows, residual: np.ndarray) -> tuple[np.ndarray, float]:
    """CG from zero on ``A z ~ r`` for the float copy ``r`` of an integer residual.

    Returns ``z`` and the relative residual ``|r - A z|inf / max(1, |r|inf)``.
    CG runs on ``r`` scaled by the power of two that puts its largest entry
    in [1/2, 1), so its dot products cannot overflow; the scaling is exact,
    and ``z`` is scaled back.  It stops once its residual's 2-norm is
    ``_CG_RTOL`` times ``r``'s, or after ``2 * len(r)`` steps, and the
    residual reports the accuracy CG actually got.
    """
    b = residual.astype(np.float64)
    exponent = math.frexp(float(np.abs(b).max()))[1]
    b = np.ldexp(b, -exponent)
    z = np.zeros_like(b)
    r, p = b.copy(), b.copy()
    rr = r @ r
    stop = (_CG_RTOL**2) * rr
    for _ in range(2 * len(b)):
        if rr <= stop:
            break
        q = rows.times(p)
        alpha = rr / (p @ q)
        z += alpha * p
        r -= alpha * q
        rr, previous = r @ r, rr
        p = r + (rr / previous) * p
    scale = max(math.ldexp(1.0, -exponent), float(np.abs(b).max()))  # max(1, |r|inf), scaled
    return np.ldexp(z, exponent), float(np.abs(b - rows.times(z)).max()) / scale


# ---------------------------------------------------------------------------
# refinement path
# ---------------------------------------------------------------------------


def _norm(v: np.ndarray) -> int:
    """``max|v|`` of a nonempty int64 or Python-int vector, as an int.  It
    reads the minimum and the maximum, as int64 ``abs`` wraps at ``-2**63``."""
    return max(-int(v.min()), int(v.max()))


def _scaled(v: np.ndarray, factor: int, norm: int) -> np.ndarray:
    """``factor * v`` for a positive ``factor`` and an int64 or Python-int
    vector of ``max|v| == norm``: in int64 while ``factor * norm``, which
    bounds every entry, is below ``2**63``, and with Python ints past it."""
    if v.dtype == np.int64 and factor * max(norm, 1) < 2**_INT64_BITS:
        return factor * v
    return factor * v.astype(object)


def _exact_product(rows, x: np.ndarray) -> np.ndarray:
    """Exact ``A @ x`` for an int64 or Python-int vector: in int64 while
    ``bound * max|x|``, which bounds every value the operator forms, is
    below ``2**63``, and with Python ints past it."""
    if rows.bound * _norm(x) < 2**_INT64_BITS:
        return rows.times(x.astype(np.int64, copy=False))
    return rows.times(x.astype(object, copy=False))


def _solve_refined(rows, rhs: np.ndarray, limit_bits: int) -> RationalVector:
    """Iterative refinement on a symmetric positive definite integer system.

    Keeps ``A N == D b - r`` exactly, with ``D = 2**K``.  Each round solves
    ``A z ~ r`` by CG, picks ``k`` from the accuracy CG reached, and moves
    ``N, D, r`` to ``2**k N + x, 2**k D, 2**k r - A x`` for ``x = round(2**k z)``.
    Once ``r`` is 0 the invariant makes ``N / D`` the solution.  Before that,
    right after each step, a candidate ``n / d`` is reconstructed from the
    new ``N / D`` and accepted only through the exact gate ``A n == d b``.
    Either is returned over its least common denominator.  ValueError names
    the bound that stopped a refinement that got neither, among them the
    certificate's ``limit_bits`` on the scale.

    Reconstruction needs a bound on ``max|N - D x|``, which is ``max|A^-1 r|``
    for the new ``r``: only the next round's CG measures it.  So the candidate
    after a step is sized by an estimate from the round just run
    (:func:`_estimated_error`), and stays a candidate until the gate passes
    it.  A rejected or missing one falls through to the next round.  Should
    that round measure more error than the estimate allowed, it tries the
    same ``N / D`` once more with the measured error before its own step.

    ``b``, an int64 or Python-int vector, is read as it is.  ``r`` and ``x``
    are int64 in a round whose ``k`` keeps ``2**k |r|`` and ``|A x|`` below
    ``2**61``, and Python ints in any other; ``N`` is int64 until
    ``2**k N + x`` could reach ``2**62``, and Python ints from then on.
    int64 wraps silently, so each of these bounds is checked before the
    step it covers.
    """
    rhs_norm = _norm(rhs)
    residual, norm = rhs, rhs_norm
    numerators = np.zeros(len(rhs), dtype=np.int64)
    scale = 1
    tried = 0  # the error the candidate from this N / D was sized by; 0 for none
    while True:
        if norm == 0:
            return _reduced(numerators, scale)
        if norm.bit_length() > _FLOAT_BITS:
            raise ValueError(_STALLED.format(f"the residual passed 2**{_FLOAT_BITS}"))
        z, accuracy = _cg_round(rows, residual)
        z_max = float(np.abs(z).max())
        if not math.isfinite(z_max):
            raise ValueError(_STALLED.format("CG returned a non-finite correction"))
        if scale.bit_length() > limit_bits + int(z_max).bit_length():
            raise ValueError(_STALLED.format("the scale passed the Hadamard bound"))
        # x - N / D == A^-1 r / D, and z ~ A^-1 r, so this round measures the
        # error of N / D; a candidate the last step sized smaller is retried
        measured = 2 * int(z_max) + 2
        if 0 < tried < measured:
            solution = _verified(rows, rhs, rhs_norm, numerators, scale, measured)
            if solution is not None:
                return solution

        k_accurate = -math.frexp(max(accuracy, 2.0**-48))[1] - 2  # 2**k * accuracy <= 1/4
        # |x| <= 2**k (int(z_max) + 1), so up to this k both 2**k |r| and
        # |A x| <= bound |x| stay below 2**61
        k_int64 = _INT64_BITS - 2 - (norm + rows.bound * (int(z_max) + 1)).bit_length()
        k = min(k_accurate, k_int64) if k_int64 > 0 else k_accurate
        k = min(k, 1022 - math.frexp(z_max)[1])  # 2**k z stays finite
        if k < 1:
            raise ValueError(_STALLED.format("no positive k was left"))
        tried = _estimated_error(accuracy, norm, k)
        scaled = np.rint(np.ldexp(z, k))
        if k <= k_int64:  # |2**k r - A x| < 2**62
            step = scaled.astype(np.int64)
            new = (residual.astype(np.int64, copy=False) << k) - rows.times(step)
        else:
            step = np.array([int(v) for v in scaled.tolist()], dtype=object)
            new = (residual.astype(object, copy=False) << k) - _exact_product(rows, step)
        new_norm = _norm(new)
        if new_norm > norm << (k - 1):
            raise ValueError(_STALLED.format("the residual shrank by less than half"))
        residual, norm = new, new_norm
        # an int64 x is below 2**61, so 2**k N + x stays below 2**62 while
        # 2**k N stays below 2**61
        if (
            step.dtype == numerators.dtype == np.int64
            and _norm(numerators).bit_length() + k < _INT64_BITS - 1
        ):
            numerators = (numerators << k) + step
        else:
            numerators = (numerators.astype(object, copy=False) << k) + step
        scale <<= k
        if norm:
            solution = _verified(rows, rhs, rhs_norm, numerators, scale, tried)
            if solution is not None:
                return solution


def _estimated_error(accuracy: float, norm: int, k: int) -> int:
    """An estimate of ``2 max|N - D x| + 2`` after a step of ``k`` bits from a
    CG round whose relative residual on ``max|r| == norm`` was ``accuracy``.

    After the step, ``N - D x`` is ``(x - 2**k z) + 2**k (z - A^-1 r)``: the
    rounding, at most 1/2, and CG's forward error scaled by ``2**k``.  That
    forward error is ``A^-1 s`` for CG's residual ``s = r - A z``, of
    ``max|s| == accuracy * max(1, norm)``, and it is estimated as ``max|s|``
    itself, as if ``A^-1`` did not enlarge ``s``.  That is no bound, since
    ``A^-1`` enlarges a residual along eigenvectors of small eigenvalues; it
    only sizes a candidate, which the gate then checks.
    """
    forward = Fraction(accuracy) * max(1, norm)
    return 2 * math.ceil(forward * 2**k + Fraction(1, 2)) + 2


def _verified(
    rows, rhs: np.ndarray, rhs_norm: int, numerators: np.ndarray, scale: int, error: int
) -> RationalVector | None:
    """The candidate that :func:`_reconstruct` finds near ``N / D`` for
    ``error``, if it passes the exact gate ``A n == d b``; else None."""
    candidate = _reconstruct(numerators, scale, error)
    if candidate is None:
        return None
    den, nums = candidate
    if (_exact_product(rows, nums) == _scaled(rhs, den, rhs_norm)).all():
        return RationalVector(den, nums.tolist())
    return None


def _reduced(numerators: np.ndarray, scale: int) -> RationalVector:
    """``N / D`` over its least common denominator.  Its common factor
    divides a nonzero ``N_i``, as ``A N == D b`` is not 0, so an int64
    ``N`` divides by it in int64."""
    if numerators.dtype == np.int64:
        common = math.gcd(scale, int(np.gcd.reduce(numerators)))
    else:
        common = math.gcd(scale, *numerators.tolist())
    return RationalVector(scale // common, (numerators // common).tolist())


# _reconstruct scans this many entries first, then each next chunk this
# many times as many as the last
_FIRST_CHUNK = 8
_CHUNK_GROWTH = 4


def _reconstruct(
    numerators: np.ndarray, scale: int, error: int
) -> tuple[int, np.ndarray] | None:
    """A candidate common denominator ``d`` and numerators ``n`` with ``n / d``
    near ``N / D``.

    If every entry ``N_j / D`` is within ``error / D`` of a rational whose
    denominator is at most ``sqrt(D / (4 error))``, that rational is the
    unique one so close, continued fractions find it, and ``d`` is the least
    common denominator.  ``error`` is the caller's estimate, so the result is
    only a candidate: nothing here checks it against the system.  One that
    solves it met the condition, as each ``n_j / d`` is within ``error / D``
    of ``N_j / D`` and ``d`` within the bound, so it is over the least common
    denominator.  The
    denominator starts at 1 and grows by the part the first inconsistent
    entry still needs.  An entry consistent with ``d`` stays so with every
    multiple of ``d``, so the scan resumes at the last inconsistent entry.
    It reads the entries in chunks, ``_FIRST_CHUNK`` and then
    ``_CHUNK_GROWTH`` times larger each time one is consistent throughout:
    an attempt that cannot succeed stops after a few entries, and one that
    succeeds reads the vector about once.  None when no denominator within
    the bound fits.  For an int64 ``N`` the scan and ``n`` are int64 while
    ``D`` and ``d (|N| + 2 error)``, which bound every value they form, are
    below ``2**63``; past that, and for Python-int ``N``, they run on Python
    ints.
    """
    bound = math.isqrt(scale // (4 * error))
    if bound == 0:
        return None
    # the bound below keeps int64 numerators int64; Python ints need no norm
    norm = _norm(numerators) if numerators.dtype == np.int64 else 0
    den, j, chunk = 1, 0, _FIRST_CHUNK
    while True:
        # entry i is consistent when d * N_i lies within ``slack`` (at most
        # D / 4) of a multiple of D, that is (d * N_i + slack) % D <= 2 * slack
        slack, width = den * error, 2 * den * error
        if max(scale, den * (norm + width)) >= 2**_INT64_BITS:
            numerators = numerators.astype(object, copy=False)
        if j == len(numerators):  # every d * N_i rounds to its multiple of D
            return den, (den * numerators + slack) // scale
        part = numerators[j : j + chunk]
        off = np.flatnonzero((den * part + slack) % scale > width)
        if not len(off):
            j += len(part)
            chunk *= _CHUNK_GROWTH
            continue
        j += int(off[0])
        # den * N_j / D's nearest fraction over at most bound / den; den
        # times its denominator stays within the bound
        entry = Fraction(den * int(numerators[j]), scale).limit_denominator(bound // den)
        if entry.denominator == 1:
            return None
        den *= entry.denominator
