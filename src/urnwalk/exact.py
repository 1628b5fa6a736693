"""Closed forms and recursions for expected hitting times, in exact rationals.

Every function here evaluates a formula, never a chain: the linear-solver
oracle and the Monte Carlo simulator live in their own modules precisely so
these values can be checked against independently computed ones.  The
module imports only :mod:`urnwalk.model` and :mod:`urnwalk.errors`, and
asserts no identity of its own; :mod:`urnwalk.checks` compares it with the
other routes (the fiber escape ratio, for one, against the lumped chain
of :mod:`urnwalk.oracle`).  All
arithmetic uses :class:`fractions.Fraction`, so results are exact and float
conversion happens only at output boundaries.

Main quantities, for ``n`` urns and ``M`` balls:

* full transfer time, the expected number of moves for the walk started
  with every ball in urn 1 to first have every ball in urn 2:
  ``(n-1)*M/n * sum(n**k / k for k in 1..M)``;
* passage increments ``e[0..M-1]``, where ``e[k]`` is the expected time for
  the urn-2 occupancy count (started at 0) to go from first reaching k to
  first reaching k+1; their total over k is the full transfer time, and a
  partial sum over the top L indices gives the expected hitting time
  between any two placements that differ in exactly L balls;
* the closed form's own terms ``(n-1)*M/n * n**k/k``
  (:func:`transfer_time_terms`), which sum to the same total as the
  increments without matching them term by term.  The module hands both
  sequences out; :mod:`urnwalk.checks` compares their totals and terms.

The closed form of ``e[k]`` is ``(n-1)**(k+1) / C(M-1, k)`` times
``sum(C(M, j) / (n-1)**j for j in 0..k)``.  It is evaluated as
``(n-1) * t[k] / C(M-1, k)`` with the integer ``t[k] = (n-1) * t[k-1] + C(M, k)``
(Horner's rule), so all M increments cost O(M) integer steps and one
``Fraction`` each.  The forward recursion :func:`passage_increments` is a
separate route; the checks compare the two, so neither calls the other.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, IdenticalConfigurationsError
from .model import (
    Configuration,
    ModelParams,
    as_integer,
    check_configuration,
    hamming_distance,
)

__all__ = [
    "full_transfer_time",
    "full_transfer_time_by_ball_induction",
    "passage_increment",
    "passage_increments",
    "HittingQuery",
    "general_hitting_time",
    "transfer_time_terms",
    "first_visit_probability",
]


def full_transfer_time(params: ModelParams) -> Fraction:
    """Expected moves from all-in-urn-1 to all-in-urn-2, by the closed form."""
    n, m = params.urns, params.balls
    total = sum(Fraction(n**k, k) for k in range(1, m + 1))
    return Fraction((n - 1) * m, n) * total


def full_transfer_time_by_ball_induction(params: ModelParams) -> Fraction:
    """Same quantity via the recursion on the ball count.

    With s(1) = n - 1, each extra ball multiplies by k/(k-1) and adds
    (n-1)*n**(k-1).  Must agree with :func:`full_transfer_time` exactly.
    """
    n = params.urns
    s = Fraction(n - 1)
    for k in range(2, params.balls + 1):
        s = Fraction(k, k - 1) * s + (n - 1) * n ** (k - 1)
    return s


def _closed_form_increments(params: ModelParams, start: int = 0) -> Iterator[Fraction]:
    """Yield the closed-form increments e[start], ..., e[M-1], in order.

    The binomials and the Horner sum ``t[k]`` advance by one integer step per
    index; only the yielded terms become a ``Fraction``.
    """
    r, m = params.urns - 1, params.balls
    t = 0
    c_m = c_m1 = 1  # C(M, k) and C(M-1, k)
    for k in range(m):
        if k:
            c_m = c_m * (m - k + 1) // k
            c_m1 = c_m1 * (m - k) // k
        t = r * t + c_m
        if k >= start:
            yield Fraction(r * t, c_m1)


def passage_increment(params: ModelParams, k: int) -> Fraction:
    """Closed form for the k-th occupancy passage increment, 0 <= k < balls."""
    m = params.balls
    if not 0 <= k <= m - 1:
        raise DomainError(f"increment index {k} outside 0..{m - 1}")
    return next(_closed_form_increments(params, start=k))


def passage_increments(params: ModelParams) -> list[Fraction]:
    """All passage increments by forward recursion.

    e[0] = n - 1 and e[k] = (n-1)*k/(M-k) * e[k-1] + (n-1)*M/(M-k); agrees
    termwise with :func:`passage_increment`.
    """
    n, m = params.urns, params.balls
    out = [Fraction(n - 1)]
    for k in range(1, m):
        out.append(
            Fraction((n - 1) * k, m - k) * out[k - 1] + Fraction((n - 1) * m, m - k)
        )
    return out


@dataclass(frozen=True)
class HittingQuery:
    """Parameters plus the number of balls placed differently at start and target.

    The expected hitting time between two placements depends on them only
    through that count, so the query stores nothing else.
    """

    params: ModelParams
    hamming_distance: int

    def __post_init__(self) -> None:
        distance = as_integer(self.hamming_distance, "distance")
        object.__setattr__(self, "hamming_distance", distance)
        if self.hamming_distance == 0:
            raise IdenticalConfigurationsError(
                "start and target placements are identical; the transfer "
                "distance must be at least 1"
            )
        if not 1 <= self.hamming_distance <= self.params.balls:
            raise DomainError(
                f"distance {self.hamming_distance} outside 1..{self.params.balls}"
            )

    @classmethod
    def from_configurations(
        cls, params: ModelParams, start: Configuration, target: Configuration
    ) -> "HittingQuery":
        start = check_configuration(start, params)
        target = check_configuration(target, params)
        return cls(params=params, hamming_distance=hamming_distance(start, target))


def general_hitting_time(query: HittingQuery) -> Fraction:
    """Expected hitting time between placements differing in L balls.

    Equals the sum of the top L passage increments; with L equal to the
    ball count it collapses to :func:`full_transfer_time`.
    """
    start = query.params.balls - query.hamming_distance
    return sum(_closed_form_increments(query.params, start), Fraction(0))


def transfer_time_terms(params: ModelParams) -> list[Fraction]:
    """The M terms ``(n-1)*M/n * n**k/k``, k = 1..M, of the closed form.

    Their total is the full transfer time, as is the total of the passage
    increments, though the two sequences generally differ term by term.
    """
    n, m = params.urns, params.balls
    scale = Fraction((n - 1) * m, n)
    return [scale * Fraction(n**k, k) for k in range(1, m + 1)]


def first_visit_probability(params: ModelParams) -> Fraction:
    """Probability that the walk from all-in-urn-1 completes the transfer on
    its first visit to the fiber of states whose front balls all sit in urn 2.

    Closed form (n**(k-1) - 1) / (n**k - 1) with k the ball count; zero for
    a single ball, where the fiber is the whole space.
    """
    n, k = params.urns, params.balls
    return Fraction(n ** (k - 1) - 1, n**k - 1)
