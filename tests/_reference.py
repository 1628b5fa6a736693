"""Tiny independent reference implementations used only by the tests.

Deliberately separate code paths from the package: a Gauss-Jordan solver
over plain Fraction lists, a Pascal-triangle binomial, a hitting-time
computation that builds its state space with itertools, the 2k-class
label of one placement (the rule ``urnwalk.model.lump_classes`` applies to
an array of them), the one-move neighbour list of a placement, the
``(states, degree)`` index adjacency ``neighbor_indices`` built from it by
index arithmetic (the table the
walk operator of ``urnwalk.model`` replaced), the absorbing system's rows
as one dict per row built from that table (the reference for the
operator's rows and products), and the Monte Carlo walk one replication
at a time on its own numpy ``Generator`` (the loop the lockstep kernel of
``urnwalk.simulate`` replaced, kept as its reference).  Slow and simple on
purpose; apart from the input checks of ``neighbors`` and ``step`` they
share no code with the package, so its results can be checked against
them.  ``rows_times`` multiplies ``{column: value}`` rows by a vector
exactly, so a solve can be checked by its residual.

``reconstruct`` is the rational reconstruction that rescales and rounds
every numerator for each trial denominator, the reference for
``urnwalk.linsolve._reconstruct``.  ``single_scan_reconstruct`` is the
scan that ``_reconstruct`` replaced: for each trial denominator it tests
every remaining numerator at once, where ``_reconstruct`` reads them in
growing chunks; it is the reference for the chunks' result and for the
int64 bounds they share.  ``transfer_time_sum`` is the transfer
time's closed form as a plain sum of one ``Fraction`` per term, the
reference for the package's sum over one common denominator.

``lumpable_by_class`` is the Kemeny-Snell certifier with one
``urnwalk.model.neighbour_counts`` pass per class, the reference for
``urnwalk.model.is_exactly_lumpable``'s one pass over the class-indicator
matrix; it reads the package's placement array and neighbour counts,
which the tests check against ``neighbors`` on their own.

``IntegerRows`` is a small square integer matrix as CSR arrays that
offers the operator interface of ``urnwalk.linsolve``: the solvers' tests
state systems of any shape and sign pattern with it, among them the
non-symmetric and singular ones the certificate must refuse.  Its
verdict is the generic certificate search, the one the walk operator's
own verdict replaced and the reference for it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from urnwalk import model
from urnwalk.errors import DomainError
from urnwalk.model import check_configuration

FIRST_BLOCK = 256
MAX_BLOCK = 65_536


def gauss_jordan_solve(matrix, rhs):
    """Solve A x = b by full Gauss-Jordan reduction on Fractions."""
    size = len(matrix)
    aug = [
        [Fraction(entry) for entry in row] + [Fraction(b)]
        for row, b in zip(matrix, rhs)
    ]
    for col in range(size):
        pivot_row = next(r for r in range(col, size) if aug[r][col] != 0)
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [entry / pivot for entry in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def rows_times(rows, x):
    """``rows @ x`` for integer ``{column: value}`` rows and a rational ``x``, exactly.

    The sums run in integers over one common denominator of ``x``.
    """
    den = math.lcm(1, *(v.denominator for v in x))
    scaled = [v.numerator * (den // v.denominator) for v in x]
    return [Fraction(sum(c * scaled[j] for j, c in row.items()), den) for row in rows]


def transfer_time_sum(urns, balls):
    """``(n-1)*M/n * sum(n**k / k for k in 1..M)``, one Fraction per term."""
    total = sum(Fraction(urns**k, k) for k in range(1, balls + 1))
    return Fraction((urns - 1) * balls, urns) * total


def reconstruct(numerators, scale, error):
    """A common denominator ``d`` and numerators ``n`` with ``n / d`` near
    ``N / D``, or None; each trial denominator rescales every entry."""
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


def single_scan_reconstruct(numerators, scale, error):
    """``(d, n)`` or None as ``urnwalk.linsolve._reconstruct`` finds it,
    each trial denominator scanning every remaining entry at once; int64
    numerators scan in int64 while ``D`` and ``d (|N| + 2 error)`` are
    below ``2**63``, and as Python ints past that."""
    bound = math.isqrt(scale // (4 * error))
    if bound == 0:
        return None
    norm = max(-int(numerators.min()), int(numerators.max()))
    den, j = 1, 0
    while den <= bound:
        slack, width = den * error, 2 * den * error
        if max(scale, den * (norm + width)) >= 2**63:
            numerators = numerators.astype(object, copy=False)
        off = np.flatnonzero((den * numerators[j:] + slack) % scale > width)
        if not len(off):
            return den, (den * numerators + slack) // scale
        j += int(off[0])
        entry = Fraction(den * int(numerators[j]), scale).limit_denominator(bound // den)
        if entry.denominator == 1:
            return None
        den *= entry.denominator
    return None


def pascal_binomial(n, m):
    """C(n, m) from the additive triangle recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[m]


def reference_hitting_time(urns, balls, start, target):
    """Expected moves from start to target, by brute-force dense solve."""
    states = list(itertools.product(range(1, urns + 1), repeat=balls))
    position = {state: i for i, state in enumerate(states)}
    if start == target:
        return Fraction(0)
    transient = [state for state in states if state != target]
    t_pos = {state: i for i, state in enumerate(transient)}
    degree = (urns - 1) * balls
    size = len(transient)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for state in transient:
        i = t_pos[state]
        matrix[i][i] = Fraction(1)
        for ball in range(balls):
            for urn in range(1, urns + 1):
                if urn != state[ball]:
                    dest = state[:ball] + (urn,) + state[ball + 1 :]
                    if dest != target:
                        matrix[i][t_pos[dest]] -= Fraction(1, degree)
    rhs = [Fraction(1)] * size
    solution = gauss_jordan_solve(matrix, rhs)
    return solution[t_pos[start]]


def neighbors(config, params):
    """All placements reachable in one move, in (ball, urn) lexicographic order."""
    check_configuration(config, params)
    out = []
    for i, current in enumerate(config):
        prefix, suffix = config[:i], config[i + 1 :]
        for urn in range(1, params.urns + 1):
            if urn != current:
                out.append(prefix + (urn,) + suffix)
    return out


def lump_class(config):
    """The 2k-class label of one placement: ``2p + 1`` with ``p`` of its
    front balls in urn 2, plus one more when its last ball is in urn 2 too."""
    return 2 * config[:-1].count(2) + (2 if config[-1] == 2 else 1)


def lumpable_by_class(params, classify, row_of):
    """``is_exactly_lumpable``'s verdict, one ``neighbour_counts`` pass per
    class: each row's move counts into each class, compared with every
    state's neighbour count in that class."""
    labels = np.asarray(classify(model._placements(params)))
    names, classes = np.unique(labels, return_inverse=True)
    ids = {label: k for k, label in enumerate(names.tolist())}
    degree = params.degree
    counts = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for label, k in ids.items():
        for other, count in row_of(label).items():
            if not count:
                continue
            try:
                count = operator.index(count)
            except TypeError:
                return False
            if other not in ids or not 0 < count <= degree:
                return False
            counts[k, ids[other]] = count
        if counts[k].sum() != degree:
            return False
    return all(
        np.array_equal(model.neighbour_counts(params, classes == c), counts[classes, c])
        for c in range(len(ids))
    )


def neighbor_indices(params):
    """The ``(states, degree)`` int64 adjacency over state indices.

    Row ``g`` holds, in ascending order, the indices of the placements one
    move away from state ``g``: moving ball ``i`` from urn digit ``d`` to
    ``u`` shifts the index by ``(u - d) * urns**i``.
    """
    n, states = params.urns, params.state_count
    powers = n ** np.arange(params.balls, dtype=np.int64)
    digits = (np.arange(states, dtype=np.int64)[:, None] // powers % n)[:, :, None]
    # each ball's n - 1 other digits, reached by adding 1..n-1 modulo n
    adjacency = (digits + np.arange(1, n)) % n - digits
    adjacency = adjacency * powers[:, None] + np.arange(states, dtype=np.int64)[:, None, None]
    adjacency = adjacency.reshape(states, -1)
    adjacency.sort(axis=1)
    return adjacency


def absorbing_rows(params, absorbing):
    """``degree * I - A`` over the transient states in ascending index order,
    one ``{column: value}`` dict per row, ``A`` their 0/1 adjacency."""
    is_absorbing = np.zeros(params.state_count, dtype=bool)
    is_absorbing[list(absorbing)] = True
    transients = np.flatnonzero(~is_absorbing)
    position = np.where(is_absorbing, -1, np.cumsum(~is_absorbing) - 1)
    rows = []
    for i, columns in enumerate(position[neighbor_indices(params)[transients]].tolist()):
        # a state's neighbours are distinct: each transient one is one -1 entry
        row = dict.fromkeys(columns, -1)
        row.pop(-1, None)
        row[i] = params.degree
        rows.append(row)
    return rows


def integer_rows(rows):
    """``{column: int}`` rows as the CSR operator ``IntegerRows``, each row's columns ascending."""
    indptr = np.cumsum([0, *map(len, rows)], dtype=np.int64)
    entries = [(j, row[j]) for row in rows for j in sorted(row)]
    indices = np.array([j for j, _ in entries], dtype=np.int64)
    data = np.array([c for _, c in entries], dtype=np.int64)
    return IntegerRows(indptr, indices, data)


class IntegerRows(Sequence):
    """A square int64 matrix as CSR arrays, with the operator interface of
    ``urnwalk.linsolve`` and read as a sequence of ``{column: value}`` rows.

    ``indptr``, ``indices`` and ``data`` are 1-D numpy int64 arrays, with
    each row's columns ascending.  Construction checks their types and
    shapes (TypeError for a wrong type or dtype, ValueError for a wrong
    shape) and makes them read-only, so that a malformed array cannot
    reach a solver and the verdict kept on it stays true.  ``bound`` is
    the largest absolute entry times the longest row's entry count: it
    bounds every partial sum of a product per unit of ``max|x|``.
    """

    def __init__(self, indptr, indices, data):
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
        self._row_of = np.repeat(np.arange(len(self)), np.diff(indptr))
        longest = int(np.diff(indptr).max(initial=0))
        self.bound = max((abs(c) for c in data.tolist()), default=0) * longest

    def __len__(self):
        return len(self.indptr) - 1

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]  # negative from the end; IndexError past it
        start, stop = self.indptr[i : i + 2].tolist()
        return dict(zip(self.indices[start:stop].tolist(), self.data[start:stop].tolist()))

    def times(self, x):
        return self._product(self.data, x)

    @functools.cached_property
    def certificate(self):
        """False when the matrix is not symmetric and weakly chained
        diagonally dominant with a positive diagonal, or when its product
        bound reaches ``2**62``, past which its int64 row sums could wrap;
        else ``ceil(log2)`` of the Hadamard bound on ``det**2``, from the
        rows' sums of squares.

        Every row has ``a_ii >= sum |a_ij|`` over ``j != i``, and through
        nonzero entries reaches a row where the inequality is strict.  Such
        a matrix is nonsingular (Shivakumar & Chew 1974); when it is also
        symmetric it is positive definite.  The search grows the set of
        rows reached from the strict rows by one product of ``|A|`` with
        the 0/1 frontier per step; by symmetry, row ``i`` has a nonzero
        entry in a reached column exactly when a reached row has one in
        column ``i``.
        """
        entries = list(zip(self._row_of.tolist(), self.indices.tolist(), self.data.tolist()))
        if self.bound >= 2**62 or set(entries) != {(j, i, c) for i, j, c in entries}:
            return False
        magnitudes = np.abs(self.data)
        diagonal = np.zeros(len(self), dtype=np.int64)
        on_diagonal = self._row_of == self.indices
        diagonal[self.indices[on_diagonal]] = self.data[on_diagonal]
        off = self._product(magnitudes, np.ones(len(self), dtype=np.int64)) - np.abs(diagonal)
        if (diagonal <= 0).any() or (diagonal < off).any():
            return False
        reached = diagonal > off
        frontier = reached
        while frontier.any():
            frontier = (self._product(magnitudes, frontier.astype(np.int64)) > 0) & ~reached
            reached = reached | frontier
        if not reached.all():
            return False
        squares = self._product(self.data.astype(np.float64) ** 2, np.ones(len(self)))
        return math.ceil(np.log2(squares).sum())

    def _product(self, data, x):
        out = np.zeros(len(self), dtype=x.dtype)
        np.add.at(out, self._row_of, data.astype(x.dtype) * x[self.indices])
        return out


def step(config, params, ball_index, urn_draw):
    """Apply one move given the two uniform draws that define it.

    ``ball_index`` picks the moving ball (0-based, uniform over the balls)
    and ``urn_draw`` in 1..urns-1 picks the destination among the other
    urns: destinations below the current urn keep their number, the rest
    shift up by one.
    """
    check_configuration(config, params)
    if not 0 <= ball_index < params.balls:
        raise DomainError(f"ball index {ball_index} outside 0..{params.balls - 1}")
    if not 1 <= urn_draw <= params.urns - 1:
        raise DomainError(f"urn draw {urn_draw} outside 1..{params.urns - 1}")
    current = config[ball_index]
    destination = urn_draw if urn_draw < current else urn_draw + 1
    return config[:ball_index] + (destination,) + config[ball_index + 1 :]


def replication_stream(seed, replication):
    """The dedicated counter-based stream for one replication."""
    key = np.array([seed, replication], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def hitting_steps(urns, balls, start, target, max_steps, seed, replication):
    """Steps until the walk first sits at ``target``; -1 when truncated."""
    gen = replication_stream(seed, replication)
    alternatives = urns - 1
    span = balls * alternatives
    config = list(start)
    mismatches = sum(1 for a, b in zip(config, target) if a != b)
    done = 0
    block = FIRST_BLOCK
    while done < max_steps:
        take = min(block, max_steps - done)
        draws = gen.integers(0, span, size=take).tolist()
        i = 0
        for value in draws:
            ball = value // alternatives
            draw = value - ball * alternatives + 1
            current = config[ball]
            destination = draw if draw < current else draw + 1
            config[ball] = destination
            i += 1
            wanted = target[ball]
            if current == wanted:
                mismatches += 1
            elif destination == wanted:
                mismatches -= 1
                if not mismatches:
                    return done + i
        done += take
        block = min(block * 4, MAX_BLOCK)
    return -1
