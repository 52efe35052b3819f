"""Linear-system solvers for absorption times, hitting probabilities and
mean return times, with an exact-rational route: sparse elimination over
the integer absorption system, certified in integer arithmetic."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .kernels import SolverError, SparseKernel, build_duration_chain  # SolverError also covers the kernels' stationary solve

RESIDUAL_TOL = 1e-12  # largest residual of a float solve, relative to max(1, |x|)
REFINE_ROUNDS = 2  # iterative-refinement steps after each LU solve


def _refine(solve, a: sp.csr_matrix, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    for _ in range(REFINE_ROUNDS):
        r = b - a @ x
        if np.abs(r).max() < 1e-14 * max(1.0, np.abs(b).max()):
            break
        x = x + solve(r)
    return x


def _describe(states) -> str:
    shown = sorted(states, key=str)
    more = f", ... ({len(shown)} states)" if len(shown) > 3 else ""
    return "{" + ", ".join(map(str, shown[:3])) + more + "}"


class RestrictedLU:
    """One sparse LU of I - P restricted to the states off a boundary set.

    With Q the kernel on the unknown states U = S minus the boundary,
    G = (I - Q)^-1 is the Green's function of the chain stopped at the
    boundary: G(x, a) is the expected number of visits to a before the
    boundary is hit, so P_x(hit a before the boundary) = G(x, a) / G(a, a)
    (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. 4).

    The unknowns are factored in reverse Cuthill-McKee order (Cuthill &
    McKee 1969), not SuperLU's default COLAMD order: on the game chain at
    n = 60 this cuts L + U from 8.4M to 6.3M nonzeros and the factor time
    about fourfold, while on the mod chains it adds some fill at about
    the same time.  `order[i]` is the unknown factored i-th.

    Given `base`, a factored LU off another boundary R of the same
    kernel, nothing is factored: the system off this boundary B is solved
    through the base's LU by a Woodbury capacitance update (Hager,
    "Updating the inverse of a matrix", SIAM Review 31, 1989).  On the
    whole state space, let M_R be I - P with the rows of R replaced by
    identity rows; M_B differs from M_R only in the m rows of B delta R,
    a rank-m change.  It is applied one row at a time (Sherman-Morrison),
    which factors the m x m capacitance matrix in a fixed pivot order:
    states joining the boundary first, each pivot the Green's function
    G(d, d) >= 1, then states leaving it, each pivot the probability of
    escaping from d to the rest of the boundary before returning.  Every
    intermediate boundary then contains B.  Setting up costs m base
    solves, and after that each solve is one base solve.  A pivot below
    RESIDUAL_TOL, where G(d, d) would exceed what the residual check can
    certify, marks a singular capacitance matrix and raises `SolverError`.
    A base that is itself an update raises `ValueError`.

    Either way every solve is refined and residual-checked against this
    boundary's own restricted matrix `a`, in the original order, never
    against the base's: each result is certified on its own terms.
    """

    def __init__(self, kernel: SparseKernel, boundary, base: RestrictedLU | None = None):
        self.kernel = kernel
        self.boundary = frozenset(boundary)
        if not self.boundary:
            raise SolverError("I - P off an empty boundary: the boundary must hold at least one state")
        self._inner = np.ones(kernel.n_states, dtype=bool)
        self._inner[[kernel.index[s] for s in self.boundary]] = False
        self.unknown = np.flatnonzero(self._inner)
        self._out = kernel.csr[self.unknown]  # rows leaving the unknown states
        self.a = sp.identity(self.unknown.size, format="csr") - self._out[:, self.unknown]
        self._steps = []  # (row d of P, signed, and M^-1 e_d / pivot) per flipped row
        if base is None:
            self.order = reverse_cuthill_mckee(self.a, symmetric_mode=False)
            try:
                self.lu = splu(self.a[self.order][:, self.order].tocsc(), permc_spec="NATURAL")
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"I - P off the boundary {_describe(self.boundary)}: {exc}") from None
            return
        if base.kernel is not kernel:
            raise ValueError("the base factorization is of another kernel")
        if not hasattr(base, "lu"):
            raise ValueError("the base factorization is itself an update")
        self._lift = base._lift  # lift through the base's LU
        flip = np.flatnonzero(self._inner != base._inner)  # B delta R
        for d in flip[np.argsort(self._inner[flip], kind="stable")]:  # joining states first
            w = -kernel.csr[d] if self._inner[d] else kernel.csr[d]
            e = np.zeros(kernel.n_states)
            e[d] = 1.0
            z = self._update(self._lift(e))
            pivot = 1.0 + (w @ z).item()
            if not pivot > RESIDUAL_TOL:
                raise SolverError(f"I - P off the boundary {_describe(self.boundary)}: singular capacitance "
                                  f"matrix, pivot {pivot:.3g} at {kernel.states[d]}")
            self._steps.append((w, z / pivot))

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        """One unrefined solve: rhs embedded in the whole state space,
        lifted through the factored LU and updated by this system's
        rank-one steps, of which a factored LU has none."""
        v = np.zeros(self.kernel.n_states)
        v[self.unknown] = rhs
        return self._update(self._lift(v))[self.unknown]

    def _update(self, y: np.ndarray) -> np.ndarray:
        """M_B^-1 M_R y, from the rank-one steps made so far."""
        for w, z in self._steps:
            y = y - z * (w @ y).item()
        return y

    def _lift(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v on the whole state space, M being I - P with the boundary
        rows replaced by identity rows (v itself on the boundary), through
        this LU.  An update holds its base's `_lift` in place of this one."""
        x = v.copy()
        b = v[self.unknown] + self._out @ np.where(self._inner, 0.0, v)
        x[self.unknown[self.order]] = self.lu.solve(b[self.order])
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x on the unknown states with (I - Q) x = rhs."""
        x = _refine(self._raw_solve, self.a, rhs, self._raw_solve(rhs))
        resid = float(np.abs(rhs - self.a @ x).max())
        if not np.isfinite(resid) or resid > RESIDUAL_TOL * max(1.0, float(np.abs(x).max())):
            raise SolverError(
                f"linear solve residual {resid} above tolerance off the boundary {_describe(self.boundary)}"
            )
        return x

    def _on_states(self, x: np.ndarray, target_idx=()) -> np.ndarray:
        values = np.zeros(self.kernel.n_states)
        values[list(target_idx)] = 1.0
        values[self.unknown] = x
        return values

    def harmonic(self, target) -> np.ndarray:
        """P_x(hit `target` before the rest of the boundary) for every state
        x: 1 on `target`, 0 on the rest of the boundary."""
        if not self.boundary >= target:
            raise ValueError("target must lie on the boundary")
        idx = [self.kernel.index[s] for s in target]
        rhs = np.asarray(self._out[:, idx].sum(axis=1)).ravel()
        return self._on_states(self.solve(rhs), idx)

    def green(self, state) -> np.ndarray:
        """The column G(., state) for an unknown `state`, for every state
        (0 on the boundary)."""
        if state in self.boundary:
            raise ValueError(f"{state} lies on the boundary")
        e = np.zeros(self.unknown.size)
        e[np.searchsorted(self.unknown, self.kernel.index[state])] = 1.0
        return self._on_states(self.solve(e))


def next_step_mean(kernel: SparseKernel, state, values: np.ndarray) -> float:
    """E[values(X_1) | X_0 = state]."""
    return float(sum(p * values[j] for j, p in kernel.rows[kernel.index[state]]))


# ---------------------------------------------------------------------------
# absorption


@dataclass
class AbsorptionResult:
    kernel: SparseKernel
    transient: list
    times: np.ndarray
    absorb_probs: dict
    start: object

    @property
    def expected_time(self) -> float:
        return self.expected_time_from(self.start)

    def expected_time_from(self, state) -> float:
        return float(self.times[self._ti[self.kernel.index[state]]])

    def absorb_prob_from(self, state, label) -> float:
        return float(self.absorb_probs[label][self._ti[self.kernel.index[state]]])

    def __post_init__(self):
        self._ti = {i: t for t, i in enumerate(self.transient)}


def absorption_stats(kernel: SparseKernel, start) -> AbsorptionResult:
    """Expected absorption time and absorption split, exact linear solve.

    Solves t = 1 + Q t over the transient states; every transient state
    must reach an absorbing state.
    """
    labels = sorted((kernel.states[j] for j in np.flatnonzero(kernel.absorbing)), key=str)
    lu = RestrictedLU(kernel, labels)
    return AbsorptionResult(
        kernel=kernel,
        transient=lu.unknown.tolist(),
        times=lu.solve(np.ones(lu.unknown.size)),
        absorb_probs={label: lu.harmonic({label})[lu.unknown] for label in labels},
        start=start,
    )


def exact_mean_duration(n: int) -> float:
    """Mean duration of the two-player game from n tokens each, solved on
    the swap-folded duration chain."""
    return absorption_stats(build_duration_chain(n), (2, n - 1)).expected_time


def absorption_time_exact(kernel: SparseKernel, start) -> Fraction:
    """Expected absorption time by certified sparse rational elimination.

    Every transition probability is a count of the four spin outcomes
    over 4, so 4(I - Q) t = 4 over the transient states has integer
    coefficients.  It is solved over the rationals with no rounding at
    all, and the solution is checked against it in integer arithmetic.
    A probability that is not a multiple of 1/4 raises `SolverError`.
    """
    csr = kernel.csr
    counts = 4 * csr.data
    bad = np.flatnonzero(counts != np.rint(counts))
    if bad.size:
        row = int(np.searchsorted(csr.indptr, bad[0], side="right")) - 1
        raise SolverError(f"transition probability {float(csr.data[bad[0]])!r} out of state "
                          f"{kernel.states[row]} is not a multiple of 1/4")
    transient = np.flatnonzero(~kernel.absorbing)
    outcomes = sp.csr_matrix((counts.astype(np.int64), csr.indices, csr.indptr), shape=csr.shape)
    a = (4 * sp.identity(kernel.n_states, dtype=np.int64, format="csr") - outcomes)[transient][:, transient]
    a.eliminate_zeros()
    indptr, indices, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    rows = [dict(zip(indices[lo:hi], data[lo:hi])) for lo, hi in zip(indptr, indptr[1:])]
    pos = dict(zip(transient.tolist(), range(transient.size)))
    return solve_rational(rows, [4] * len(rows))[pos[kernel.index[start]]]


def solve_rational(rows: list[dict], rhs: list[int]) -> list[Fraction]:
    """The exact solution of sum_j rows[i][j] x_j = rhs[i], for integer
    coefficients held sparsely as one {column: value} dict per row.

    Sparse elimination in `Fraction` arithmetic with Markowitz-style
    pivoting (Markowitz 1957; Davis, *Direct Methods for Sparse Linear
    Systems*, 2006): the column with the fewest live rows, then the
    sparsest live row in it, ties broken by index.  Entries that cancel
    are dropped, so elimination stores no zeros.  The answer is certified
    before it is returned.
    """
    x = _eliminate(rows, rhs)
    certify(rows, rhs, x)
    return x


def _eliminate(rows: list[dict], rhs: list[int]) -> list[Fraction]:
    m = len(rows)
    live = [dict(r) for r in rows]
    b = list(rhs)
    col_rows = [set() for _ in range(m)]
    for i, row in enumerate(live):
        for j in row:
            col_rows[j].add(i)
    heap = [(len(rs), j) for j, rs in enumerate(col_rows)]
    heapq.heapify(heap)
    done = [False] * m
    order = []
    while heap:
        count, col = heapq.heappop(heap)
        if done[col] or count != len(col_rows[col]):
            continue  # stale entry
        if not count:
            raise SolverError("singular rational system")
        done[col] = True
        piv = min(col_rows[col], key=lambda i: (len(live[i]), i))
        prow = live[piv]
        for j in prow:
            col_rows[j].discard(piv)
        inv = 1 / Fraction(prow[col])
        for i in list(col_rows[col]):
            row = live[i]
            f = row[col] * inv
            for j, v in prow.items():
                new = row.get(j, 0) - f * v
                if new:
                    row[j] = new
                    col_rows[j].add(i)
                else:
                    del row[j]
                    col_rows[j].discard(i)
            b[i] -= f * b[piv]
        for j in prow:
            if not done[j]:
                heapq.heappush(heap, (len(col_rows[j]), j))
        order.append((piv, col))
    x = [Fraction(0)] * m
    for piv, col in reversed(order):
        prow = live[piv]
        x[col] = (b[piv] - sum(v * x[j] for j, v in prow.items() if j != col)) / Fraction(prow[col])
    return x


def certify(rows: list[dict], rhs: list[int], x: list[Fraction]) -> None:
    """Check sum_j rows[i][j] x_j = rhs[i] for every row in integer
    arithmetic, with x scaled by the LCM D of its denominators; raise
    `SolverError` on any mismatch."""
    d = math.lcm(*(v.denominator for v in x))
    scaled = [v.numerator * (d // v.denominator) for v in x]
    for i, (row, bi) in enumerate(zip(rows, rhs)):
        if sum(c * scaled[j] for j, c in row.items()) != bi * d:
            raise SolverError(f"rational solution fails its integer certificate in row {i}")


# ---------------------------------------------------------------------------
# hitting probabilities


class HitSolver:
    """Factors the hitting system for one (target, avoid) boundary once,
    then answers the probability from any start."""

    def __init__(self, kernel: SparseKernel, target: frozenset, avoid: frozenset):
        if target & avoid:
            raise ValueError("target and avoid sets overlap")
        self.kernel = kernel
        self.target = target
        self.avoid = avoid
        self.values = RestrictedLU(kernel, target | avoid).harmonic(target)

    def prob(self, start, first_step_exempt: bool = False) -> float:
        if first_step_exempt:
            return next_step_mean(self.kernel, start, self.values)
        return float(self.values[self.kernel.index[start]])


# ---------------------------------------------------------------------------
# mean return time


def mean_return_time(lu: RestrictedLU) -> float:
    """Expected number of steps to return to the one state that `lu` is
    factored off (flow-through chain)."""
    if len(lu.boundary) != 1:
        raise ValueError(f"a return time needs a factorization off one state, not {_describe(lu.boundary)}")
    (state,) = lu.boundary
    times = lu._on_states(lu.solve(np.ones(lu.unknown.size)))
    return 1.0 + next_step_mean(lu.kernel, state, times)
