"""Finite Markov kernels for the two-player analysis.

Four chains are built here:
  * the exact game chain (pot, P1 stack, turn) with absorbing losses,
  * the duration chain: the game chain folded by the players' swap
    symmetry, over (pot, stack of the player on turn),
  * the pot-size chain on {1..x_max},
  * the mod-Lambda chain on (pot, P1 stack mod Lambda, turn), in two
    flavors: "formal" applies the four transition maps verbatim on every
    spin; "game" updates the second coordinate only on P1's spins and on
    antes.

Each kernel is one CSR matrix over its numbered states, read off a step
table: nothing here spins.  The game chain unfolds `game.fold_steps` by
the turn; that table's end codes say who went out, and the duration
chain reads both as `GAME_OVER`.  The pot and mod-Lambda chains read
`game.overdraft_steps`.  The tests check every row against the scalar
engine `game.apply_spin`.

`diagnostics` takes the period from one compiled BFS and the stationary
law from one sparse LU.

Pot overflow in the mod chain is truncated: a Shtel at the cap leaves
the pot coordinate in place (the other coordinates still update).
Reaching pot x from 2 needs at least x-2 Shtels, so the truncated tail
mass decays at least geometrically in the cap.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.sparse.linalg import splu

from .game import fold_steps, overdraft_steps

P_LOSS_1 = ("loss", 1)  # P1 eliminated: P2 wins
P_LOSS_2 = ("loss", 2)
GAME_OVER = "game over"  # the duration chain's one absorbing state

ROW_SUM_TOL = 1e-12  # largest |row sum - 1| a kernel may have


class SolverError(RuntimeError):
    """A float linear solve failed its own check."""


class _RowView(Sequence):
    """The rows of a CSR matrix: row i is a list of (column, probability).
    Assigning a row rewrites that row of the matrix in place."""

    def __init__(self, csr: sp.csr_matrix):
        self._csr = csr

    def __len__(self) -> int:
        return self._csr.shape[0]

    def __getitem__(self, i: int) -> list[tuple[int, float]]:
        i = range(len(self))[i]
        lo, hi = self._csr.indptr[i], self._csr.indptr[i + 1]
        return list(zip(self._csr.indices[lo:hi].tolist(), self._csr.data[lo:hi].tolist()))

    def __setitem__(self, i: int, row: list[tuple[int, float]]) -> None:
        i = range(len(self))[i]
        csr = self._csr
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        cols, probs = (list(v) for v in zip(*row)) if row else ([], [])
        csr.indices = np.concatenate([csr.indices[:lo], np.array(cols, dtype=csr.indices.dtype), csr.indices[hi:]])
        csr.data = np.concatenate([csr.data[:lo], np.array(probs, dtype=float), csr.data[hi:]])
        csr.indptr[i + 1:] += len(cols) - (hi - lo)
        csr.has_sorted_indices = False  # so that sum_duplicates sorts first
        csr.sum_duplicates()


@dataclass
class SparseKernel:
    """A Markov kernel on `states`: row i of `csr` holds the transition
    probabilities out of states[i], and absorbing states have empty rows."""

    states: list
    csr: sp.csr_matrix
    absorbing: np.ndarray
    index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {s: i for i, s in enumerate(self.states)}

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def rows(self) -> _RowView:
        return _RowView(self.csr)

    def validate(self) -> None:
        csr = self.csr
        if csr.shape != (self.n_states, self.n_states):
            raise ValueError(f"matrix shape {csr.shape} does not match {self.n_states} states")
        bad = np.flatnonzero(self.absorbing & (np.diff(csr.indptr) > 0))
        if bad.size:
            raise ValueError(f"absorbing state {self.states[bad[0]]} has successors")
        totals = np.asarray(csr.sum(axis=1)).ravel()
        bad = np.flatnonzero(~self.absorbing & ~(np.abs(totals - 1.0) <= ROW_SUM_TOL))
        if bad.size:
            raise ValueError(f"row {self.states[bad[0]]} sums to {float(totals[bad[0]])}")
        bad = np.flatnonzero(~(csr.data > 0))
        if bad.size:
            row = int(np.searchsorted(csr.indptr, bad[0], side="right")) - 1
            raise ValueError(f"row {self.states[row]} has a nonpositive probability")

    def to_csr(self) -> sp.csr_matrix:
        return self.csr.copy()

    def successors(self, state) -> list[tuple[object, float]]:
        return [(self.states[j], p) for j, p in self.rows[self.index[state]]]


def _spin_kernel(states: list, src: np.ndarray, succ: np.ndarray, absorbing: np.ndarray) -> SparseKernel:
    """Kernel in which state src[r] moves to state succ[o, r] with
    probability 1/4 for each of the four spin outcomes o."""
    n = len(states)
    rows = np.tile(src, succ.shape[0])
    csr = sp.csr_matrix((np.full(rows.size, 0.25), (rows, succ.ravel())), shape=(n, n))
    csr.sum_duplicates()
    kernel = SparseKernel(states=states, csr=csr, absorbing=absorbing)
    kernel.validate()
    return kernel


def _reachable_kernel(coords: tuple[np.ndarray, ...], succ: np.ndarray, start: int, labels: list) -> SparseKernel:
    """The chain on the grid points reachable from grid code `start`.

    Grid code c is the point (coords[0][c], coords[1][c], ...) and moves
    to succ[o, c] under outcome o; the codes past the grid, in order, are
    the absorbing states `labels`.  States are the labels, then the grid
    points in depth-first discovery order from the start.

    The game chain and its fold reach every point with pot >= 1, stack
    >= 0 and pot + stack <= 2n (the tests pin the counts), so the search
    is kept for its order, not for what it reaches: that order is the
    input order of `RestrictedLU`'s reverse Cuthill-McKee ordering, and
    other numberings of the same states move the fill either way.  On the
    fold, L + U holds 1.77M nonzeros at n = 60 and 6.45M at n = 100 in
    this order, 1.61M and 8.98M with the points numbered stack-major, and
    2.57M and 17.9M pot-major.
    """
    size, first = coords[0].size, len(labels)
    order = [-1] * size + list(range(first))  # kernel index of each code
    order[start] = first
    found, stack, nxt = [start], [start], succ.T.tolist()
    while stack:
        for c in nxt[stack.pop()]:
            if order[c] < 0:
                order[c] = len(found) + first
                found.append(c)
                stack.append(c)
    states = labels + list(zip(*(v[found].tolist() for v in coords)))
    absorbing = np.zeros(len(states), dtype=bool)
    absorbing[:first] = True
    return _spin_kernel(states, np.arange(first, len(states)), np.array(order)[succ[:, found]], absorbing)


# ---------------------------------------------------------------------------
# exact two-player game chain


def game_chain_start(n: int) -> tuple[int, int, int]:
    return (2, n - 1, 1)


def build_game_chain(n: int) -> SparseKernel:
    """Exact chain over reachable (pot, P1 stack, turn) states, k=2.

    P2's stack is pot-conservation-implied (2n - pot - stack).  Loss
    states are absorbing and labelled by the eliminated player.  Spins
    are read off `fold_steps`; states are numbered in depth-first
    discovery order from the start, after the two loss states.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    side = 2 * n + 1  # P1 stack in 0..2n; pot in 1..2n
    x, y, z = (a.ravel() for a in np.meshgrid(np.arange(1, 2 * n + 1), np.arange(side), (1, 2), indexing="ij"))
    end = x.size // 2  # fold code: the spinner went out; end + 1, the other player did
    # the player on turn holds y if z = 1, else 2n - x - y, clipped at 0 off the states (x + y > 2n),
    # which are never reached; the outcomes' code order NISHT, GANZ, HALB, SHTEL fixes the discovery order
    c = fold_steps(n)[:, (x - 1) * side + np.where(z == 1, y, np.maximum(2 * n - x - y, 0))]
    pot, held = np.divmod(c, side)  # pot - 1 and the stack of the player on turn next
    p1 = np.where(z == 2, held, 2 * n - 1 - pot - held)  # P1's stack after the spin
    succ = np.where(c >= end, x.size + ((c - end) ^ (z - 1)),  # P_LOSS_1 when P1 went out
                    (pot * side + p1) * 2 + (2 - z))  # the turn passes
    return _reachable_kernel((x, y, z), succ, (side + n - 1) * 2, [P_LOSS_1, P_LOSS_2])  # from (2, n - 1, 1)


def build_duration_chain(n: int) -> SparseKernel:
    """The game chain folded by the swap of the two players, k=2: states
    (pot, stack of the player on turn), one absorbing `GAME_OVER`.

    State (x, y, 2) of `build_game_chain` is (x, 2n - x - y, 1) with the
    players' names swapped, so both are (x, 2n - x - y) here: half the
    transient states, and the same time to absorption (Kemeny & Snell,
    *Finite Markov Chains*, 1960, ch. 6).  It does not say who wins.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    side = 2 * n + 1
    x, a = (v.ravel() for v in np.meshgrid(np.arange(1, 2 * n + 1), np.arange(side), indexing="ij"))
    return _reachable_kernel((x, a), np.minimum(fold_steps(n), x.size), side + n - 1, [GAME_OVER])  # from (2, n - 1)


# ---------------------------------------------------------------------------
# pot chain


def build_pot_chain(x_max: int) -> SparseKernel:
    """Markov chain of pot sizes alone, read off the overdraft steps; the
    pot is clamped at the cap, so a Shtel there self-loops."""
    if x_max < 4:
        raise ValueError("x_max >= 4 required")
    x = np.arange(1, x_max + 1)
    succ = np.minimum(overdraft_steps(2, x_max)[1:, :, 0].T, x_max) - 1
    return _spin_kernel(x.tolist(), x - 1, succ, np.zeros(x_max, dtype=bool))


# ---------------------------------------------------------------------------
# mod-Lambda chain


@dataclass(frozen=True)
class ModChainSpec:
    n: int
    p_max: int
    flavor: str = "game"  # "game" | "formal"

    def __post_init__(self):
        if self.flavor not in ("game", "formal"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.n < 1:
            raise ValueError("n >= 1 required")
        if self.p_max < 4:
            raise ValueError("p_max >= 4 required")

    @property
    def lam(self) -> int:
        return 2 * self.n + 3

    def pot2(self, y: int, z: int) -> tuple[int, int, int]:
        """(2, y mod Lambda, z): pot 2, P1 holding y, player z on turn."""
        return (2, y % self.lam, z)

    @property
    def start(self) -> tuple[int, int, int]:
        return self.pot2(self.n - 1, 1)

    def is_end_state(self, state: tuple[int, int, int]) -> bool:
        """Non-dreidel state: the y-residue read as a token count in
        [0, Lambda) is negative-by-wraparound or breaks conservation."""
        x, y, _ = state
        n = self.n
        return y in (2 * n + 1, 2 * n + 2) or x + y > 2 * n


def build_mod_chain(spec: ModChainSpec) -> SparseKernel:
    """The full (pot, y, turn) grid, numbered x-major then y then turn, read
    off the overdraft steps; y is taken mod Lambda, the pot clamped at the cap."""
    lam, cap = spec.lam, spec.p_max
    x, y, z = (a.ravel() for a in np.meshgrid(np.arange(1, cap + 1), np.arange(lam), (1, 2), indexing="ij"))
    pot, gain, ante = overdraft_steps(2, cap)[x].T
    # P1 pays every ante and gains on its own spins (on every spin if formal)
    held = y + gain * ((z == 1) | (spec.flavor == "formal")) - ante
    succ = ((np.minimum(pot, cap) - 1) * lam + held % lam) * 2 + (2 - z)  # the turn passes
    states = list(zip(x.tolist(), y.tolist(), z.tolist()))
    return _spin_kernel(states, np.arange(x.size), succ, np.zeros(x.size, dtype=bool))


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class ChainDiagnostics:
    irreducible: bool
    period: int
    stationary: np.ndarray | None = None
    mean_return: np.ndarray | None = None
    residual: float = float("nan")


def matrix_period(csr: sp.csr_matrix) -> int:
    """Period via BFS levels from state 0 (one compiled BFS): gcd of
    level[u] + 1 - level[v] over the edges u -> v out of reached states."""
    level = shortest_path(csr, unweighted=True, indices=0)
    rows, cols = csr.nonzero()
    reached = np.isfinite(level[rows])
    g = int(np.gcd.reduce(np.abs(level[rows] + 1 - level[cols])[reached].astype(np.int64)))
    return g if g else 1


def stationary_law(csr: sp.csr_matrix) -> np.ndarray:
    """Stationary law by one sparse LU, in excursion form (Norris, *Markov
    Chains*, 1997, sec. 1.7): with U the states other than 0 and Q = P[U, U],
    the solution of v (I - Q) = P[0, U] is v_j = pi_j / pi_0, the expected
    number of visits to j between two visits to 0, so pi = (1, v) / sum.
    The system is singular unless state 0 lies in the only closed class;
    a singular system or a negative entry raises SolverError."""
    a = sp.identity(csr.shape[0] - 1, format="csr") - csr[1:, 1:]
    try:
        lu = splu(a.T.tocsc())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"stationary law: {exc}") from None
    pi = np.concatenate([[1.0], lu.solve(csr[0, 1:].toarray().ravel())])
    pi /= pi.sum()
    if not (pi >= 0).all():
        raise SolverError(f"stationary law: entry {float(pi.min())!r} is not a probability")
    return pi


def diagnostics(kernel: SparseKernel, compute_stationary: bool = False) -> ChainDiagnostics:
    """Irreducibility (strong components), the period (`matrix_period`, one
    compiled BFS) and, on request, the stationary law (`stationary_law`, one
    sparse LU) with its mean return times 1/pi and residual |pi P - pi|_1."""
    csr = kernel.csr
    n_comp, _ = connected_components(csr, directed=True, connection="strong")
    irreducible = n_comp == 1
    period = matrix_period(csr) if irreducible else 0
    diag = ChainDiagnostics(irreducible=irreducible, period=period)
    if compute_stationary:
        pi = stationary_law(csr)
        diag.stationary = pi
        diag.mean_return = 1.0 / pi
        diag.residual = float(np.abs(csr.T @ pi - pi).sum())
    return diag
