"""Gamelet signature enumeration and the counting-construction checks.

A gamelet of length p*k+1 ending in a Ganz starts from the canonical
configuration (pot = k, overdraft) and is summarized by the payoff
signature of the first k-1 roles; the last role's payoff is implied by
pot conservation.  Counting is exact in int64: a count is at most
4^(p*k) <= 4^14 < 2^63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameConfig, apply_spin, new_custom, overdraft_step_rows, overdraft_steps
from .reporting import BoundReport
from .rng import GANZ


@dataclass(eq=False)  # array fields: no elementwise ==
class SignatureTable:
    """Signature counts: column j of `signatures`, shape (k-1, S), is a
    signature and counts[j] its number of gamelets; the columns are in
    lexicographic order."""

    k: int
    p: int
    signatures: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def occupied(self) -> int:
        return self.counts.size

    def in_range_box(self) -> bool:
        lo = -self.p * self.k - 1
        hi = (self.k - 1) * (2 * self.p + 1)
        return bool(((lo <= self.signatures) & (self.signatures <= hi)).all())

    def rows(self) -> list[list[int]]:
        return [[*sig, c] for sig, c in zip(self.signatures.T.tolist(), self.counts.tolist())]


MAX_PK = 14  # the longest gamelet body enumerated, in spins
MAX_LAYER = 5 * 10**6  # DP keys one spin may make; (11, 1) reaches 4.1e6 keys
MAX_KEY_BITS = 62  # a packed state key and every key shift fit in int64
ALPHA_GRID_STEP = 1e-4  # choose_alpha searches (0, 1/2) on this grid


def enumerate_signatures(k: int, p: int) -> SignatureTable:
    """Count all 4^(p*k) gamelets of length p*k+1 ending in a Ganz.

    Exact dynamic count over (pot, delta) summaries: sequences with the
    same running pot and per-role deltas are interchangeable, and the
    last role's delta is pot-implied, so only roles 0..k-2 are carried
    and the state space stays small.  A state is one int64 key: the pot
    is the top digit, then role 0's delta down to role k-2's, each a
    base-`span` digit offset by -lo.  A spin's four outcomes are a row of
    the overdraft step table `game.overdraft_steps`, and each moves a key
    by an amount that depends on the pot and the outcome alone, so a
    layer is shifted, sorted, and equal keys merge with their counts
    summed.  Where a key is nearly a sequence (p = 1) the layers grow
    about 4-fold a spin, so a layer that could pass MAX_LAYER keys is
    refused before it is built, and so is a (k, p) whose key would pass
    MAX_KEY_BITS bits.
    """
    if k < 2 or p < 1:
        raise ValueError("need k >= 2 and p >= 1")
    if p * k > MAX_PK:
        raise ValueError(f"p*k = {p * k} too large to enumerate")
    cap = k + p * k + 1  # only a Shtel raises the pot, by one
    # Digit bounds of a carried delta after any spin.  A role antes at most
    # once a spin and pays at most p Shtels, so lo = -(pk + p + 1).  Between
    # two antes it takes at most the k tokens in the pot and the Shtels paid
    # in between; it takes in at most p + 1 of these stretches, antes once
    # for each stretch but the first, and the other roles pay at most
    # p(k - 1) Shtels, so hi = (p + 1)(k - 1) + 1 + p(k - 1).
    lo = -(p * k + p + 1)
    hi = (k - 1) * (2 * p + 1) + 1
    span = hi - lo + 1
    w_pot = span ** (k - 1)
    bits = ((cap + 1) * w_pot).bit_length()
    if bits > MAX_KEY_BITS:
        raise ValueError(f"k={k}, p={p} too large to enumerate: a state key needs {bits} bits, "
                         f"past {MAX_KEY_BITS}")
    w_role = [span ** (k - 2 - r) for r in range(k - 1)] + [0]  # the last role is not carried
    w_all = sum(w_role)
    pot2, gain, ante = overdraft_steps(k, cap).transpose(2, 0, 1)
    # the key shift of each (pot, outcome) but the spinner's gain
    common = (pot2 - np.arange(cap + 1)[:, None]) * w_pot - ante * w_all
    keys = np.array([k * w_pot - lo * w_all], dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    for t in range(p * k + 1):
        bound = keys.size * (1 if t == p * k else 4)
        if bound > MAX_LAYER:
            raise ValueError(f"k={k}, p={p} too large to enumerate: spin {t + 1} could make "
                             f"{bound} keys, past {MAX_LAYER}")
        pot = keys // w_pot
        if pot.min() < 1 or pot.max() > cap:  # a pot outside the table: the key digits aliased
            raise AssertionError(f"spin {t + 1}: a decoded pot left 1..{cap}")
        shift = common + gain * w_role[t % k]
        if t == p * k:
            shift = shift[:, GANZ:GANZ + 1]  # the closing Ganz
        nxt = (keys[:, None] + shift[pot]).ravel()
        order = nxt.argsort()
        nxt = nxt[order]
        starts = np.flatnonzero(np.r_[True, nxt[1:] != nxt[:-1]])
        keys = nxt[starts]
        counts = np.add.reduceat(np.repeat(counts, shift.shape[1])[order], starts)
    # the pot is k after the closing Ganz, so the sorted keys are the
    # signatures in lexicographic order
    digits = (keys % w_pot)[None, :] // np.array(w_role[:-1])[:, None] % span
    return SignatureTable(k=k, p=p, signatures=digits + lo, counts=counts)


def gamelet_signature(k: int, outcomes: list[int]) -> tuple[int, ...]:
    """Signature of one concrete gamelet (must end in a Ganz)."""
    if outcomes[-1] != GANZ:
        raise ValueError("gamelet must end with a Ganz")
    steps = overdraft_step_rows(k, k + len(outcomes))  # only a Shtel raises the pot, by one
    pot = k
    deltas = [0] * k
    for t, o in enumerate(outcomes):
        pot, gain, ante = steps[pot][o]
        if ante:  # only a Ganz antes
            deltas = [d - ante for d in deltas]
        deltas[t % k] += gain
    if sum(deltas) != 0:
        raise AssertionError("gamelet payoffs must be zero-sum")
    return tuple(deltas[: k - 1])


def minkowski_check(table: SignatureTable) -> BoundReport:
    """Power-mean and coarse-grid lower bounds on sums of k-th powers."""
    k, p = table.k, table.p
    rep = BoundReport(f"Minkowski counts, k={k}, p={p}")
    total = table.total
    power_sum = sum(c**k for c in table.counts.tolist())  # c^k passes int64
    rep.check_ge("total == 4^pk", float(total == 4 ** (p * k)), 1.0)
    rep.check_ge("signatures inside range box", float(table.in_range_box()), 1.0)
    # exact integer comparisons, reported as 0/1 flags
    pm_ok = power_sum * table.occupied ** (k - 1) >= total**k
    rep.check_ge("sum x^k * cells^(k-1) >= total^k", float(pm_ok), 1.0)
    # the grid has at most (3pk)^(k-1) cells, so the power mean also gives
    # sum x^k >= total^k / ((3pk)^(k-1))^(k-1); the k=2 case collapses to
    # the simpler total^k / (3pk)^(k-1) form, which is hard-checked
    grid_ok = power_sum * ((3 * p * k) ** (k - 1)) ** (k - 1) >= total**k
    rep.check_ge("sum x^k * grid^(k-1) >= total^k", float(grid_ok), 1.0)
    coarse_ok = power_sum * (3 * p * k) ** (k - 1) >= (4 ** (p * k)) ** k
    if k == 2:
        rep.check_ge("sum x^k >= (4^pk)^k / (3pk)^(k-1)", float(coarse_ok), 1.0)
    else:
        rep.report_only("sum x^k >= (4^pk)^k / (3pk)^(k-1)", float(coarse_ok))
    rep.report_only("sum x^k (log10)", math.log10(power_sum))
    rep.report_only("occupied cells", float(table.occupied))
    return rep


def choose_alpha(k: int) -> float:
    """Largest grid point in (0, 1/2) satisfying the epoch-density margin
    (alpha/64^k)^alpha (1-alpha)^(1-alpha) > 0.76."""
    if k < 2:
        raise ValueError("k >= 2 required")
    steps = int(0.5 / ALPHA_GRID_STEP)
    for i in range(steps - 1, 0, -1):
        alpha = i * ALPHA_GRID_STEP
        value = (alpha / 64.0**k) ** alpha * (1 - alpha) ** (1 - alpha)
        if value > 0.76:
            return alpha
    raise ValueError("no grid point satisfies the margin inequality")


def random_gamelet(k: int, p: int, rng) -> list[int]:
    codes = [int(c) for c in rng.integers(0, 4, size=p * k)]
    codes.append(GANZ)
    return codes


def concat_check(k: int, p: int, n_tuples: int, rng, pool_size: int) -> BoundReport:
    """Sample signature-matched k-tuples of gamelets and verify that each
    concatenation is legal and zero-payoff for every player.

    Legality is checked by replaying the concatenation through the scalar
    rules engine `game.apply_spin` from a fresh dreidel start with n just
    above the block length: no player may ever be eliminated.
    """
    n = p * k * k + k + 1
    rep = BoundReport(f"gamelet concatenation, k={k}, p={p}, n={n}")
    pool: dict[tuple[int, ...], list[list[int]]] = {}
    for _ in range(pool_size):
        g = random_gamelet(k, p, rng)
        pool.setdefault(gamelet_signature(k, g), []).append(g)
    sigs = sorted(pool)
    failures = 0
    for t in range(n_tuples):
        sig = sigs[int(rng.integers(0, len(sigs)))]
        bucket = pool[sig]
        picks = [bucket[int(rng.integers(0, len(bucket)))] for _ in range(k)]
        block = [code for g in picks for code in g]
        if not _zero_payoff_and_legal(k, n, block):
            failures += 1
    rep.check_le("illegal or nonzero-payoff concatenations", float(failures), 0.0)
    rep.report_only("tuples checked", float(n_tuples))
    rep.report_only("distinct signatures in pool", float(len(sigs)))
    return rep


def _zero_payoff_and_legal(k: int, n: int, outcomes: list[int]) -> bool:
    config = GameConfig(k=k, n=n, overdraft=False)
    state = new_custom([n] * k, config)
    start_stacks = state.stacks
    for o in outcomes:
        state, events = apply_spin(state, o)
        if any(ev.kind == "eliminated" for ev in events):
            return False
    return state.stacks == start_stacks and state.pot == k
