"""Deterministic long-game construction and low-epoch game counting.

The restorative phase drives any overdraft configuration to a balanced
boundary; the four-phase construction starts on one, so its first phase
is empty.  It stacks up guaranteed epochs with all-Ganz rounds,
burns spins in zero-payoff gamelet blocks, and closes with a Shtel
staircase so the last player wins on the final spin of spin ks exactly.

The low-epoch count behind the construction's counting bound is exact:
a dynamic program over (pot, last player's stack, epochs) in place of
enumerating all 4^(ks) outcome sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .epochs import lost_players, run_epoch, window_side
from .game import GameConfig, GameState, apply_spin, new_game, overdraft_step_rows
from .gamelets import choose_alpha, random_gamelet
from .rng import GANZ, HALB, NISHT, SHTEL, ScriptedSource


class ConstructionError(RuntimeError):
    pass


class InfeasibleError(ConstructionError):
    """The requested game length cannot accommodate the four phases."""


# ---------------------------------------------------------------------------
# restorative phase


@dataclass
class RestorativePlan:
    outcomes: list[int]
    end_state: GameState
    m: int  # minimum stack at the endpoint
    spins: int


def _endpoint_valid(state: GameState) -> bool:
    k = state.config.k
    return (
        state.pot == k
        and state.turn == 0
        and max(state.stacks) - min(state.stacks) <= 1
    )


def restorative_sequence(state: GameState) -> RestorativePlan:
    """Deterministic spin assignment to (pot = k, near-equal stacks, P1).

    Halbs shrink the pot to two tokens (a Shtel if it held only one),
    Nishts hand the turn back to P1, balancing rounds move one token per
    round from a richest to a poorest player, and k-2 single-Shtel
    rounds lift the pot from 2 to k.
    """
    cfg = state.config
    if not cfg.overdraft:
        raise ConstructionError("restorative phase assumes overdraft mode")
    if state.pot < 1:
        raise ConstructionError("restorative phase needs a nonempty pot")
    k = cfg.k
    outcomes: list[int] = []

    def spin(o: int) -> None:
        nonlocal state
        state, _ = apply_spin(state, o)
        outcomes.append(o)

    if not _endpoint_valid(state):
        if state.pot == 1:
            spin(SHTEL)
        while state.pot > 2:
            spin(HALB)
        while state.turn != 0:
            spin(NISHT)
        while max(state.stacks) - min(state.stacks) > 1:
            rich = state.stacks.index(max(state.stacks))
            poor = state.stacks.index(min(state.stacks))
            for seat in range(k):
                if seat == rich:
                    spin(SHTEL)
                elif seat == poor:
                    spin(HALB)
                else:
                    spin(NISHT)
        for _ in range(k - 2):
            rich = state.stacks.index(max(state.stacks))
            for seat in range(k):
                spin(SHTEL if seat == rich else NISHT)

    if not _endpoint_valid(state):
        raise ConstructionError("restorative endpoint validation failed")
    return RestorativePlan(
        outcomes=outcomes,
        end_state=state,
        m=min(state.stacks),
        spins=len(outcomes),
    )


# ---------------------------------------------------------------------------
# four-phase construction


@dataclass
class PhasePlan:
    k: int
    n: int
    s: int
    alpha: float
    t_s: int
    m: int
    phase_spins: tuple[int, int, int, int]


@dataclass
class ConstructedGame:
    plan: PhasePlan
    outcomes: list[int]
    epochs: int
    final_w: int

    @property
    def total_spins(self) -> int:
        return len(self.outcomes)


def construct_long_game(k: int, n: int, s: int, alpha: float | None = None, *, rng) -> ConstructedGame:
    """Assemble a legal metaslowdel game of exactly k*s spins, from n
    tokens each, with at least floor(alpha*s) epochs, ending with the
    last player winning."""
    if alpha is None:
        alpha = choose_alpha(k)
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha={alpha} must lie in [0, 1]")
    p = (n - k - 1) // (k * k)
    if p < 1:
        raise InfeasibleError(f"n={n} too small for gamelet blocks with k={k}")
    # the start, n - 1 tokens each after the opening ante with a pot of k
    # and P1 on turn, is already a restorative endpoint: phase 1 is empty
    start = new_game(GameConfig(k=k, n=n, overdraft=True))
    m = n - 1
    t_s = math.floor(alpha * s)
    phase2 = k * t_s
    phase4 = k * (m + 2)
    phase3 = k * (s - m - 2) - phase2
    if phase3 < 0:
        raise InfeasibleError(f"s={s} too small: needs at least {m + 2 + t_s} rounds")
    outcomes = [GANZ] * phase2

    block_len = k * (p * k + 1)
    n_blocks, fill = divmod(phase3, block_len)
    for _ in range(n_blocks):
        g = random_gamelet(k, p, rng)
        outcomes += g * k
    outcomes += [NISHT] * fill

    # closing staircase: phases 2 and 3 are zero-net whole rounds, so every
    # stack is still m; m Shtel rounds move them all into the pot, a Nisht
    # round passes, and the last player's Ganz takes all k*n tokens
    outcomes += [SHTEL] * (k * m)
    outcomes += [NISHT] * (2 * k - 1) + [GANZ]

    plan = PhasePlan(
        k=k, n=n, s=s, alpha=alpha, t_s=t_s, m=m,
        phase_spins=(0, phase2, phase3, phase4),
    )
    epochs, final_w = validate_constructed(start, n, outcomes, t_s)
    return ConstructedGame(plan=plan, outcomes=outcomes, epochs=epochs, final_w=final_w)


def validate_constructed(start: GameState, n: int, outcomes: list[int], t_s: int) -> tuple[int, int]:
    """Replay a constructed game epoch by epoch through `epochs.run_epoch`
    and enforce its contract.

    Raises ConstructionError unless: the outcomes end on an epoch end;
    the last player's token count stays inside the metaslowdel window
    (`epochs.window_side`) and every player's stays nonnegative at every
    epoch end except the last, where the last player wins by leaving the
    window above; the epoch count is at least t_s.
    """
    k = start.config.k
    source = ScriptedSource(outcomes)
    state, epochs, spins, side = start, 0, 0, 0
    while source.remaining:
        try:
            record, state = run_epoch(state, source)
        except IndexError:  # the source ran out
            raise ConstructionError("the outcomes stop inside an epoch") from None
        epochs += 1
        spins += record.spins_in_epoch
        side = window_side(record.end_stacks[k - 1], k, n)
        if source.remaining and (side or lost_players(record)):
            raise ConstructionError(f"a player went home early, at spin {spins}")
    if side <= 0:
        raise ConstructionError("last player did not win on the final spin")
    if epochs < t_s:
        raise ConstructionError(f"only {epochs} epochs, need at least {t_s}")
    return epochs, state.stacks[k - 1]


# ---------------------------------------------------------------------------
# exact low-epoch counting (dynamic program)


@dataclass
class LowEpochCount:
    k: int
    s: int
    t_s: int
    n: int
    total_games: int
    low_epoch_games: int
    bound: int
    by_epochs: dict[int, int] = field(default_factory=dict)


def low_epoch_bound(k: int, s: int, t_s: int) -> int:
    return 4 ** (s * (k - 1)) * sum(math.comb(s, r) * 3 ** (s - r) for r in range(t_s))


def count_low_epoch_games(k: int, s: int, t_s: int, n: int) -> LowEpochCount:
    """Count the outcome sequences of k*s spins, from the overdraft start
    with n tokens each, in which the last player goes home exactly at
    spin k*s, split by epoch count.

    Exact dynamic program (Python integers) over the only state a prefix
    carries: the pot, the last player's stack w and the epochs so far.
    Each spin's four outcomes are a row of the overdraft step table
    `game.overdraft_steps`, read as tuples (`game.overdraft_step_rows`).
    A path is dropped once the last player goes home (w leaves the
    metaslowdel window, `epochs.window_side`, at the end of an epoch)
    before spin k*s; at spin k*s only a Ganz that sends the last player
    home is kept.
    """
    for name, value, least in (("k", k, 2), ("s", s, 1), ("n", n, 1), ("t_s", t_s, 0)):
        if value < least:
            raise ValueError(f"need {name} >= {least}, got {name}={value}")
    ks = k * s
    steps = overdraft_step_rows(k, k + ks)  # only a Shtel raises the pot, by one
    layer: dict[tuple[int, int, int], int] = {(k, n - 1, 0): 1}
    for t in range(ks):
        mine = t % k == k - 1  # the last player spins
        final = t == ks - 1  # always the last player's spin
        nxt: dict[tuple[int, int, int], int] = {}
        for (pot, w, epochs), cnt in layer.items():
            for pot2, gain, ante in steps[pot]:
                if not mine:  # only an ante moves w
                    key = (pot2, w - ante, epochs)
                else:  # the last player's Ganz, the one spin with an ante, ends an epoch
                    w2 = w + gain - ante
                    if (ante == 1 and window_side(w2, k, n) != 0) != final:  # home exactly at spin ks
                        continue
                    key = (pot2, w2, epochs + ante)
                nxt[key] = nxt.get(key, 0) + cnt
        layer = nxt
    by_epochs: dict[int, int] = {}
    for (_, _, epochs), cnt in layer.items():
        by_epochs[epochs] = by_epochs.get(epochs, 0) + cnt
    by_epochs = dict(sorted(by_epochs.items()))
    total = sum(by_epochs.values())
    low = sum(c for e, c in by_epochs.items() if e < t_s)
    return LowEpochCount(
        k=k, s=s, t_s=t_s, n=n,
        total_games=total,
        low_epoch_games=low,
        bound=low_epoch_bound(k, s, t_s),
        by_epochs=by_epochs,
    )
