"""Epoch machinery for slowdel / metaslowdel games.

An epoch runs in rounds of k spins and closes on the first round whose
final spin (the last player's) is a Ganz; the ante that follows belongs
to the same epoch.  The last player's per-epoch payoff Y_i drives the
stopping-time analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import game
from .game import SPIN_BY_CODE, GameState, GameError, Spin, apply_spin, new_custom  # new_custom: re-exported

MAX_EPOCHS = 10**7  # run_metaslowdel gives up after this many epochs


class EpochBoundaryError(GameError):
    """An epoch operation was called off an epoch boundary."""


@dataclass(frozen=True)
class EpochRecord:
    spins_in_epoch: int
    payoff: tuple[int, ...]
    end_stacks: tuple[int, ...]
    outcomes: tuple[Spin, ...]


@dataclass(frozen=True)
class StoppingRecord:
    w0: int
    t: int
    s_t: int
    u: int
    side: str  # "lower" (last player ruined) | "upper" (opponents ruined)
    payoffs: tuple[int, ...] = ()


def at_epoch_boundary(state: GameState) -> bool:
    return state.pot == state.config.k and state.turn == 0 and all(state.alive)


def run_epoch(state: GameState, rng) -> tuple[EpochRecord, GameState]:
    """Play one epoch of the free-running overdraft process."""
    cfg = state.config
    if not cfg.overdraft:
        raise EpochBoundaryError("epochs require overdraft mode")
    if not at_epoch_boundary(state):
        raise EpochBoundaryError("state is not at an epoch boundary")
    k = cfg.k
    start_stacks = state.stacks
    outcomes: list[Spin] = []
    while True:
        outcome = SPIN_BY_CODE[int(rng.integers(0, 4))]
        outcomes.append(outcome)
        state, _ = apply_spin(state, outcome)
        if len(outcomes) % k == 0:  # the last seat has just spun: a round is over
            if outcome is Spin.GANZ:
                break
            if len(outcomes) >= game.SPIN_CAP:
                raise GameError(f"epoch exceeded {game.SPIN_CAP} spins")
    record = EpochRecord(
        spins_in_epoch=len(outcomes),
        payoff=tuple(e - s for e, s in zip(state.stacks, start_stacks)),
        end_stacks=state.stacks,
        outcomes=tuple(outcomes),
    )
    return record, state


def is_landslide(record: EpochRecord) -> bool:
    """Landslide: exactly one round of k-1 Shtels followed by a Ganz."""
    k = len(record.payoff)
    return (
        record.spins_in_epoch == k
        and all(o is Spin.SHTEL for o in record.outcomes[: k - 1])
        and record.outcomes[-1] is Spin.GANZ
    )


def lost_players(record: EpochRecord) -> tuple[int, ...]:
    """Slowdel loss rule: players with a negative stack at the epoch end."""
    return tuple(p for p, s in enumerate(record.end_stacks) if s < 0)


def window_side(w, k: int, n: int):
    """Which side of the metaslowdel window [0, k(n-1)] the last player's
    token count w lies on: -1 below (the last player is ruined), 0 inside,
    +1 above (an opponent is).  Works on ints and elementwise on arrays."""
    return (w > k * (n - 1)) * 1 - (w < 0) * 1


def run_metaslowdel(start: GameState, n: int, rng) -> StoppingRecord:
    """Run epochs until the last player's token count W0 + S_j, after the
    partial sum S_j of its payoffs, leaves the window (`window_side`)."""
    cfg = start.config
    if not cfg.overdraft:
        raise EpochBoundaryError("metaslowdel requires overdraft mode")
    k = cfg.k
    w0 = start.stacks[k - 1]
    state = start
    s = 0
    spins = 0
    payoffs: list[int] = []
    for t in range(1, MAX_EPOCHS + 1):
        record, state = run_epoch(state, rng)
        y = record.payoff[k - 1]
        payoffs.append(y)
        s += y
        spins += record.spins_in_epoch
        side = window_side(w0 + s, k, n)
        if side:
            return StoppingRecord(w0=w0, t=t, s_t=s, u=spins, side="upper" if side > 0 else "lower",
                                  payoffs=tuple(payoffs))
    raise GameError(f"no stopping event within {MAX_EPOCHS} epochs")
