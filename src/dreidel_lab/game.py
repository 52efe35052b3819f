"""The dreidel spin rule, in the program's two engines.

The scalar engine is pure: a GameState is an immutable value, a named
tuple like the StepEvent and TranscriptEntry records, and apply_spin
maps (state, outcome) to a new state plus the events that fired.  It
plays single games and is the oracle the tests check the array engine
against.  The array engine, `SpinBatch`, spins many plain games in
lockstep; the duration sampler runs on it at k >= 3.
`spin_each_outcome` spins a grid of them once under each forced outcome
in one batch.  The game chain reads that batch directly, and two step
tables are made from it, for where a spin's effect depends on a small
state:
  * `overdraft_steps`, by pot, the plain spin from one token each: the
    overdraft chains (pot and mod-Lambda), the exact DPs (gamelets, the
    low-epoch count, construction) and the epoch sampler read it;
  * `fold_steps`, by (pot, stack of the player on turn), two players:
    the duration chain and the k = 2 duration sampler read it.
Under either rule, plain or overdraft, a spin conserves tokens: pot +
sum of stacks keeps its starting value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cache
from typing import NamedTuple

import numpy as np

from .rng import (
    GANZ,
    HALB,
    NISHT,
    OUTCOME_CODES,
    SHTEL,
    ScriptedSource,
    make_generator,
)


class Spin(IntEnum):
    NISHT = 0
    GANZ = 1
    HALB = 2
    SHTEL = 3


SPIN_BY_CODE = tuple(Spin)  # Spin member by outcome code, without an Enum call


class GameError(Exception):
    pass


class GameOverError(GameError):
    """A spin was requested on a terminated game."""


class SpinCapExceeded(GameError):
    """A game ran past the spin cap."""


# read at call time (`game.SPIN_CAP`), so a test can lower it
SPIN_CAP = 10**9


@dataclass(frozen=True)
class GameConfig:
    k: int
    n: int
    overdraft: bool = False

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"need at least two players, got k={self.k}")
        if self.n < 1:
            raise ValueError(f"need at least one starting token, got n={self.n}")


class StepEvent(NamedTuple):
    kind: str  # "ante" | "eliminated" | "won" | "no_survivor"
    player: int | None = None
    payers: tuple[int, ...] = ()


class GameState(NamedTuple):
    config: GameConfig
    pot: int
    stacks: tuple[int, ...]
    turn: int
    alive: tuple[bool, ...]
    spin_index: int = 0

    @property
    def num_alive(self) -> int:
        return self.alive.count(True)

    @property
    def terminated(self) -> bool:
        return self.num_alive <= 1

    @property
    def winner(self) -> int | None:
        if self.num_alive == 1:
            return self.alive.index(True)
        return None


class TranscriptEntry(NamedTuple):
    spin_index: int
    player: int
    outcome: Spin
    pot: int
    stacks: tuple[int, ...]
    events: tuple[StepEvent, ...]


@dataclass
class Transcript:
    config: GameConfig
    entries: list[TranscriptEntry] = field(default_factory=list)
    terminal: str = "running"  # "running" | "won:<player>" | "no_survivor"

    @property
    def duration(self) -> int:
        return len(self.entries)


def new_custom(stacks: tuple[int, ...] | list[int], config: GameConfig) -> GameState:
    """Metadreidel start: arbitrary stacks, opening ante already resolved."""
    stacks = tuple(stacks)
    if len(stacks) != config.k:
        raise ValueError(f"expected {config.k} stacks, got {len(stacks)}")
    if not config.overdraft and any(s < 1 for s in stacks):
        raise ValueError("every player needs a token for the opening ante")
    return GameState(
        config=config,
        pot=config.k,
        stacks=tuple(s - 1 for s in stacks),
        turn=0,
        alive=(True,) * config.k,
        spin_index=0,
    )


def new_game(config: GameConfig) -> GameState:
    """Opening state: everyone antes one token, player 0 spins first."""
    return new_custom((config.n,) * config.k, config)


def _ante(stacks: list[int], alive: list[bool], overdraft: bool, events: list[StepEvent]) -> int:
    """`ante` on lists, in place: appends the ante event, then the
    eliminations, and returns the new pot, the number of payers, which is
    also the number of players still alive."""
    payers = []
    eliminated = []
    for p, live in enumerate(alive):
        if not live:
            continue
        if overdraft or stacks[p] >= 1:
            stacks[p] -= 1
            payers.append(p)
        else:
            alive[p] = False
            eliminated.append(StepEvent("eliminated", p))
    events.append(StepEvent("ante", None, tuple(payers)))
    events += eliminated
    return len(payers)


def ante(state: GameState) -> tuple[GameState, list[StepEvent]]:
    """Everyone donates one token to the empty pot.

    In non-overdraft mode, players sitting on zero tokens are eliminated
    simultaneously and donate nothing.
    """
    if state.pot != 0:
        raise ValueError("ante requires an empty pot")
    stacks = list(state.stacks)
    alive = list(state.alive)
    events: list[StepEvent] = []
    pot = _ante(stacks, alive, state.config.overdraft, events)
    return GameState(state.config, pot, tuple(stacks), state.turn, tuple(alive), state.spin_index), events


def apply_spin(state: GameState, outcome: Spin | int) -> tuple[GameState, list[StepEvent]]:
    """Resolve one spin by the player on turn.

    Ganz empties the pot and the ante fires within the same spin, so the
    pot is never left empty. A Shtel by a broke player (non-overdraft)
    eliminates the spinner and leaves the pot unchanged.  The new state
    shares `stacks` and `alive` with the old one where the spin leaves
    them as they were.
    """
    config, pot, stacks, spinner, alive, spin_index = state
    n_alive = alive.count(True)
    if n_alive <= 1:
        raise GameOverError("game already terminated")
    events: list[StepEvent] = []

    if outcome == NISHT:
        pass
    elif outcome == GANZ:
        stacks = list(stacks)
        stacks[spinner] += pot
        pot = 0
    elif outcome == HALB:  # the spinner takes the smaller half
        if pot < 0:
            raise ValueError("pot must be nonnegative")
        taken = pot // 2
        stacks = list(stacks)
        stacks[spinner] += taken
        pot -= taken
    elif outcome == SHTEL:
        if config.overdraft or stacks[spinner] >= 1:
            stacks = list(stacks)
            stacks[spinner] -= 1
            pot += 1
        else:
            n_alive -= alive[spinner]
            alive = list(alive)
            alive[spinner] = False
            events.append(StepEvent("eliminated", spinner))
    else:
        Spin(outcome)  # raises the ValueError that names the invalid code

    if pot == 0:
        stacks, alive = list(stacks), list(alive)
        pot = n_alive = _ante(stacks, alive, config.overdraft, events)

    if n_alive == 1:
        turn = alive.index(True)
        events.append(StepEvent("won", turn))
    elif n_alive == 0:
        events.append(StepEvent("no_survivor"))
        turn = spinner
    else:
        k = len(alive)
        turn = (spinner + 1) % k
        while not alive[turn]:
            turn = (turn + 1) % k
    return GameState(config, pot, tuple(stacks), turn, tuple(alive), spin_index + 1), events


# The spinner takes pot >> _TAKE_SHIFT[code], by code N, G, H, S: nothing
# on a Nisht or a Shtel (the pot is never negative, so a shift by 63 gives
# 0), all on a Ganz, the floor half on a Halb.  Code -1, a seat that sits
# out, reads the Shtel entry and takes nothing.
_TAKE_SHIFT = np.array([63, 0, 1, 63], dtype=np.int64)


class SpinBatch:
    """m plain dreidel games spun in lockstep: the array form of
    `apply_spin`, where a broke player who must pay is out.

    Player i of game j holds stacks[i, j] tokens, none once out, and
    games[j] is the game's number in the batch as first built, so that
    results can be written by game after `keep` drops some.  Seats take
    turns on one clock shared by all games, and a seat that is out of a
    game skips its turn there without spinning, so a batch of one game
    spins exactly as `play_game` does.
    """

    def __init__(self, k: int, m: int, stack: int):
        self.k = k
        self.seat = 0  # the seat on turn in every game
        self.pot = np.full(m, k, dtype=np.int64)
        self.stacks = np.full((k, m), stack, dtype=np.int64)
        self.alive = np.ones((k, m), dtype=bool)
        self.live = np.full(m, k, dtype=np.int64)  # players left per game
        self.games = np.arange(m)

    def step(self, rng) -> np.ndarray:
        """One spin by the seat on turn in every game it is still in.

        Draws one outcome per spinning game in a single call, and returns
        the outcome per game, -1 where the seat sat out, so that nothing
        moves in that game.
        """
        seat = self.seat
        self.seat = (seat + 1) % self.k
        on = self.alive[seat]
        o = np.asarray(rng.integers(0, 4, size=np.count_nonzero(on)))
        if o.size < on.size:  # the seat is out of some games and sits out there
            drawn, o = o, np.full(on.size, -1, dtype=o.dtype)
            o[on] = drawn
        s = o == SHTEL
        gain = self.pot >> _TAKE_SHIFT.take(o)  # the take; a paid Shtel is -1
        broke = s & (self.stacks[seat] == 0)
        if broke.any():  # the spinner cannot pay: out, pot unchanged
            s ^= broke
            self.alive[seat, broke] = False
            self.live -= broke
        gain -= s
        self.stacks[seat] += gain
        self.pot -= gain
        gi = np.flatnonzero(o == GANZ)
        if gi.size:  # ante after a Ganz: players on zero are out
            held = self.stacks.take(gi, axis=1)
            pays = held > 0  # a player who is out holds nothing
            held -= pays
            self.stacks[:, gi] = held
            self.alive[:, gi] = pays
            self.pot[gi] = self.live[gi] = pays.sum(axis=0)
        return o

    def keep(self, rows: np.ndarray) -> np.ndarray:
        """Drop the games where `rows` is False.  Returns the columns kept,
        for the caller to compact its own per-game arrays with `take`."""
        cols = np.flatnonzero(rows)
        self.pot = self.pot.take(cols)
        self.stacks = self.stacks.take(cols, axis=1)
        self.alive = self.alive.take(cols, axis=1)
        self.live = self.live.take(cols)
        self.games = self.games.take(cols)
        return cols


def spin_each_outcome(k: int, pot, stacks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plain games with k players at every point (pot[j], stacks[:, j]),
    each spun once by seat 0 under each forced outcome o, in code order,
    as one batch.  Returns (pot, stacks, alive) after the spin, of shapes
    (4, m), (4, k, m) and (4, k, m): stacks[o, i, j] is what player i
    holds."""
    m = np.size(pot)
    batch = SpinBatch(k, 4 * m, 0)
    batch.pot[:] = np.tile(pot, 4)
    batch.stacks[:] = np.tile(np.broadcast_to(stacks, (k, m)), 4)
    batch.step(ScriptedSource(np.repeat(OUTCOME_CODES, m)))
    return (batch.pot.reshape(4, m), batch.stacks.reshape(k, 4, m).swapaxes(0, 1),
            batch.alive.reshape(k, 4, m).swapaxes(0, 1))


@cache
def overdraft_steps(k: int, cap: int) -> np.ndarray:
    """Every overdraft spin with k players from pots 0..cap, read-only, as
    the cache shares it: steps[pot, o] = (pot after, spinner's gain, ante)
    under outcome code o.  Row 0 is not a dreidel state: an overdraft pot
    never empties, and from pot 0 a Nisht or Halb leaves it at 0 with no
    ante, where `apply_spin` antes.  Read rows 1..cap only."""
    # A seat holding one token can pay a Shtel or an ante, so no seat is
    # broke and the plain spin from one token each is the overdraft spin:
    # seat 1 keeps 1 - ante, the spinner 1 + gain - ante.
    pot, held, _ = spin_each_outcome(k, np.arange(cap + 1), 1)
    ante = 1 - held[:, 1]
    steps = np.stack([pot, held[:, 0] - 1 + ante, ante]).T
    steps.flags.writeable = False
    return steps


def fold_steps(n: int) -> np.ndarray:
    """Every two-player spin of the plain game with n tokens each, as the
    fold of the players' swap symmetry sees it: state code
    c = (pot - 1)(2n + 1) + y, with y the stack of the player on turn, for
    pots 1..2n and y in 0..2n, and steps[o, c] is the code after outcome
    o, seen from the other player, who is on turn next, or 2n(2n + 1),
    "game over", once either player is out.  Codes with pot + y > 2n are
    not dreidel states and are never reached from the start, pot 2 and
    y = n - 1.  Not cached: over many n the tables add up, and one is
    quick to make."""
    side = 2 * n + 1
    x, y = (v.ravel() for v in np.meshgrid(np.arange(1, 2 * n + 1), np.arange(side), indexing="ij"))
    pot, stacks, alive = spin_each_outcome(2, x, np.stack([y, 2 * n - x - y]))
    return np.where(alive.all(axis=1), (pot - 1) * side + stacks[:, 1], x.size)


@cache
def overdraft_step_rows(k: int, cap: int) -> tuple:
    """`overdraft_steps(k, cap)` as nested tuples of Python ints, made once
    per (k, cap) for the scalar loops that read one spin at a time."""
    return tuple(tuple(map(tuple, row)) for row in overdraft_steps(k, cap).tolist())


def play_game(config: GameConfig, seed_or_rng) -> Transcript:
    """Play one full game with uniform spins and record the transcript."""
    if config.overdraft:
        raise ValueError("play_game requires a non-overdraft config")
    if isinstance(seed_or_rng, int):
        rng = make_generator(seed_or_rng)
    else:
        rng = seed_or_rng
    state = new_game(config)
    transcript = Transcript(config=config)
    entries = transcript.entries
    while True:  # a new game has k >= 2 players alive
        if state.spin_index >= SPIN_CAP:
            raise SpinCapExceeded(f"game exceeded {SPIN_CAP} spins")
        outcome = SPIN_BY_CODE[int(rng.integers(0, 4))]
        spinner = state.turn
        state, events = apply_spin(state, outcome)
        entries.append(TranscriptEntry(state.spin_index - 1, spinner, outcome, state.pot, state.stacks, tuple(events)))
        if events and events[-1].kind in ("won", "no_survivor"):  # a spin that ends the game says so last
            break
    end = events[-1]
    transcript.terminal = f"won:{end.player}" if end.kind == "won" else "no_survivor"
    return transcript
