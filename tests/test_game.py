"""Rules-engine unit tests: exact semantics, no tolerances."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dreidel_lab import game
from dreidel_lab.game import (
    GameConfig,
    GameOverError,
    GameState,
    Spin,
    SpinCapExceeded,
    StepEvent,
    Transcript,
    TranscriptEntry,
    ante,
    apply_spin,
    halb_split,
    new_custom,
    new_game,
    overdraft_steps,
    play_game,
    spin_each_outcome,
)
from dreidel_lab.rng import ScriptedSource, make_generator


def state(k, n, pot, stacks, turn=0, alive=None, overdraft=False):
    cfg = GameConfig(k=k, n=n, overdraft=overdraft)
    return GameState(
        config=cfg,
        pot=pot,
        stacks=tuple(stacks),
        turn=turn,
        alive=tuple(alive) if alive is not None else (True,) * k,
    )


class TestNewGame:
    def test_two_players(self):
        s = new_game(GameConfig(k=2, n=5))
        assert (s.pot, s.stacks, s.turn) == (2, (4, 4), 0)

    def test_minimal_stakes(self):
        s = new_game(GameConfig(k=4, n=1))
        assert (s.pot, s.stacks) == (4, (0, 0, 0, 0))
        assert s.turn == 0 and all(s.alive)

    def test_conservation(self):
        s = new_game(GameConfig(k=3, n=10))
        assert s.pot + sum(s.stacks) == 30
        # a metadreidel start keeps its own total, not k * n
        s = new_custom([5, 3], GameConfig(k=2, n=3))
        for o in (Spin.SHTEL, Spin.HALB, Spin.SHTEL, Spin.GANZ, Spin.NISHT):
            s, _ = apply_spin(s, o)
            assert s.pot + sum(s.stacks) == 8

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GameConfig(k=1, n=5)
        with pytest.raises(ValueError):
            GameConfig(k=2, n=0)


class TestHalbSplit:
    def test_odd(self):
        assert halb_split(5) == (2, 3)

    def test_one(self):
        assert halb_split(1) == (0, 1)

    def test_even(self):
        assert halb_split(2) == (1, 1)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_partition(self, pot):
        taken, remaining = halb_split(pot)
        assert taken + remaining == pot
        assert taken == pot // 2
        assert remaining >= taken


class TestApplySpin:
    def test_ganz_folds_ante(self):
        s = state(2, 5, pot=3, stacks=(4, 3))
        nxt, events = apply_spin(s, Spin.GANZ)
        assert (nxt.pot, nxt.stacks, nxt.turn) == (2, (6, 2), 1)
        assert any(e.kind == "ante" for e in events)

    def test_shtel_elimination(self):
        s = state(2, 4, pot=2, stacks=(0, 5))
        nxt, events = apply_spin(s, Spin.SHTEL)
        assert nxt.pot == 2  # pot unchanged on a failed Shtel
        assert nxt.alive == (False, True)
        kinds = [e.kind for e in events]
        assert "eliminated" in kinds and "won" in kinds
        assert nxt.winner == 1

    def test_halb_of_one(self):
        s = state(2, 4, pot=1, stacks=(3, 3))
        nxt, _ = apply_spin(s, Spin.HALB)
        assert nxt.pot == 1 and nxt.stacks == (3, 3)

    def test_nisht_moves_nothing(self):
        s = state(3, 4, pot=5, stacks=(2, 3, 1), turn=1)
        nxt, events = apply_spin(s, Spin.NISHT)
        assert (nxt.pot, nxt.stacks) == (5, (2, 3, 1))
        assert nxt.turn == 2 and events == []

    def test_turn_skips_dead(self):
        s = state(3, 4, pot=4, stacks=(3, 0, 2), turn=0, alive=(True, False, True))
        nxt, _ = apply_spin(s, Spin.NISHT)
        assert nxt.turn == 2

    def test_terminated_game_raises(self):
        s = state(2, 4, pot=2, stacks=(6, 0), alive=(True, False))
        with pytest.raises(GameOverError):
            apply_spin(s, Spin.NISHT)

    def test_overdraft_shtel_goes_negative(self):
        s = state(2, 4, pot=2, stacks=(0, 6), overdraft=True)
        nxt, events = apply_spin(s, Spin.SHTEL)
        assert nxt.stacks == (-1, 6) and nxt.pot == 3
        assert events == []


class TestAnte:
    def test_simultaneous_elimination(self):
        s = state(3, 3, pot=0, stacks=(2, 0, 5))
        nxt, events = ante(s)
        assert nxt.pot == 2 and nxt.stacks == (1, 0, 4)
        assert nxt.alive == (True, False, True)
        elim = [e.player for e in events if e.kind == "eliminated"]
        assert elim == [1]

    def test_overdraft_always_pays(self):
        s = state(2, 2, pot=0, stacks=(0, -3), overdraft=True)
        nxt, _ = ante(s)
        assert nxt.pot == 2 and nxt.stacks == (-1, -4)

    def test_all_eliminated_no_survivor(self):
        s = state(2, 1, pot=0, stacks=(0, 0))
        nxt, events = ante(s)
        assert nxt.alive == (False, False) and nxt.pot == 0
        assert sum(1 for e in events if e.kind == "eliminated") == 2

    def test_requires_empty_pot(self):
        s = state(2, 4, pot=1, stacks=(3, 3))
        with pytest.raises(ValueError):
            ante(s)


class TestOverdraftSteps:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_apply_spin(self, k):
        steps = overdraft_steps(k, 29)
        assert steps.shape == (30, 4, 3)
        for pot in range(1, 30):
            before = state(k, 5, pot, (3,) * k, turn=1, overdraft=True)
            for outcome, (pot2, gain, ante_paid) in zip(Spin, steps[pot].tolist()):
                after, _ = apply_spin(before, outcome)
                assert after.pot == pot2
                assert after.stacks == tuple(3 - ante_paid + gain * (p == 1) for p in range(k))

    def test_is_read_only(self):
        # the cache hands every caller the same array
        steps = overdraft_steps(3, 8)
        assert overdraft_steps(3, 8) is steps
        with pytest.raises(ValueError, match="read-only"):
            steps[1, 0, 0] = 7


class TestSpinEachOutcome:
    @pytest.mark.parametrize("overdraft", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_apply_spin(self, k, overdraft):
        # every (pot, stacks) with pot 1..4 and stacks 0..2, broke seats included
        grid = np.stack(np.meshgrid(np.arange(1, 5), *[np.arange(3)] * k, indexing="ij")).reshape(k + 1, -1)
        pot, held, alive = spin_each_outcome(k, grid[0], grid[1:], overdraft)
        m = grid.shape[1]
        assert pot.shape == (4, m) and held.shape == alive.shape == (4, k, m)
        for j in range(m):
            before = state(k, 3, int(grid[0, j]), grid[1:, j].tolist(), overdraft=overdraft)
            for o in Spin:
                after, _ = apply_spin(before, o)
                live = np.array(after.alive)
                assert pot[o, j] == after.pot
                assert alive[o, :, j].tolist() == list(after.alive)
                assert held[o, live, j].tolist() == np.array(after.stacks)[live].tolist()
        assert alive.all() == overdraft  # seats go out on this grid, but only without overdraft


class TestScriptedSource:
    def test_draws_in_order(self):
        src = ScriptedSource([0, 1, 2, 3, 1])
        assert src.integers(0, 4) == 0
        assert src.integers(0, 4, size=3).tolist() == [1, 2, 3]
        assert src.remaining == 1

    def test_sized_draw_past_the_end(self):
        src = ScriptedSource([0, 1, 2])
        with pytest.raises(IndexError, match="exhausted"):
            src.integers(0, 4, size=4)
        assert src.integers(0, 4, size=3).tolist() == [0, 1, 2]
        with pytest.raises(IndexError, match="exhausted"):
            src.integers(0, 4, size=1)
        with pytest.raises(IndexError, match="exhausted"):
            src.integers(0, 4)

    @pytest.mark.parametrize("codes", [[0, 4], [-1]])
    def test_rejects_codes_that_are_not_spins(self, codes):
        with pytest.raises(ValueError, match="only yields spin codes"):
            ScriptedSource(codes)


class TestPlayGame:
    def test_n1_terminates_fast(self):
        tr = play_game(GameConfig(k=2, n=1), 0)
        assert tr.duration >= 1
        assert tr.terminal.startswith("won:") or tr.terminal == "no_survivor"

    def test_deterministic(self):
        a = play_game(GameConfig(k=2, n=4), 123)
        b = play_game(GameConfig(k=2, n=4), 123)
        assert a.to_json() == b.to_json()

    def test_overdraft_rejected(self):
        with pytest.raises(ValueError):
            play_game(GameConfig(k=2, n=4, overdraft=True), 0)

    def test_spin_cap(self, monkeypatch):
        monkeypatch.setattr(game, "SPIN_CAP", 1)
        cfg = GameConfig(k=2, n=4)
        # all-Nisht script never terminates, so the cap must fire
        with pytest.raises(SpinCapExceeded):
            play_game(cfg, ScriptedSource([0] * 10))

    def test_scripted_forced_win(self):
        # P1 spins G with pot 2, opponent at n-1 antes fine; then P2 broke
        cfg = GameConfig(k=2, n=1)
        # stacks (0,0): P1 Ganz -> takes 2, ante: P1 pays, P2 eliminated
        tr = play_game(cfg, ScriptedSource([1]))
        assert tr.terminal == "won:0" and tr.duration == 1

    def test_json_roundtrip_and_replay(self):
        tr = play_game(GameConfig(k=3, n=3), 7)
        back = Transcript.from_json(tr.to_json())
        assert back.to_json() == tr.to_json()
        assert back.replay_matches()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_conservation_and_monotone_alive(k, n, seed):
    """Token conservation and no-resurrection along random games."""
    cfg = GameConfig(k=k, n=n)
    state = new_game(cfg)
    total = state.pot + sum(state.stacks)
    rng = make_generator(seed)
    prev_alive = state.alive
    while not state.terminated and state.spin_index < 5000:
        state, _ = apply_spin(state, Spin(int(rng.integers(0, 4))))
        assert state.pot + sum(state.stacks) == total
        assert all(b or not a for a, b in zip(state.alive, prev_alive))
        assert all(s >= 0 for s in state.stacks)
        assert state.pot >= 1  # pot emptiness never survives a spin
        prev_alive = state.alive


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_transcript_replay_property(k, n, seed):
    tr = play_game(GameConfig(k=k, n=n), seed)
    assert tr.replay_matches()


# ---------------------------------------------------------------------------
# reference engine: the rules as first written, one GameState per step


def reference_next_alive(alive: tuple[bool, ...], start: int) -> int:
    k = len(alive)
    for step in range(1, k + 1):
        cand = (start + step) % k
        if alive[cand]:
            return cand
    return start


def reference_ante(state: GameState) -> tuple[GameState, list[StepEvent]]:
    """Everyone donates one token to the empty pot.

    In non-overdraft mode, players sitting on zero tokens are eliminated
    simultaneously and donate nothing.
    """
    if state.pot != 0:
        raise ValueError("ante requires an empty pot")
    events: list[StepEvent] = []
    stacks = list(state.stacks)
    alive = list(state.alive)
    payers = []
    for p in range(state.config.k):
        if not alive[p]:
            continue
        if state.config.overdraft or stacks[p] >= 1:
            stacks[p] -= 1
            payers.append(p)
        else:
            alive[p] = False
            events.append(StepEvent(kind="eliminated", player=p))
    pot = len(payers)
    events.insert(0, StepEvent(kind="ante", payers=tuple(payers)))
    new_state = GameState(
        config=state.config,
        pot=pot,
        stacks=tuple(stacks),
        turn=state.turn,
        alive=tuple(alive),
        spin_index=state.spin_index,
    )
    return new_state, events


def reference_apply_spin(state: GameState, outcome: Spin | int) -> tuple[GameState, list[StepEvent]]:
    """Resolve one spin by the player on turn.

    Ganz empties the pot and the ante fires within the same spin, so the
    pot is never left empty. A Shtel by a broke player (non-overdraft)
    eliminates the spinner and leaves the pot unchanged.
    """
    if state.terminated:
        raise GameOverError("game already terminated")
    outcome = Spin(outcome)
    cfg = state.config
    spinner = state.turn
    pot = state.pot
    stacks = list(state.stacks)
    alive = list(state.alive)
    events: list[StepEvent] = []

    if outcome is Spin.NISHT:
        pass
    elif outcome is Spin.GANZ:
        stacks[spinner] += pot
        pot = 0
    elif outcome is Spin.HALB:
        taken, remaining = halb_split(pot)
        stacks[spinner] += taken
        pot = remaining
    else:  # SHTEL
        if cfg.overdraft or stacks[spinner] >= 1:
            stacks[spinner] -= 1
            pot += 1
        else:
            alive[spinner] = False
            events.append(StepEvent(kind="eliminated", player=spinner))

    mid = GameState(
        config=cfg,
        pot=pot,
        stacks=tuple(stacks),
        turn=spinner,
        alive=tuple(alive),
        spin_index=state.spin_index,
    )
    if pot == 0:
        mid, ante_events = reference_ante(mid)
        events.extend(ante_events)

    alive = list(mid.alive)
    n_alive = sum(alive)
    if n_alive == 1:
        winner = alive.index(True)
        events.append(StepEvent(kind="won", player=winner))
        turn = winner
    elif n_alive == 0:
        events.append(StepEvent(kind="no_survivor"))
        turn = spinner
    else:
        turn = reference_next_alive(tuple(alive), spinner)

    final = GameState(
        config=cfg,
        pot=mid.pot,
        stacks=mid.stacks,
        turn=turn,
        alive=mid.alive,
        spin_index=state.spin_index + 1,
    )
    return final, events


def reference_play_game(config: GameConfig, seed: int) -> Transcript:
    rng = make_generator(seed)
    state = new_game(config)
    transcript = Transcript(config=config)
    while not state.terminated:
        outcome = Spin(int(rng.integers(0, 4)))
        spinner = state.turn
        state, events = reference_apply_spin(state, outcome)
        transcript.entries.append(
            TranscriptEntry(state.spin_index - 1, spinner, outcome, state.pot, state.stacks, tuple(events))
        )
    transcript.terminal = f"won:{state.winner}" if state.num_alive == 1 else "no_survivor"
    return transcript


def result_or_error(step, *args):
    try:
        return step(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def any_state(draw):
    """Any (state, outcome) the engine can be handed, legal or not: dead
    seats (the spinner's too), negative stacks and pots, finished games,
    and codes outside 0..3."""
    k = draw(st.integers(min_value=2, max_value=5))
    config = GameConfig(k=k, n=draw(st.integers(min_value=1, max_value=6)), overdraft=draw(st.booleans()))
    state = GameState(
        config,
        draw(st.integers(min_value=-3, max_value=15)),
        tuple(draw(st.lists(st.integers(min_value=-3, max_value=12), min_size=k, max_size=k))),
        draw(st.integers(min_value=0, max_value=k - 1)),
        tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
        draw(st.integers(min_value=0, max_value=50)),
    )
    return state, draw(st.sampled_from([0, 1, 2, 3, 4, -1, np.int64(2), *Spin]))


@settings(max_examples=600, deadline=None)
@given(case=any_state())
@example(case=(GameState(GameConfig(3, 4), 3, (0, 5, 5), 0, (False, True, True), 9), Spin.SHTEL))  # a dead spinner
def test_apply_spin_matches_reference(case):
    """The same (state, events), or the same exception type and message."""
    state, outcome = case
    assert result_or_error(apply_spin, state, outcome) == result_or_error(reference_apply_spin, state, outcome)
    emptied = replace(state, pot=0)
    assert result_or_error(ante, emptied) == result_or_error(reference_ante, emptied)
    assert result_or_error(ante, state) == result_or_error(reference_ante, state)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_play_game_matches_reference(k):
    for seed in range(200):
        config = GameConfig(k=k, n=1 + seed % 5)
        assert play_game(config, seed).to_json() == reference_play_game(config, seed).to_json()
