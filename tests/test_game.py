"""Rules-engine unit tests: exact semantics, no tolerances."""

import pytest
from hypothesis import given, settings, strategies as st

from dreidel_lab.game import (
    GameConfig,
    GameOverError,
    GameState,
    Spin,
    SpinCapExceeded,
    Transcript,
    ante,
    apply_spin,
    halb_split,
    new_game,
    overdraft_spins,
    play_game,
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
        assert s.check_conservation()

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


class TestOverdraftSpins:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_apply_spin(self, k):
        for pot in range(1, 12):
            before = state(k, 5, pot, (3,) * k, turn=1, overdraft=True)
            for outcome, (pot2, gain, ante_paid) in zip(Spin, overdraft_spins(pot, k)):
                after, _ = apply_spin(before, outcome)
                assert after.pot == pot2
                assert after.stacks == tuple(3 - ante_paid + gain * (p == 1) for p in range(k))


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

    def test_spin_cap(self):
        cfg = GameConfig(k=2, n=4, spin_cap=1)
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
    rng = make_generator(seed)
    prev_alive = state.alive
    while not state.terminated and state.spin_index < 5000:
        state, _ = apply_spin(state, Spin(int(rng.integers(0, 4))))
        assert state.check_conservation()
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
