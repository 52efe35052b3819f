"""Rules-engine unit tests: exact semantics, no tolerances."""

import hashlib

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


# each record: a maker of one value, and another value for every field
RECORDS = {
    "GameState": (
        lambda: GameState(GameConfig(3, 4), 5, (1, 2, 3), 1, (True, False, True), 7),
        dict(config=GameConfig(3, 4, overdraft=True), pot=6, stacks=(1, 2, 4), turn=2, alive=(True,) * 3,
             spin_index=8),
        "GameState(config=GameConfig(k=3, n=4, overdraft=False), pot=5, stacks=(1, 2, 3), turn=1, "
        "alive=(True, False, True), spin_index=7)",
    ),
    "StepEvent": (
        lambda: StepEvent("ante", None, (0, 2)),
        dict(kind="eliminated", player=2, payers=(0,)),
        "StepEvent(kind='ante', player=None, payers=(0, 2))",
    ),
    "TranscriptEntry": (
        lambda: TranscriptEntry(7, 1, Spin.HALB, 3, (1, 2, 3), (StepEvent("won", 1),)),
        dict(spin_index=8, player=2, outcome=Spin.GANZ, pot=4, stacks=(0, 2, 3), events=()),
        "TranscriptEntry(spin_index=7, player=1, outcome=<Spin.HALB: 2>, pot=3, stacks=(1, 2, 3), "
        "events=(StepEvent(kind='won', player=1, payers=()),))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestValueTypes:
    def test_equal_and_hashed_by_value(self, name):
        make, _, _ = RECORDS[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)

    def test_unequal_when_one_field_differs(self, name):
        make, other, _ = RECORDS[name]
        a = make()
        assert set(other) == set(a._fields)
        for field, value in other.items():
            b = a._replace(**{field: value})
            assert getattr(b, field) == value
            assert all(getattr(b, f) == getattr(a, f) for f in a._fields if f != field)
            assert b != a
        assert a == make()

    def test_immutable(self, name):
        make, _, _ = RECORDS[name]
        a = make()
        for field in a._fields:
            with pytest.raises(AttributeError):
                setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            a.extra = 0
        assert a == make()

    def test_repr(self, name):
        make, _, text = RECORDS[name]
        assert repr(make()) == text


def halb(pot):
    """(the spinner's gain, the pot left) when a Halb is spun on `pot`."""
    after, _ = apply_spin(state(2, 4, pot, (3, 3)), Spin.HALB)
    return after.stacks[0] - 3, after.pot


class TestHalbSplit:
    def test_odd(self):
        assert halb(5) == (2, 3)

    def test_one(self):
        assert halb(1) == (0, 1)

    def test_even(self):
        assert halb(2) == (1, 1)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_partition(self, pot):
        taken, remaining = halb(pot)
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
        # the plain spin at every (pot, stacks) with pot 1..4 and stacks
        # 0..2, broke seats included, against plain `apply_spin`; and with
        # stacks 1..3, where no seat is broke, against overdraft
        # `apply_spin`: the identity `overdraft_steps` rests on
        low = int(overdraft)
        grid = np.stack(np.meshgrid(np.arange(1, 5), *[np.arange(low, low + 3)] * k, indexing="ij")).reshape(k + 1, -1)
        pot, stacks, alive = spin_each_outcome(k, grid[0], grid[1:])
        m = grid.shape[1]
        assert pot.shape == (4, m) and stacks.shape == alive.shape == (4, k, m)
        for j in range(m):
            before = state(k, 3, int(grid[0, j]), grid[1:, j].tolist(), overdraft=overdraft)
            for o in Spin:
                after, _ = apply_spin(before, o)
                assert pot[o, j] == after.pot
                assert alive[o, :, j].tolist() == list(after.alive)
                assert stacks[o, :, j].tolist() == list(after.stacks)
        assert alive.all() == overdraft  # seats go out from stacks 0..2, none from 1..3


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

    def test_array_codes_are_copied(self):
        codes = np.array([3, 2, 1, 0])
        src = ScriptedSource(codes)
        codes[:] = 0  # the source holds its own copy
        assert src.integers(0, 4, size=4).tolist() == [3, 2, 1, 0]

    @pytest.mark.parametrize("codes", [[0, 4], [-1], np.array([2, 4])])
    def test_rejects_codes_that_are_not_spins(self, codes):
        with pytest.raises(ValueError, match="only yields spin codes"):
            ScriptedSource(codes)


# SHA-256 of repr(play_game(GameConfig(k, n=4), seed)) for seeds 0..9: the
# config, every entry (spinner, outcome, pot, stacks, events) and the
# terminal, which no CLI command prints.  Made from the same 30 games whose
# JSON transcripts the engine on frozen dataclass records had pinned.
TRANSCRIPT_SHA256 = {
    2: (
        "f6cc6bd1d326a0a3783f4d47c9005d6278602c2350ea1afc1017ca465fd2bcc3",
        "b46c55bbf4bcc93d633ce4923949bde16eed8346eb09614ccf2ef7d6437a94ed",
        "64e5dadb66fd3053634d893d93569a2a4ea64c24f411ff135c0f20db5b157227",
        "9caa31c156004b75f3a639f79c7d46493588801d553663243f3d266a737789f9",
        "e27ab08ff2b36c87650f91a98a71683a3d0d7fa6a60b00f008472e071675a81d",
        "ea1dbe9b32efaccd823311f7e128f8ad4036b5a0ea978c88efd8575928f692ee",
        "d441d8cd6884aa85ccf24432e73a4091d2a8194ae8403871de3975230b16d5df",
        "f0f31bd2092f6d18acdd1e3e39a1834b7a86236106fd517c29e5c8d7872a683d",
        "c097c81d75ad0a23f5c517b406c0dfd81137481e6e638f65fc36fb2c1d5bd62a",
        "0dad7b868fbbedc55ffff78e012828ce1e86935750d77250135f90c0cc831501",
    ),
    3: (
        "42c46f9ce9bc5d79bfb66d514bf0e8138e3f5a7e8c80dae2a32fb3603dc03d89",
        "6553bdabe43c3a4385e48df7b846e29ce42a384c3e78d8acc79e0a414f65ab6b",
        "b08e1ad00df9cc9ca48cac34bdf3d22e03991f59b7eabcdbca35380452886036",
        "b0ace2b1b5db40199605b3b6376ccf31056dcec21293fee0a1789bbae4178b74",
        "3ac4c6d59d7543bc61f90d806576537eae1b194489301e0522048ed2c9fb8299",
        "3f2d1d31e84b31cd9b9db7d712c0688bea68bc41f3e5f1da686e0bc3a6d25b3c",
        "802440c30a955a1a87a92686d2c340337251b535e3934985375815bbd6a57010",
        "69d30256cfcec1ceedc94da14663f9b2d7650f18a04f66b14e94235278c42f0d",
        "94409657b312f167a9f3804292796f735f1d9c10d86dd4a721d1d3253b1453b0",
        "2c20b454958f3716ab63feecf8d3f54a349dbbc6df9a0e96443570b15da5d7bc",
    ),
    4: (
        "ac6e4a1559c8db2e6f31a4c3481b30a864208c8539515cb65c32f650abba42e2",
        "7f84c1af5205d0a4ee9759892e0865b969f339c7be018201f80745ff2ec8030a",
        "46ee58c720ed8cfd13af4dba9e9b6b8214b4d221f1ee38348cf14fb0b88fa656",
        "e296d9efc22677b9f605564bf1471541895e7ec3d4a9a9b1e14f44c9eb52dae5",
        "af3633f3a513eb6c11a6e7edc025745c456628b6911348af18cb42da3519547d",
        "b2a7e453e001a06112e66eb912347c5017d2b81006a456982d9bdb9bdce5fa70",
        "6204f9ee186056f02839c04757c05c72c1bfce199469927d6065405d435cd1ef",
        "2b141d13ea6c53de82935cb34b6d7f6be6acfa0f330950d12d2d1fb12b132a56",
        "05ffc1013f642e8adfb3bc06f3765f06bbbc8f4604a87bc946ab33aee39bb2f9",
        "014208fd089f18c25ff91123993518d39b0ed1fa392083f0fe37157c1d6e2c94",
    ),
}


class TestPlayGame:
    def test_n1_terminates_fast(self):
        tr = play_game(GameConfig(k=2, n=1), 0)
        assert tr.duration >= 1
        assert tr.terminal.startswith("won:") or tr.terminal == "no_survivor"

    def test_deterministic(self):
        a = play_game(GameConfig(k=2, n=4), 123)
        b = play_game(GameConfig(k=2, n=4), 123)
        assert a is not b and a == b

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_transcript_bytes_pinned(self, k):
        for seed, digest in enumerate(TRANSCRIPT_SHA256[k]):
            assert hashlib.sha256(repr(play_game(GameConfig(k=k, n=4), seed)).encode()).hexdigest() == digest

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_draws_one_code_per_spin(self, k):
        # the caller's generator ends where `duration` scalar draws leave a twin
        for seed in range(10):
            rng, twin = make_generator(seed), make_generator(seed)
            duration = play_game(GameConfig(k=k, n=3), rng).duration
            for _ in range(duration):
                twin.integers(0, 4)
            assert rng.bit_generator.state == twin.bit_generator.state

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
    elif outcome is Spin.HALB:  # the smaller half to the spinner
        if pot < 0:
            raise ValueError("pot must be nonnegative")
        taken = pot // 2
        stacks[spinner] += taken
        pot -= taken
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
    emptied = state._replace(pot=0)
    assert result_or_error(ante, emptied) == result_or_error(reference_ante, emptied)
    assert result_or_error(ante, state) == result_or_error(reference_ante, state)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_play_game_matches_reference(k):
    for seed in range(200):
        config = GameConfig(k=k, n=1 + seed % 5)
        assert play_game(config, seed) == reference_play_game(config, seed)
