"""Four-phase construction and exact low-epoch counting."""

import itertools
import math

import numpy as np
import pytest

from dreidel_lab import construction as cx
from dreidel_lab.game import GameConfig, GameState, Spin, apply_spin, new_custom, new_game
from dreidel_lab.rng import GANZ, HALB, NISHT, SHTEL, make_generator


def overdraft_state(k, pot, stacks, turn=0):
    n = max(1, (pot + sum(abs(s) for s in stacks) + k - 1) // k)
    cfg = GameConfig(k=k, n=n, overdraft=True)
    return GameState(config=cfg, pot=pot, stacks=tuple(stacks), turn=turn,
                     alive=(True,) * k)


class TestRestorative:
    def test_immediate_endpoint(self):
        state = overdraft_state(2, 2, (5, 5))
        plan = cx.restorative_sequence(state)
        assert plan.spins == 0 and plan.end_state == state

    def test_pot_one_starts_with_shtel(self):
        state = overdraft_state(2, 1, (5, 5))
        plan = cx.restorative_sequence(state)
        assert plan.outcomes[0] == SHTEL

    def test_big_pot_halved_down(self):
        state = overdraft_state(3, 97, (4, 4, 4))
        plan = cx.restorative_sequence(state)
        end = plan.end_state
        assert end.pot == 3 and end.turn == 0
        assert max(end.stacks) - min(end.stacks) <= 1

    def test_requires_overdraft(self):
        cfg = GameConfig(k=2, n=5)
        state = GameState(config=cfg, pot=2, stacks=(4, 4), turn=0, alive=(True, True))
        with pytest.raises(cx.ConstructionError):
            cx.restorative_sequence(state)

    def test_random_configs_valid_and_short(self):
        rng = make_generator(2024)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            pot = int(rng.integers(1, 101))
            stacks = [int(v) for v in rng.integers(-50, 51, size=k)]
            state = overdraft_state(k, pot, stacks, turn=int(rng.integers(0, k)))
            plan = cx.restorative_sequence(state)
            end = plan.end_state
            assert end.pot == k and end.turn == 0
            assert max(end.stacks) - min(end.stacks) <= 1
            # O(n) length: n here is the per-player token scale
            n_eff = max(1, (pot + sum(abs(s) for s in stacks) + k - 1) // k)
            assert plan.spins <= 6 * k * n_eff


class TestConstructLongGame:
    def test_spin_budget(self):
        g = cx.construct_long_game(2, 20, 80, rng=make_generator(0))
        assert g.total_spins == 160
        assert sum(g.plan.phase_spins) == 160

    def test_epoch_floor(self):
        g = cx.construct_long_game(2, 20, 80, rng=make_generator(1))
        assert g.epochs >= g.plan.t_s == math.floor(g.plan.alpha * 80)

    def test_phase2_rounds_are_epochs(self):
        # with enough spins, the Ganz rounds alone give T_s epochs; the
        # constructed game must report at least that many
        g = cx.construct_long_game(3, 40, 120, rng=make_generator(2))
        assert g.epochs >= g.plan.t_s

    def test_infeasible_small_s(self):
        with pytest.raises(cx.InfeasibleError):
            cx.construct_long_game(2, 20, 3, rng=make_generator(0))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_start_is_a_restorative_endpoint(self, k):
        # why the construction has no restorative phase of its own
        for n in range(1, 60):
            start = new_game(GameConfig(k=k, n=n, overdraft=True))
            plan = cx.restorative_sequence(start)
            assert (plan.spins, plan.m, plan.end_state) == (0, n - 1, start)

    def test_infeasible_small_n(self):
        with pytest.raises(cx.InfeasibleError):
            cx.construct_long_game(2, 4, 100, rng=make_generator(0))

    def test_last_player_goes_home_at_the_end(self):
        g = cx.construct_long_game(2, 20, 60, rng=make_generator(5))
        assert g.final_w < 0 or g.final_w > 2 * 19
        assert g.outcomes[-1] == GANZ

    def test_validator_rejects_truncated_games(self):
        g = cx.construct_long_game(2, 20, 60, rng=make_generator(6))
        start = new_custom([20] * 2, GameConfig(k=2, n=20, overdraft=True))
        with pytest.raises(cx.ConstructionError):
            cx.validate_constructed(start, 20, g.outcomes[:-2], g.plan.t_s)

    def test_validator_rejects_going_home_before_the_last_epoch(self):
        g = cx.construct_long_game(2, 20, 60, rng=make_generator(6))
        start = new_custom([20] * 2, GameConfig(k=2, n=20, overdraft=True))
        assert cx.validate_constructed(start, 20, g.outcomes, g.plan.t_s) == (g.epochs, g.final_w)
        # the first copy's last epoch sends the last player home, 120 spins in
        with pytest.raises(cx.ConstructionError, match="went home early, at spin 120$"):
            cx.validate_constructed(start, 20, g.outcomes * 2, g.plan.t_s)

    def test_validator_rejects_too_few_epochs(self):
        g = cx.construct_long_game(2, 20, 60, rng=make_generator(3))
        start = new_custom([20] * 2, GameConfig(k=2, n=20, overdraft=True))
        with pytest.raises(cx.ConstructionError, match="^only 14 epochs, need at least 15$"):
            cx.validate_constructed(start, 20, g.outcomes, g.epochs + 1)

    def test_validator_rejects_a_ruined_last_player(self):
        # one epoch whose end leaves the last player below the window, at -1
        start = new_game(GameConfig(k=2, n=3, overdraft=True))
        outcomes = [NISHT, SHTEL, GANZ, SHTEL, GANZ, GANZ]
        with pytest.raises(cx.ConstructionError, match="last player did not win"):
            cx.validate_constructed(start, 3, outcomes, 1)


def brute_force_low_epoch(k, s, t_s, n):
    """Oracle: replay every outcome sequence through the rules engine."""
    ks = k * s
    upper = k * (n - 1)
    start = new_custom([n] * k, GameConfig(k=k, n=n, overdraft=True))
    by_epochs = {}
    for seq in itertools.product(range(4), repeat=ks):
        state = start
        epochs = 0
        survived = True
        went_home = False
        for t, o in enumerate(seq):
            state, _ = apply_spin(state, Spin(o))
            if t % k == k - 1 and o == GANZ:
                w = state.stacks[k - 1]
                out = w < 0 or w > upper
                if t == ks - 1:
                    epochs += 1
                    went_home = out
                elif out:
                    survived = False
                    break
                else:
                    epochs += 1
        if survived and went_home:
            by_epochs[epochs] = by_epochs.get(epochs, 0) + 1
    return by_epochs


def vectorized_low_epoch(k, s, n):
    """Oracle: enumerate all 4^(ks) sequences in vectorized chunks over
    their base-4 encoding, tracking only the pot and the last player's
    stack (the counter's former brute force; fast enough for ks <= 8)."""
    ks = k * s
    upper = k * (n - 1)
    total_seqs = 4**ks
    chunk = 1 << 20
    by_epochs = {}
    for lo in range(0, total_seqs, chunk):
        size = min(chunk, total_seqs - lo)
        idx = np.arange(lo, lo + size, dtype=np.int64)
        pot = np.full(size, k, dtype=np.int64)
        w = np.full(size, n - 1, dtype=np.int64)
        epochs = np.zeros(size, dtype=np.int64)
        alive = np.ones(size, dtype=bool)
        went_home = np.zeros(size, dtype=bool)
        for t in range(ks):
            o = (idx >> (2 * t)) & 3
            last_player = t % k == k - 1
            gm = o == GANZ
            hm = o == HALB
            sm = o == SHTEL
            if last_player:
                w[gm] += pot[gm]
                w[hm] += pot[hm] // 2
                w[sm] -= 1
            w[gm] -= 1  # everyone antes after a Ganz
            pot[gm] = k
            pot[hm] -= pot[hm] // 2
            pot[sm] += 1
            if last_player:
                ends = gm & alive
                out = ends & ((w < 0) | (w > upper))
                if t == ks - 1:
                    went_home = out
                    epochs[ends] += 1
                else:
                    alive &= ~out  # game over before spin ks
                    epochs[ends & alive] += 1
        valid = went_home & alive
        counts = np.bincount(epochs[valid]) if valid.any() else np.array([], dtype=np.int64)
        for e, c in enumerate(counts):
            if c:
                by_epochs[e] = by_epochs.get(e, 0) + int(c)
    return by_epochs


SMALL_KS = [(k, s) for k in range(2, 7) for s in range(1, 4) if k * s <= 6]


class TestLowEpochCounting:
    def test_bound_formula(self):
        assert cx.low_epoch_bound(2, 5, 2) == 4**5 * (3**5 + 5 * 3**4)

    @pytest.mark.parametrize("k,s,n", [(k, s, n) for k, s in SMALL_KS for n in (2, 3, 4)])
    def test_matches_engine_brute_force(self, k, s, n):
        t_s = 2
        got = cx.count_low_epoch_games(k, s, t_s, n)
        expect = brute_force_low_epoch(k, s, t_s, n)
        assert got.by_epochs == expect
        assert got.total_games == sum(expect.values())
        assert got.low_epoch_games == sum(c for e, c in expect.items() if e < t_s)

    @pytest.mark.parametrize("k,s,n", [(k, s, n) for k, s in ((2, 4), (4, 2)) for n in (2, 3, 4)])
    def test_matches_vectorized_enumeration(self, k, s, n):
        expect = vectorized_low_epoch(k, s, n)
        assert expect
        assert cx.count_low_epoch_games(k, s, 2, n).by_epochs == expect

    @pytest.mark.parametrize("k,s,n", [(2, 5, 3), (3, 3, 2), (4, 2, 4)])
    def test_by_epochs_does_not_depend_on_t_s(self, k, s, n):
        results = [cx.count_low_epoch_games(k, s, t_s, n) for t_s in range(s + 2)]
        for res in results:
            assert res.by_epochs == results[0].by_epochs
            assert res.total_games == results[0].total_games
            assert res.low_epoch_games == sum(c for e, c in res.by_epochs.items() if e < res.t_s)

    def test_bound_holds(self):
        res = cx.count_low_epoch_games(2, 4, 2, 2)
        assert res.low_epoch_games <= res.bound

    def test_t_s_zero(self):
        res = cx.count_low_epoch_games(2, 3, 0, 2)
        assert res.low_epoch_games == 0

    @pytest.mark.parametrize("args,name", [
        ((1, 3, 2, 2), "k"), ((2, 0, 2, 2), "s"), ((2, 3, -1, 2), "t_s"), ((2, 3, 2, 0), "n"),
    ])
    def test_bad_inputs(self, args, name):
        with pytest.raises(ValueError, match=rf"\b{name}="):
            cx.count_low_epoch_games(*args)
