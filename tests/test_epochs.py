"""Epoch machinery: boundaries, payoffs, landslides, stopping records."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreidel_lab import game
from dreidel_lab.epochs import (
    EpochBoundaryError,
    at_epoch_boundary,
    is_landslide,
    lost_players,
    run_epoch,
    run_metaslowdel,
    window_side,
)
from dreidel_lab.game import GameConfig, GameError, Spin, new_custom
from dreidel_lab.rng import GANZ, NISHT, SHTEL, ScriptedSource, make_generator


def overdraft_start(k, n):
    return new_custom([n] * k, GameConfig(k=k, n=n, overdraft=True))


class TestNewCustom:
    def test_two_player(self):
        s = new_custom((3, 7), GameConfig(k=2, n=5))
        assert (s.pot, s.stacks, s.turn) == (2, (2, 6), 0)

    def test_three_minimal(self):
        s = new_custom((1, 1, 1), GameConfig(k=3, n=1))
        assert (s.pot, s.stacks) == (3, (0, 0, 0))

    def test_infeasible_ante(self):
        with pytest.raises(ValueError):
            new_custom((0, 5), GameConfig(k=2, n=3))

    def test_overdraft_allows_zero(self):
        s = new_custom((0, 5), GameConfig(k=2, n=3, overdraft=True))
        assert s.stacks == (-1, 4)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            new_custom((1, 1, 1), GameConfig(k=2, n=2))


class TestRunEpoch:
    def test_landslide_epoch(self):
        record, end = run_epoch(overdraft_start(2, 4), ScriptedSource([SHTEL, GANZ]))
        assert record.spins_in_epoch == 2
        assert record.payoff == (-2, 2)  # P2 payoff 2k-2 = 2
        assert at_epoch_boundary(end)
        assert is_landslide(record)

    def test_two_round_epoch(self):
        record, end = run_epoch(
            overdraft_start(2, 4), ScriptedSource([NISHT, NISHT, NISHT, GANZ])
        )
        assert record.spins_in_epoch == 4
        assert sum(record.payoff) == 0
        assert not is_landslide(record)
        assert at_epoch_boundary(end)

    def test_mid_round_ganz_does_not_close(self):
        # P1's Ganz is not P_k's round-final spin
        record, _ = run_epoch(overdraft_start(2, 4), ScriptedSource([GANZ, NISHT, NISHT, GANZ]))
        assert record.spins_in_epoch == 4

    def test_spin_cap_is_checked_after_each_open_round(self, monkeypatch):
        monkeypatch.setattr(game, "SPIN_CAP", 3)
        source = ScriptedSource([NISHT] * 10)
        with pytest.raises(GameError, match="epoch exceeded 3 spins"):
            run_epoch(overdraft_start(2, 4), source)
        assert source.remaining == 6  # two full rounds drawn: the cap is read after spins 2 and 4

    def test_requires_overdraft(self):
        with pytest.raises(EpochBoundaryError):
            run_epoch(new_custom((4, 4), GameConfig(k=2, n=4)), make_generator(0))

    def test_requires_boundary(self):
        state = overdraft_start(2, 4)
        state, _ = game.apply_spin(state, Spin.NISHT)
        with pytest.raises(EpochBoundaryError):
            run_epoch(state, make_generator(0))

    def test_lost_players(self):
        record, _ = run_epoch(
            new_custom((1, 5), GameConfig(k=2, n=3, overdraft=True)),
            ScriptedSource([SHTEL, GANZ]),
        )
        assert record.end_stacks[0] < 0
        assert lost_players(record) == (0,)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_epoch_invariants(self, k, seed):
        state = overdraft_start(k, 4)
        rng = make_generator(seed)
        for _ in range(5):
            record, state = run_epoch(state, rng)
            assert sum(record.payoff) == 0
            assert record.spins_in_epoch % k == 0 and record.spins_in_epoch >= k
            assert record.outcomes[-1] is Spin.GANZ
            # no earlier round-final spin was a Ganz
            finals = record.outcomes[k - 1 : -1 : k]
            assert all(o is not Spin.GANZ for o in finals)
            assert at_epoch_boundary(state)


class TestWindowSide:
    @pytest.mark.parametrize("k, n", [(2, 1), (2, 4), (3, 5)])
    def test_ints_and_arrays_agree(self, k, n):
        w = np.arange(-3, k * (n - 1) + 4)
        expected = [-1 if x < 0 else 1 if x > k * (n - 1) else 0 for x in w.tolist()]
        assert [window_side(x, k, n) for x in w.tolist()] == expected
        assert window_side(w, k, n).tolist() == expected


class TestRunMetaslowdel:
    def test_w0_zero_stops_on_first_loss(self):
        start = new_custom((4, 1), GameConfig(k=2, n=4, overdraft=True))
        rec = run_metaslowdel(start, 4, make_generator(3))
        assert rec.w0 == 0
        if rec.side == "lower":
            assert rec.t >= 1 and rec.s_t < 0

    def test_thresholds_and_path(self):
        start = new_custom((4, 4), GameConfig(k=2, n=4, overdraft=True))
        for seed in range(30):
            rec = run_metaslowdel(start, 4, make_generator(seed))
            lower, upper = -rec.w0, 2 * 3 - rec.w0
            partial = 0
            for i, y in enumerate(rec.payoffs):
                partial += y
                if i < rec.t - 1:
                    assert lower <= partial <= upper  # no early crossing
            assert partial == rec.s_t
            assert rec.s_t < lower or rec.s_t > upper
            assert rec.side == ("lower" if rec.s_t < lower else "upper")
            assert rec.u % 2 == 0 and rec.u >= 2 * rec.t

    @pytest.mark.parametrize("k", [2, 3])
    def test_draws_one_code_per_spin(self, k):
        # the caller's generator ends where `u` scalar draws leave a twin
        start = overdraft_start(k, 4)
        for seed in range(10):
            rng, twin = make_generator(seed), make_generator(seed)
            rec = run_metaslowdel(start, 4, rng)
            for _ in range(rec.u):
                twin.integers(0, 4)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_triangle_inequality_sanity(self):
        start = new_custom((4, 4), GameConfig(k=2, n=4, overdraft=True))
        recs = [run_metaslowdel(start, 4, make_generator(s)) for s in range(200)]
        mean_s = sum(r.s_t for r in recs) / len(recs)
        mean_abs = sum(abs(r.s_t) for r in recs) / len(recs)
        assert abs(mean_s) <= mean_abs
