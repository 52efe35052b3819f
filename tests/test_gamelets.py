"""Gamelet enumeration checked against a brute-force engine replay."""

import itertools
import re

import pytest

from dreidel_lab import gamelets as gl
from dreidel_lab.epochs import new_custom
from dreidel_lab.game import GameConfig, Spin, apply_spin, overdraft_steps
from dreidel_lab.rng import GANZ, make_generator


def table_counts(table):
    """A signature table as {signature: count}, read through `rows()`."""
    return {tuple(row[:-1]): row[-1] for row in table.rows()}


def dict_signatures(k, p):
    """Oracle: the gamelet DP keyed by (pot, tuple of deltas) in a dict of
    Python ints, as `enumerate_signatures` was first written."""
    steps = overdraft_steps(k, k + p * k + 1).tolist()
    layer = {(k, (0,) * (k - 1)): 1}
    for t in range(p * k + 1):
        role = t % k
        outcomes = slice(GANZ, GANZ + 1) if t == p * k else slice(4)
        nxt = {}
        for (pot, ds), cnt in layer.items():
            for pot2, gain, ante in steps[pot][outcomes]:
                d = [u - ante for u in ds]
                if role < k - 1:
                    d[role] += gain
                key = (pot2, tuple(d))
                nxt[key] = nxt.get(key, 0) + cnt
        layer = nxt
    return {ds: cnt for (_, ds), cnt in layer.items()}


def brute_force_signatures(k, p):
    """Independent oracle: replay every gamelet through the rules engine."""
    counts = {}
    n = 10 * (p * k + 1)  # large enough that overdraft deltas match engine
    cfg = GameConfig(k=k, n=n, overdraft=True)
    start = new_custom([n] * k, cfg)
    for seq in itertools.product(range(4), repeat=p * k):
        state = start
        for o in seq:
            state, _ = apply_spin(state, Spin(o))
        state, _ = apply_spin(state, Spin.GANZ)
        deltas = tuple(e - s for e, s in zip(state.stacks, start.stacks))
        assert sum(deltas) == 0
        sig = deltas[: k - 1]
        counts[sig] = counts.get(sig, 0) + 1
    return counts


class TestEnumerateSignatures:
    @pytest.mark.parametrize("k,p", [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (4, 1), (5, 1), (6, 1)])
    def test_matches_engine_brute_force(self, k, p):
        table = gl.enumerate_signatures(k, p)
        assert table_counts(table) == brute_force_signatures(k, p)

    @pytest.mark.parametrize("k,p", [(2, 3), (3, 2), (3, 4), (4, 3), (7, 1)])
    def test_matches_dict_dp(self, k, p):
        table = gl.enumerate_signatures(k, p)
        assert table.signatures.shape == (k - 1, table.occupied)
        assert table.rows() == [[*sig, c] for sig, c in sorted(dict_signatures(k, p).items())]

    def test_total_is_4_pow_pk(self):
        assert gl.enumerate_signatures(2, 1).total == 16
        assert gl.enumerate_signatures(2, 3).total == 4**6

    def test_range_box(self):
        table = gl.enumerate_signatures(2, 1)
        assert table.in_range_box()
        assert all(-3 <= sig[0] <= 3 for sig in table_counts(table))

    @pytest.mark.parametrize("k,p", [(4, 3), (2, 6), (3, 3)])
    def test_largest_tables_in_range_box(self, k, p):
        # a delta outside its key digit's range would alias another state
        assert gl.enumerate_signatures(k, p).in_range_box()

    def test_limits(self):
        with pytest.raises(ValueError):
            gl.enumerate_signatures(2, 8)
        with pytest.raises(ValueError):
            gl.enumerate_signatures(1, 1)

    @pytest.mark.parametrize("cap, runs", [(None, True), (4 * 24_435, True), (4 * 24_435 - 1, False), (1000, False)])
    def test_layer_cap(self, monkeypatch, cap, runs):
        # (4, 3): spin 12 makes up to 4 * 24,435 keys; the closing Ganz keeps
        # one successor for each of its 34,422, the largest layer
        if cap is not None:
            monkeypatch.setattr(gl, "MAX_LAYER", cap)
        if runs:
            assert gl.enumerate_signatures(4, 3).total == 4**12
        else:
            with pytest.raises(ValueError, match=rf"k=4, p=3 too large to enumerate: .* keys, past {cap}$"):
                gl.enumerate_signatures(4, 3)

    def test_key_too_wide_refused_before_any_spin(self, monkeypatch):
        def no_table(k, cap):
            raise AssertionError("the step table was built")

        monkeypatch.setattr(gl, "overdraft_steps", no_table)
        refused = []
        for k in range(2, gl.MAX_PK + 1):
            for p in range(1, gl.MAX_PK // k + 1):
                try:
                    gl.enumerate_signatures(k, p)
                except ValueError as exc:
                    assert re.fullmatch(rf"k={k}, p={p} too large to enumerate: a state key needs "
                                        rf"\d+ bits, past {gl.MAX_KEY_BITS}", str(exc))
                    refused.append((k, p))
                except AssertionError:
                    pass
        assert refused == [(12, 1), (13, 1), (14, 1)]

    def test_pot_outside_table_is_caught(self, monkeypatch):
        # a table whose Nisht empties the pot sends the next spin to row 0
        steps = overdraft_steps(2, 5).copy()
        steps[:, 0, 0] = 0
        monkeypatch.setattr(gl, "overdraft_steps", lambda k, cap: steps)
        with pytest.raises(AssertionError, match=r"spin 2: a decoded pot left 1\.\.5"):
            gl.enumerate_signatures(2, 1)


class TestSignatureOfSequence:
    def test_known_landslide(self):
        # S then G for k=2: P1 pays 1; P2 takes pot 3, antes 1 -> (-2, 2)
        assert gl.gamelet_signature(2, [3, GANZ]) == (-2,)

    def test_must_end_in_ganz(self):
        with pytest.raises(ValueError):
            gl.gamelet_signature(2, [0, 0])

    def test_agrees_with_table(self):
        for k, p in [(2, 2), (3, 2), (2, 3)]:
            counts = {}
            for seq in itertools.product(range(4), repeat=p * k):
                sig = gl.gamelet_signature(k, list(seq) + [GANZ])
                counts[sig] = counts.get(sig, 0) + 1
            assert counts == table_counts(gl.enumerate_signatures(k, p))
            # both read game.overdraft_steps, so replay the rules engine too
            assert counts == brute_force_signatures(k, p)


class TestMinkowski:
    @pytest.mark.parametrize("k,p", [(2, 1), (2, 3), (3, 2)])
    def test_bounds_hold(self, k, p):
        rep = gl.minkowski_check(gl.enumerate_signatures(k, p))
        assert rep.ok, str(rep)

    def test_power_mean_exact(self):
        table = gl.enumerate_signatures(2, 1)
        power_sum = sum(c**2 for c in table.counts.tolist())
        assert power_sum * table.occupied >= table.total**2


class TestChooseAlpha:
    def test_satisfies_inequality(self):
        for k in (2, 3, 4):
            a = gl.choose_alpha(k)
            assert 0 < a < 0.5
            assert (a / 64.0**k) ** a * (1 - a) ** (1 - a) > 0.76

    def test_is_largest_grid_point(self):
        a = gl.choose_alpha(2)
        nxt = a + 1e-4
        assert (nxt / 64.0**2) ** nxt * (1 - nxt) ** (1 - nxt) <= 0.76

    def test_monotone_in_k(self):
        assert gl.choose_alpha(3) <= gl.choose_alpha(2)

    def test_example_value(self):
        a = 0.01
        assert (a / 64.0**2) ** a * (1 - a) ** (1 - a) > 0.76
        assert gl.choose_alpha(2) >= 0.01


class TestConcat:
    @pytest.mark.parametrize("k,p", [(2, 2), (3, 1)])
    def test_matched_tuples_zero_payoff(self, k, p):
        rep = gl.concat_check(k, p, 30, make_generator(1), pool_size=600)
        assert rep.ok, str(rep)

    def test_mismatched_signatures_fail(self, monkeypatch):
        assert gl.concat_check(2, 1, 50, make_generator(1), pool_size=200).ok
        # one bucket for every gamelet: the tuples no longer match
        monkeypatch.setattr(gl, "gamelet_signature", lambda k, g: (0,) * (k - 1))
        rep = gl.concat_check(2, 1, 50, make_generator(1), pool_size=200)
        assert not rep.ok
        (row,) = rep.failures
        assert (row.name, row.measured) == ("illegal or nonzero-payoff concatenations", 38.0)

    def test_same_gamelet_twice(self):
        k, p = 2, 2
        g = gl.random_gamelet(k, p, make_generator(9))
        assert gl._zero_payoff_and_legal(k, p * k * k + k + 1, g * k)
