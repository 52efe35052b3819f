"""Monte Carlo estimators cross-checked against the scalar rules engine."""

import copy
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreidel_lab import game, montecarlo as mc
from dreidel_lab.epochs import run_epoch, is_landslide
from dreidel_lab.game import GameConfig, SpinBatch, SpinCapExceeded, apply_spin, new_custom, new_game, play_game
from dreidel_lab.rng import GANZ, SHTEL, ScriptedSource, make_generator


def scalar_epoch_sample(k, m, seed):
    """Reference epoch statistics via the transcript-level engine."""
    state = new_custom([4] * k, GameConfig(k=k, n=4, overdraft=True))
    rng = make_generator(seed)
    ys, lengths, landslides = [], [], []
    for _ in range(m):
        record, state = run_epoch(state, rng)
        ys.append(record.payoff[k - 1])
        lengths.append(record.spins_in_epoch)
        landslides.append(is_landslide(record))
    return np.array(ys), np.array(lengths), np.array(landslides)


def array_epochs(k, n, seed):
    """`sample_epochs` as it first ran: every chunk's epochs, concatenated
    into (payoff, length, landslide) arrays."""
    parts = [mc._run_epochs(k, m, rng) for rng, m in mc._chunks(seed, n)]
    return tuple(np.concatenate(a) for a in zip(*parts))


def array_payoff_stats(k, y, lengths, landslide):
    """`PayoffStats.from_sample` as it first ran, on the epochs' arrays."""
    yf = y.astype(np.float64)
    mean = float(yf.mean())
    m2 = float((yf**2).mean())
    vals = np.arange(y.min(), y.max() + 1, dtype=np.float64)
    at = y - y.min()
    exact = bool(np.all(y[landslide] == 2 * k - 2)) if landslide.any() else True
    return mc.PayoffStats(
        k=k,
        count=len(y),
        mean=mean,
        second_moment=m2,
        variance=m2 - mean**2,
        fourth_moment=float((vals**4).take(at).mean()),
        central_m4=float(((vals - mean) ** 4).take(at).mean()),
        abs_y_hist=np.bincount(np.abs(y)),
        length_hist=np.bincount(lengths),
        landslide_count=int(landslide.sum()),
        landslide_payoffs_exact=exact,
    )


def exact_central_m4(y):
    """E((Y - mean)^4) about the exact sample mean, as a Fraction."""
    n, s1 = len(y), int(y.sum())
    return Fraction(sum((n * v - s1) ** 4 for v in y.tolist()), n**5)


class TestEpochBatchOracle:
    """The vectorized epoch engine must match the scalar engine in law."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_moments_match_scalar(self, k):
        m = 30_000
        y_ref, len_ref, ls_ref = scalar_epoch_sample(k, m, seed=11)
        y, lengths, landslide = array_epochs(k, m, seed=12)
        # means agree within 5 combined standard errors
        for a, b in ((y_ref, y), (len_ref, lengths)):
            se = math.sqrt(a.var() / m + b.var() / m)
            assert abs(a.mean() - b.mean()) < 5 * se
        p_ref, p_vec = ls_ref.mean(), landslide.mean()
        se = math.sqrt(2 * 0.25 / m)
        assert abs(p_ref - p_vec) < 5 * se

    def test_length_distribution_is_geometric_in_rounds(self):
        # rounds per epoch ~ Geometric(1/4) exactly
        _, lengths, _ = array_epochs(2, 50_000, seed=3)
        rounds = lengths // 2
        assert rounds.min() >= 1
        p1 = (rounds == 1).mean()
        assert abs(p1 - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 50_000)

    def test_landslide_payoffs_exact(self):
        y, _, landslide = array_epochs(3, 20_000, seed=5)
        assert landslide.any()
        assert np.all(y[landslide] == 4)  # 2k-2


COUNT_SIZES = (1, 7, mc.CHUNK - 1, mc.CHUNK, mc.CHUNK + 1, 5 * mc.CHUNK + 3)


class TestEpochCounts:
    """The epoch sample as counts gives the statistics of the epochs' arrays."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_stats_match_array_oracle(self, k):
        for n in COUNT_SIZES:
            y, lengths, landslide = array_epochs(k, n, seed=n)
            sample = mc.sample_epochs(k, n, seed=n)
            assert sample.count == n and sample.lo == y.min()
            assert sample.y_counts.dtype == np.int64
            assert np.array_equal(sample.y_counts, np.bincount(y - y.min()))
            got = mc.PayoffStats.from_sample(sample)
            want = array_payoff_stats(k, y, lengths, landslide)
            for name in ("count", "mean", "second_moment", "variance", "fourth_moment",
                         "landslide_count", "landslide_payoffs_exact"):
                assert getattr(got, name) == getattr(want, name), (name, n)
            for name in ("abs_y_hist", "length_hist"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, n)
            # the central fourth moment is exact; the per-epoch float sum rounds
            assert got.central_m4 == float(exact_central_m4(y)), n
            assert got.central_m4 == pytest.approx(want.central_m4, rel=1e-12, abs=0), n

    def test_memory_is_one_chunk(self):
        # eight times the epochs take no more memory: each chunk is folded
        # into the counts before the next is drawn
        peaks = []
        for chunks in (2, 16):
            tracemalloc.start()
            try:
                mc.sample_epochs(3, chunks * mc.CHUNK, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20, peaks


class TestPayoffStats:
    def test_variance_identity(self):
        stats = mc.payoff_sample(2, 10_000, seed=0)
        assert abs(stats.variance - (stats.second_moment - stats.mean**2)) < 1e-9

    def test_determinism(self):
        a = mc.payoff_sample(2, 5000, seed=9)
        b = mc.payoff_sample(2, 5000, seed=9)
        assert a.mean == b.mean and a.second_moment == b.second_moment

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_fourth_moments_match_pow(self, k):
        # the counts give the floats of raising every epoch's y
        y, _, _ = array_epochs(k, 20_000, seed=k)
        stats = mc.PayoffStats.from_sample(mc.sample_epochs(k, 20_000, seed=k))
        yf = y.astype(np.float64)
        assert stats.fourth_moment == float((yf**4).mean())
        assert stats.central_m4 == float(exact_central_m4(y))
        assert stats.central_m4 == pytest.approx(float(((yf - stats.mean) ** 4).mean()), rel=1e-12, abs=0)

    def test_tail_ge(self):
        stats = mc.payoff_sample(2, 5000, seed=1)
        assert stats.tail_ge(1, stats.length_hist) == 1.0
        assert stats.tail_ge(10**6, stats.length_hist) == 0.0


class TestDurations:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_vectorized_matches_play_game(self, k):
        cfg = GameConfig(k=k, n=4)
        vec = mc.sample_durations(cfg, 20_000, seed=2)
        ref = np.array([play_game(cfg, make_generator(3, i)).duration for i in range(1000)])
        se = math.sqrt(vec.var() / vec.size + ref.var() / ref.size)
        assert abs(vec.mean() - ref.mean()) < 5 * se

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_one_game_batches_match_play_game(self, k):
        # a batch of one game draws exactly the spins play_game draws
        for n in (2, 3, 4):
            cfg = GameConfig(k=k, n=n)
            for seed in range(20):
                assert mc.sample_durations(cfg, 1, seed)[0] == play_game(
                    cfg, make_generator(seed, 0)
                ).duration

    def test_spin_cap(self, monkeypatch):
        # k = 2 spins every game at every step; at k = 3 seats sit out too
        for k in (2, 3):
            monkeypatch.setattr(game, "SPIN_CAP", 5)
            with pytest.raises(SpinCapExceeded):
                mc.sample_durations(GameConfig(k=k, n=6), 100, seed=0)
            monkeypatch.undo()
            # the cap fires before a game's spin SPIN_CAP + 1 and not earlier:
            # a cap at the longest game's length passes, one spin less does not
            cfg = GameConfig(k=k, n=4)
            longest = int(mc.sample_durations(cfg, 300, seed=0).max())
            monkeypatch.setattr(game, "SPIN_CAP", longest)
            mc.sample_durations(cfg, 300, seed=0)
            monkeypatch.setattr(game, "SPIN_CAP", longest - 1)
            with pytest.raises(SpinCapExceeded):
                mc.sample_durations(cfg, 300, seed=0)

    def test_jobs_capped_at_chunk_count(self, monkeypatch):
        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        workers = []
        monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
        mc.sample_durations(GameConfig(k=2, n=3), 40_000, seed=4, jobs=8)
        assert workers == [2]

    def test_jobs_do_not_change_results(self):
        cfg = GameConfig(k=2, n=4)
        a = mc.sample_durations(cfg, 70_000, seed=4, jobs=1)
        b = mc.sample_durations(cfg, 70_000, seed=4, jobs=4)
        assert np.array_equal(a, b)

    def test_single_trial(self):
        est = mc.estimate_mean_duration(GameConfig(k=2, n=2), 1, seed=0)
        assert est.mean == float(int(est.mean))
        assert est.trials == 1 and math.isnan(est.se)

    def test_overdraft_config_rejected(self):
        # nobody is ever out of an overdraft game, so it has no duration
        cfg = GameConfig(k=2, n=3, overdraft=True)
        for sample in (mc.sample_durations, mc.estimate_mean_duration):
            with pytest.raises(ValueError, match="requires a non-overdraft config"):
                sample(cfg, 5, seed=1)

    def test_zero_trials_rejected(self):
        for sample in (mc.sample_durations, mc.estimate_mean_duration):
            for trials in (0, -1):
                with pytest.raises(ValueError, match="trials must be at least 1"):
                    sample(GameConfig(k=2, n=2), trials, seed=0)

    def test_se_shrinks_with_trials(self):
        cfg = GameConfig(k=2, n=4)
        small = mc.estimate_mean_duration(cfg, 2000, seed=7)
        big = mc.estimate_mean_duration(cfg, 8000, seed=7)
        assert big.se < small.se
        assert 0.3 < big.se / small.se < 0.8  # ~ 1/2


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=3, max_value=5),
    n=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_spin_batch_conserves_tokens(k, n, m, seed):
    batch = SpinBatch(k, m, n - 1)
    rng = make_generator(seed)
    while batch.pot.size:
        before = batch.alive.copy()
        batch.step(rng)
        assert np.all(batch.pot + batch.stacks.sum(axis=0) == k * n)
        assert np.all(batch.stacks >= 0)
        assert not batch.stacks[~batch.alive].any()  # a player who is out holds nothing
        assert not np.any(batch.alive & ~before)  # the dead stay dead
        assert np.all(batch.live == batch.alive.sum(axis=0))
        batch.keep(batch.live > 1)


def test_spin_batch_keeps_game_numbers():
    # games[j] stays the starting number of the game in column j as `keep`
    # drops columns; each pot is marked with that number to follow the column
    rng = np.random.default_rng(3)
    batch = SpinBatch(3, 50, 2)
    batch.pot[:] = np.arange(50)
    survivors = np.arange(50)
    for _ in range(6):
        rows = rng.random(batch.games.size) < 0.7
        batch.keep(rows)
        survivors = survivors[rows]
        assert batch.games.tolist() == survivors.tolist() == batch.pot.tolist()
    assert 0 < survivors.size < 50


def keep_by_mask(batch, rows):
    """`SpinBatch.keep` as first written: each array indexed by the mask."""
    batch.pot = batch.pot[rows]
    batch.stacks = batch.stacks[:, rows]
    batch.alive = batch.alive[:, rows]
    batch.live = batch.live[rows]
    batch.games = batch.games[rows]


@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_spin_batch_keep_matches_mask_indexing(k, deep):
    # `keep` compacts every array as the mask does, and the kept batch
    # spins on exactly as the mask-indexed one; players go out from a
    # stack of 2, and from a deep stack nobody does
    m = 64
    pick = np.random.default_rng(k)
    masks = [np.ones(m, bool), np.zeros(m, bool), np.arange(m) == 17, pick.random(m) < 0.6]
    for rows in masks:
        batch = SpinBatch(k, m, 10**9 if deep else 2)
        rng = make_generator(k, int(deep))
        for _ in range(3 * k):  # so that stacks, pots and seats differ by game
            batch.step(rng)
        assert batch.alive.all() == deep
        oracle = copy.deepcopy(batch)
        keep_by_mask(oracle, rows)
        assert batch.keep(rows).tolist() == np.flatnonzero(rows).tolist()
        for _ in range(2):
            for name in ("pot", "stacks", "alive", "live", "games"):
                got, want = getattr(batch, name), getattr(oracle, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert np.array_equal(got, want), name
            if not rows.any():
                break
            state = copy.deepcopy(rng)
            assert np.array_equal(batch.step(rng), oracle.step(state))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_spin_batch_matches_apply_spin_game_by_game(k):
    # every outcome a batch returns, replayed through the scalar engine,
    # gives the batch's own games, also where a seat sat some games out
    n, m = 3, 40
    mixed = 0
    for seed in range(5):
        batch = SpinBatch(k, m, n - 1)
        states = [new_game(GameConfig(k=k, n=n))] * m
        rng = make_generator(seed)
        while states:
            seat = batch.seat
            o = batch.step(rng)
            mixed += bool(np.any(o == -1) and np.any(o != -1))
            for j, code in enumerate(o.tolist()):
                if code == -1:
                    assert not states[j].alive[seat]
                else:
                    assert states[j].turn == seat
                    states[j], _ = apply_spin(states[j], code)
                assert batch.pot[j] == states[j].pot
                assert batch.alive[:, j].tolist() == list(states[j].alive)
                assert batch.stacks[:, j].tolist() == list(states[j].stacks)
            rows = batch.live > 1
            states = [s for s, r in zip(states, rows) if r]
            batch.keep(rows)
    assert mixed > 0  # steps where the seat spun in some games and sat out others


# ---------------------------------------------------------------------------
# the samplers as they ran on the array engine, kept as oracles for the
# step-table samplers


def batch_epochs(k, m, rng):
    """`_run_epochs` on `SpinBatch`, one seat's spin per step.  The batch
    plays plain games from a stack that no epoch here can exhaust, so no
    seat is ever broke and it plays the overdraft process."""
    stack = 10**9
    batch = SpinBatch(k, m, stack)
    y = np.zeros(m, dtype=np.int64)
    lengths = np.zeros(m, dtype=np.int64)
    landslide = np.zeros(m, dtype=bool)
    first_shtels = np.ones(m, dtype=bool)
    spins = 0
    while batch.games.size:
        o = batch.step(rng)
        spins += 1
        if spins < k:
            first_shtels &= o == SHTEL
        if batch.seat:
            continue
        assert batch.alive.all()  # nobody was out, so it was the overdraft process
        done = o == GANZ  # the last seat has just spun
        ended = np.flatnonzero(done)
        idx = batch.games.take(ended)
        y[idx] = batch.stacks[k - 1].take(ended) - stack
        lengths[idx] = spins
        if spins == k:
            landslide[idx] = first_shtels.take(ended)
        batch.keep(~done)
    return y, lengths, landslide


def batch_durations(args):
    """`_duration_chunk` on `SpinBatch`, as it still runs at k >= 3."""
    config, rng, m = args
    batch = SpinBatch(config.k, m, config.n - 1)
    out = np.zeros(m, dtype=np.int64)
    spins = np.zeros(m, dtype=np.int64)
    steps = 0
    while batch.games.size:
        # no game has spun more often than the batch has stepped
        if steps >= game.SPIN_CAP and spins.max() >= game.SPIN_CAP:
            raise SpinCapExceeded(f"game exceeded {game.SPIN_CAP} spins")
        spins += batch.step(rng) >= 0
        steps += 1
        done = batch.live <= 1
        if done.any():
            out[batch.games[done]] = spins[done]
            spins = spins.take(batch.keep(~done))
    return out


ORACLE_SIZES = (1, 5, 7, 999, 1000, 3000, 32768)


class CountingSource:
    """A generator that counts its `integers` calls."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def integers(self, low, high, size=None):
        self.calls += 1
        return self.rng.integers(low, high, size=size)


class TestStepTableSamplers:
    """The step-table samplers give what the array engine gives, bit for bit."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_epochs_match_batch_oracle(self, k):
        for m in ORACLE_SIZES:
            got = mc._run_epochs(k, m, make_generator(k, m))
            want = batch_epochs(k, m, make_generator(k, m))
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b), m

    @pytest.mark.parametrize("k, n, w0, records", [(2, 4, 3, 5000), (3, 4, 4, 3000)])
    def test_stopping_matches_batch_oracle(self, k, n, w0, records, monkeypatch):
        got = mc.sample_stopping(k, n, w0, records, seed=7)
        monkeypatch.setattr(mc, "_run_epochs", batch_epochs)
        want = mc.sample_stopping(k, n, w0, records, seed=7)
        for name in ("t", "s_t", "u", "side_upper"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 15])
    def test_durations_match_batch_oracle(self, n):
        cfg = GameConfig(k=2, n=n)
        for m in ORACLE_SIZES if n <= 4 else ORACLE_SIZES[:-1]:
            got = mc._duration_chunk((cfg, make_generator(n, m), m))
            want = batch_durations((cfg, make_generator(n, m), m))
            assert got.dtype == want.dtype and np.array_equal(got, want), m

    @pytest.mark.parametrize("k", [2, 3])
    def test_epoch_table_grows_from_the_round_bound(self, k, monkeypatch):
        # 30 rounds of Shtels, then the last seat's Ganz: the pot climbs to
        # 31k, past three table sizes
        caps = []

        def counting_steps(k, cap):
            caps.append(cap)
            return game.overdraft_steps(k, cap)

        monkeypatch.setattr(mc, "overdraft_steps", counting_steps)
        codes = [SHTEL] * (31 * k - 1) + [GANZ]
        y, lengths, landslide = mc._run_epochs(k, 1, ScriptedSource(codes))
        assert len(caps) >= 4 and caps == sorted(set(caps))
        record, _ = run_epoch(new_custom([0] * k, GameConfig(k=k, n=1, overdraft=True)), ScriptedSource(codes))
        assert y.tolist() == [record.payoff[k - 1]]
        assert lengths.tolist() == [record.spins_in_epoch] == [31 * k]
        assert landslide.tolist() == [False]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_one_draw_per_round(self, k):
        source = CountingSource(make_generator(k))
        _, lengths, _ = mc._run_epochs(k, 1000, source)
        assert source.calls == lengths.max() // k

    def test_one_draw_per_step_at_k2(self):
        source = CountingSource(make_generator(2))
        out = mc._duration_chunk((GameConfig(k=2, n=5), source, 1000))
        assert source.calls == out.max()


@pytest.mark.parametrize("a, b", [(1, 1), (3, 8), (7, 1000), (999, 4), (32768, 65536)])
def test_round_draw_is_the_seats_draws_in_turn(a, b):
    # `_run_epochs` draws a round's k seats at once: numpy fills a bounded
    # draw element by element, so one draw of a + b is a draw of a, then b
    for seed in range(3):
        whole = make_generator(seed).integers(0, 4, size=a + b)
        rng = make_generator(seed)
        parts = np.concatenate([rng.integers(0, 4, size=a), rng.integers(0, 4, size=b)])
        assert np.array_equal(whole, parts)


class TestGanzWait:
    def test_mean_near_four(self):
        est = mc.ganz_wait(200_000, seed=0)
        assert abs(est.mean - 4.0) < 0.1

    def test_single_trial(self):
        est = mc.ganz_wait(1, seed=0)
        assert est.mean >= 1 and est.mean == int(est.mean)

    def test_pmf_shape(self):
        est = mc.ganz_wait(200_000, seed=1)
        for j in range(1, 11):
            p = est.counts[j] / est.trials if j < len(est.counts) else 0.0
            target = 0.75 ** (j - 1) * 0.25
            assert abs(p - target) < 5 * math.sqrt(target * (1 - target) / est.trials)


class TestStoppingSample:
    def test_matches_window(self):
        sample = mc.sample_stopping(2, 4, 3, 3000, seed=0)
        upper = 2 * 3 - 3
        assert np.all((sample.s_t < -3) | (sample.s_t > upper))
        assert np.all(sample.side_upper == (sample.s_t > upper))
        assert np.all(sample.t >= 1)
        assert np.all(sample.u >= 2 * sample.t)

    def test_bad_w0(self):
        with pytest.raises(ValueError, match=re.escape("w0 must lie in [0, 6], got w0=99")):
            mc.sample_stopping(2, 4, 99, 10, seed=0)

    @pytest.mark.parametrize("k, n, records, name",
                             [(1, 4, 10, "k"), (2, 4, 1, "records"), (2, 4, 0, "records"), (2, 0, 10, "n")],
                             ids=["1-10-k", "2-1-records", "2-0-records", "n-0"])
    def test_bad_inputs(self, k, n, records, name):
        with pytest.raises(ValueError, match=f"{name} must be at least .*{name}="):
            mc.sample_stopping(k, n, 0, records, seed=0)


class TestReports:
    def test_moment_and_tail_pass(self):
        stats = mc.payoff_sample(2, 50_000, seed=0)
        assert mc.moment_report(stats).ok
        assert mc.tail_report(stats).ok
        assert mc.landslide_report(stats).ok

    def test_wald_pass(self):
        stats = mc.payoff_sample(2, 100_000, seed=0)
        sample = mc.sample_stopping(2, 4, 3, 20_000, seed=1)
        rep = mc.wald_report(sample, stats)
        assert rep.ok
        names = [e.name for e in rep.entries if e.verdict == "report"]
        assert "E(S_T^2)" in names  # alternative form reported, not asserted

    def test_scaling_errors(self):
        with pytest.raises(ValueError):
            mc.scaling_report(2, [5])
        with pytest.raises(ValueError):
            mc.scaling_report(3, [4, 8], mode="exact")

    def test_scaling_needs_two_distinct_n(self):
        with pytest.raises(ValueError, match="two distinct n"):
            mc.scaling_report(2, [3, 3], mode="exact")

    def test_scaling_exact_slope(self):
        fit = mc.scaling_report(2, [5, 10, 15], mode="exact")
        assert 1.7 < fit.slope < 2.2
        assert fit.rows[0].se is None
