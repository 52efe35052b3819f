"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Lines are printed to the real stdout so they survive pytest's capture, each
with the criterion's elapsed time; the payoff samples that criteria 3-6
share are drawn once, before criterion 3's clock starts.
"""

import math
import sys
import time

import pytest

import conftest

from dreidel_lab import construction as cx
from dreidel_lab import gamelets as gl
from dreidel_lab import hitting_bounds as hb
from dreidel_lab import kernels, montecarlo as mc, solvers
from dreidel_lab.cli import main as cli_main
from dreidel_lab.game import (
    GameConfig,
    GameState,
    Spin,
    ante,
    apply_spin,
    new_custom,
    new_game,
    play_game,
)
from dreidel_lab.rng import GANZ, SHTEL, make_generator

SEED = 2026
EPOCHS = 1_000_000


_started = [0.0]


@pytest.fixture(autouse=True)
def _clock():
    _started[0] = time.perf_counter()


def criterion(num: int, desc: str, ok: bool) -> None:
    elapsed = time.perf_counter() - _started[0]
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc} [{elapsed:.2f}s]"
    conftest.criterion_lines.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def stats_by_k():
    return {k: mc.payoff_sample(k, EPOCHS, seed=SEED + k) for k in (2, 3, 4)}


def test_criterion_01_rules_semantics():
    t0 = time.perf_counter()
    ok = True
    # a Halb gives the spinner the smaller half: (gain, pot left) from pots 5, 1, 2
    for pot, split in ((5, (2, 3)), (1, (0, 1)), (2, (1, 1))):
        nxt, _ = apply_spin(GameState(GameConfig(k=2, n=4), pot, (3, 3), 0, (True, True)), Spin.HALB)
        ok &= (nxt.stacks[0] - 3, nxt.pot) == split
    # opening ante
    s = new_game(GameConfig(k=2, n=5))
    ok &= (s.pot, s.stacks, s.turn) == (2, (4, 4), 0)
    # Ganz folds the ante in
    s = GameState(GameConfig(k=2, n=5), pot=3, stacks=(4, 3), turn=0, alive=(True, True))
    nxt, _ = apply_spin(s, Spin.GANZ)
    ok &= (nxt.pot, nxt.stacks) == (2, (6, 2))
    # failed Shtel eliminates, pot unchanged
    s = GameState(GameConfig(k=2, n=4), pot=2, stacks=(0, 5), turn=0, alive=(True, True))
    nxt, _ = apply_spin(s, Spin.SHTEL)
    ok &= nxt.pot == 2 and nxt.alive == (False, True) and nxt.winner == 1
    # simultaneous ante eliminations
    s = GameState(GameConfig(k=3, n=3), pot=0, stacks=(2, 0, 5), turn=0, alive=(True,) * 3)
    nxt, _ = ante(s)
    ok &= nxt.pot == 2 and nxt.stacks == (1, 0, 4) and nxt.alive == (True, False, True)
    # conservation over a random game
    state = new_game(GameConfig(k=3, n=4))
    total = state.pot + sum(state.stacks)
    rng = make_generator(SEED)
    while not state.terminated:
        state, _ = apply_spin(state, Spin(int(rng.integers(0, 4))))
        ok &= state.pot + sum(state.stacks) == total
        ok &= all(v >= 0 for v in state.stacks)
    elapsed = time.perf_counter() - t0
    criterion(1, f"rules semantics exact, {elapsed:.2f}s < 1s", ok and elapsed < 1.0)


def test_criterion_02_ganz_wait():
    t0 = time.perf_counter()
    est = mc.ganz_wait(1_000_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = 3.98 <= est.mean <= 4.02 and elapsed < 10.0
    criterion(2, f"E_g mean {est.mean:.4f} in [3.98, 4.02], {elapsed:.2f}s < 10s", ok)


def test_criterion_03_epoch_tails(stats_by_k):
    ok = True
    worst = 0.0
    for k in (2, 3, 4):
        stats = stats_by_k[k]
        for q in range(16):
            p_hat = stats.tail_ge(k * q + 1, stats.length_hist)
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / stats.count)
            excess = p_hat - (0.75**q + 3 * se)
            worst = max(worst, excess)
            ok &= excess <= 0
    criterion(3, f"epoch tails <= (3/4)^q + 3SE for k in 2..4, q <= 15 (worst excess {worst:.2e})", ok)


def test_criterion_04_landslides(stats_by_k):
    ok = True
    for k in (2, 3):
        stats = stats_by_k[k]
        p_hat = stats.landslide_count / stats.count
        target = 4.0**-k
        se = math.sqrt(target * (1 - target) / stats.count)
        ok &= abs(p_hat - target) <= 3 * se
        ok &= stats.landslide_payoffs_exact
    criterion(4, "landslide freq within 3SE of 4^-k and payoffs exactly 2k-2, k in {2,3}", ok)


def test_criterion_05_moment_bounds(stats_by_k):
    ok = True
    for k in (2, 3, 4):
        stats = stats_by_k[k]
        ok &= stats.second_moment >= 0.25 - 3 * stats.se_second_moment
        ok &= abs(stats.mean) <= 5 * k
        ok &= stats.variance <= 41 * k * k
    criterion(5, "E(Y1^2) >= 1/4 - 3SE, |mu| <= 5k, var <= 41k^2 for k in 2..4", ok)


def test_criterion_06_wald(stats_by_k):
    sample = mc.sample_stopping(2, 4, 3, 100_000, seed=SEED)
    rep = mc.wald_report(sample, stats_by_k[2])
    by = {e.name: e for e in rep.entries}
    first = by["|E(S_T) - mu E(T)|"]
    second = by["|E[(S_T - mu T)^2] - var E(T)|"]
    reported = {"E(S_T^2)", "var E(T) + mu^2 E(T^2)"} <= set(by)
    ok = first.verdict == "pass" and second.verdict == "pass" and reported
    criterion(6, "Wald first and standard-second identities within 3 combined SE "
                 "(alternative second-moment form report-only)", ok)


def test_criterion_07_oracle_equivalence():
    ok = True
    for n in range(2, 9):
        kernel = kernels.build_game_chain(n)
        start = kernels.game_chain_start(n)
        mu = solvers.absorption_stats(kernel, start).expected_time
        est = mc.estimate_mean_duration(GameConfig(k=2, n=n), 100_000, SEED)
        ok &= est.ci99[0] <= mu <= est.ci99[1]
        exact = solvers.absorption_time_exact(kernel, start)
        ok &= abs(mu - float(exact)) < 1e-9
    criterion(7, "exact mu_d in MC 99% CI and rational==float to 1e-9, n in 2..8", ok)


def test_criterion_08_scaling():
    fit = mc.scaling_report(2, [5, 10, 15, 20, 30, 40, 60, 80], mode="exact")
    ok = 1.7 <= fit.slope <= 2.2
    ratios = ", ".join(f"n={r.n}:{r.ratio_asymptotic:.4f}" for r in fit.rows)
    criterion(8, f"exact-duration log-log slope {fit.slope:.3f} in [1.7, 2.2] "
                 f"(mu_d/(104n^2/3): {ratios})", ok)


def test_criterion_09_pot_chain():
    kernel = kernels.build_pot_chain(200)
    diag = kernels.diagnostics(kernel, compute_stationary=True)
    i = kernel.index[2]
    pi2 = float(diag.stationary[i])
    ret2 = float(diag.mean_return[i])
    ok = (
        pi2 >= 6 / 13 - 1e-9
        and pi2 > 0.25
        and diag.residual < 1e-10
        and ret2 <= 4 + 1e-9
    )
    criterion(9, f"pot chain pi_2={pi2:.4f} >= 6/13, residual {diag.residual:.1e} < 1e-10, "
                 f"return time {ret2:.3f} <= 4", ok)


def test_criterion_10_identities():
    ok = True
    worst_dual = {"game": 0.0, "formal": 0.0}
    for n in range(3, 9):
        for flavor in ("game", "formal"):
            res = hb.identity_checks(n, flavor=flavor, n_queries=100, seed=SEED)
            ok &= res.max_complementarity < 1e-10
            ok &= res.max_translation < 1e-10
            worst_dual[flavor] = max(worst_dual[flavor], res.max_duality)
    ok &= worst_dual["game"] < 1e-10
    criterion(10, "complementarity/translation residuals < 1e-10, both flavors, n in 3..8; "
                  f"game-flavor duality max residual {worst_dual['game']:.2e} < 1e-10 "
                  f"(formal-flavor duality report-only, max residual {worst_dual['formal']:.2e})", ok)


def test_criterion_11_bound_tables():
    ok = True
    for n in range(3, 9):
        rep = hb.bound_tables(n, flavor="game")
        ok &= rep.ok
    # formal flavor is reported, never fatal
    formal_fail = sum(len(hb.bound_tables(n, flavor="formal").failures) for n in (3, 4))
    criterion(11, "hitting-bound tables pass on game flavor, n in 3..8, cap-stable to 1e-10 "
                  f"(formal flavor: {formal_fail} reported failures on n in 3..4)", ok)


def test_criterion_12_gamelets():
    t0 = time.perf_counter()
    ok = True
    for k, pmax in ((2, 6), (3, 3)):
        for p in range(1, pmax + 1):
            table = gl.enumerate_signatures(k, p)
            ok &= table.total == 4 ** (p * k)
            ok &= table.in_range_box()
            rep = gl.minkowski_check(table)
            ok &= rep.ok
    for k in (2, 3):
        rep = gl.concat_check(k, 2, 50, make_generator(SEED + k), pool_size=2000)
        ok &= rep.ok
    elapsed = time.perf_counter() - t0
    criterion(12, f"gamelet totals/range/Minkowski exact and 100 concatenations zero-payoff, "
                  f"{elapsed:.1f}s < 5min", ok and elapsed < 300)


def test_criterion_13_construction():
    ok = True
    # restorative phase on 1000 random configurations
    rng = make_generator(SEED)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        pot = int(rng.integers(1, 101))
        stacks = [int(v) for v in rng.integers(-50, 51, size=k)]
        n_eff = max(1, (pot + sum(abs(s) for s in stacks) + k - 1) // k)
        cfg = GameConfig(k=k, n=n_eff, overdraft=True)
        state = GameState(cfg, pot=pot, stacks=tuple(stacks),
                          turn=int(rng.integers(0, k)), alive=(True,) * k)
        plan = cx.restorative_sequence(state)
        end = plan.end_state
        ok &= end.pot == k and end.turn == 0
        ok &= max(end.stacks) - min(end.stacks) <= 1
        ok &= plan.spins <= 6 * k * n_eff
    # feasibility grid
    for k in (2, 3):
        for n in (20, 40):
            for s in (60, 120, 240):
                g = cx.construct_long_game(k, n, s, rng=make_generator(SEED))
                ok &= g.total_spins == k * s
                ok &= g.epochs >= math.floor(g.plan.alpha * s)
    # exact low-epoch bound for every t_s in 0..s; by_epochs does not depend on t_s
    for k in (2, 3, 4):
        for s in range(1, 13):
            by_epochs = cx.count_low_epoch_games(k, s, 0, 3).by_epochs
            for t_s in range(s + 1):
                low = sum(c for e, c in by_epochs.items() if e < t_s)
                ok &= low <= cx.low_epoch_bound(k, s, t_s)
    criterion(13, "restorative endpoints valid (length <= 6kn), construction grid legal "
                  "with >= floor(alpha s) epochs, exact low-epoch bound k=2..4 s<=12 "
                  "every t_s<=s", ok)


def test_criterion_14_cli_reproducibility(tmp_path):
    ok = True
    runs = [
        ["simulate", "--k", "2", "--n", "4", "--trials", "40000", "--seed", str(SEED)],
        ["epochs", "--k", "2", "--epochs", "20000", "--seed", str(SEED)],
        ["bounds", "--n", "3"],
        ["construct", "--k", "2", "--n", "20", "--s", "60", "--seed", str(SEED)],
    ]
    for i, args in enumerate(runs):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        ok &= cli_main(args + ["-o", str(a)]) in (0, 1)
        ok &= cli_main(args + ["-o", str(b)]) in (0, 1)
        ok &= a.read_bytes() == b.read_bytes()
    # parallelism must not change bytes either
    base = ["simulate", "--k", "2", "--n", "4", "--trials", "80000", "--seed", str(SEED)]
    a, b = tmp_path / "j1.out", tmp_path / "j4.out"
    cli_main(base + ["--jobs", "1", "-o", str(a)])
    cli_main(base + ["--jobs", "4", "-o", str(b)])
    ok &= a.read_bytes() == b.read_bytes()
    criterion(14, "CLI reruns with the same RunSpec are byte-identical", ok)
