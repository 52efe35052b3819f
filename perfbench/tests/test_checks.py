"""The workload checks accept the program's real outputs at tiny sizes and
reject a wrong answer: a perturbed mean, an off-by-one count, an illegal
outcome string.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

import checks
from dreidel_lab import cli, construction, epochs, game, gamelets, hitting_bounds, kernels, montecarlo, solvers
from dreidel_lab.game import GameConfig


def run_cli(tmp_path, *argv, codes=(0,)):
    out = str(tmp_path / f"{argv[0]}.out")
    assert cli.main([str(a) for a in argv] + ["-o", out]) in codes
    return out


# ---------------------------------------------------------------------------
# sampling


@pytest.fixture(scope="module")
def epochs_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("epochs")
    plot = str(tmp / "lengths.dat")
    out = run_cli(tmp, "epochs", "--k", 2, "--epochs", 20_000, "--seed", 5, "--plot", plot, codes=(0, 1))
    return checks.report_rows(out), checks.read_plot(plot)


def test_epochs_accepts_real_output(epochs_output):
    rows, hist = epochs_output
    assert checks.check_epochs(2, 20_000, rows, hist) == []


def test_epochs_rejects_a_length_off_the_round_grid(epochs_output):
    rows, hist = epochs_output
    bad = dict(hist)
    bad[2] -= 1
    bad[3] = 1
    assert checks.check_epochs(2, 20_000, rows, bad)


def test_epochs_rejects_a_perturbed_length_law(epochs_output):
    rows, hist = epochs_output
    bad = dict(hist)
    moved = hist[2] // 10  # a tenth of the one-round epochs become two-round
    bad[2] -= moved
    bad[4] += moved
    assert any("Geom" in p or "mean epoch length" in p for p in checks.check_epochs(2, 20_000, rows, bad))


def test_epochs_rejects_a_wrong_landslide_payoff(epochs_output):
    rows, hist = epochs_output
    bad = copy.deepcopy(rows)
    bad["landslide payoffs all 2k-2"]["measured"] = 0.0
    assert checks.check_epochs(2, 20_000, bad, hist)


def test_epochs_rejects_an_off_by_one_epoch_count(epochs_output):
    rows, hist = epochs_output
    assert checks.check_epochs(2, 20_001, rows, hist)


def test_wald_rejects_an_identity_off_by_many_se(tmp_path):
    rows = checks.report_rows(run_cli(tmp_path, "wald", "--records", 2000, "--seed", 3, codes=(0, 1)))
    assert checks.check_wald(rows) == []
    row = rows["|E(S_T) - mu E(T)|"]
    row["measured"] = 2 * row["bound"]  # 6 SE
    assert checks.check_wald(rows)


def test_stopping_records_reject_a_record_inside_the_window():
    k, n, w0 = 3, 4, 4
    s = montecarlo.sample_stopping(k, n, w0, 2000, 9)
    assert checks.check_stopping_arrays(k, n, w0, s.t, s.s_t, s.u, s.side_upper) == []
    s_t = s.s_t.copy()
    s_t[0] = 0
    assert checks.check_stopping_arrays(k, n, w0, s.t, s_t, s.u, s.side_upper)
    u = s.u.copy()
    u[0] += 1
    assert checks.check_stopping_arrays(k, n, w0, s.t, s.s_t, u, s.side_upper)


def test_scalar_stopping_records_reject_an_off_by_one_t():
    config = GameConfig(k=3, n=4, overdraft=True)
    start = epochs.new_custom([4, 4, 5], config)
    recs = [epochs.run_metaslowdel(start, 4, np.random.default_rng((1, i))) for i in range(20)]
    assert checks.check_stopping_records(3, 4, recs) == []
    assert checks.check_stopping_records(3, 4, [replace(recs[0], t=recs[0].t + 1)])


def test_mean_duration_check_rejects_a_perturbed_mean(tmp_path):
    rows = checks.read_csv(run_cli(tmp_path, "simulate", "--n", 4, "--trials", 4000, "--seed", 2, "--jobs", 1))
    assert checks.check_simulate(rows, 2, 4, 4000) == []
    mean, se = float(rows[0]["mean"]), float(rows[0]["se"])
    kernel = kernels.build_game_chain(4)
    exact = solvers.absorption_stats(kernel, kernels.game_chain_start(4)).expected_time
    assert checks.agree("mean", mean, se, exact, 0.0) == []
    assert checks.agree("mean", mean + 6 * se, se, exact, 0.0)


def test_transcripts_reject_a_game_without_a_winner():
    games = [game.play_game(GameConfig(k=3, n=3), np.random.default_rng(i)) for i in range(5)]
    assert checks.check_transcripts(games) == []
    games[0].terminal = "no_survivor"
    assert checks.check_transcripts(games)


# ---------------------------------------------------------------------------
# chains


def test_report_rejects_a_failed_bound(tmp_path):
    with open(run_cli(tmp_path, "report", "--n-list", "3..3")) as fh:
        tables = checks.read_report_md(fh.read())
    assert checks.check_report(tables, [3]) == []
    tables[3][0] = (tables[3][0][0], "fail")
    assert checks.check_report(tables, [3])


def test_formal_bounds_reject_a_probability_above_one(tmp_path):
    rows = checks.report_rows(run_cli(tmp_path, "bounds", "--n", 3, "--flavor", "formal", codes=(0, 1)))
    assert checks.check_bounds_formal(3, rows) == []
    rows["A_1 >= 1/(m+3)"]["measured"] = 1.01
    assert checks.check_bounds_formal(3, rows)


def test_identity_check_rejects_a_complementarity_residual():
    res = hitting_bounds.identity_checks(3, "formal", n_queries=2, seed=1)
    assert checks.check_identities(res, 2) == []
    res.complementarity[1] = 1e-6
    assert checks.check_identities(res, 2)


def test_scaling_rejects_a_cubic_growth(tmp_path):
    rows = checks.read_csv(run_cli(tmp_path, "scaling", "--n-list", "3,4,5,6", "--mode", "exact", "--jobs", 1))
    assert checks.check_scaling(rows, [3, 4, 5, 6]) == []
    for r in rows:
        n = int(r["n"])
        r["mean"] = repr(float(r["mean"]) * n)
        r["ratio_to_n2"] = repr(float(r["mean"]) / n**2)
    assert any("slope" in p for p in checks.check_scaling(rows, [3, 4, 5, 6]))


def test_absorption_residual_rejects_a_perturbed_time():
    kernel = kernels.build_game_chain(4)
    result = solvers.absorption_stats(kernel, kernels.game_chain_start(4))
    assert checks.check_absorption(kernel, result) == []
    result.times = result.times.copy()
    result.times[3] += 1e-6
    assert checks.check_absorption(kernel, result)


def test_pot_chain_rejects_a_non_stationary_vector(tmp_path):
    rows = checks.report_rows(run_cli(tmp_path, "pot-chain", "--xmax", 30))
    kernel = kernels.build_pot_chain(30)
    pi = kernels.diagnostics(kernel, compute_stationary=True).stationary
    assert checks.check_pot_chain(rows, kernel, pi) == []
    bad = pi.copy()
    bad[[0, 5]] = bad[[5, 0]]
    assert checks.check_pot_chain(rows, kernel, bad)


def test_hitprob_rejects_a_wrong_probability(tmp_path):
    out = run_cli(tmp_path, "hitprob", "--n", 3, "--y1", 2, "--z1", 1, "--y2", 3, "--z2", 1, "--y3", 1, "--z3", 1)
    prob = float(checks.read_csv(out)[0]["prob"])
    kernel = kernels.build_mod_chain(kernels.ModChainSpec(n=3, p_max=24))
    start, target, avoid = (2, 2, 1), frozenset({(2, 3, 1)}), frozenset({(2, 1, 1)})
    values = solvers.HitSolver(kernel, target, avoid).values
    assert checks.check_hitprob(kernel, values, start, target, avoid, prob) == []
    assert checks.check_hitprob(kernel, values, start, target, avoid, prob + 1e-9)
    bad = values.copy()
    bad[kernel.index[start]] += 1e-6
    assert checks.check_hitprob(kernel, bad, start, target, avoid, bad[kernel.index[start]])


@pytest.mark.parametrize("flavor", ["game", "formal"])
def test_mod_chain_rules_reject_a_wrong_transition(flavor):
    n = 3
    spec = kernels.ModChainSpec(n=n, p_max=24, flavor=flavor)
    kernel = kernels.build_mod_chain(spec)

    assert checks.check_mod_chain_rules(kernel, n, 24, flavor) == []
    i = kernel.index[(3, 2, 1)]
    kernel.rows[i] = [(kernel.index[(3, 0, 2)] if j == kernel.index[(4, 1, 2)] else j, p) for j, p in kernel.rows[i]]
    assert checks.check_mod_chain_rules(kernel, n, 24, flavor)


# ---------------------------------------------------------------------------
# exact


def test_exact_rejects_a_rational_that_differs_from_the_float(tmp_path):
    rows = checks.read_csv(run_cli(tmp_path, "exact", "--n", 3, "--rational"))
    assert checks.check_exact(rows, 3) == []
    for r in rows:
        if r["quantity"] == "mu_d_rational":
            r["value"] = repr(float(r["value"]) + 1e-6)
    assert checks.check_exact(rows, 3)


def test_low_epoch_count_rejects_an_off_by_one_count():
    count = construction.count_low_epoch_games(2, 3, 2, 2)
    ref = checks.replay_low_epoch(2, 3, 2)
    assert ref and checks.check_low_epoch(count, 2, 3, 2, ref) == []
    bad = dict(ref)
    bad[1] += 1
    assert checks.check_low_epoch(count, 2, 3, 2, bad)
    count.low_epoch_games += 1
    assert checks.check_low_epoch(count, 2, 3, 2, ref)


def test_gamelet_table_rejects_an_off_by_one_count(tmp_path):
    table_path = str(tmp_path / "sig.csv")
    rows = checks.report_rows(run_cli(tmp_path, "gamelets", "--k", 3, "--p", 1, "--table", table_path))
    table = checks.read_csv(table_path)
    ref = checks.replay_signatures(3, 1)
    assert checks.check_gamelets(3, 1, rows, table, ref) == []
    table[0]["count"] = str(int(table[0]["count"]) + 1)
    assert checks.check_gamelets(3, 1, rows, table, ref)


def test_signature_replay_flags_a_wrong_signature():
    ref = checks.replay_signatures(2, 1)
    assert None not in ref and sum(ref.values()) == 16
    off = checks.replay_signatures(2, 1, signature=lambda k, seq: (0,))
    assert off[None] > 0


@pytest.fixture(scope="module")
def constructed(tmp_path_factory):
    out = run_cli(tmp_path_factory.mktemp("construct"), "construct", "--k", 2, "--n", 7, "--s", 60,
                  "--seed", 4, "--format", "json")
    with open(out) as fh:
        return json.load(fh)["data"]


@pytest.mark.parametrize("mutate", [
    lambda s: s[:-1] + "N",          # the last player no longer goes home at the end
    lambda s: s[:-1] + "X",          # not a spin letter
    lambda s: s[:-2],                # one round short
    lambda s: "SSSSSSSSSSSSSSSS" + s[16:],  # the last player goes broke early
])
def test_construct_rejects_an_illegal_outcome_string(constructed, mutate):
    assert checks.check_construct(constructed, 2, 7, 60) == []
    bad = dict(constructed, outcomes=mutate(constructed["outcomes"]))
    assert checks.check_construct(bad, 2, 7, 60)


def test_restorative_rejects_a_truncated_plan():
    config = GameConfig(k=3, n=10, overdraft=True)
    start = game.GameState(config=config, pot=7, stacks=(12, -2, 13), turn=1, alive=(True,) * 3)
    plan = construction.restorative_sequence(start)
    assert checks.check_restorative(start, plan) == []
    plan.outcomes = plan.outcomes[:-1]
    assert checks.check_restorative(start, plan)


def test_concat_rejects_a_bad_concatenation():
    report = gamelets.concat_check(2, 1, 20, np.random.default_rng(0), pool_size=200)
    assert checks.check_concat(report, 20) == []
    report.entries[0] = replace(report.entries[0], measured=1.0)
    assert checks.check_concat(report, 20)
