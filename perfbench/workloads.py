"""The benchmark's three workloads: sampling, chains and exact.

A workload is a list of operations that make up one round.  An operation
is one analysis call together with its correctness checks; it runs the
CLI in-process through `dreidel_lab.cli.main` (output to a file under
the run's scratch directory) where a subcommand exists, and the library
where none does.  `simulate` and `scaling` always get `--jobs 1`, so the
figures measure the program and not the process pool.

Every size is fixed here; the run's seed only picks the random streams
and query parameters, so each round does the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from functools import partial
from pathlib import Path

import numpy as np

from dreidel_lab import cli, construction, epochs, game, gamelets, hitting_bounds, kernels, montecarlo, solvers
from dreidel_lab.game import GameConfig, GameState

import checks

# ---------------------------------------------------------------------------
# sizes

EPOCHS = 500_000              # epochs per `epochs` call, k = 2, 3, 4
WALD = (2, 4, 3)              # k, n, W0 of the `wald` call
WALD_RECORDS = 50_000
STOPPING = (3, 4, 4)          # k, n, W0 of the vectorized stopping sample
STOPPING_RECORDS = 30_000
SIMULATE = [(2, 8, 50_000), (3, 8, 600), (4, 6, 600)]  # k, n, trials
ORACLE_GAMES = 100            # scalar play_game games per k >= 3
ORACLE_RECORDS = 200          # scalar run_metaslowdel records

REPORT_NS = "3..6"
FORMAL_NS = (3, 4)
IDENTITY = [(6, "game"), (6, "formal"), (8, "game"), (8, "formal")]
IDENTITY_QUERIES = 4
SCALING_NS = [10, 20, 30, 40, 50]
SCALING_CHECK_N = 20          # the n whose absorption system is re-verified
POT_XMAX = 200
HITPROB = [(5, "game"), (5, "game"), (5, "formal")]

EXACT_NS = (2, 3, 4)
LOW_EPOCH = [(2, 6), (3, 3)]          # k, s: brute force over 4^(ks)
LOW_EPOCH_REPLAYED = [(2, 3), (3, 2)]  # ks <= 6: also replayed spin by spin
GAMELETS = [(4, 3), (3, 4)]
GAMELETS_REPLAYED = [(2, 3), (3, 2)]   # pk <= 6
CONSTRUCT = [(2, 7, 60), (2, 20, 100), (2, 40, 300), (3, 13, 100), (3, 25, 200), (3, 40, 400)]
RESTORATIVE_STARTS = 1_000
CONCAT = [(2, 200), (3, 200)]  # k, tuples (p = 1, pool of 2000 gamelets)


class Runner:
    """Runs CLI calls of one round, with output files in `tmp`, and
    records a `cli.<command>` span when a tracer is given."""

    def __init__(self, tmp: Path, tracer=None):
        self.tmp = tmp
        self.tracer = tracer
        self.cli_exit_1: list[str] = []  # `epochs`/`wald` calls whose own 3-SE verdicts failed

    def path(self, name: str) -> str:
        return str(self.tmp / name)

    def cli(self, *argv, codes=(0,)) -> str:
        argv = [str(a) for a in argv]
        out = self.path(argv[0] + ".out")
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["-o", out])
        if code not in codes:
            raise RuntimeError(f"dreidel-lab {' '.join(argv)} exited {code}")
        if code == 1:
            self.cli_exit_1.append(" ".join(argv))
        return out


def _seeds(tag: str, seed: int, r: int, count: int) -> list[int]:
    rnd = random.Random(f"{tag}:{seed}:{r}")
    return [rnd.randrange(1 << 31) for _ in range(count)]


# ---------------------------------------------------------------------------
# sampling


def sampling_inputs(seed: int, r: int) -> dict:
    s = _seeds("sampling", seed, r, 10)
    return {"epochs": s[0:3], "wald": s[3], "stopping": s[4], "simulate": s[5:8],
            "games": s[8], "records": s[9]}


def _epochs(run, k, seed):
    plot = run.path("lengths.dat")
    # exit 1 is the program's own 3-SE verdict on tails that sit on their
    # bound; the Z-SE checks below judge the output instead
    out = run.cli("epochs", "--k", k, "--epochs", EPOCHS, "--seed", seed, "--plot", plot, codes=(0, 1))
    return checks.check_epochs(k, EPOCHS, checks.report_rows(out), checks.read_plot(plot))


def _wald(run, seed):
    k, n, w0 = WALD
    out = run.cli("wald", "--k", k, "--n", n, "--w0", w0, "--records", WALD_RECORDS, "--seed", seed, codes=(0, 1))
    return checks.check_wald(checks.report_rows(out))


def _stopping(ctx, seed):
    k, n, w0 = STOPPING
    sample = montecarlo.sample_stopping(k, n, w0, STOPPING_RECORDS, seed)
    ctx["stopping"] = sample
    return checks.check_stopping_arrays(k, n, w0, sample.t, sample.s_t, sample.u, sample.side_upper)


def _simulate(run, ctx, k, n, trials, seed):
    out = run.cli("simulate", "--k", k, "--n", n, "--trials", trials, "--seed", seed, "--jobs", 1)
    rows = checks.read_csv(out)
    fails = checks.check_simulate(rows, k, n, trials)
    mean, se = float(rows[0]["mean"]), float(rows[0]["se"])
    ctx[k] = (mean, se)
    if k == 2:  # against the exact chain, solved and verified here
        kernel = kernels.build_game_chain(n)
        result = solvers.absorption_stats(kernel, kernels.game_chain_start(n))
        fails += checks.check_absorption(kernel, result)
        fails += checks.agree(f"k=2 n={n} mean duration vs exact", mean, se, result.expected_time, 0.0)
    return fails


def _oracle_games(ctx, k, n, seed):
    config = GameConfig(k=k, n=n)
    games = [game.play_game(config, np.random.default_rng((seed, k, i))) for i in range(ORACLE_GAMES)]
    fails = checks.check_transcripts(games)
    mean, se = checks.mean_se([g.duration for g in games])
    return fails + checks.agree(f"k={k} n={n} mean duration vs scalar oracle", *ctx[k], mean, se)


def _oracle_records(ctx, seed):
    k, n, w0 = STOPPING
    config = GameConfig(k=k, n=n, overdraft=True)
    start = epochs.new_custom([n] * (k - 1) + [w0 + 1], config)
    records = [epochs.run_metaslowdel(start, n, np.random.default_rng((seed, k, i))) for i in range(ORACLE_RECORDS)]
    fails = checks.check_stopping_records(k, n, records)
    sample = ctx["stopping"]
    for label, vec, scalar in (("T", sample.t, [r.t for r in records]), ("U", sample.u, [r.u for r in records]),
                               ("S_T", sample.s_t, [r.s_t for r in records])):
        fails += checks.agree(f"stopping mean {label} vs scalar oracle", *checks.mean_se(vec), *checks.mean_se(scalar))
    return fails


def sampling_ops(inp: dict, run: Runner):
    ctx: dict = {}
    ops = [(f"epochs k={k}", partial(_epochs, run, k, s)) for k, s in zip((2, 3, 4), inp["epochs"])]
    ops.append(("wald", partial(_wald, run, inp["wald"])))
    ops.append(("stopping k=3", partial(_stopping, ctx, inp["stopping"])))
    ops += [(f"simulate k={k} n={n}", partial(_simulate, run, ctx, k, n, t, s))
            for (k, n, t), s in zip(SIMULATE, inp["simulate"])]
    ops += [(f"play_game k={k} n={n}", partial(_oracle_games, ctx, k, n, inp["games"]))
            for k, n, _ in SIMULATE if k > 2]
    ops.append(("run_metaslowdel k=3", partial(_oracle_records, ctx, inp["records"])))
    return ops


# ---------------------------------------------------------------------------
# chains


def chains_inputs(seed: int, r: int) -> dict:
    rnd = random.Random(f"chains:{seed}:{r}")
    queries = []
    for n, flavor in HITPROB:
        lam = 2 * n + 3
        while True:
            y = [rnd.randrange(lam) for _ in range(3)]
            z = [rnd.randrange(1, 3) for _ in range(3)]
            points = list(zip(y, z))
            if len(set(points)) == 3:
                break
        queries.append((n, flavor, points))
    return {"identity": [rnd.randrange(1 << 31) for _ in IDENTITY], "hitprob": queries}


def _report(run):
    with open(run.cli("report", "--n-list", REPORT_NS)) as fh:
        tables = checks.read_report_md(fh.read())
    lo, hi = (int(v) for v in REPORT_NS.split(".."))
    return checks.check_report(tables, list(range(lo, hi + 1)))


def _bounds_formal(run, n):
    out = run.cli("bounds", "--n", n, "--flavor", "formal", codes=(0, 1))
    return checks.check_bounds_formal(n, checks.report_rows(out))


def _identity(n, flavor, seed):
    res = hitting_bounds.identity_checks(n, flavor, n_queries=IDENTITY_QUERIES, seed=seed)
    return checks.check_identities(res, IDENTITY_QUERIES)


def _scaling(run):
    ns = ",".join(str(n) for n in SCALING_NS)
    rows = checks.read_csv(run.cli("scaling", "--k", 2, "--n-list", ns, "--mode", "exact", "--jobs", 1))
    fails = checks.check_scaling(rows, SCALING_NS)
    n = SCALING_CHECK_N
    kernel = kernels.build_game_chain(n)
    result = solvers.absorption_stats(kernel, kernels.game_chain_start(n))
    fails += checks.check_absorption(kernel, result)
    mean = float(rows[SCALING_NS.index(n)]["mean"])
    if abs(mean - result.expected_time) > 1e-12 * mean:
        fails.append(f"scaling n={n}: mean {mean} vs verified solve {result.expected_time}")
    return fails


def _pot_chain(run):
    rows = checks.report_rows(run.cli("pot-chain", "--xmax", POT_XMAX))
    kernel = kernels.build_pot_chain(POT_XMAX)
    diag = kernels.diagnostics(kernel, compute_stationary=True)
    return checks.check_pot_chain(rows, kernel, diag.stationary)


def _hitprob(run, n, flavor, points):
    (y1, z1), (y2, z2), (y3, z3) = points
    out = run.cli("hitprob", "--n", n, "--flavor", flavor, "--y1", y1, "--z1", z1,
                  "--y2", y2, "--z2", z2, "--y3", y3, "--z3", z3)
    prob = float(checks.read_csv(out)[0]["prob"])
    kernel = kernels.build_mod_chain(kernels.ModChainSpec(n=n, p_max=8 * n, flavor=flavor))
    start, target, avoid = (2, y1, z1), frozenset({(2, y2, z2)}), frozenset({(2, y3, z3)})
    solver = solvers.HitSolver(kernel, target, avoid)
    fails = checks.check_hitprob(kernel, solver.values, start, target, avoid, prob)
    return fails + checks.check_mod_chain_rules(kernel, n, 8 * n, flavor)


def chains_ops(inp: dict, run: Runner):
    ops = [("report", partial(_report, run))]
    ops += [(f"bounds formal n={n}", partial(_bounds_formal, run, n)) for n in FORMAL_NS]
    ops += [(f"identity_checks {f} n={n}", partial(_identity, n, f, s))
            for (n, f), s in zip(IDENTITY, inp["identity"])]
    ops.append(("scaling exact", partial(_scaling, run)))
    ops.append(("pot-chain", partial(_pot_chain, run)))
    ops += [(f"hitprob {f} n={n} #{i}", partial(_hitprob, run, n, f, pts))
            for i, (n, f, pts) in enumerate(inp["hitprob"])]
    return ops


# ---------------------------------------------------------------------------
# exact


def _random_start(rnd: random.Random) -> GameState:
    """An overdraft position anywhere in a game: any pot, any stacks
    (negative allowed), any player on turn."""
    k = rnd.randrange(2, 5)
    n = rnd.randrange(2, 30)
    pot = rnd.randrange(1, 3 * k + 1)
    stacks = [rnd.randrange(-3, 2 * n) for _ in range(k - 1)]
    stacks.append(k * n - pot - sum(stacks))
    config = GameConfig(k=k, n=n, overdraft=True)
    return GameState(config=config, pot=pot, stacks=tuple(stacks), turn=rnd.randrange(k), alive=(True,) * k)


def exact_inputs(seed: int, r: int) -> dict:
    rnd = random.Random(f"exact:{seed}:{r}")
    return {
        "low_epoch": [(rnd.randrange(2, 5), rnd.randrange(2, 5)) for _ in LOW_EPOCH],  # (n, t_s)
        "low_epoch_replayed": [(rnd.randrange(2, 4), rnd.randrange(1, 4)) for _ in LOW_EPOCH_REPLAYED],
        "construct": [rnd.randrange(1 << 31) for _ in CONSTRUCT],
        "restorative": [_random_start(rnd) for _ in range(RESTORATIVE_STARTS)],
        "concat": [rnd.randrange(1 << 31) for _ in CONCAT],
    }


def _exact(run, n):
    return checks.check_exact(checks.read_csv(run.cli("exact", "--n", n, "--rational")), n)


def _low_epoch(k, s, n, t_s, replay):
    count = construction.count_low_epoch_games(k, s, t_s, n)
    return checks.check_low_epoch(count, k, s, t_s, checks.replay_low_epoch(k, s, n) if replay else None)


def _gamelets(run, k, p, replay):
    table = run.path("signatures.csv")
    out = run.cli("gamelets", "--k", k, "--p", p, "--table", table)
    ref = checks.replay_signatures(k, p) if replay else None
    return checks.check_gamelets(k, p, checks.report_rows(out), checks.read_csv(table), ref)


def _construct(run, k, n, s, seed):
    out = run.cli("construct", "--k", k, "--n", n, "--s", s, "--seed", seed, "--format", "json")
    with open(out) as fh:
        payload = json.load(fh)["data"]
    return checks.check_construct(payload, k, n, s)


def _restorative(starts):
    fails = []
    for start in starts:
        fails += checks.check_restorative(start, construction.restorative_sequence(start))
    return fails


def _concat(k, n_tuples, seed):
    report = gamelets.concat_check(k, 1, n_tuples, np.random.default_rng(seed), pool_size=2000)
    return checks.check_concat(report, n_tuples)


def exact_ops(inp: dict, run: Runner):
    ops = [(f"exact n={n}", partial(_exact, run, n)) for n in EXACT_NS]
    ops += [(f"count_low_epoch_games k={k} s={s}", partial(_low_epoch, k, s, n, t, False))
            for (k, s), (n, t) in zip(LOW_EPOCH, inp["low_epoch"])]
    ops += [(f"count_low_epoch_games k={k} s={s} replayed", partial(_low_epoch, k, s, n, t, True))
            for (k, s), (n, t) in zip(LOW_EPOCH_REPLAYED, inp["low_epoch_replayed"])]
    ops += [(f"gamelets k={k} p={p}", partial(_gamelets, run, k, p, False)) for k, p in GAMELETS]
    ops += [(f"gamelets k={k} p={p} replayed", partial(_gamelets, run, k, p, True)) for k, p in GAMELETS_REPLAYED]
    ops += [(f"construct k={k} n={n} s={s}", partial(_construct, run, k, n, s, seed))
            for (k, n, s), seed in zip(CONSTRUCT, inp["construct"])]
    ops.append(("restorative_sequence", partial(_restorative, inp["restorative"])))
    ops += [(f"concat_check k={k}", partial(_concat, k, t, seed)) for (k, t), seed in zip(CONCAT, inp["concat"])]
    return ops


WORKLOADS = {
    "sampling": (sampling_inputs, sampling_ops),
    "chains": (chains_inputs, chains_ops),
    "exact": (exact_inputs, exact_ops),
}
