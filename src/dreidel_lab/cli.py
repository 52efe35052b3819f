"""Command-line entry point: a subcommand per analysis, save five that only
the acceptance gate runs (ganz_wait, identity_checks, concat_check,
restorative_sequence, count_low_epoch_games).  The five that draw random
numbers (simulate, epochs, wald, construct, scaling) take --seed.

Exit codes: 0 success, 1 hard bound-check failure, 2 usage error,
infeasible parameters or an unwritable output (a closed stdout too),
3 a computation failed its own check (a solver residual, a singular
system, a bound-table truncation, a construction or a game rule);
errors print one `error:` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import construction, gamelets, hitting_bounds, kernels, montecarlo, solvers
from .game import GameConfig, GameError
from .reporting import BOUND_COLUMNS, BoundReport, format_csv, format_json, write_text, emit_plot_data
from .rng import OUTCOME_LETTERS, make_generator

PATH_FLAGS = ("output", "plot", "table")  # where a run writes, not what it computes


def _parse_n_list(text: str) -> list[int]:
    """Accept '5,10,20' or '2..8'; reject a list that is empty or repeats an n."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"--n-list {text!r} is not a list of integers like 5,10,20 or 2..8") from None
    if not ns:
        raise ValueError(f"--n-list {text!r} is empty")
    if len(set(ns)) < len(ns):
        raise ValueError(f"--n-list {text!r} repeats an n")
    return ns


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")


def _runspec(args: argparse.Namespace) -> dict:
    # jobs is an execution detail: results are byte-identical at any width
    skip = {"func", "jobs", *PATH_FLAGS}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(args, meta: dict, columns: list[str], rows: list[list], payload=None) -> None:
    if args.format == "json":
        data = payload if payload is not None else [dict(zip(columns, r)) for r in rows]
        text = format_json(meta, data)
    else:
        text = format_csv(meta, columns, rows)
    _write(args.output, text)


def _write(path: str | None, text: str) -> None:
    if path:
        write_text(path, text)
    else:
        sys.stdout.write(text)


def _finish_report(args, report: BoundReport, extra_rows: list[list] | None = None) -> int:
    rows = (extra_rows or []) + report.rows()
    _emit(args, _runspec(args), BOUND_COLUMNS, rows)
    n_fail = len(report.failures)
    print(f"{report.title}: {len(report.entries)} checks, {n_fail} failures")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    _check_jobs(args)
    config = GameConfig(k=args.k, n=args.n)
    est = montecarlo.estimate_mean_duration(config, args.trials, args.seed, jobs=args.jobs)
    _emit(
        args,
        _runspec(args),
        ["k", "n", "trials", "mean", "se", "ci99_lo", "ci99_hi"],
        [[config.k, config.n, est.trials, est.mean, est.se, est.ci99[0], est.ci99[1]]],
    )
    print(f"simulate k={config.k} n={config.n}: mean duration {est.mean:.4f} (se {est.se:.4f})")
    return 0


def cmd_epochs(args) -> int:
    stats = montecarlo.payoff_sample(args.k, args.epochs, args.seed)
    report = montecarlo.moment_report(stats)
    report.entries += montecarlo.tail_report(stats).entries + montecarlo.landslide_report(stats).entries
    extra = [
        ["epochs", "", stats.count, "", "report"],
        ["mean(Y1)", "", stats.mean, "", "report"],
        ["E(Y1^2)", "", stats.second_moment, "", "report"],
        ["var(Y1)", "", stats.variance, "", "report"],
    ]
    if args.plot:
        hist = stats.length_hist
        emit_plot_data(
            [(i, int(c)) for i, c in enumerate(hist) if c],
            args.plot,
            meta=_runspec(args),
        )
    return _finish_report(args, report, extra_rows=extra)


def cmd_wald(args) -> int:
    montecarlo.check_stopping(args.k, args.n, args.w0, args.records)  # before the epoch sample is drawn
    stats = montecarlo.payoff_sample(args.k, args.epochs, args.seed)
    sample = montecarlo.sample_stopping(args.k, args.n, args.w0, args.records, args.seed + 1)
    report = montecarlo.wald_report(sample, stats)
    return _finish_report(args, report)


def cmd_exact(args) -> int:
    kernel = kernels.build_game_chain(args.n)
    start = kernels.game_chain_start(args.n)
    result = solvers.absorption_stats(kernel, start)
    mu_d = result.expected_time
    rows = [["mu_d", args.n, mu_d]]
    for label in sorted(result.absorb_probs, key=str):
        rows.append([f"absorb_{label[1]}", args.n, result.absorb_prob_from(start, label)])
    if args.rational:
        exact = solvers.absorption_time_exact(kernel, start)
        rows.append(["mu_d_rational", args.n, float(exact)])
        rows.append(["float_vs_rational", args.n, abs(mu_d - float(exact))])
    _emit(args, _runspec(args), ["quantity", "n", "value"], rows)
    print(f"exact n={args.n}: mean duration {mu_d:.6f} over {kernel.n_states} states")
    return 0


def cmd_pot_chain(args) -> int:
    kernel = kernels.build_pot_chain(args.xmax)
    diag = kernels.diagnostics(kernel, compute_stationary=True)
    pi2 = float(diag.stationary[kernel.index[2]])
    ret2 = float(diag.mean_return[kernel.index[2]])
    report = BoundReport(f"pot chain, x_max={args.xmax}")
    report.check_ge("irreducible", float(diag.irreducible), 1.0)
    report.check_ge("aperiodic", float(diag.period == 1), 1.0)
    report.check_ge("pi_2 >= 6/13", pi2, 6 / 13, slack=1e-9)
    report.check_ge("pi_2 > 1/4", pi2, 0.25)
    report.check_le("return time to pot 2 <= 4", ret2, 4.0, slack=1e-9)
    report.check_le("stationarity residual", diag.residual, 1e-10)
    return _finish_report(args, report)


def cmd_hitprob(args) -> int:
    p_max = hitting_bounds.START_CAP_PER_N * args.n if args.pmax is None else args.pmax
    spec = kernels.ModChainSpec(n=args.n, p_max=p_max, flavor=args.flavor)
    kernel = kernels.build_mod_chain(spec)
    solver = solvers.HitSolver(
        kernel,
        target=frozenset({spec.pot2(args.y2, args.z2)}),
        avoid=frozenset({spec.pot2(args.y3, args.z3)}),
    )
    prob = solver.prob(spec.pot2(args.y1, args.z1), first_step_exempt=args.exempt)
    _emit(
        args,
        _runspec(args),
        ["n", "flavor", "y1", "z1", "y2", "z2", "y3", "z3", "prob"],
        [[args.n, args.flavor, args.y1, args.z1, args.y2, args.z2, args.y3, args.z3, prob]],
    )
    print(f"hitprob n={args.n} ({args.flavor}): {prob:.12f}")
    return 0


def cmd_bounds(args) -> int:
    report = hitting_bounds.bound_tables(args.n, flavor=args.flavor)
    return _finish_report(args, report)


def cmd_gamelets(args) -> int:
    table = gamelets.enumerate_signatures(args.k, args.p)
    report = gamelets.minkowski_check(table)
    if args.table:
        cols = [f"u{i + 1}" for i in range(args.k - 1)] + ["count"]
        write_text(args.table, format_csv(_runspec(args), cols, table.rows()))
    return _finish_report(args, report)


def cmd_construct(args) -> int:
    rng = make_generator(args.seed)
    game = construction.construct_long_game(args.k, args.n, args.s, alpha=args.alpha, rng=rng)
    payload = {
        "k": args.k,
        "n": args.n,
        "s": args.s,
        "alpha": game.plan.alpha,
        "t_s": game.plan.t_s,
        "phase_spins": list(game.plan.phase_spins),
        "epochs": game.epochs,
        "final_w": game.final_w,
        "outcomes": "".join(OUTCOME_LETTERS[o] for o in game.outcomes),
    }
    if args.format == "csv":
        rows = [[key, payload[key]] for key in payload if key != "outcomes"]
        _emit(args, _runspec(args), ["field", "value"], rows)
    else:
        _emit(args, _runspec(args), [], [], payload=payload)
    print(
        f"construct k={args.k} n={args.n} s={args.s}: {game.total_spins} spins, "
        f"{game.epochs} epochs (needed {game.plan.t_s})"
    )
    return 0


def cmd_scaling(args) -> int:
    _check_jobs(args)
    ns = _parse_n_list(args.n_list)
    fit = montecarlo.scaling_report(
        args.k, ns, mode=args.mode, trials=args.trials, seed=args.seed, jobs=args.jobs
    )
    rows = [
        [
            r.n,
            r.mean,
            "" if r.se is None else r.se,
            r.mean if args.mode == "exact" else "",
            r.ratio_n2,
            r.ratio_asymptotic,
        ]
        for r in fit.rows
    ]
    spec = _runspec(args)
    if args.mode == "exact":  # draws no random numbers: seed and trials change nothing
        del spec["seed"], spec["trials"]
    _emit(args, spec, ["n", "mean", "se", "exact", "ratio_to_n2", "ratio_to_asymptotic_bound"], rows)
    if args.plot:
        emit_plot_data([(r.n, r.mean) for r in fit.rows], args.plot, meta=spec)
    print(f"scaling k={args.k} ({fit.mode}): log-log slope {fit.slope:.4f}")
    return 0


def cmd_report(args) -> int:
    ns = _parse_n_list(args.n_list)
    lines = ["# bound verdicts", ""]
    any_fail = False
    for n in ns:
        rep = hitting_bounds.bound_tables(n, flavor="game")
        any_fail |= not rep.ok
        lines.append(f"## hitting bounds, n={n}")
        lines.append("")
        lines.append("| name | bound | measured | verdict |")
        lines.append("|---|---|---|---|")
        for e in rep.entries:
            bound = "" if e.bound is None else f"{e.bound:.6g}"
            lines.append(f"| {e.name} | {bound} | {e.measured:.6g} | {e.verdict} |")
        lines.append("")
    _write(args.output, "\n".join(lines) + "\n")
    print(f"report: {len(ns)} bound tables, {'FAIL' if any_fail else 'ok'}")
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, seed: bool = False) -> None:
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dreidel-lab",
        description="Simulation and exact-numerics laboratory for dreidel variants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo mean game duration")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("epochs", help="payoff statistics with moment/tail checks")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--epochs", type=int, default=100_000)
    p.add_argument("--plot", default=None, help="write epoch-length histogram plot data")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_epochs)

    p = sub.add_parser("wald", help="stopping-time identities")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--w0", type=int, default=3)
    p.add_argument("--records", type=int, default=10_000)
    p.add_argument("--epochs", type=int, default=100_000)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_wald)

    p = sub.add_parser("exact", help="exact two-player absorption time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rational", action="store_true", help="also solve in exact rationals")
    _add_common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("pot-chain", help="stationary analysis of the pot chain")
    p.add_argument("--xmax", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=cmd_pot_chain)

    p = sub.add_parser("hitprob", help="hitting probability on the mod chain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", choices=["game", "formal"], default="game")
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--y1", type=int, required=True)
    p.add_argument("--z1", type=int, choices=[1, 2], required=True)
    p.add_argument("--y2", type=int, required=True)
    p.add_argument("--z2", type=int, choices=[1, 2], required=True)
    p.add_argument("--y3", type=int, required=True)
    p.add_argument("--z3", type=int, choices=[1, 2], required=True)
    p.add_argument("--exempt", action="store_true", help="ignore avoid-set membership at time 0")
    _add_common(p)
    p.set_defaults(func=cmd_hitprob)

    p = sub.add_parser("bounds", help="hitting-bound tables for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--flavor", choices=["game", "formal"], default="game")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gamelets", help="signature enumeration and Minkowski check")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--table", default=None, help="write the full signature table CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_gamelets)

    p = sub.add_parser("construct", help="build a legal four-phase long game")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("scaling", help="duration scaling over n")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n-list", required=True, help="e.g. 5,10,20,40 or 2..8")
    p.add_argument("--mode", choices=["mc", "exact"], default="mc")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--plot", default=None, help="write (n, mean) plot data here")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("report", help="aggregated markdown of bound verdicts")
    p.add_argument("--n-list", required=True, help="e.g. 2..8")
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a missing directory is found before the run, not after part of its output is written
        for path in filter(None, (getattr(args, a, None) for a in PATH_FLAGS)):
            if not os.path.isdir(os.path.dirname(path) or "."):
                raise ValueError(f"cannot write {path}: No such file or directory")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:  # the reader closed stdout; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write <stdout>: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, construction.InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        kernels.SolverError,
        hitting_bounds.TruncationError,
        construction.ConstructionError,
        GameError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
