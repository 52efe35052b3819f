"""Shared pytest plumbing: surface acceptance-criterion verdict lines,
build toy Markov kernels, and step the mod-Lambda chain by the scalar
rules engine."""

import numpy as np
import scipy.sparse as sp

from dreidel_lab.game import GameConfig, GameState, apply_spin
from dreidel_lab.kernels import ModChainSpec, SparseKernel

criterion_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in criterion_lines:
            terminalreporter.line(line)


def toy_kernel(states, rows: dict, absorbing=()) -> SparseKernel:
    """A validated kernel on `states` from {state: {successor: probability}};
    states without a row must be listed in `absorbing`."""
    index = {s: i for i, s in enumerate(states)}
    triples = [(index[s], index[t], p) for s, succ in rows.items() for t, p in succ.items()]
    ri, ci, data = zip(*triples) if triples else ((), (), ())
    csr = sp.csr_matrix((data, (ri, ci)), shape=(len(states), len(states)))
    kernel = SparseKernel(states=list(states), csr=csr, absorbing=np.array([s in absorbing for s in states]))
    kernel.validate()
    return kernel


def mod_chain_step(spec: ModChainSpec, state: tuple[int, int, int], outcome: int) -> tuple[int, int, int]:
    """One spin of the mod-Lambda chain through `game.apply_spin`: the
    scalar oracle for the rows of `build_mod_chain`.  The spinner sits on
    seat 0, and y is the spinner's stack on P1's spins, or on every
    formal-flavor spin; otherwise it is the other player's."""
    x, y, z = state
    spinner_holds_y = z == 1 or spec.flavor == "formal"
    stacks = (y, 0) if spinner_holds_y else (0, y)
    after, _ = apply_spin(GameState(GameConfig(2, spec.n, overdraft=True), x, stacks, 0, (True, True)), outcome)
    y_after = after.stacks[0] if spinner_holds_y else after.stacks[1]
    return (min(after.pot, spec.p_max), y_after % spec.lam, 3 - z)
