"""Shared pytest plumbing: surface acceptance-criterion verdict lines, and
build toy Markov kernels."""

import numpy as np
import scipy.sparse as sp

from dreidel_lab.kernels import SparseKernel

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
