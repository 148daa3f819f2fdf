"""The shift's cylinder table against the loops it replaced.

The transfer matrix used to be assembled entry by entry, and the word count
walked the prefix tree depth first. Both references are kept here, outside
the package, and the table-driven versions must reproduce them exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innerdyn.counting import CountingLedger
from innerdyn.errors import BudgetExceeded
from innerdyn.shift import PotentialSpec, SymbolicSystem, count_words, cylinder_operator


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def _weight(x, s, p):
    if p == 0:
        return np.exp(s * x)
    return x**p * np.exp(s * x) if p == int(p) else abs(x) ** p * np.exp(s * x)


def loop_cylinder_operator(S, psi, s=1.0, p=0.0):
    """The transfer matrix by a double loop over words and letters.

    A real s, also as complex(s), gives a float64 matrix of real weights.
    """
    k = psi.depth
    basis = S.cylinder_words(k)
    index = {w: i for i, w in enumerate(basis)}
    n = len(basis)
    real = complex(s).imag == 0
    mat = np.zeros((n, n), dtype=float if real else complex)
    for i, w in enumerate(basis):
        for a in range(1, S.alphabet_size + 1):
            if not S.allows(a, w[0]):
                continue
            wp = (a,) + w[:-1] if k > 1 else (a,)
            j = index.get(wp)
            if j is None:
                continue
            mat[i, j] += _weight(psi.values[wp], complex(s).real if real else s, p)
    return mat


def dfs_count_words(S, psi, xi, T, B=None, node_budget=10**7):
    """The word count by a depth-first walk of the prefix tree."""
    k = psi.depth
    xi = tuple(xi)
    cylinders = [tuple(t) for t in B] if B is not None else None
    max_tau = max((len(t) for t in cylinders), default=0) if cylinders else 0

    def member(word):
        if cylinders is None:
            return True
        stream = word + xi
        return any(stream[: len(t)] == t for t in cylinders)

    head = xi[: max(1, k - 1)]
    values = []
    members = []
    nodes = 0
    stack = [((), head, 0.0)] if T >= 0.0 else []
    while stack:
        word, state, acc = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded("word enumeration exceeded the node budget")
        values.append(acc)
        members.append(member(word))
        for a in range(S.alphabet_size, 0, -1):
            if not S.allows(a, state[0]):
                continue
            key = ((a,) + state)[:k] if k > 1 else (a,)
            inc = -psi.values[key]
            if acc + inc <= T:
                new_state = ((a,) + state)[: max(1, k - 1)]
                stack.append(((a,) + word[: max(max_tau - 1, 0)], new_state, acc + inc))
    return CountingLedger.from_events(
        np.array(values), member_mask=np.array(members, dtype=bool))


# ---------------------------------------------------------------------------
# random systems
# ---------------------------------------------------------------------------

def _incidences():
    def square(m):
        row = st.lists(st.booleans(), min_size=m, max_size=m).filter(any)
        return st.lists(row, min_size=m, max_size=m)
    return st.integers(1, 4).flatmap(square)


def _system(rows, depth, seed, lo=0.7, hi=2.0):
    S = SymbolicSystem(np.array(rows, dtype=np.uint8))
    rng = np.random.default_rng(seed)
    words = S.cylinder_words(depth)
    psi = PotentialSpec(depth, dict(zip(words, -rng.uniform(lo, hi, len(words)))))
    return S, psi, rng


def _admissible_seed(S, rng, length):
    word = [int(rng.integers(1, S.alphabet_size + 1))]
    while len(word) < length:
        word.append(int(rng.choice(np.flatnonzero(S.incidence[word[-1] - 1]))) + 1)
    return tuple(word)


def test_operator_weights_match_per_word_power():
    # on the depth-1 full shift every row holds the weights of all letters;
    # 1000 letters show last-place differences between power routines
    rng = np.random.default_rng(3)
    S = SymbolicSystem.full_shift(1000)
    psi = PotentialSpec(1, {(a,): -float(x) for a, x in
                            enumerate(rng.uniform(0.01, 30.0, 1000), start=1)})
    x = [psi.values[(a,)] for a in range(1, 1001)]
    for s in (1.0, 1.0 + 0.5j):
        for p in (0.5, 1.5, 2.0, 3.0):
            M = cylinder_operator(S, psi, s, p)
            row = np.zeros(1000, dtype=complex if complex(s).imag else float)
            row += np.array([_weight(v, s, p) for v in x])
            assert M[0].tobytes() == row.tobytes()
            assert np.array_equal(M, np.broadcast_to(M[0], M.shape))


def test_table_edges_are_the_predecessors():
    S = SymbolicSystem(np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    for k in (1, 2, 3):
        tab = S.cylinder_table(k)
        assert tab.basis == sorted(tab.basis)
        assert np.array_equal(tab.letters, np.array(tab.basis))
        got = sorted(zip(tab.rows.tolist(), tab.cols.tolist()))
        want = sorted((i, tab.index[(a,) + w[:-1]]) for i, w in enumerate(tab.basis)
                      for a in (1, 2, 3) if S.allows(a, w[0]))
        assert got == want
    assert S.cylinder_table(2) is S.cylinder_table(2)


@given(_incidences(), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.one_of(st.floats(1.0, 3.0), st.builds(complex, st.floats(1.0, 3.0),
                                                  st.floats(-3.0, 3.0))),
       st.sampled_from([0.0, 1.0, 2.0, 0.5]))
@settings(max_examples=120, deadline=None)
def test_operator_matches_double_loop_bytewise(rows, depth, seed, s, p):
    S, psi, _ = _system(rows, depth, seed)
    got = cylinder_operator(S, psi, s, p)
    want = loop_cylinder_operator(S, psi, s, p)
    assert got.tobytes() == want.tobytes()


@given(_incidences(), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.floats(-0.5, 3.5))
@settings(max_examples=80, deadline=None)
def test_count_matches_depth_first_walk(rows, depth, seed, T):
    S, psi, rng = _system(rows, depth, seed)
    xi = _admissible_seed(S, rng, max(2, depth) + int(rng.integers(0, 3)))
    B = [tuple(int(a) for a in rng.integers(1, S.alphabet_size + 1, size=n))
         for n in rng.integers(1, 4, size=int(rng.integers(1, 3)))]
    events = dfs_count_words(S, psi, xi, T).values
    # also cut exactly at the largest event, which must be kept
    for horizon in (T, *events[-1:]):
        for cyl in (None, B):
            got = count_words(S, psi, xi, horizon, B=cyl)
            want = dfs_count_words(S, psi, xi, horizon, B=cyl)
            assert np.array_equal(got.values, want.values)
            grid = np.concatenate([want.values, np.linspace(-0.5, 3.5, 9)])
            for t in grid:
                assert got.count(t, strict=True) == want.count(t, strict=True)
                assert got.count(t, strict=False) == want.count(t, strict=False)
    # the budget refuses exactly when there are more events than it allows
    n = len(events)
    assert len(count_words(S, psi, xi, T, node_budget=n).values) == n
    if n:
        with pytest.raises(BudgetExceeded):
            count_words(S, psi, xi, T, node_budget=n - 1)


def test_refused_walk_stays_within_the_budget():
    # 200 letters: the second level has 40,000 candidate words, 80x the budget
    S = SymbolicSystem.full_shift(200)
    psi = PotentialSpec.constant(S, -0.01)
    S.cylinder_table(1)
    budget = 500
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            count_words(S, psi, (1, 1), 10.0, node_budget=budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * budget


def test_inadmissible_seed_refused():
    golden = SymbolicSystem(np.array([[1, 1], [1, 0]]))
    psi = PotentialSpec.constant(golden, -math.log(2))
    with pytest.raises(ValueError, match="not admissible"):
        count_words(golden, psi, (2, 2, 1), 4.0)
    assert count_words(golden, psi, (1, 2, 1), 4.0).total > 0
