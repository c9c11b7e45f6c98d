"""``lockstep.walk`` on a toy successor map: u -> u // 2, whose only fixed
point is 0; the slicing rule ``stacks``; and the argument and range rules
``check`` and ``check_range``, directly and through every caller."""

import itertools
import math
import re
import warnings

import pytest

from dibmix import (
    BenchmarkPlan,
    GenSpec,
    choose_bandwidths,
    default_s,
    dib_fit,
    generate,
    gower,
    init_random,
    kprototypes_chain,
    kprototypes_fit,
    pam_fit,
    select_lambda,
    standardize,
)
from dibmix.lockstep import check, check_range, stacks, walk


class _Halving:
    """``advance`` for u -> u // 2 that records every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, pending):
        self.calls.append(list(pending))
        return [u // 2 for u in pending]


@pytest.mark.parametrize("max_steps, path", [(0, [12]), (1, [12, 6]), (2, [12, 6, 3])])
def test_cap_counts_steps(max_steps, path):
    advance = _Halving()
    assert walk([12], advance, max_steps) == [path]
    assert advance.calls == [[u] for u in path[:-1]]


def test_fixed_point_stops_the_chain_and_counts_as_a_step():
    advance = _Halving()
    assert walk([2], advance, 100) == [[2, 1, 0, 0]]
    assert advance.calls == [[2], [1], [0]]
    # the step onto the fixed point is the third, so a cap of 2 ends before it
    assert walk([2], _Halving(), 3) == [[2, 1, 0, 0]]
    assert walk([2], _Halving(), 2) == [[2, 1, 0]]


def test_stops_ends_a_chain():
    def odd(path):
        return path[-1] % 2 == 1

    advance = _Halving()
    assert walk([12, 5, 40], advance, 100, odd) == [[12, 6, 3], [5], [40, 20, 10, 5]]
    assert 5 not in (u for call in advance.calls for u in call)


def test_every_node_is_advanced_once_and_a_round_comes_in_one_call():
    advance = _Halving()
    starts = [48, 6, 13, 48, 7, 12, 1]
    paths = walk(starts, advance, 100)
    assert paths[0] == [48, 24, 12, 6, 3, 1, 0, 0]
    assert paths[3] == paths[0]
    advanced = [u for call in advance.calls for u in call]
    assert len(advanced) == len(set(advanced))
    assert set(advanced) == {u for path in paths for u in path[:-1]}
    # each round asks for every distinct node that a waiting chain stands on
    # at once, in chain order
    assert advance.calls == [[48, 6, 13, 7, 12, 1], [24, 3, 0]]


def test_chain_steps_along_known_successors_without_waiting():
    # The chain from 3 stops at 1 after one step.  The chain from 6 reaches
    # 3 in the first round and walks on to 1 at once, so it asks for 1 in
    # the second round, together with the chain from 64.
    def first_step_from_3(path):
        return path[0] == 3 and len(path) == 2

    advance = _Halving()
    paths = walk([6, 3, 64], advance, 100, first_step_from_3)
    assert paths[:2] == [[6, 3, 1, 0, 0], [3, 1]]
    assert advance.calls[:2] == [[6, 3, 64], [1, 32]]


def test_permuting_starts_permutes_paths():
    starts = [48, 6, 13, 7, 12, 1, 0]
    paths = walk(starts, _Halving(), 4)
    for perm in itertools.islice(itertools.permutations(range(len(starts))), 0, None, 97):
        assert walk([starts[i] for i in perm], _Halving(), 4) == [paths[i] for i in perm]


@pytest.mark.parametrize("count, per_stack, parts", [
    (0, 3, 1), (0, 3, 4),  # an empty pass has no slices
    (2, 5, 4),  # fewer items than parts
    (7, 1, 1), (7, 1, 3),  # one item per slice
    (10, 3, 1), (10, 3, 2), (10, 4, 5), (11, 100, 3),  # per_stack divides no count
])
def test_stacks_cover_items_in_order_within_budget(count, per_stack, parts):
    items = list(range(100, 100 + count))
    slices = stacks(items, per_stack, parts)
    assert [u for part in slices for u in part] == items
    assert all(1 <= len(part) <= per_stack for part in slices)
    assert len(slices) >= min(parts, count)
    # no more slices than the budget or the parts call for
    assert len(slices) == max(-(-count // per_stack), min(parts, count))


@pytest.mark.parametrize("k, n, restarts, max_iter, message, seed", [
    (0, 5, 1, 1, "need 1 <= k <= n, got k=0, n=5", 0),
    (6, 5, 1, 1, "need 1 <= k <= n, got k=6, n=5", 0),
    (2, 5, 0, 1, "restarts must be >= 1, got 0", 0),
    (2, 5, 1, 0, "max_iter must be >= 1, got 0", 0),
    (2, 5, 2.5, 1, "restarts must be an integer, got 2.5", 0),
    (2, 5, 1, 1, "seed must be nonnegative and finite, at most 1e100, got -1", -1),
    (2.5, 5, 1, 1, "k must be an integer, got 2.5", 0),
    (0.5, 5, 1, 1, "need 1 <= k <= n, got k=0.5, n=5", 0),  # the range is checked first
    (2, 5, 1, 1, "seed must be an integer, got 1.5", 1.5),
])
def test_check_refuses_bad_restart_arguments(k, n, restarts, max_iter, message, seed):
    with pytest.raises(ValueError) as info:
        check(k, n, restarts, max_iter, seed)
    assert str(info.value) == message
    check(min(max(int(k), 1), n), n, 1, 1, 0)  # the same fit with good arguments passes


@pytest.mark.parametrize("name, value, ok", [
    ("seed", 0, True), ("beta", 0.0, True), ("gamma", 1e100, True), ("s", 1e100, True),
    ("s", 0.0, False), ("s multiplier", -1.0, False), ("categorical weight", 0.0, False),
    ("beta", math.nextafter(1e100, math.inf), False), ("gamma", -1e-300, False),
    ("seed", 10**101, False), ("s", math.nan, False), ("beta", math.nan, False),
])
def test_check_range_bounds(name, value, ok):
    if ok:
        assert check_range(name, value) is value
    else:
        message = rf"^--flag must be .* at most 1e100, got {re.escape(str(value))}$"
        with pytest.raises(ValueError, match=message):
            check_range(name, value, "--flag")


def _mixed():
    spec = GenSpec(n=40, p_c=2, p_d=2, levels=3, overlap_cont=0.3, overlap_cat=0.3, seed=3)
    return standardize(generate(spec).data)


@pytest.mark.parametrize("setting, call", [
    pytest.param("seed", lambda ds: dib_fit(ds, 2, 10.0, choose_bandwidths(ds), rng_seed=-1),
                 id="dib_fit-seed"),
    pytest.param("seed", lambda ds: kprototypes_fit(ds, 2, rng_seed=-1),
                 id="kprototypes_fit-seed"),
    pytest.param("seed", lambda ds: kprototypes_chain(ds, 2, rng_seed=-1),
                 id="kprototypes_chain-seed"),
    pytest.param("seed", lambda ds: pam_fit(gower(ds), 2, restarts=1, rng_seed=-1),
                 id="pam_fit-seed"),
    pytest.param("seed", lambda ds: init_random(10, 2, -1), id="init_random-seed"),
    pytest.param("s multiplier", lambda ds: default_s(ds, math.nan), id="default_s-nan"),
    pytest.param("s multiplier", lambda ds: default_s(ds, math.inf), id="default_s-inf"),
    pytest.param("categorical weight", lambda ds: select_lambda(ds, 1.0, math.inf),
                 id="select_lambda-inf"),
    pytest.param("beta", lambda ds: dib_fit(ds, 2, 1e308, choose_bandwidths(ds)),
                 id="dib_fit-beta"),
    pytest.param("gamma", lambda ds: kprototypes_fit(ds, 2, gamma=1e308),
                 id="kprototypes_fit-gamma"),
    pytest.param("beta", lambda ds: BenchmarkPlan(beta=1e308), id="BenchmarkPlan-beta"),
    # a count or a seed that is not an integer
    pytest.param("k", lambda ds: kprototypes_fit(ds, 2.5), id="kprototypes_fit-k"),
    pytest.param("k", lambda ds: kprototypes_chain(ds, 2.5), id="kprototypes_chain-k"),
    pytest.param("k", lambda ds: pam_fit(gower(ds), 2.5), id="pam_fit-k"),
    pytest.param("seed", lambda ds: pam_fit(gower(ds), 2, rng_seed=1.5), id="pam_fit-seed-1.5"),
    pytest.param("k", lambda ds: init_random(50, 2.5, 0), id="init_random-k"),
    pytest.param("k", lambda ds: BenchmarkPlan(k=2.5), id="BenchmarkPlan-k"),
    pytest.param("seed", lambda ds: BenchmarkPlan(seed=1.5), id="BenchmarkPlan-seed"),
    pytest.param("replicates", lambda ds: BenchmarkPlan(replicates=1.5),
                 id="BenchmarkPlan-replicates"),
])
def test_out_of_range_setting_is_refused_by_name(setting, call):
    ds = _mixed()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning, no clamping
        with pytest.raises(ValueError, match=f"^{setting} must be"):
            call(ds)
