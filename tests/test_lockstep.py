"""``lockstep.walk`` on a toy successor map: u -> u // 2, whose only fixed
point is 0; and the slicing and argument rules ``stacks`` and ``check``."""

import itertools

import pytest

from dibmix.lockstep import check, stacks, walk


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


@pytest.mark.parametrize("k, n, restarts, max_iter, message", [
    (0, 5, 1, 1, "need 1 <= k <= n, got k=0, n=5"),
    (6, 5, 1, 1, "need 1 <= k <= n, got k=6, n=5"),
    (2, 5, 0, 1, "restarts and max_iter must be >= 1"),
    (2, 5, 1, 0, "restarts and max_iter must be >= 1"),
])
def test_check_refuses_bad_restart_arguments(k, n, restarts, max_iter, message):
    with pytest.raises(ValueError) as info:
        check(k, n, restarts, max_iter)
    assert str(info.value) == message
    check(min(max(k, 1), n), n, 1, 1)  # the same fit with good arguments passes
