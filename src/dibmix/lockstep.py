"""Lock-step walks of many restarts over one deterministic update.

Each clustering method here iterates a pure function of a hashable state
from many starts.  ``walk`` runs all of those chains together: it asks for
the successors of a round's distinct states in one call, so the caller can
stack their work, and it never asks twice for one state, so restarts that
meet share the rest of one trajectory.  ``stacks`` cuts a stacked pass into
slices.  ``check``, ``check_range`` and ``check_count`` hold every rule on
the settings of a run, and no other module restates them.
"""

import numbers

# The step cap of a chain, one iteration per step, when a method is given none.
DEFAULT_MAX_ITER = 100


def check(k, n, restarts, max_iter, seed):
    """Refuse a fit of ``k`` clusters on ``n`` points unless k is an integer
    with 1 <= k <= n, it has at least one restart and one iteration, and
    ``seed`` is an integer in range."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    check_count("k", k)
    check_count("restarts", restarts)
    check_count("max_iter", max_iter)
    check_range("seed", seed)


def check_range(name, value, label=None):
    """The setting ``name``'s ``value``, unchanged, if it lies in (0, 1e100] for s,
    the s multiplier and the categorical weight, in [0, 1e100] for the seed,
    beta and gamma, and is an integer for the seed; else (NaN too) a
    ValueError naming ``label`` or ``name``."""
    # The cap keeps beta * |log q| (|log q| <= 745), gamma times a mismatch
    # count, and their sums over any array far below the largest float, 1.8e308.
    kind = "positive" if name in ("s", "s multiplier", "categorical weight") else "nonnegative"
    if not (0 < value <= 1e100 if kind == "positive" else 0 <= value <= 1e100):
        raise ValueError(f"{label or name} must be {kind} and finite, at most 1e100, got {value}")
    if name == "seed" and not isinstance(value, numbers.Integral):
        raise ValueError(f"{label or name} must be an integer, got {value!r}")
    return value


def check_count(name, value, label=None) -> int:
    """The count ``name`` (threads, restarts, max_iter; k before n is known)
    as an int; anything but an integer >= 1 is a ValueError naming ``label``
    or ``name``."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{label or name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{label or name} must be >= 1, got {value}")
    return int(value)


def stacks(items, per_stack, parts=1):
    """Contiguous slices of ``items``, in order, for one stacked pass: at
    least min(parts, len(items)) of them, each of at most ``per_stack``
    items, as even in size as they can be."""
    count = len(items)
    parts = max(-(-count // per_stack), min(parts, count))
    return [items[b * count // parts:(b + 1) * count // parts] for b in range(parts)]


def walk(starts, advance, max_steps, stops=None):
    """Walk one chain from each of ``starts``; return each chain's path of
    nodes, its start first.

    ``advance(pending)`` returns the successors of the nodes ``pending``, in
    order.  It is called once per node: each call receives every distinct
    node that a waiting chain stands on and whose successor is unknown.  A
    chain steps along successors already known without waiting for a call.
    A chain stops after ``max_steps`` steps, after a step onto the node it
    stands on (a fixed point; that step counts), or when ``stops(path)``
    holds.
    """
    successors = {}
    paths = [[node] for node in starts]

    def done(path):
        return (len(path) > max_steps or (len(path) > 1 and path[-1] == path[-2])
                or (stops is not None and stops(path)))

    live = [path for path in paths if not done(path)]
    while live:
        # a live chain stands where no successor is known yet
        pending = list(dict.fromkeys(path[-1] for path in live))
        successors.update(zip(pending, advance(pending)))
        for path in live:
            path.append(successors[path[-1]])
            while not done(path) and path[-1] in successors:
                path.append(successors[path[-1]])
        live = [path for path in live if not done(path)]
    return paths
