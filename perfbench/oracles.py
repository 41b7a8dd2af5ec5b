"""Reference implementations the benchmark checks alloclab's outputs against.

Everything here is written from the definitions of the rules and axioms,
with ``fractions.Fraction`` only; nothing imports alloclab. A utility is a
tuple of Fractions (one value per object), a profile a tuple of utilities,
an allocation a tuple of rows (agent i's lottery over objects).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)
LABELS = "abcdefghijklmnopqrstuvwxyz"


def fraction(text) -> Fraction:
    """Exact rational from a report string such as '3/7' or '1'."""
    if not isinstance(text, str) or "." in text or "e" in text.lower():
        raise ValueError(f"not an exact rational string: {text!r}")
    return Fraction(text)


def matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(fraction(p) for p in row) for row in rows)


def ranking(values) -> tuple[int, ...]:
    """Objects best first; utilities have no ties."""
    if len(set(values)) != len(values):
        raise ValueError(f"tied utility {values}")
    return tuple(sorted(range(len(values)), key=lambda a: values[a], reverse=True))


def order_from_text(text: str) -> tuple[int, ...]:
    return tuple(LABELS.index(part.strip()) for part in text.split(">"))


def canonical(values) -> tuple[Fraction, ...]:
    """The cone representative with minimum 0 and values summing to 1."""
    low = min(values)
    total = sum(v - low for v in values)
    return tuple((v - low) / total for v in values)


def grid_utility(order: tuple[int, ...], mu: Fraction) -> tuple[Fraction, ...]:
    """Three objects: best 1, middle mu, worst 0, then canonicalized."""
    values = [ZERO] * 3
    values[order[0]], values[order[1]], values[order[2]] = ONE, mu, ZERO
    return canonical(values)


def middle_rate(values) -> Fraction:
    best, mid, worst = ranking(values)
    return (values[mid] - values[worst]) / (values[best] - values[worst])


def all_orders(n: int = 3) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(n)))


def grid_cells(mu_grid) -> list[tuple[Fraction, ...]]:
    """One agent's grid reports: every order times every middle rate."""
    return [grid_utility(order, mu) for order in all_orders(3) for mu in mu_grid]


# --- rules --------------------------------------------------------------


def _permutation_matrix(assignment) -> tuple[tuple[Fraction, ...], ...]:
    n = len(assignment)
    return tuple(
        tuple(ONE if assignment[i] == a else ZERO for a in range(n)) for i in range(n)
    )


def _serial_picks(rankings, priority) -> list[int]:
    picks = [None] * len(rankings)
    free = set(range(len(rankings)))
    for agent in priority:
        for obj in rankings[agent]:
            if obj in free:
                picks[agent] = obj
                free.remove(obj)
                break
    return picks


def dictatorship(prof) -> tuple[tuple[Fraction, ...], ...]:
    """Serial dictatorship with the fixed priority 0, 1, ..., n-1."""
    rankings = [ranking(u) for u in prof]
    return _permutation_matrix(_serial_picks(rankings, range(len(prof))))


def rsd(prof) -> tuple[tuple[Fraction, ...], ...]:
    """Random serial dictatorship: the average over all n! priority orders."""
    n = len(prof)
    rankings = [ranking(u) for u in prof]
    counts = [[0] * n for _ in range(n)]
    orders = list(itertools.permutations(range(n)))
    for priority in orders:
        for agent, obj in enumerate(_serial_picks(rankings, priority)):
            counts[agent][obj] += 1
    return tuple(tuple(Fraction(c, len(orders)) for c in row) for row in counts)


def ps(prof) -> tuple[tuple[Fraction, ...], ...]:
    """Probabilistic serial: every agent eats its best object still in
    supply at unit speed; the clock jumps to the next object run out."""
    n = len(prof)
    rankings = [ranking(u) for u in prof]
    supply = [ONE] * n
    shares = [[ZERO] * n for _ in range(n)]
    clock = ZERO
    while clock < ONE:
        eating = [next(o for o in rankings[i] if supply[o] > 0) for i in range(n)]
        eaters = {o: eating.count(o) for o in set(eating)}
        step = min(supply[o] / k for o, k in eaters.items())
        for agent, obj in enumerate(eating):
            shares[agent][obj] += step
        for obj, k in eaters.items():
            supply[obj] -= step * k
        clock += step
    return tuple(tuple(row) for row in shares)


def utilitarian(prof) -> tuple[tuple[Fraction, ...], ...]:
    """The lexicographically smallest (row-major) permutation matrix among
    the assignments of largest total canonical utility."""
    canon = [canonical(u) for u in prof]
    n = len(prof)
    best_total, best = None, None
    for assignment in itertools.permutations(range(n)):
        total = sum(canon[i][assignment[i]] for i in range(n))
        flat = _permutation_matrix(assignment)
        if best_total is None or total > best_total or (
            total == best_total and flat < best
        ):
            best_total, best = total, flat
    return best


BASE_RULES = {
    "rsd": rsd,
    "ps": ps,
    "dictatorship": dictatorship,
    "utilitarian": utilitarian,
}
ORDINAL_BASES = {"rsd", "ps", "dictatorship"}
STRATEGY_PROOF_BASES = {"rsd", "dictatorship"}


def blend_parts(name: str) -> tuple[str, str, Fraction] | None:
    """('rsd', 'ps', 1/2) for 'blend:rsd:ps:1/2'; None for a base rule."""
    if not name.startswith("blend:"):
        return None
    _, first, second, alpha = name.split(":")
    return first, second, fraction(alpha)


def rule(name: str):
    """Reference allocation function for a rule name as alloclab prints it."""
    parts = blend_parts(name)
    if parts is None:
        return BASE_RULES[name]
    first, second, alpha = parts
    left, right = rule(first), rule(second)

    def allocate(prof):
        return tuple(
            tuple(alpha * p + (ONE - alpha) * q for p, q in zip(row_p, row_q))
            for row_p, row_q in zip(left(prof), right(prof))
        )

    return allocate


def bases(name: str) -> set[str]:
    parts = blend_parts(name)
    return {name} if parts is None else bases(parts[0]) | bases(parts[1])


def is_ordinal(name: str) -> bool:
    """Depends on reports only through their rankings, by construction."""
    return bases(name) <= ORDINAL_BASES


def is_strategy_proof(name: str) -> bool:
    """Expected utility is linear in the lottery, so a mixture of
    strategy-proof rules is strategy-proof."""
    return bases(name) <= STRATEGY_PROOF_BASES


# --- value-level checks ---------------------------------------------------


def expected_utility(values, row) -> Fraction:
    return sum((v * p for v, p in zip(values, row)), ZERO)


def sd_verdict(p, q, order) -> str:
    """First-order stochastic dominance of p over q at a ranking, from the
    cumulative probabilities of the ranking's upper sets."""
    if tuple(p) == tuple(q):
        return "Equal"
    cum_p = cum_q = ZERO
    p_weak = q_weak = True
    for obj in order[:-1]:
        cum_p += p[obj]
        cum_q += q[obj]
        p_weak = p_weak and cum_p >= cum_q
        q_weak = q_weak and cum_q >= cum_p
    if p_weak:
        return "Dominates"
    if q_weak:
        return "DominatedBy"
    return "Incomparable"


def is_bistochastic(mat) -> bool:
    n = len(mat)
    return (
        all(len(row) == n for row in mat)
        and all(p >= 0 for row in mat for p in row)
        and all(sum(row) == ONE for row in mat)
        and all(sum(row[a] for row in mat) == ONE for a in range(n))
    )


def max_abs_difference(first, second) -> Fraction:
    return max(
        abs(p - q) for row_p, row_q in zip(first, second) for p, q in zip(row_p, row_q)
    )
