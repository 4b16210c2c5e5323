"""One SHA-256 over everything the three solver modes hand back, on the
fixtures and a size sweep of cpmatch.gen graphs: a speedup or a refactor
that keeps outputs bit-identical passes it unedited."""

import hashlib
import random

from cpmatch.cpm import solve_naive, solve_perturbed_reference, solve_unperturbed
from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.gen import random_matchable_graph, random_ordering
from cpmatch.rationals import rat_str

#: The digest below over the 3 fixtures and gen graphs n = 4..40 step 4
#: (m = min(3n, n(n-1)/2), costs 1..3, one random.Random(1) drawing each
#: graph and then its ordering), each solved in all three modes.
OUTPUTS_DIGEST = "4b7b86f97bee0bfe420ac5102e236193e1467e992c9f92d85bc75fe0c17ea2a9"


def _key(k) -> str:
    """A dual key, an edge or a set as canonical text (sets sorted)."""
    if isinstance(k, frozenset):
        return "{" + ",".join(map(str, sorted(k))) + "}"
    return str(k)


def _sorted_sets(sets) -> str:
    return "[" + ";".join(sorted(map(_key, sets))) + "]"


def _values(items) -> str:
    return ",".join(f"{key}:{rat_str(v)}" for key, v in sorted((_key(k), v) for k, v in items))


def _serialized(out) -> str:
    """matching, cost, LP count, stop reason (naive mode), then per
    iteration its index, family, x, LP count and each dual stage."""
    parts = [_sorted_sets(out.matching or ()), str(out.cost), str(out.total_lp_solves),
             str(getattr(out, "stop_reason", None)), str(getattr(out, "detail", None)),
             str(getattr(out, "repeat_of", None))]
    for rec in out.iterations:
        parts.append(f"#{rec.index} {_sorted_sets(rec.family)} {rec.lp_solves}")
        parts.append(_values(rec.x.items()))
        parts.extend(_values(stage.items()) for stage in rec.dual_stages)
    return "\n".join(parts)


def _instances():
    for fixture in (dancing_robot, altered_robot, cycling_graph):
        yield fixture()[:2]
    rng = random.Random(1)
    for n in range(4, 41, 4):
        g = random_matchable_graph(n, min(3 * n, n * (n - 1) // 2), 3, rng)
        yield g, random_ordering(g, rng)


def test_outputs_are_pinned():
    h = hashlib.sha256()
    for g, sigma in _instances():
        for solver in (solve_unperturbed, solve_perturbed_reference, solve_naive):
            h.update(_serialized(solver(g, sigma)).encode() + b"\0")
    assert h.hexdigest() == OUTPUTS_DIGEST
