"""An exact matching oracle at any size, and both solver modes checked
against it past the brute-force oracle's 20-vertex reach.

networkx.min_weight_matching runs its blossom algorithm in integer arithmetic
when every weight is an int. With weights c(e)*2^(m+1) + 2^(m+1-rank(e)) the
rank terms of any edge set sum to less than 2^(m+1), so cost decides first
and ties go to the matching that avoids the lowest ranks, as lex_tie_break
picks them.
"""

import random
import sys
from pathlib import Path

import pytest

from cpmatch.cpm import solve_perturbed_reference, solve_unperturbed
from cpmatch.fixtures import altered_robot, cycling_graph, dancing_robot
from cpmatch.gen import random_matchable_graph, random_ordering
from cpmatch.graphs import normalize_edge
from cpmatch.oracle import brute_force_matchings, lex_tie_break

nx = pytest.importorskip("networkx")

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import instances  # noqa: E402


def networkx_matching(g, sigma):
    """The minimum-cost perfect matching of g, ties broken by sigma."""
    graph = nx.Graph()
    for u, v, c in g.edges:
        graph.add_edge(u, v, weight=c * 2 ** (g.m + 1) + 2 ** (g.m + 1 - sigma.rank[(u, v)]))
    return frozenset(normalize_edge(u, v) for u, v in nx.min_weight_matching(graph))


def small_instances():
    """The fixtures, then 60 seeded graphs on 4..14 vertices."""
    for fn in (dancing_robot, altered_robot, cycling_graph):
        g, sigma, _ = fn()
        yield pytest.param(g, sigma, id=fn.__name__)
    rng = random.Random(31)
    for i in range(60):
        n = (4, 6, 8, 10, 12, 14)[i % 6]
        m = rng.randint(n // 2 + 2, min(2 * n, n * (n - 1) // 2))
        g = random_matchable_graph(n, m, 4, rng)
        yield pytest.param(g, random_ordering(g, rng), id=f"gen{n}-{i}")


def large_instances():
    """Glued odd cycles at n = 12, 14 and 16 (4 seeds each), then cpmatch.gen
    graphs with 3n/2 edges and costs 1..3 at n = 24, 32 and 40: seeds 0 and 1,
    then the first later seed whose unperturbed run reaches a cut family (in
    a scan of seeds 0-39), flagged deep. Five of the six graphs at seeds 0 and
    1 are integral at iteration 1."""
    for n in (12, 14, 16):
        for seed in range(4):
            g, sigma = instances.glued_odd_cycles(n, random.Random(seed))
            yield pytest.param(g, sigma, False, id=f"glued{n}-{seed}")
    for n, deep_seed in ((24, 3), (32, 13), (40, 4)):
        for seed in (0, 1, deep_seed):
            rng = random.Random(seed)
            g = random_matchable_graph(n, 3 * n // 2, 3, rng)
            yield pytest.param(g, random_ordering(g, rng), seed == deep_seed, id=f"gen{n}-{seed}")


@pytest.mark.parametrize("g, sigma", small_instances())
def test_networkx_oracle_agrees_with_brute_force(g, sigma):
    _, matchings = brute_force_matchings(g)
    assert networkx_matching(g, sigma) == lex_tie_break(matchings, sigma)


@pytest.mark.parametrize("g, sigma, deep", large_instances())
def test_modes_share_iterates_and_match_the_oracle(g, sigma, deep):
    unperturbed = solve_unperturbed(g, sigma)
    if deep:
        assert len(unperturbed.iterations) >= 2 and unperturbed.iterations[1].family
    perturbed = solve_perturbed_reference(g, sigma)
    assert unperturbed.matching == perturbed.matching == networkx_matching(g, sigma)
    # The paper's claim, stronger than criterion 6: the same x and family at
    # every iteration, not just the same final matching.
    assert [(it.x, it.family) for it in unperturbed.iterations] == [
        (it.x, it.family) for it in perturbed.iterations
    ]


def paper_regime_instances():
    """cpmatch.gen graphs with costs 1..3: at n = 40 with m = 120 edges (five
    seeds, two of them past iteration 1), and at n = 80 with m = 300 (seeds
    0 and 3, the second past iteration 1). This is the paper's regime,
    where perturbed costs c + 2^-rank and the values they lead to run past
    100 bits at m = 120 and past 250 at m = 300; each comes with the width
    its perturbed stage duals must pass."""
    for n, m, seeds, bits in ((40, 120, range(5), 100), (80, 300, (0, 3), 250)):
        for seed in seeds:
            rng = random.Random(seed)
            g = random_matchable_graph(n, m, 3, rng)
            yield pytest.param(g, random_ordering(g, rng), bits, id=f"gen{n}x{m}-{seed}")


@pytest.mark.slow
@pytest.mark.parametrize("g, sigma, min_bits", paper_regime_instances())
def test_paper_regime_modes_agree_with_the_oracle(g, sigma, min_bits):
    unperturbed = solve_unperturbed(g, sigma)
    perturbed = solve_perturbed_reference(g, sigma)
    assert unperturbed.matching == perturbed.matching == networkx_matching(g, sigma)
    assert unperturbed.cost == perturbed.cost
    assert [(it.x, it.family) for it in unperturbed.iterations] == [
        (it.x, it.family) for it in perturbed.iterations
    ]
    bits = max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for it in perturbed.iterations for stage in it.dual_stages for v in stage.values())
    assert bits > min_bits
