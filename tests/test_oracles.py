"""Cross-checks between the independent oracles themselves."""

import random

import pytest

from oracles import (
    isomorphic_oracle,
    permutation_canonical,
    random_connected_graph,
    random_labeled_graph,
    relabel_ids,
)


@pytest.mark.parametrize("seed", range(40))
def test_permutation_canonical_agrees_with_permutation_search(seed):
    rng = random.Random(70_000 + seed)
    a = random_connected_graph(rng, rng.randint(1, 5), 2, edge_labels=("x",))
    b = random_connected_graph(rng, rng.randint(1, 5), 2, edge_labels=("x",))
    assert (permutation_canonical(a) == permutation_canonical(b)) == isomorphic_oracle(a, b)


@pytest.mark.parametrize("seed", range(10))
def test_permutation_canonical_invariant_under_relabeling(seed):
    rng = random.Random(80_000 + seed)
    g = random_labeled_graph(rng, 6, 2, 0.3)
    ids = [n for n, _ in g.nodes]
    shuffled = ids[:]
    rng.shuffle(shuffled)
    h = relabel_ids(g, dict(zip(ids, shuffled)))
    assert permutation_canonical(g) == permutation_canonical(h)
