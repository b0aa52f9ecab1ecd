"""The batched Borůvka against the per-component loop it replaced.

:meth:`AgmSketch.spanning_forest` samples every component of a round in
one batched step (:meth:`L0SamplerStack.sample_row_sums`).  The oracle
below is the loop it replaced: one summed ``L0Sampler`` per component
per round, sampled by ``L0Sampler.sample``.  Forests must be identical
edge for edge, in order, on dense, sparse-universe, supernode,
multigraph and spilled sketches, and through the checkers built on
forests.
"""

import random

import numpy as np
import pytest

from repro.agm.connectivity import BipartitenessChecker, KConnectivityCertificate
from repro.agm.incidence import decode_edge
from repro.agm.spanning_forest import AgmSketch, DisjointSets, SparseDisjointSets
from repro.graph.vertex_space import VertexSpace
from repro.sketch import columnar
from repro.sketch.columnar import L0SamplerStack, SketchStack
from repro.stream.updates import EdgeUpdate


def oracle_forest(sketch: AgmSketch, supernodes=None) -> list[tuple[int, int]]:
    """The per-component Borůvka loop: every round, each component sums
    its members' samplers into one ``L0Sampler`` and samples it."""
    if sketch.space.lazy:
        vertices = sketch._samplers.touched_row_ids()
        dsu = SparseDisjointSets(vertices)
    else:
        vertices = list(range(sketch.num_vertices))
        dsu = DisjointSets(sketch.num_vertices)
        first_of_group: dict[int, int] = {}
        for vertex, group in enumerate(vertices if supernodes is None else supernodes):
            if group in first_of_group:
                dsu.union(first_of_group[group], vertex)
            else:
                first_of_group[group] = vertex
    forest = []
    for r in range(sketch.rounds):
        members: dict[int, list[int]] = {}
        for vertex in vertices:
            members.setdefault(dsu.find(vertex), []).append(vertex)
        if len(members) <= 1:
            break
        merged_any = False
        for component in members.values():
            sampled = sketch._samplers.rows_sum_sampler(component, r).sample()
            if sampled is None:
                continue
            a, b = decode_edge(sampled[0], sketch.num_vertices)
            if dsu.union(a, b):
                forest.append((a, b))
                merged_any = True
        if not merged_any:
            break
    return forest


def dynamic_stream(ids, length, rng, max_multiplicity=1):
    """A turnstile stream over ``ids``: inserts, and deletes of live
    copies, with up to ``max_multiplicity`` copies of a pair."""
    live: dict[tuple[int, int], int] = {}
    us, vs, deltas = [], [], []
    for _ in range(length):
        if live and rng.random() < 0.35:
            pair = rng.choice(sorted(live))
            delta = -rng.randint(1, live[pair])
        else:
            u, v = rng.sample(ids, 2)
            pair = (min(u, v), max(u, v))
            room = max_multiplicity - live.get(pair, 0)
            if room <= 0:
                continue
            delta = rng.randint(1, room)
        live[pair] = live.get(pair, 0) + delta
        if live[pair] == 0:
            del live[pair]
        us.append(pair[0])
        vs.append(pair[1])
        deltas.append(delta)
    return us, vs, deltas


def feed(sketch, us, vs, deltas, rng):
    """Land the stream in random chunks, some through the scalar path."""
    start = 0
    while start < len(us):
        stop = start + rng.randint(1, 64)
        if rng.random() < 0.2:
            for u, v, d in zip(us[start:stop], vs[start:stop], deltas[start:stop]):
                sketch.update(u, v, d)
        else:
            sketch.update_batch(us[start:stop], vs[start:stop], deltas[start:stop])
        start = stop


def _dense(seed, n=None, max_multiplicity=1, budget=4):
    rng = random.Random(f"batched-boruvka-{seed}")
    n = n or rng.randint(6, 40)
    sketch = AgmSketch(n, seed=f"dense-{seed}", budget=budget)
    feed(sketch, *dynamic_stream(list(range(n)), rng.randint(n, 6 * n), rng, max_multiplicity), rng)
    return sketch, rng


@pytest.mark.parametrize("seed", range(24))
def test_dense_streams_match_the_oracle(seed):
    sketch, _ = _dense(seed)
    assert sketch.spanning_forest() == oracle_forest(sketch)


@pytest.mark.parametrize("seed", range(12))
def test_small_budgets_match_the_oracle(seed):
    """Budget 1 leaves many levels undecodable: failed decodes walk down."""
    sketch, _ = _dense(seed, n=40, budget=1)
    assert sketch.spanning_forest() == oracle_forest(sketch)


@pytest.mark.parametrize("seed", range(16))
def test_sparse_universe_streams_match_the_oracle(seed):
    rng = random.Random(f"batched-boruvka-sparse-{seed}")
    universe = 10**6 if seed % 2 else 10**7
    ids = rng.sample(range(universe), rng.randint(8, 60))
    sketch = AgmSketch(VertexSpace.sparse(universe), seed=f"sparse-{seed}", rounds=8)
    feed(sketch, *dynamic_stream(ids, 5 * len(ids), rng), rng)
    assert sketch.spanning_forest() == oracle_forest(sketch)


@pytest.mark.parametrize("seed", range(12))
def test_supernodes_match_the_oracle(seed):
    sketch, rng = _dense(seed, n=30)
    supernodes = [rng.randrange(12) for _ in range(sketch.num_vertices)]
    assert sketch.spanning_forest(supernodes) == oracle_forest(sketch, supernodes)


@pytest.mark.parametrize("seed", range(12))
def test_multigraph_multiplicities_match_the_oracle(seed):
    sketch, _ = _dense(seed, max_multiplicity=4)
    assert sketch.spanning_forest() == oracle_forest(sketch)


@pytest.mark.parametrize("seed", range(4))
def test_spilled_stack_keeps_the_scalar_path(seed):
    sketch, _ = _dense(seed, n=24)
    expected = sketch.spanning_forest()
    sketch._samplers._store._spill()
    assert sketch._samplers._store.is_spilled()
    assert sketch.spanning_forest() == oracle_forest(sketch) == expected


def test_the_batched_path_builds_no_per_component_samplers(monkeypatch):
    sketch, _ = _dense(3, n=40)
    expected = oracle_forest(sketch)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-component sketch object was built")

    monkeypatch.setattr(SketchStack, "_row_sketch_of", refuse)
    monkeypatch.setattr(L0SamplerStack, "_sampler", refuse)
    assert sketch.spanning_forest() == expected


@pytest.mark.parametrize("block", [1, 5, 64])
def test_small_blocks_match_the_oracle(monkeypatch, block):
    """Components sampled in many blocks give the forest of one block."""
    sketch, _ = _dense(7, n=40)
    expected = oracle_forest(sketch)
    monkeypatch.setattr(columnar, "_SAMPLE_BLOCK", block)
    assert sketch.spanning_forest() == expected


@pytest.mark.parametrize("seed", range(4))
def test_checkers_match_the_oracle(monkeypatch, seed):
    """KConnectivityCertificate and BipartitenessChecker answer the same
    with the batched forest and with the oracle loop."""
    rng = random.Random(f"batched-boruvka-checkers-{seed}")
    n = 24
    us, vs, deltas = dynamic_stream(list(range(n)), 80, rng)
    updates = [EdgeUpdate(u, v, d) for u, v, d in zip(us, vs, deltas)]
    certificate = KConnectivityCertificate(n, 3, seed=f"cert-{seed}")
    bipartite = BipartitenessChecker(n, seed=f"bip-{seed}")
    for checker in (certificate, bipartite):
        checker.process_batch(updates, 0)
    clones = (certificate.clone(), bipartite.clone())
    batched = (sorted(certificate.finalize().edges()), bipartite.finalize())
    monkeypatch.setattr(AgmSketch, "spanning_forest", oracle_forest)
    assert (sorted(clones[0].finalize().edges()), clones[1].finalize()) == batched


# -- stack level --------------------------------------------------------


def _coordinates_by_level(stack, family, domain):
    """{level: coordinates} of the family's membership levels."""
    membership = stack._memberships[family]
    levels: dict[int, list[int]] = {}
    for coordinate in range(domain):
        levels.setdefault(membership.level(coordinate), []).append(coordinate)
    return levels


def _oracle_samples(stack, rows, labels, family):
    members: dict[int, list[int]] = {}
    for row, label in zip(rows, labels):
        members.setdefault(label, []).append(row)
    return [
        stack.rows_sum_sampler(members[c], family).sample() if c in members else None
        for c in range(max(labels) + 1)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_sample_row_sums_matches_rows_sum_sampler(seed):
    rng = random.Random(f"sample-row-sums-{seed}")
    rows, domain = 30, 900
    stack = L0SamplerStack(rows, domain, [f"family-{seed}-{f}" for f in range(3)], budget=3)
    count = rng.randint(20, 200)
    stack.scatter(
        np.array([rng.randrange(rows) for _ in range(count)]),
        np.array([rng.randrange(domain) for _ in range(count)]),
        np.array([rng.choice([-2, -1, 1, 2]) for _ in range(count)]),
    )
    chosen = rng.sample(range(rows), rng.randint(1, rows))
    labels = [rng.randrange(8) for _ in chosen]
    for family in range(3):
        assert stack.sample_row_sums(chosen, labels, family) == _oracle_samples(
            stack, chosen, labels, family
        )


def _two_row_stack():
    stack = L0SamplerStack(4, 256, "fall-through", budget=2)
    return stack, _coordinates_by_level(stack, 0, 256)


def test_an_undecodable_top_level_falls_through():
    """A component whose top level decodes to ``None`` samples the next
    level down, as ``L0Sampler.sample`` does."""
    stack, by_level = _two_row_stack()
    low = min(level for level in by_level if level + 1 < stack.levels)
    coordinate = by_level[low][0]
    stack.update_row(0, coordinate, 1)
    # Row 1 holds a state no vector sketches one level higher: its one
    # cell's index sum is not a multiple of its total.
    store = stack._store
    values = [0] * store.row_state_len()
    values[0], values[store.cells] = 3, 7
    store.load_row_state(1, values, group=low + 1)
    summed = stack.rows_sum_sampler([0, 1])
    assert summed._level_sketches[low + 1].decode() is None
    assert summed.sample() == (coordinate, 1)
    assert stack.sample_row_sums([0, 1], [0, 0]) == [(coordinate, 1)]


def test_a_top_level_summing_to_zero_falls_through():
    """A component whose top resident level sums to the zero vector (an
    internal edge sampled there) decodes it to ``{}`` and samples the
    next level down, as ``L0Sampler.sample`` does."""
    stack, by_level = _two_row_stack()
    high = max(by_level)
    low = min(by_level)
    assert high > low
    internal, outgoing = by_level[high][0], by_level[low][0]
    stack.update_row(0, internal, 1)
    stack.update_row(1, internal, -1)
    stack.update_row(0, outgoing, 2)
    assert not stack._store.is_row_zero(0, group=high)
    summed = stack.rows_sum_sampler([0, 1])
    assert summed._level_sketches[high].decode() == {}
    assert summed.sample() == (outgoing, 2)
    assert stack.sample_row_sums([0, 1], [0, 0]) == [(outgoing, 2)]


def test_sample_row_sums_rejects_mismatched_labels():
    stack = L0SamplerStack(4, 64, "shape")
    with pytest.raises(ValueError):
        stack.sample_row_sums([0, 1], [0])
    assert stack.sample_row_sums([], []) == []


def test_sums_past_int64_stay_exact():
    """Rows near the int64 guard sum past ``2^63``: the segment sums fall
    back to Python integers and the sample stays exact."""
    stack = L0SamplerStack(8, 64, "near-the-guard", budget=2)
    coordinate, delta = 40, 1 << 54
    for row in range(8):
        stack.update_row(row, coordinate, delta)
    assert not stack._store.is_spilled()
    expected = stack.rows_sum_sampler(range(8)).sample()
    assert expected == (coordinate, 8 * delta)
    assert stack.sample_row_sums(range(8), [0] * 8) == [expected]
