import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from whatif.engine import BLOCK
from whatif.rng import (
    PRE_DRAWN,
    RandomStream,
    _mix64,
    _mix64_array,
    block_inputs,
    key_block,
    keyed_stream,
    normal_parts,
    rng_for_address,
    sample_key,
    to_uniform,
)


def test_same_coordinates_same_stream():
    a = rng_for_address(1, 5, "x")
    b = rng_for_address(1, 5, "x")
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_streams_are_pure_functions_of_coordinates():
    # draw order must not matter: building streams in any order gives
    # the same values per (seed, index, address)
    first = {}
    for idx in range(20):
        first[idx] = rng_for_address(9, idx, "node").uniform()
    for idx in reversed(range(20)):
        assert rng_for_address(9, idx, "node").uniform() == first[idx]


def test_distinct_addresses_decorrelate():
    draws = {rng_for_address(0, 0, f"a{i}").uniform() for i in range(10_000)}
    assert len(draws) == 10_000


def test_distinct_seeds_and_indices_decorrelate():
    seen = set()
    for seed in range(100):
        for idx in range(10):
            seen.add(rng_for_address(seed, idx, "x").uniform())
    assert len(seen) == 1000


@given(st.integers(0, 2**63 - 1), st.integers(-1, 2**31), st.text(max_size=40))
@settings(max_examples=200)
def test_uniform_in_unit_interval(seed, idx, addr):
    s = rng_for_address(seed, idx, addr)
    for _ in range(4):
        u = s.uniform()
        assert 0.0 <= u < 1.0


@given(st.integers(0, 2**63 - 1), st.integers(-1, 2**31), st.text(max_size=40))
@settings(max_examples=200)
def test_hoisted_sample_key_gives_the_same_draws(seed, idx, addr):
    # an execution computes sample_key once and builds every stream from it
    def draws(stream):
        return [stream.uniform().hex(), stream.normal().hex(), stream.uniform_pos().hex()]

    hoisted = draws(keyed_stream(sample_key(seed, idx), addr))
    assert hoisted == draws(rng_for_address(seed, idx, addr))


def test_uniform_pos_never_zero():
    s = rng_for_address(3, 0, "u")
    assert all(0.0 < s.uniform_pos() <= 1.0 for _ in range(10_000))


def test_normal_moments():
    s = rng_for_address(7, 0, "n")
    xs = [s.normal(0.0, 1.0) for _ in range(200_000)]
    mean = sum(xs) / len(xs)
    var = sum(x * x for x in xs) / len(xs) - mean * mean
    assert abs(mean) < 0.01
    assert abs(var - 1.0) < 0.02


def test_normal_location_scale():
    a = rng_for_address(11, 2, "n")
    b = rng_for_address(11, 2, "n")
    std = [a.normal(0.0, 1.0) for _ in range(100)]
    shifted = [b.normal(3.0, 2.0) for _ in range(100)]
    for z, x in zip(std, shifted):
        assert math.isclose(x, 3.0 + 2.0 * z, rel_tol=0, abs_tol=1e-12)


def test_bernoulli_rate():
    s = rng_for_address(13, 0, "b")
    hits = sum(s.bernoulli(0.3) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.3) < 0.01


def test_first_draw_collisions_rare_across_addresses():
    # 1e4 addresses, first draws mapped to 32-bit buckets: expect no
    # birthday collision at this scale
    buckets = set()
    for i in range(10_000):
        u = rng_for_address(17, 0, f"addr/{i}").uniform()
        buckets.add(int(u * 2**32))
    assert len(buckets) >= 10_000 - 1


@given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
def test_vectorised_mix_matches_scalar(xs):
    assert _mix64_array(np.array(xs, dtype=np.uint64)).tolist() == [_mix64(x) for x in xs]


_DRAWS = ("uniform", "normal", "uniform_pos", "bernoulli")


def _draw_hexes(stream, ops):
    out = []
    for op in ops:
        if op == "bernoulli":
            out.append(stream.bernoulli(0.3))
        else:
            out.append(getattr(stream, op)().hex())
    return out


@given(
    st.integers(-(2**70), 2**70),
    st.one_of(st.integers(1, 3 * BLOCK), st.integers(-3, 2**63)),
    st.integers(0, 5),
    st.lists(st.text(max_size=12), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(_DRAWS), min_size=6, max_size=10),
)
@settings(max_examples=150)
def test_key_block_matches_the_scalar_path(seed, lo, n, names, ops):
    # a stream started at the table's base draws what keyed_stream draws,
    # past its PRE_DRAWN raws too, and those raws are its first draws
    assert len(ops) > PRE_DRAWN
    keys, table = key_block(seed, lo, lo + n, names)
    for r, i in enumerate(range(lo, lo + n)):
        key, cells = keys[r], table[r].tolist()
        assert key == sample_key(seed, i)
        for j, name in enumerate(names):
            base, *raws = cells[j]
            scalar = keyed_stream(sample_key(seed, i), name)
            assert raws == [scalar.next_raw() for _ in range(PRE_DRAWN)]
            scalar = keyed_stream(sample_key(seed, i), name)
            assert _draw_hexes(RandomStream(base), ops) == _draw_hexes(scalar, ops)


# raw 0 and 2**64 - 1 are the ends of both uniforms, so 2**64 - 1 gives
# the Box-Muller radius sqrt(-0.0) == -0.0; 2**11 - 1 and 2**11 straddle
# the first bit to survive the shift
_EDGE_RAWS = (0, 2**64 - 1, 2**11 - 1, 2**11)


def _hexes(rows):
    return [[x.hex() for x in row] for row in rows]


def _scalar_inputs(table, uniform, normal):
    """block_inputs' rows, converted cell by cell through its scalar twins."""
    rows = []
    for cells in table.tolist():
        row = [to_uniform(cells[j][1]) for j in uniform]
        for j in normal:
            row.extend(normal_parts(cells[j][1], cells[j][2]))
        rows.append(row)
    return rows


@given(st.integers(1, 4), st.lists(st.sampled_from("un-"), min_size=1, max_size=5), st.data())
@settings(max_examples=200)
def test_block_inputs_match_their_scalar_twins(n, kinds, data):
    # each column is converted for a uniform draw, a normal draw, or not at all
    raw = st.one_of(st.sampled_from(_EDGE_RAWS), st.integers(0, 2**64 - 1))
    size = n * len(kinds) * 3
    raws = data.draw(st.lists(raw, min_size=size, max_size=size))
    table = np.array(raws, dtype=np.uint64).reshape(n, len(kinds), 3)
    uniform = [j for j, k in enumerate(kinds) if k == "u"]
    normal = [j for j, k in enumerate(kinds) if k == "n"]
    got = block_inputs(table, uniform, normal)
    assert _hexes(got) == _hexes(_scalar_inputs(table, uniform, normal))


def test_block_normal_parts_keep_every_bit_on_a_fixed_corpus():
    # 1e5 raw pairs and every pairing of the edge raws; a kernel taking
    # np.log fails here, as numpy's log rounds some of them differently
    # from math.log (numpy's cos may too, depending on the platform)
    gen = np.random.default_rng(20261019)
    table = gen.integers(0, 2**64, size=(25_000, 4, 3), dtype=np.uint64)
    edges = np.array([[0, a, b] for a in _EDGE_RAWS for b in _EDGE_RAWS], dtype=np.uint64)
    table = np.concatenate([table, edges.reshape(4, 4, 3)])
    normal = [0, 1, 2, 3]
    got = block_inputs(table, [], normal)
    assert _hexes(got) == _hexes(_scalar_inputs(table, [], normal))
