"""Property tests: row-sparse table gradients and touched-rows Adam are
bitwise the dense computation for any ids, table shape and step sequence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedphish.numerics import Adam, RowSparse, Tensor, backward, embedding

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def lookups(draw):
    """(table shape, ids) with ids of rank 1 to 3."""
    rows = draw(st.integers(1, 40))
    shape = (rows,) + tuple(draw(st.lists(st.integers(1, 4), min_size=0, max_size=2)))
    ids_shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    n = int(np.prod(ids_shape))
    ids = draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))
    return shape, np.array(ids).reshape(ids_shape)


@PROPERTY
@given(lookups(), st.integers(0, 2**32 - 1))
def test_embedding_gradient_is_the_dense_scatter_add(lookup, seed):
    shape, ids = lookup
    g = np.random.default_rng(seed).normal(size=ids.shape + shape[1:])
    table = Tensor(np.zeros(shape), requires_grad=True)
    backward((embedding(table, ids) * Tensor(g)).sum())
    expected = np.zeros(shape)
    np.add.at(expected, ids, g)
    assert isinstance(table.grad, RowSparse)
    assert np.array_equal(table.grad.rows, np.unique(ids))
    assert np.array_equal(table.grad.dense(), expected)


@st.composite
def step_sequences(draw):
    """(table shape, steps): each step is a list of looked-up rows, or None
    for a dense gradient over the whole table."""
    rows = draw(st.integers(1, 30))
    shape = (rows, draw(st.integers(1, 3)))
    step = st.one_of(st.none(), st.lists(st.integers(0, rows - 1), min_size=1, max_size=8))
    steps = draw(st.lists(step, min_size=1, max_size=8))
    return shape, steps


@PROPERTY
@given(step_sequences(), st.integers(0, 2**32 - 1))
def test_touched_rows_optimizer_is_the_dense_optimizer(sequence, seed):
    shape, steps = sequence
    rng = np.random.default_rng(seed)
    init = rng.normal(size=shape)
    sparse_p = Tensor(init.copy(), requires_grad=True)
    dense_p = Tensor(init.copy(), requires_grad=True)
    sparse_opt = Adam({"t": sparse_p}, lr=0.01)
    dense_opt = Adam({"t": dense_p}, lr=0.01)
    for rows in steps:
        if rows is None:
            g = rng.normal(size=shape)
        else:
            unique = np.unique(rows)
            g = RowSparse(unique, rng.normal(size=(unique.size,) + shape[1:]), shape)
        sparse_p.grad, dense_p.grad = g, np.array(g)
        sparse_opt.step()
        dense_opt.step()
        assert np.array_equal(sparse_p.data, dense_p.data)
    assert np.array_equal(sparse_opt.m["t"], dense_opt.m["t"])
    assert np.array_equal(sparse_opt.v["t"], dense_opt.v["t"])
