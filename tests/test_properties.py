"""Property tests: row-sparse table gradients, touched-rows Adam and the
aggregation of touched-rows reports are bitwise the dense computation for
any ids, table shape, step sequence and owner mix."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedphish.federation import ClientReport, aggregate
from fedphish.numerics import Adam, RowSparse, Tensor, TouchedRows, backward, embedding

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
    """(table shape, steps): each step is a list of looked-up rows."""
    rows = draw(st.integers(1, 30))
    shape = (rows, draw(st.integers(1, 3)))
    step = st.lists(st.integers(0, rows - 1), min_size=1, max_size=8)
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
        unique = np.unique(rows)
        g = RowSparse(unique, rng.normal(size=(unique.size,) + shape[1:]), shape)
        sparse_p.grad, dense_p.grad = g, np.array(g)
        sparse_opt.step()
        dense_opt.step()
        assert np.array_equal(sparse_p.data, dense_p.data)
    # the moments cover exactly the rows touched so far; scattered back,
    # they are the dense optimizer's moments
    m, v = sparse_opt.m["t"], sparse_opt.v["t"]
    rows = np.unique(np.concatenate(steps))
    assert np.array_equal(sparse_opt.rows["t"], rows)
    assert m.shape == v.shape == (rows.size,) + shape[1:]
    m, v = RowSparse(rows, m, shape).dense(), RowSparse(rows, v, shape).dense()
    assert np.array_equal(m, dense_opt.m["t"])
    assert np.array_equal(v, dense_opt.v["t"])


@st.composite
def owner_reports(draw):
    """(table shape, owners): each owner is (weight, touched rows)."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 3)))
    weight = st.floats(min_value=2.0**-20, max_value=2.0**20)
    touched = st.sets(st.integers(0, shape[0] - 1))
    owners = draw(st.lists(st.tuples(weight, touched), min_size=1, max_size=4))
    return shape, owners


@PROPERTY
@given(owner_reports(), st.integers(0, 2**32 - 1))
def test_touched_rows_aggregate_is_the_dense_aggregate(case, seed):
    shape, owners = case
    rng = np.random.default_rng(seed)
    old = rng.normal(size=shape)
    kept = old.copy()
    reports, dense = [], []  # dense: (weight, whole table) in client order
    touched_any = np.zeros(shape[0], dtype=bool)
    for i, (weight, touched) in enumerate(owners):
        rows = np.array(sorted(touched), dtype=np.int64)
        new = old.copy()
        new[rows] = rng.normal(size=(rows.size,) + shape[1:])
        touched_any[rows] = True
        reports.append(ClientReport(f"c{i}", {"html_head.t": TouchedRows(rows, new[rows])},
                                    {"html": weight}))
        dense.append((weight, new))
    order = rng.permutation(len(owners))
    got = aggregate({"html_head.t": old}, [reports[i] for i in order])["html_head.t"]
    # the dense aggregate: whole tables weighed and summed in sorted client order
    total = sum(w for w, _ in dense)
    want = (dense[0][0] / total) * dense[0][1]
    for w, table in dense[1:]:
        want += (w / total) * table
    assert np.array_equal(got[touched_any], want[touched_any])
    assert np.array_equal(got[~touched_any], old[~touched_any])
    assert np.array_equal(old, kept)
