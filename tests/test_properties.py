"""Property tests: table gradients and the aggregation of touched-rows
reports are bitwise the plain dense computation for any ids, table shape
and owner mix."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedphish.federation import ClientReport, aggregate
from fedphish.numerics import Tensor, TouchedRows, backward, embedding

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
    assert np.array_equal(table.grad, expected)


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
