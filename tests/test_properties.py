"""Property tests: table gradients and the aggregation of touched-rows
reports are bitwise the plain dense computation for any ids, table shape
and owner mix, the sigmoid is bitwise its reference formula for any float,
and a checkpoint file gives back bitwise what was saved, or, cut short, is
rejected as truncated."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fedphish.federation import ClientReport, aggregate, load_checkpoint, save_checkpoint
from fedphish.numerics import Tensor, TouchedRows, backward, embedding
from fedphish.numerics.tensor import stable_sigmoid

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
    # written in place: the same table, the untouched rows bitwise as before
    assert got is old
    assert np.array_equal(got[touched_any], want[touched_any])
    assert np.array_equal(got[~touched_any], kept[~touched_any])


# any float64: NaN (any payload), infinities, -0.0 and subnormals included
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -1.5e-310, float("nan")]),
)
# 0-d to 3-d, and sides of 0 for zero-size arrays
PARAMS = st.dictionaries(
    st.text(min_size=1, max_size=6),
    arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
           elements=ANY_FLOAT),
    max_size=4,
)


@PROPERTY
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
              elements=st.one_of(ANY_FLOAT, st.sampled_from([800.0, -800.0]))))
def test_stable_sigmoid_is_the_where_formula_bitwise(x):
    # the maximum of e <= 1 and the mask x >= 0 is the old np.where(x >= 0, 1.0, e)
    e = np.exp(-np.abs(x))
    want = np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)
    assert stable_sigmoid(x).tobytes() == want.tobytes()
    out = np.empty_like(x)
    assert stable_sigmoid(x, out=out) is out and out.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@PROPERTY
@given(PARAMS, st.text(max_size=6), st.integers(0, 2**31 - 1))
def test_checkpoint_round_trip_is_bitwise(ckpt_dir, params, run_id, round_index):
    path = ckpt_dir / "round_trip.ckpt"
    save_checkpoint(path, params, run_id=run_id, round_index=round_index,
                    cfg_hash="0123456789abcdef")
    manifest, loaded = load_checkpoint(path)
    assert manifest == {"run_id": run_id, "round": round_index,
                        "config_hash": "0123456789abcdef", "n_params": len(params)}
    assert sorted(loaded) == sorted(params)
    for name, arr in params.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


@PROPERTY
@given(PARAMS, st.data())
def test_checkpoint_cut_at_any_byte_is_truncated(ckpt_dir, params, data):
    path = ckpt_dir / "whole.ckpt"
    save_checkpoint(path, params, run_id="r", round_index=0, cfg_hash="0123456789abcdef")
    whole = path.read_bytes()
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    path.write_bytes(whole[:cut])
    with pytest.raises(ValueError, match=f"checkpoint truncated at byte {cut}$"):
        load_checkpoint(path)
