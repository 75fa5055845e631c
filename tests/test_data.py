"""Core data model: ingestion, serialization, splitting, sampling, RNG."""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertrain import (
    CandidateSet,
    DataError,
    Dataset,
    RngState,
    load_dataset,
    sample_subset,
    save_dataset,
)
import covertrain.data as data
from covertrain.data import ROLES, _child_seed, split_train_test

from conftest import gaussian_task, make_dataset


def _constructed_subset(ds, indices, role):
    """The subset as a fresh Dataset of the gathered rows, which validates
    them again."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= len(ds)):
        raise DataError("subset index out of range")
    return Dataset(ds.X[idx], ds.y[idx], role=role)


def _subset_or_error(call, *args):
    """call(*args), or the message of the DataError it raises."""
    try:
        return call(*args)
    except DataError as exc:
        return str(exc)


class TestDataset:
    def test_basic_construction(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], [1, -1])
        assert len(ds) == 2
        assert ds.dimension == 2
        assert ds.y[0] == 1
        assert np.array_equal(ds.X[1], [3.0, 4.0])

    def test_rejects_bad_labels(self):
        with pytest.raises(DataError, match="label"):
            make_dataset([[1.0]], [0])
        # the message names the first bad label
        with pytest.raises(DataError, match="got 0$"):
            make_dataset([[1.0], [2.0], [3.0]], [1, 0, 2])

    def test_rejects_empty_pool(self):
        with pytest.raises(DataError, match="empty"):
            Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), role="camouflage_pool")

    def test_empty_test_set_allowed(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), role="test_set")
        assert len(ds) == 0

    def test_immutable(self):
        ds = make_dataset([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            ds.X[0, 0] = 9.0

    def test_subset_preserves_order(self):
        ds = gaussian_task(0, 5)
        sub = ds.subset([1, 3, 7])
        assert np.array_equal(sub.X, ds.X[[1, 3, 7]])
        assert np.array_equal(sub.y, ds.y[[1, 3, 7]])

    @settings(deadline=None)
    @given(st.data())
    def test_subset_equals_the_constructor(self, data):
        ds = gaussian_task(data.draw(st.integers(0, 99)), data.draw(st.integers(1, 4)),
                           dim=data.draw(st.integers(1, 3)))
        n = len(ds)
        indices = data.draw(st.one_of(
            st.lists(st.integers(-2, n + 1), max_size=12),  # empty, out of range
            st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2),
                     max_size=3),  # 2-D
            st.integers(-1, n),  # a scalar
        ))
        role = data.draw(st.sampled_from(ROLES + ("no_such_role",)))
        got = _subset_or_error(ds.subset, indices, role)
        want = _subset_or_error(_constructed_subset, ds, indices, role)
        if isinstance(want, str):
            assert got == want
            return
        for a, b in ((got.X, want.X), (got.y, want.y)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable and a.flags.c_contiguous
        assert got.role == want.role


class TestCandidateSet:
    def test_requires_strictly_increasing(self):
        with pytest.raises(DataError):
            CandidateSet((3, 3, 5))
        with pytest.raises(DataError):
            CandidateSet((5, 3))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(-3, 40), max_size=12),
           form=st.sampled_from(["tuple", "list", "int64", "int32", "uint16",
                                 "bool", "float", "scalars"]))
    def test_equals_itemwise_constructor(self, values, form):
        """The old constructor, kept as the oracle: int() of each item, then
        the negative check over all of them before the order check."""
        def oracle(indices):
            idx = tuple(int(i) for i in indices)
            if any(i < 0 for i in idx):
                raise DataError("negative candidate index")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise DataError("candidate indices must be strictly increasing")
            return idx

        if form == "uint16":
            values = [abs(v) for v in values]
        indices = {
            "tuple": lambda: tuple(values), "list": lambda: list(values),
            "int64": lambda: np.array(values, dtype=np.int64),
            "int32": lambda: np.array(values, dtype=np.int32),
            "uint16": lambda: np.array(values, dtype=np.uint16),
            "bool": lambda: np.array(values, dtype=bool),
            "float": lambda: [v + 0.5 for v in values],
            "scalars": lambda: list(np.array(values, dtype=np.int64)),
        }[form]()

        def outcome(make):
            try:
                return make(indices)
            except DataError as exc:
                return str(exc)

        got = outcome(lambda i: CandidateSet(i).indices)
        assert got == outcome(oracle)
        if isinstance(got, tuple):
            assert all(type(i) is int for i in got)

    def test_cache_attachment(self):
        c = CandidateSet((0, 2), cached_risk=0.5, cached_psi=-1.0)
        assert c.cached_risk == 0.5
        assert c.cached_psi == -1.0
        assert c.indices == (0, 2)


class TestLoadSave:
    def test_csv_roundtrip_bit_exact(self, tmp_path):
        ds = gaussian_task(3, 4)
        path = tmp_path / "pool.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_jsonl_roundtrip_bit_exact(self, tmp_path):
        ds = gaussian_task(4, 4)
        path = tmp_path / "pool.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_small_csv_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1,2,1\n3,4,-1\n5,6,+1\n")
        ds = load_dataset(path)
        assert len(ds) == 3
        assert ds.dimension == 2
        assert list(ds.y) == [1, -1, 1]

    @pytest.mark.parametrize("make", ["missing", "directory"])
    def test_unreadable_file_is_a_data_error(self, tmp_path, make):
        # FileNotFoundError and IsADirectoryError escaped read_text
        path = tmp_path / "d.csv"
        if make == "directory":
            path.mkdir()
        with pytest.raises(DataError, match=re.escape(f"cannot read {path}")):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n")
        with pytest.raises(DataError, match="empty dataset"):
            load_dataset(path)

    def test_dimension_mismatch_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1,2,1\n1,2,3,-1\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_jsonl_dimension_mismatch_names_row(self, tmp_path):
        path = tmp_path / "d.jsonl"
        lines = [
            json.dumps({"features": [1.0, 2.0], "label": 1}),
            json.dumps({"features": [1.0], "label": -1}),
        ]
        path.write_text("\n".join(lines))
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1,2\n")
        with pytest.raises(DataError, match="label"):
            load_dataset(path)

    def test_label_map(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1,orange\n2,apple\n")
        ds = load_dataset(path, label_map={"orange": 1, "apple": -1})
        assert list(ds.y) == [1, -1]
        with pytest.raises(DataError, match="not in label map"):
            load_dataset(path, label_map={"orange": 1})

    @pytest.mark.parametrize("value", [1.5, True])
    def test_label_map_values_must_be_integers(self, tmp_path, value):
        # a float or a bool is not read as a sign, however it would round
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1,orange\n2,apple\n")
        with pytest.raises(DataError, match="label_map value for 'orange' "
                                            "must be an integer"):
            load_dataset(path, label_map={"orange": value, "apple": -1})

    def test_add_bias(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n2,1\n3,-1\n")
        ds = load_dataset(path, add_bias=True)
        assert ds.dimension == 2
        assert np.array_equal(ds.X[:, 1], [1.0, 1.0])

    @pytest.mark.parametrize("row", [
        "5",
        '{"features": "12", "label": 1}',
        '{"features": 3, "label": 1}',
        '{"features": [[1]], "label": 1}',
        '{"features": [null], "label": 1}',
        '{"features": [], "label": 1}',
        '{"features": [1%s], "label": 1}' % ("0" * 400),
        '{"features": [1%s], "label": 1}' % ("0" * 5000),
        '{"features": [1], "label": 1%s}' % ("0" * 400),
        '{"features": [NaN], "label": 1}',
        "[" * 100000,
        '{"features": [true, 2.0], "label": 1}',
        '{"features": [1.0, 2.0], "label": true}',
    ], ids=["number", "string", "scalar", "nested", "null", "empty",
            "huge-feature", "long-integer", "huge-label", "nan", "deep-nesting",
            "bool-feature", "bool-label"])
    def test_jsonl_malformed_row_names_file_and_row(self, tmp_path, row):
        path = tmp_path / "d.jsonl"
        path.write_text(row + "\n")
        with pytest.raises(DataError, match=r"^d\.jsonl row 1: "):
            load_dataset(path)

    def test_csv_non_finite_feature_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1,1\n1e999,-1\n")
        with pytest.raises(DataError, match=r"^d\.csv row 2: non-finite"):
            load_dataset(path)

    def test_csv_oversized_field_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n" + "1" * 200000 + ",1\n")
        with pytest.raises(DataError, match=r"^d\.csv: "):
            load_dataset(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"f0,label\n\xff,1\n")
        with pytest.raises(DataError, match=r"^d\.csv: "):
            load_dataset(path)


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=4), inner, max_size=3
    )


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    _json_containers,
    max_leaves=6,
)
_JSONL_LINES = st.one_of(
    st.text(max_size=12),
    _JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({
        "features": st.lists(_JSON_VALUES, max_size=3) | _JSON_VALUES,
        "label": st.sampled_from([1, -1]) | _JSON_VALUES,
    }).map(json.dumps),
)
_CSV_CELLS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["1", "-1", "+1", "0.5", "nan", "inf", "1e999", "", '"']),
    st.floats().map(repr),
)
_CSV_LINES = st.one_of(
    st.text(max_size=12),
    st.lists(_CSV_CELLS, max_size=4).map(",".join),
    st.just("f0,label"),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("d.csv"), st.lists(_CSV_LINES, max_size=5)),
        st.tuples(st.just("d.jsonl"), st.lists(_JSONL_LINES, max_size=5)),
    )
)
def test_any_text_loads_or_raises_data_error(tmp_path_factory, case):
    """Whatever text a dataset file holds, loading it either succeeds or
    raises DataError."""
    name, lines = case
    path = tmp_path_factory.mktemp("text") / name
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        load_dataset(path)
    except DataError:
        pass


_PLAIN_TOKENS = st.one_of(
    st.sampled_from([
        "1", "-1", "+1", "1.0", "-1.0", "0.5", "-0.0", " 2 ", "\t3", "1_0",
        "1e5_0", "nan", "inf", "1e400", "-1e400", "1e-400", "0x10", "\u0661",
        "", '"1"', '"1,-1"', "#1",
    ]),
    st.floats().map(repr),
)
_PLAIN_LABELS = st.sampled_from(["1", "-1", "+1", "1.0", " -1 ", "2", "nan", "1_0"])


@st.composite
def _plain_lines(draw, dim):
    """A row of dim features and a label, most often; else a row of another
    width, one with a trailing comma, or a blank or whitespace-only line."""
    kind = draw(st.sampled_from(["row"] * 5 + ["width", "trailing", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "width":
        return ",".join(draw(st.lists(_PLAIN_TOKENS, min_size=1, max_size=4)))
    row = draw(st.lists(_PLAIN_TOKENS, min_size=dim, max_size=dim))
    row.append(draw(_PLAIN_LABELS))
    return ",".join(row) + ("," if kind == "trailing" else "")


def _load_or_error(path):
    """(X, y) of load_dataset(path), or the message of its DataError."""
    try:
        ds = load_dataset(path)
    except DataError as exc:
        return str(exc)
    return ds.X, ds.y


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 2), st.booleans())
def test_one_call_csv_equals_row_parser(tmp_path_factory, data_, dim, newline):
    """The one-call CSV path and the row parser give equal X and y bits, or
    the same DataError, and neither warns (an empty body included)."""
    body = data_.draw(st.lists(_plain_lines(dim), max_size=6))
    header = ",".join([f"f{j}" for j in range(dim)] + ["label"])
    path = tmp_path_factory.mktemp("plain") / "d.csv"
    path.write_text("\n".join([header] + body) + "\n" * newline, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _load_or_error(path)
        with mock.patch.object(data, "_plain_csv", return_value=None):
            rows = _load_or_error(path)
    if isinstance(rows, str):
        assert fast == rows
    else:
        assert not isinstance(fast, str)
        assert np.array_equal(fast[0], rows[0]) and np.array_equal(fast[1], rows[1])
        assert np.array_equal(np.signbit(fast[0]), np.signbit(rows[0]))


def test_saved_csv_takes_the_one_call_path(tmp_path):
    ds = gaussian_task(5, 30)
    path = tmp_path / "pool.csv"
    save_dataset(ds, path)
    with mock.patch.object(data, "_parse_features", side_effect=AssertionError):
        back = load_dataset(path)
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)


def test_saved_csv_passes_only_its_header_to_csv_reader(tmp_path):
    ds = gaussian_task(6, 30)
    path = tmp_path / "pool.csv"
    save_dataset(ds, path)
    seen = []
    reader = csv.reader

    def recording(lines, *args, **kwargs):
        lines = list(lines)
        seen.append(lines)
        return reader(lines, *args, **kwargs)

    with mock.patch.object(data.csv, "reader", recording):
        back = load_dataset(path)
    assert seen == [[path.read_text(encoding="utf-8").splitlines()[0]]]
    assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)


def test_field_over_csv_size_limit_raises(tmp_path):
    # np.loadtxt reads the long token as 1.0; csv.reader rejects the field
    path = tmp_path / "long.csv"
    limit = csv.field_size_limit()
    path.write_text(f"f0,label\n0.5,1\n{'0' * limit}1,-1\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^long.csv: field larger than field limit \({limit}\)$"):
        load_dataset(path)


class TestSplit:
    def test_sizes_and_disjointness(self):
        ds = gaussian_task(0, 5)  # n = 10
        train, test = split_train_test(ds, 0.8, RngState(1))
        assert len(train) == 8 and len(test) == 2
        rows = {tuple(r) for r in train.X} | {tuple(r) for r in test.X}
        assert len(rows) == 10  # union recovers everything, no overlap

    def test_ceiling_sizes(self):
        for n_per, frac, expected in [(5, 0.7, 7), (5, 0.75, 8), (3, 0.5, 3)]:
            ds = gaussian_task(0, n_per)
            train, test = split_train_test(ds, frac, RngState(1))
            assert len(train) == expected
            assert len(test) == 2 * n_per - expected

    def test_same_seed_same_split(self):
        ds = gaussian_task(2, 10)
        a1, b1 = split_train_test(ds, 0.6, RngState(9))
        a2, b2 = split_train_test(ds, 0.6, RngState(9))
        assert np.array_equal(a1.X, a2.X)
        assert np.array_equal(b1.X, b2.X)

    def test_single_instance_warns(self):
        ds = make_dataset([[1.0]], [1], role="secret_set")
        with pytest.warns(UserWarning, match="empty"):
            train, test = split_train_test(ds, 0.5, RngState(0))
        assert len(train) == 1 and len(test) == 0

    def test_rejects_bad_fraction(self):
        ds = gaussian_task(0, 3)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DataError):
                split_train_test(ds, frac, RngState(0))


class TestSampleSubset:
    def test_full_pool(self):
        ds = gaussian_task(0, 3)  # n = 6... use m = n
        cand = sample_subset(ds, 6, RngState(0))
        assert cand.indices == tuple(range(6))

    def test_empty_subset_internal(self):
        ds = gaussian_task(0, 3)
        assert sample_subset(ds, 0, RngState(0)).indices == ()

    def test_rejects_oversize(self):
        ds = gaussian_task(0, 2)
        with pytest.raises(DataError):
            sample_subset(ds, 5, RngState(0))

    def test_uniformity_over_pairs(self):
        # n=4, m=2: each of the 6 pairs should appear with frequency 1/6
        # within 3 sigma of the binomial standard error.
        ds = make_dataset([[float(i)] for i in range(4)], [1, 1, -1, -1])
        rng = RngState(123)
        draws = 100_000
        counts = {pair: 0 for pair in itertools.combinations(range(4), 2)}
        for _ in range(draws):
            counts[sample_subset(ds, 2, rng).indices] += 1
        p = 1.0 / 6.0
        band = 3.0 * math.sqrt(p * (1 - p) / draws)
        for pair, count in counts.items():
            assert abs(count / draws - p) <= band, (pair, count)


class TestRngState:
    def test_bit_exact_replay(self):
        a, b = RngState(42), RngState(42)
        ops_a = [a.generator.integers(1000) for _ in range(50)]
        ops_a += list(a.generator.standard_normal(20))
        ops_b = [b.generator.integers(1000) for _ in range(50)]
        ops_b += list(b.generator.standard_normal(20))
        assert ops_a == ops_b

    def test_children_are_independent_and_stable(self):
        r = RngState(7)
        assert r.child(0).seed == r.child(0).seed
        assert r.child(0).seed != r.child(1).seed
        assert _child_seed(7, 3) == _child_seed(7, 3)
        # child derivation does not disturb the parent stream
        r2 = RngState(7)
        r2.child(5)
        assert r2.generator.integers(10**9) == RngState(7).generator.integers(10**9)
