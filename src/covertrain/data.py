"""Datasets, index subsets, file I/O, and deterministic randomness.

Feature vectors are dense float64; labels are signed integers in {-1, +1}.
Instance order is stable: position i names the same instance for the whole
lifetime of a Dataset, so an index subset is a complete description of a
candidate training set.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

ROLES = ("camouflage_pool", "secret_set", "training_set", "test_set")

# Text precision for serialized floats; enough digits to round-trip float64.
FLOAT_FORMAT = "%.17g"


class DataError(ValueError):
    """Malformed dataset file or inconsistent dataset contents."""


def check_counts(obj, **minimums: int) -> None:
    """Raise DataError unless each named field of `obj` is an integer of at
    least its minimum: operator.index accepts it (numpy integers pass) and
    it is not a bool."""
    for name, least in minimums.items():
        value = getattr(obj, name)
        try:
            ok = not isinstance(value, bool) and operator.index(value) >= least
        except TypeError:
            ok = False
        if not ok:
            raise DataError(f"{name} must be an integer >= {least}, got {value!r}")


def plain_numbers(obj) -> None:
    """Turn numpy scalar fields into Python scalars, which JSON can encode."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.generic):
            object.__setattr__(obj, f.name, value.item())


class Dataset:
    """Immutable ordered collection of labeled instances.

    Args:
        X: array-like of shape (n, d), coerced to float64.
        y: array-like of n labels, each exactly -1 or +1.
        role: one of ROLES; pools and secret sets must be non-empty.
    """

    __slots__ = ("X", "y", "role")

    def __init__(self, X, y, role: str = "camouflage_pool"):
        X = np.array(X, dtype=np.float64, order="C", copy=True)
        y = np.array(y, dtype=np.int64, copy=True).ravel()
        if X.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"{X.shape[0]} feature rows but {y.shape[0]} labels"
            )
        if role not in ROLES:
            raise DataError(f"unknown role {role!r}")
        if role in ("camouflage_pool", "secret_set") and X.shape[0] == 0:
            raise DataError("empty dataset")
        if not np.all(np.isfinite(X)):
            raise DataError("non-finite feature value")
        bad = y[(y != 1) & (y != -1)]
        if bad.size:
            raise DataError(f"label must be -1 or +1, got {bad[0]}")
        X.setflags(write=False)
        y.setflags(write=False)
        self.X = X
        self.y = y
        self.role = role

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.X.shape[0]

    def subset(self, indices, role: str = "training_set") -> "Dataset":
        """A new Dataset of the instances at `indices`, in their order.

        A run calls it only to split the secret set and to verify the
        delivered set: solvers and the evaluate stage train a subset as 0/1
        weights on its pool (`learner.subset_weights`) and copy nothing.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise DataError("subset index out of range")
        return Dataset(self.X[idx], self.y[idx], role=role)

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, d={self.dimension}, role={self.role!r})"


@dataclass(frozen=True)
class CandidateSet:
    """Index subset of a camouflage pool, with optional cached scores.

    Indices are strictly increasing, so two CandidateSets describe the same
    subset iff they compare equal. Cached values, when present, must equal
    fresh recomputation. A one-dimensional integer ndarray (what
    `sample_subset` draws) converts in one `tolist` call; any other
    iterable converts item by item with `int`.
    """

    indices: tuple[int, ...]
    cached_risk: float | None = None
    cached_psi: float | None = None

    def __post_init__(self):
        raw = self.indices
        if isinstance(raw, np.ndarray) and raw.ndim == 1 and raw.dtype.kind in "iu":
            idx = tuple(raw.tolist())
        else:
            idx = tuple(int(i) for i in raw)
        object.__setattr__(self, "indices", idx)
        # an increasing tuple's least index is its first
        increasing = all(map(operator.lt, idx, idx[1:]))
        if idx and (idx[0] if increasing else min(idx)) < 0:
            raise DataError("negative candidate index")
        if not increasing:
            raise DataError("candidate indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.indices)


def _child_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngState:
    """Deterministic random stream (PCG64).

    Identical seed plus identical operation sequence gives bit-identical
    draws. Independent sub-streams come from `child(index)`, whose seed is
    the first 8 bytes of sha256("{seed}:{index}"); workers must never share
    a parent stream.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & ((1 << 64) - 1)
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RngState":
        return RngState(_child_seed(self.seed, index))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"


def checked_label_map(label_map) -> dict:
    """The label-map rule of `load_dataset` and ExperimentConfig: a copy of
    `label_map` with its values as Python ints; DataError if it is not a
    mapping, a key is not a string (file labels are matched as text) or a
    value is not an integer (numpy integers pass)."""
    if not isinstance(label_map, dict):
        raise DataError(f"label_map must be an object, got {label_map!r}")
    for key, value in label_map.items():
        if not isinstance(key, str):
            raise DataError(f"label_map key {key!r} must be a string")
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DataError(f"label_map value for {key!r} must be an integer, "
                            f"got {value!r}")
    return {key: int(value) for key, value in label_map.items()}


def _parse_label(raw, label_map, where: str) -> int:
    if label_map is not None:
        key = str(raw).strip()
        if key not in label_map:
            raise DataError(f"{where}: label {raw!r} not in label map")
        value = label_map[key]
        if value not in (-1, 1):
            raise DataError(f"label_map must map to -1 or +1, got {value} for {key!r}")
        return value
    if isinstance(raw, bool):
        raise DataError(f"{where}: boolean label {raw!r} requires a label map")
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError):
        raise DataError(
            f"{where}: non-numeric label {raw!r} requires a label map"
        ) from None
    if value not in (-1.0, 1.0):
        raise DataError(f"{where}: label must be -1 or +1, got {raw!r}")
    return int(value)


def _parse_features(values: list, dim: int, where: str) -> list[float]:
    if len(values) != dim:
        raise DataError(f"{where}: expected {dim} features, got {len(values)}")
    if any(isinstance(v, bool) for v in values):
        raise DataError(f"{where}: boolean feature value")
    try:
        feats = [float(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: {exc}") from None
    if not all(map(math.isfinite, feats)):
        raise DataError(f"{where}: non-finite feature value")
    return feats


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise DataError(f"cannot infer format from {path.name!r}")


def _csv_rows(lines: list[str], name: str) -> list[list[str]]:
    """The non-empty rows csv.reader makes of `lines`; DataError naming the
    file on a csv.Error."""
    try:
        return [r for r in csv.reader(lines) if r]
    except csv.Error as exc:
        raise DataError(f"{name}: {exc}") from None


def _plain_csv(lines: list[str], dim: int) -> tuple[np.ndarray, np.ndarray] | None:
    """X and y of the non-empty, unquoted body lines of a CSV file from one
    np.loadtxt call, or None when the row parser must decide: on any
    exception, a shape other than (rows, dim + 1), a non-finite feature or
    a label other than -1 or +1. np.loadtxt rejects some tokens that float()
    accepts (1_0, non-ASCII digits), so those files take the row parser;
    a token both accept has the same bits."""
    try:
        table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except Exception:  # the row parser, not np.loadtxt, says what is wrong
        return None
    if table.shape != (len(lines), dim + 1):
        return None
    X, labels = table[:, :-1], table[:, -1]
    if not (np.isfinite(X).all() and (np.abs(labels) == 1.0).all()):
        return None
    return X, labels.astype(np.int64)


def make_output_dir(path) -> Path:
    """Create the directory `path`, and its parents, unless it exists.
    A path that cannot be a directory, such as an existing regular file,
    raises DataError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"cannot create output directory {out}: {exc.strerror or exc}"
        ) from None
    return out


def load_dataset(
    path,
    label_map: dict | None = None,
    role: str = "camouflage_pool",
    add_bias: bool = False,
) -> Dataset:
    """Load a dataset from CSV (header f0..f{d-1},label) or JSONL.

    Row order in the file is the dataset's instance order. Labels are mapped
    to {-1, +1}: numeric -1/+1 pass through, anything else needs an explicit
    label_map from class name to sign (`checked_label_map`). `add_bias`
    appends a constant-1 feature to every instance. A CSV file without
    quotes or a label map is read in one np.loadtxt call (`_plain_csv`), and
    only its header goes through csv.reader; when that call does not give a
    valid table, the row parser reads the file and names the failing row.
    A file that is missing or cannot be read raises DataError naming it.
    """
    path = Path(path)
    fmt = _infer_format(path)
    label_map = None if label_map is None else checked_label_map(label_map)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path.name}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    rows: list[tuple[list[float], int]] = []
    plain = None

    if fmt == "csv":
        lines = text.splitlines()
        body = [ln for ln in lines if ln]
        # Without quotes, csv.reader gives one row per non-empty line, and it
        # fails only on a field longer than its size limit. So when no line
        # is that long, only the header needs it, and the body may go to one
        # np.loadtxt call; the row parser reads every line otherwise.
        one_call = (label_map is None and '"' not in text
                    and max(map(len, body), default=0) <= csv.field_size_limit())
        table = _csv_rows(body[:1] if one_call else lines, path.name)
        if not table:
            raise DataError(f"{path.name}: empty dataset")
        header = [h.strip() for h in table[0]]
        if not header or header[-1] != "label":
            raise DataError(f"{path.name}: last CSV column must be 'label'")
        dim = len(header) - 1
        if dim < 1:
            raise DataError(f"{path.name}: no feature columns")
        if one_call and len(body) > 1:
            plain = _plain_csv(body[1:], dim)
        if plain is None:
            if one_call:
                table = _csv_rows(lines, path.name)
            for row_num, row in enumerate(table[1:], start=1):
                where = f"{path.name} row {row_num}"
                feats = _parse_features(row[:-1], dim, where)
                rows.append((feats, _parse_label(row[-1], label_map, where)))
    else:
        dim = None
        for row_num, line in enumerate(
            (ln for ln in text.splitlines() if ln.strip()), start=1
        ):
            where = f"{path.name} row {row_num}"
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DataError(f"{where}: {exc}") from None
            if not (isinstance(obj, dict) and "features" in obj and "label" in obj):
                raise DataError(f"{where}: need 'features' and 'label'")
            values = obj["features"]
            if not isinstance(values, list) or not values:
                raise DataError(f"{where}: 'features' must be a non-empty list")
            dim = len(values) if dim is None else dim
            feats = _parse_features(values, dim, where)
            rows.append((feats, _parse_label(obj["label"], label_map, where)))

    if plain is not None:
        X, y = plain
    elif rows:
        X = np.array([f for f, _ in rows], dtype=np.float64)
        y = np.array([lab for _, lab in rows], dtype=np.int64)
    else:
        raise DataError(f"{path.name}: empty dataset")
    if add_bias:
        X = np.hstack([X, np.ones((X.shape[0], 1))])
    return Dataset(X, y, role=role)


def save_dataset(data: Dataset, path) -> None:
    """Write a dataset so that load_dataset reproduces it bit-exactly."""
    path = Path(path)
    fmt = _infer_format(path)
    if fmt == "csv":
        lines = [",".join([f"f{j}" for j in range(data.dimension)] + ["label"])]
        for i in range(len(data)):
            feats = [FLOAT_FORMAT % v for v in data.X[i]]
            lines.append(",".join(feats + [str(int(data.y[i]))]))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        lines = [
            json.dumps({"features": list(data.X[i]), "label": int(data.y[i])})
            for i in range(len(data))
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def split_train_test(
    data: Dataset, fraction: float, rng: RngState
) -> tuple[Dataset, Dataset]:
    """Shuffle-split into (train, test) with |train| = ceil(fraction * n).

    Both halves preserve the original relative instance order. The second
    half gets role 'test_set'; the first keeps the input's role.
    """
    if not 0.0 < fraction < 1.0:
        raise DataError(f"fraction must lie in (0, 1), got {fraction}")
    n = len(data)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    k = math.ceil(fraction * n - 1e-9)
    perm = rng.generator.permutation(n)
    first = np.sort(perm[:k])
    second = np.sort(perm[k:])
    if second.size == 0:
        warnings.warn(
            f"test split is empty (n={n}, fraction={fraction})", stacklevel=2
        )
    return (
        data.subset(first, role=data.role),
        data.subset(second, role="test_set"),
    )


def sample_subset(pool: Dataset, m: int, rng: RngState) -> CandidateSet:
    """Draw m distinct pool indices uniformly without replacement."""
    n = len(pool)
    if m < 0 or m > n:
        raise DataError(f"subset size {m} out of range for pool of {n}")
    idx = np.sort(rng.generator.choice(n, size=m, replace=False))
    return CandidateSet(idx)
