"""Dataset model, Keel/CSV ingestion, scaling and 5x2 splitting."""

import logging
from dataclasses import dataclass, replace

import numpy as np

from .rng import make_rng

logger = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Raised when an input file violates the expected format."""


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric feature matrix plus integer class labels.

    `labels` are class ids in [0, n_classes); `class_names` fixes the id
    order. A training set, a test set and a DSEL are all Datasets.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if feats.shape[0] != labs.shape[0]:
            raise ValueError("features row count must equal labels length")
        if len(self.class_names) < 2:
            raise DataFormatError("fewer than 2 classes")
        if labs.size and (labs.min() < 0 or labs.max() >= self.n_classes):
            raise ValueError("labels contain invalid class ids")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)

    def validate(self) -> "Dataset":
        """Enforce the full ingestion invariants (every class id present)."""
        counts = self.class_counts()
        if (counts == 0).any():
            missing = [self.class_names[i] for i in np.flatnonzero(counts == 0)]
            raise DataFormatError(f"classes with no samples: {missing}")
        return self

    def subset(self, indices) -> "Dataset":
        """Row subset sharing the class id space (classes may go missing).
        `indices` are row numbers, or a boolean mask over all rows."""
        idx = np.asarray(indices)
        if idx.dtype == bool:
            if idx.shape != (self.n_samples,):
                raise ValueError(f"a boolean row mask needs shape ({self.n_samples},), "
                                 f"not {idx.shape}")
            idx = np.flatnonzero(idx)
        idx = idx.astype(int, copy=False)
        return replace(self, features=self.features[idx], labels=self.labels[idx])


@dataclass(frozen=True)
class ImbalanceProfile:
    """Class counts, majority class and imbalance ratio of a dataset."""

    class_counts: tuple
    majority_class: int
    imbalance_ratio: float

    @classmethod
    def from_counts(cls, counts) -> "ImbalanceProfile":
        counts = np.asarray(counts, dtype=int)
        if counts.min() <= 0:
            raise ValueError("imbalance profile needs positive class counts")
        return cls(
            class_counts=tuple(int(c) for c in counts),
            majority_class=int(np.argmax(counts)),  # ties break to lowest id
            imbalance_ratio=float(counts.max() / counts.min()),
        )

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "ImbalanceProfile":
        return cls.from_counts(dataset.class_counts())


def _nearest(dists, k: int) -> np.ndarray:
    """Columns of the k smallest distances of each row, closest first; ties go
    to the lower column, and a k beyond the columns takes them all (warned).
    Selection and resampling share this one neighbour rule."""
    n = dists.shape[-1]
    if n < k:
        logger.warning("DSEL holds %d < k=%d samples; using the whole set", n, k)
    return np.argsort(dists, axis=-1, kind="stable")[..., :k]


_cdist = None  # scipy.spatial.distance.cdist, bound by the first `_distances`


def _distances(a, b) -> np.ndarray:
    """Euclidean distance of each row of `a` to each row of `b`. scipy.spatial
    loads at the first call, so commands that measure none never load it."""
    global _cdist
    if _cdist is None:
        from scipy.spatial.distance import cdist as _cdist
    return _cdist(a, b)


def _neighbors(features, of, k: int) -> np.ndarray:
    """The k rows of `features` nearest to each row `of` names, nearest first,
    that row itself excluded; k is clamped to the other rows, unwarned."""
    dists = _distances(features[of], features)
    dists[np.arange(len(of)), of] = np.inf
    return _nearest(dists, min(k, features.shape[0] - 1))


def _catalogue_lookup(names: tuple, kind: str):
    """The lookup of a name's spelling in `names`, case and outer spaces
    ignored. Selection, resampling and metrics share this one naming rule."""
    canonical = {n.lower(): n for n in names}

    def normalize(name: str) -> str:
        try:
            return canonical[name.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown {kind} {name!r}; choose from {names}") from None

    return normalize


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

MISSING_MARKER = "?"


def _parse_keel_attribute(line: str):
    parts = line.split(None, 1)
    if len(parts) < 2 or not parts[1].strip():
        raise DataFormatError(f"malformed @attribute line: {line!r}")
    body = parts[1].strip()
    brace = body.find("{")
    if brace >= 0:  # nominal: name then {cat, cat, ...}, possibly glued
        name = body[:brace].strip()
        close = body.rfind("}")
        if not name or close < brace:
            raise DataFormatError(f"malformed @attribute line: {line!r}")
        return name, tuple(c.strip() for c in body[brace + 1 : close].split(","))
    return body.split()[0], None


def parse_keel(text: str, name: str = "dataset") -> Dataset:
    """Parse a Keel `.dat` file into a Dataset.

    The class column is the declared `@outputs` attribute (last column when
    absent). A nominal feature becomes one indicator column per category, in
    declared order; the class attribute's declaration order fixes the class
    ids, and a class category declared twice is one class. Rows containing
    the `?` missing marker are dropped with a logged count.
    """
    attr_names, attr_specs = [], []
    relation = name
    output_name = None
    data_lines = []
    in_data = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if in_data:
            data_lines.append(line)
            continue
        lower, rest = line.lower(), "".join(line.split(None, 1)[1:])
        if lower.startswith("@relation"):
            relation = rest or relation
        elif lower.startswith("@attribute"):
            aname, spec = _parse_keel_attribute(line)
            attr_names.append(aname)
            attr_specs.append(spec)
        elif lower.startswith("@output"):
            outputs = [n.strip() for n in rest.split(",") if n.strip()]
            if len(outputs) != 1:
                raise DataFormatError("exactly one @outputs attribute is required")
            output_name = outputs[0]
        elif lower.startswith("@data"):
            in_data = True
    if not in_data:
        raise DataFormatError("missing @data section")
    if not attr_names:
        raise DataFormatError("no @attribute declarations")
    if output_name is None:
        label_idx = len(attr_names) - 1
    else:
        matches = [i for i, n in enumerate(attr_names) if n.lower() == output_name.lower()]
        if not matches:
            raise DataFormatError(f"@outputs names unknown attribute {output_name!r}")
        label_idx = matches[0]
    rows = [[cell.strip() for cell in line.split(",")] for line in data_lines]
    return _assemble(relation, rows, label_idx, attr_names[label_idx], attr_specs)


def parse_csv(text: str, label_column: int = -1, name: str = "dataset") -> Dataset:
    """Parse a rectangular CSV table; `label_column` selects the class column.

    Column types are inferred: numeric when every value parses as a float,
    nominal otherwise, with one indicator column per category in
    first-appearance order. A first row whose cells fail that inference while
    the rest of the column is numeric is treated as a header and skipped.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    rows = [[cell.strip() for cell in line.split(",")] for line in lines]
    if not rows:
        raise DataFormatError("empty data section")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"ragged row {i}: expected {width} cells, got {len(row)}")
    if len(rows) > 1 and _looks_like_header(rows):
        rows = rows[1:]
    label_idx = label_column if label_column >= 0 else width + label_column
    if not 0 <= label_idx < width:
        raise DataFormatError(f"label column {label_column} out of range for width {width}")
    return _assemble(name, rows, label_idx, f"col{label_idx}")


def _looks_like_header(rows) -> bool:
    kept = [row for row in rows[1:] if MISSING_MARKER not in row]  # as `_assemble` keeps
    return any(
        not _is_float(rows[0][j]) and all(_is_float(row[j]) for row in kept)
        for j in range(len(rows[0]))
    )


def _is_float(value: str) -> bool:
    try:
        float(value)
        return True
    except ValueError:
        return False


def _assemble(name, rows, label_idx, label_name, specs=None) -> Dataset:
    """Shared tail of both parsers: drop the rows holding `?`, then decode.

    `specs[j]` is None (numeric) or a category tuple; CSV passes none and
    they are read from the kept rows (numeric when every cell parses as a
    float, else nominal in first-appearance order). Every nominal column, the
    class included, maps a cell to its first matching category; a nominal
    feature becomes indicator columns in place. A numeric class column's
    classes are its distinct finite numbers by value, each spelt as it first
    appears in row order (`1` and `1.0` are one class). The first bad cell in
    row order is reported."""
    width = len(rows[0]) if specs is None else len(specs)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataFormatError(f"row {i} has {len(row)} cells, expected {width}")
    kept = [row for row in rows if MISSING_MARKER not in row]
    if len(kept) < len(rows):
        logger.info("%s: dropped %d rows with missing values", name, len(rows) - len(kept))
    if not kept:
        raise DataFormatError("empty data section")
    columns = list(zip(*kept))
    if specs is None:
        specs = [None if all(map(_is_float, c)) else tuple(dict.fromkeys(c)) for c in columns]
    class_names = specs[label_idx] and tuple(dict.fromkeys(specs[label_idx]))
    kinds = [class_names if j == label_idx else spec for j, spec in enumerate(specs)]
    decoded = [_decode(cells, kind) for cells, kind in zip(columns, kinds)]
    # the first bad cell in row order, a row's class cell before its features
    bad = [(row, j != label_idx, j) for j, (_, row) in enumerate(decoded) if row is not None]
    if bad:
        row, _, j = min(bad)
        cell = columns[j][row]
        raise DataFormatError(
            f"non-finite class value {cell!r} in column {label_name}"
            if j == label_idx and specs[j] is None and _is_float(cell)
            else f"unknown class value {cell!r} in column {label_name}" if j == label_idx
            else f"unknown nominal category {cell!r} in column {j}" if kinds[j] is not None
            else f"non-finite cell {cell!r} in numeric column {j}" if _is_float(cell)
            else f"non-numeric cell {cell!r} in numeric column {j}"
        )
    features = np.column_stack([np.empty((len(kept), 0))] + [
        values if kind is None else np.eye(len(kind))[values]
        for j, ((values, _), kind) in enumerate(zip(decoded, kinds)) if j != label_idx
    ])
    labels = decoded[label_idx][0]
    if class_names is None:  # by value, each named by its first cell in row order
        _, first, labels = np.unique(labels, return_index=True, return_inverse=True)
        class_names = tuple(columns[label_idx][i] for i in first)
    return Dataset(name, features, labels, class_names).validate()


def _decode(cells, categories):
    """(values, first bad row or None) of one column: the Python floats of a
    numeric column, where a cell that is no finite float is bad, or each
    nominal cell's first matching category."""
    if categories is None:
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:  # a non-number reads as NaN, bad as a NaN is
            values = np.array([float(v) if _is_float(v) else np.nan for v in cells])
        return values, next(iter(np.flatnonzero(~np.isfinite(values)).tolist()), None)
    first = {c: categories.index(c) for c in categories}
    ids = np.array([first.get(v, -1) for v in cells])
    return ids, next(iter(np.flatnonzero(ids < 0).tolist()), None)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature affine map fitted on a training set."""

    mean: np.ndarray
    std: np.ndarray  # constant features carry std 0 and map to 0

    def transform(self, features: np.ndarray) -> np.ndarray:
        live = self.std > 0
        scaled = (np.asarray(features, dtype=float) - self.mean) / np.where(live, self.std, 1.0)
        return np.where(live, scaled, 0.0)


def standardize(train: Dataset, others=()):
    """Fit z-scoring on `train`, apply the same map to `others`.

    Returns (scaled train, list of scaled others, ScalingParams). Features
    that are constant on the training set map to 0 everywhere.
    """
    if train.n_samples == 0:
        raise ValueError("cannot standardize an empty training set")
    mean = train.features.mean(axis=0)
    # a constant column's mean may round off its value and leave a std of 1e-17
    std = np.where(np.ptp(train.features, axis=0) > 0, train.features.std(axis=0), 0.0)
    params = ScalingParams(mean=mean, std=std)
    scaled_train = replace(train, features=params.transform(train.features))
    scaled_others = [replace(d, features=params.transform(d.features)) for d in others]
    return scaled_train, scaled_others, params


# ---------------------------------------------------------------------------
# 5x2 stratified cross-validation
# ---------------------------------------------------------------------------


REPLICATIONS = 5
FOLDS = ("A", "B")  # names of the two halves of each replication


@dataclass(frozen=True)
class SplitPlan:
    """Five stratified shuffles, each split into two disjoint covering folds."""

    replications: tuple  # of (foldA indices, foldB indices)

    def folds(self):
        """Yield (replication, test_fold_name, train_idx, test_idx) per fold."""
        name_a, name_b = FOLDS
        for r, (fold_a, fold_b) in enumerate(self.replications):
            yield r, name_b, fold_a, fold_b  # trained on A, tested on B
            yield r, name_a, fold_b, fold_a


def stratified_5x2(dataset: Dataset, seed: int) -> SplitPlan:
    """Five independent stratified two-fold shuffles of the dataset.

    Every class is split as evenly as possible between the folds; for odd
    class counts the extra sample goes to fold A on even replications and to
    fold B on odd ones. Classes with a single sample always land in fold A,
    with a warning that names them.
    """
    singletons = tuple(np.flatnonzero(dataset.class_counts() == 1).tolist())
    if singletons:
        logger.warning("%s: classes %s have a single sample; assigned wholly to fold A",
                       dataset.name, singletons)
    replications = []
    for r in range(REPLICATIONS):
        rng = make_rng(seed, "5x2", r)
        fold_a, fold_b = [], []
        for c in range(dataset.n_classes):
            idx = np.flatnonzero(dataset.labels == c)
            if idx.size == 0:
                continue
            if idx.size == 1:
                fold_a.append(idx)
                continue
            perm = rng.permutation(idx)
            half, odd = divmod(idx.size, 2)
            cut = half + (odd if r % 2 == 0 else 0)
            fold_a.append(perm[:cut])
            fold_b.append(perm[cut:])
        a = np.sort(np.concatenate(fold_a))
        b = np.sort(np.concatenate(fold_b)) if fold_b else np.array([], dtype=int)
        replications.append((a, b))
    return SplitPlan(replications=tuple(replications))
