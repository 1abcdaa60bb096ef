"""Linear classifiers and the two fusion architectures.

Training minimizes 0.5*||w||^2 + c * sum(loss) with an unregularized bias
by deterministic trust-region Newton-CG (TRON; zero start, no
randomness), so identical data and config give bitwise-identical weights.
Class encoding is content_dense = +1; a lead is predicted content_dense
when its decision margin is >= 0 (exact ties go to content_dense).

Feature-level fusion trains one logistic model on the concatenation of all
feature spaces. Decision-level fusion is a two-layer stack: three logistic
models (one per space) trained on the training set, then a linear
squared-hinge model over their three content-dense probabilities trained
on the development set, with Platt-calibrated probability output.

Hyperparameter c is grid-searched by development-set accuracy; ties pick
the smallest c.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import AnnotatedLead, json_field
from .errors import (
    CorpusFormatError,
    DataLeakError,
    NumericError,
    SingleClassError,
    ValidationError,
)
from .features import (
    SPACE_MI,
    SPACE_MRC,
    SPACE_ORDER,
    SPACE_PR,
    FeatureBundle,
    FeatureTable,
    space_from_lines,
    space_to_lines,
)
from .kernels import (
    LOSS_HINGE,
    LOSS_LOGISTIC,
    LOSSES,
    CsrMatrix,
    build_csr,  # unused here; kept for perfbench's tracer until ROADMAP item 8
    csr_take,
    hessian_product,
    margins,
    objective_and_grad,
    pack_csr,
)
from .labeling import CONTENT_DENSE, NON_CONTENT_DENSE
from .optimize import (
    fit_platt_sigmoid,
    minimize_tron as minimize_lbfgs,  # named for perfbench's tracer until ROADMAP item 8
)

MODE_MRC = "mrc"
MODE_MI = "mi"
MODE_PR = "pr"
MODE_FEATURE_FUSION = "feature_fusion"
MODE_DECISION_FUSION = "decision_fusion"
MODES = (MODE_MRC, MODE_MI, MODE_PR, MODE_FEATURE_FUSION, MODE_DECISION_FUSION)

# The feature spaces each mode's classifier reads.
MODE_SPACES = {MODE_MRC: (SPACE_MRC,), MODE_MI: (SPACE_MI,),
               MODE_PR: (SPACE_PR,), MODE_FEATURE_FUSION: SPACE_ORDER,
               MODE_DECISION_FUSION: SPACE_ORDER}

SPACE_META = "META"

SCORE_BLOCK = 1024  # leads per scoring pass; bounds feature-matrix memory

DEFAULT_C_GRID = (2.0 ** -5, 2.0 ** -3, 2.0 ** -1, 2.0, 2.0 ** 3, 2.0 ** 5)

MAX_ITERS = 300  # trust-region Newton steps per fit
TOL = 1e-6  # gradient infinity norm at which a fit has converged
PLATT_FOLDS = 3  # internal split of the development fold for calibration


@dataclass(frozen=True)
class TrainConfig:
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    seed: int = 0

    def __post_init__(self):
        if not self.c_grid:
            raise ValidationError("c_grid is empty")
        if not all(0 < c < math.inf for c in self.c_grid):
            raise ValidationError("c_grid values must be positive and finite")
        if self.seed < 0:
            raise ValidationError(
                f"seed must be a non-negative integer, got {self.seed}")

    @property
    def sorted_c_grid(self) -> tuple[float, ...]:
        return tuple(sorted(self.c_grid))


def label_to_y(labels: Sequence[str]) -> np.ndarray:
    """The labels as a vector: content_dense +1, non_content_dense -1.
    Raises ValidationError naming the first other label."""
    text = np.array(labels, dtype=object)
    dense = text == CONTENT_DENSE
    bad = ~dense & (text != NON_CONTENT_DENSE)
    if bad.any():
        raise ValidationError(f"unknown label {labels[int(bad.argmax())]!r}")
    return np.where(dense, 1.0, -1.0)


def label_vector(table: FeatureTable, labels: Mapping[str, str]) -> np.ndarray:
    """``y`` indexed by ``table`` row: each row's lead's label in
    ``labels`` as label_to_y encodes it, and 0 where ``labels`` has none."""
    held = [r for r, lead in enumerate(table.leads) if lead.id in labels]
    y = np.zeros(len(table.leads))
    y[held] = label_to_y([labels[table.leads[r].id] for r in held])
    return y


def accuracy(z: np.ndarray, y: np.ndarray) -> float:
    """Share of margins whose class matches y (+1/-1): a margin >= 0
    predicts content_dense, as margin_label does."""
    if len(z) != len(y) or not len(y):
        raise ValidationError(f"{len(z)} margins for {len(y)} labels")
    return int(np.count_nonzero((z >= 0.0) == (y > 0))) / len(y)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass
class LinearModel:
    """Dense weight vector + bias over one named feature space."""

    weights: np.ndarray
    bias: float
    space_name: str
    loss: str
    l2_c: float
    platt: tuple[float, float] | None = None
    # The development rows' margins, when training had some; not saved.
    dev_margins: np.ndarray | None = field(default=None, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.loss not in LOSSES:
            raise ValidationError(f"unknown loss {self.loss!r}")
        if self.l2_c <= 0:
            raise ValidationError("l2_c must be positive")
        if self.platt is not None and len(self.platt) != 2:
            raise ValidationError("platt must be two numbers (a, b)")
        if not (np.all(np.isfinite(self.weights)) and math.isfinite(self.bias)):
            raise NumericError("model parameters are not finite")

    @property
    def dim(self) -> int:
        return len(self.weights)

    def margins(self, X: CsrMatrix) -> np.ndarray:
        """Decision margins of every row, summed by the training kernel."""
        if X.n_cols != self.dim:
            raise ValidationError(
                f"{X.n_cols}-column rows scored by a {self.dim}-dim model"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            z = margins(X, self.weights, self.bias)
        if np.isnan(z).any():  # +inf and -inf terms in one row
            raise NumericError(f"{self.space_name} model gave a NaN margin")
        return z

    def score(self, bundle: FeatureBundle, rows: np.ndarray) -> np.ndarray:
        """Decision margins of rows ``rows`` of the bundle's table over the
        spaces ``space_name`` names (several joined by "+")."""
        return self.margins(bundle.matrix(rows, self.space_name.split("+")))

    def proba_from_margins(self, z: np.ndarray) -> np.ndarray:
        """Probability of the content_dense class for each margin.

        Logistic models apply the sigmoid to the margin directly; hinge
        models require a fitted Platt calibration (a, b) and return
        sigmoid(a*margin + b).
        """
        if self.loss != LOSS_LOGISTIC:
            if self.platt is None:
                raise ValidationError(
                    "hinge model has no Platt calibration; fit one on "
                    "held-out margins before asking for probabilities")
            a, b = self.platt
            with np.errstate(over="ignore", invalid="ignore"):
                z = a * z + b
            if np.isnan(z).any():  # a zero slope times an infinite margin
                raise NumericError(
                    f"{self.space_name} Platt calibration gave a NaN")
        return np.array([_sigmoid(m) for m in z.tolist()])


def margin_label(z: float) -> str:
    """Predicted class of a decision margin; exact ties go to content_dense."""
    return CONTENT_DENSE if z >= 0.0 else NON_CONTENT_DENSE


def train_linear(X: CsrMatrix, y: np.ndarray, space_name: str, loss: str,
                 c: float) -> LinearModel:
    """Fit one linear model at a fixed c to the rows of ``X``, ``y`` giving
    each row's class (+1/-1, as label_to_y and label_vector make it).

    Minimizes 0.5*||w||^2 + c*sum(loss_i) by TRON from a zero start to
    within TOL of a stationary point (gradient infinity norm), or until the
    trust region collapses at float resolution with the gradient reduced
    (optimize.minimize_tron). The bias is not regularized. Deterministic.
    Every fit in the package goes through here.
    """
    n, d = X.n_rows, X.n_cols
    if n != len(y):
        raise ValidationError(f"{n} rows for {len(y)} labels")
    if not 0 < c < math.inf:
        raise ValidationError("c must be positive and finite")
    if n < 2:
        raise ValidationError("need at least two training examples")
    if not np.isin(y, (1.0, -1.0)).all():
        raise ValidationError("y must hold only +1 and -1 (label_to_y)")
    if len(np.unique(y)) < 2:
        raise SingleClassError("training labels cover a single class")

    def fun(packed: np.ndarray):
        w = packed[:d]
        b = packed[d]
        value, grad_w, grad_b = objective_and_grad(w, b, X, y, c, loss)
        return value, np.concatenate([grad_w, [grad_b]])

    def hess(packed: np.ndarray):
        return hessian_product(packed[:d], packed[d], X, y, c, loss)

    res = minimize_lbfgs(fun, hess, np.zeros(d + 1), max_iters=MAX_ITERS,
                         tol=TOL)
    w = res.x[:d]
    b = float(res.x[d])
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise NumericError("optimizer produced non-finite parameters")
    return LinearModel(weights=w, bias=b, space_name=space_name, loss=loss,
                       l2_c=c)


def _grid_search(train_X: CsrMatrix, train_y: np.ndarray,
                 dev_X: CsrMatrix | None, dev_y: np.ndarray | None,
                 space_name: str, loss: str,
                 config: TrainConfig) -> LinearModel:
    """Pick c by development accuracy; ties go to the smallest c.

    With a single-value grid no development data is needed; when given,
    the chosen model keeps its margins on it in ``dev_margins``.
    """
    grid = config.sorted_c_grid
    if dev_X is None or dev_y is None:
        if len(grid) > 1:
            raise ValidationError(
                "grid search over several c values needs a development set"
            )
        return train_linear(train_X, train_y, space_name, loss, grid[0])
    best_model = None
    best_acc = -1.0
    for c in grid:
        model = train_linear(train_X, train_y, space_name, loss, c)
        model.dev_margins = model.margins(dev_X)
        acc = accuracy(model.dev_margins, dev_y)
        if acc > best_acc:
            best_model, best_acc = model, acc
    return best_model


def _check_disjoint(table: FeatureTable, train_rows: np.ndarray,
                    other_rows: np.ndarray, name: str) -> None:
    """DataLeakError when the training and the ``name`` rows share a lead."""
    overlap = np.intersect1d(train_rows, other_rows)
    if len(overlap):
        first = min(table.leads[r].id for r in overlap.tolist())
        raise DataLeakError(
            f"training and {name} sets share {len(overlap)} lead(s), "
            f"e.g. {first!r}"
        )


def train_single(train_rows: np.ndarray,
                 y: np.ndarray,
                 bundle: FeatureBundle,
                 space_name: str,
                 config: TrainConfig | None = None,
                 dev_rows: np.ndarray | None = None,
                 ) -> LinearModel:
    """Grid-searched logistic model on one feature space.

    Trains on rows ``train_rows`` of the bundle's table, ``y`` giving
    each table row's class (+1/-1); ``dev_rows`` pick c. A ``space_name``
    joining several spaces with "+" (a combined space's name) trains on
    their rows side by side. A model trained on one space with
    ``dev_rows`` can be passed to train_decision_fusion as a first layer.
    """
    config = config or TrainConfig()
    names = space_name.split("+")
    train_X = bundle.matrix(train_rows, names)
    dev_X = dev_y = None
    if dev_rows is not None and len(dev_rows):
        _check_disjoint(bundle.table, train_rows, dev_rows, "development")
        dev_X, dev_y = bundle.matrix(dev_rows, names), y[dev_rows]
    return _grid_search(train_X, y[train_rows], dev_X, dev_y, space_name,
                        LOSS_LOGISTIC, config)


def train_feature_fusion(train_rows: np.ndarray,
                         y: np.ndarray,
                         bundle: FeatureBundle,
                         config: TrainConfig | None = None,
                         dev_rows: np.ndarray | None = None,
                         ) -> LinearModel:
    """Logistic model on the concatenated feature representation.

    A development set is required whenever config.c_grid has more than one
    value (grid search selects by development accuracy).
    """
    return train_single(train_rows, y, bundle, bundle.combined_name, config,
                        dev_rows)


@dataclass
class FusionModel:
    """Three per-space first-layer models and one second-layer model.

    The second layer scores the vector of the first layer's content-dense
    probabilities, in the fixed order MRC, MI, PR.
    """

    first_layer: dict[str, LinearModel]
    second_layer: LinearModel

    def __post_init__(self):
        _check_first_layer(self.first_layer)
        if self.second_layer.dim != len(self.first_layer):
            raise ValidationError(
                f"second layer dimension {self.second_layer.dim} does not "
                f"match {len(self.first_layer)} first-layer models"
            )

    def score(self, bundle: FeatureBundle, rows: np.ndarray) -> np.ndarray:
        """Second-layer margins of rows ``rows`` of the bundle's table."""
        return self.second_layer.margins(_second_layer_rows(
            self.first_layer, [self.first_layer[name].score(bundle, rows)
                               for name in SPACE_ORDER]))

    def proba_from_margins(self, z: np.ndarray) -> np.ndarray:
        """The second layer's Platt-calibrated probability of each margin."""
        return self.second_layer.proba_from_margins(z)


def _check_first_layer(first_layer: Mapping[str, LinearModel]) -> None:
    """ValidationError unless there is one model per space, each trained
    on the space it is keyed by."""
    if set(first_layer) != set(SPACE_ORDER):
        raise ValidationError(
            f"first layer must cover {SPACE_ORDER}, got {sorted(first_layer)}")
    for name, model in first_layer.items():
        if model.space_name != name:
            raise ValidationError(
                f"first-layer model for {name!r} was trained on "
                f"{model.space_name!r}")


def _second_layer_rows(first_layer: Mapping[str, LinearModel],
                       margins: Sequence[np.ndarray]) -> CsrMatrix:
    """Dense second-layer rows: the content-dense probabilities of the
    first layer's MRC, MI and PR margins, given in that order."""
    values = np.column_stack([first_layer[name].proba_from_margins(z)
                              for name, z in zip(SPACE_ORDER, margins)])
    n, d = values.shape
    return pack_csr(np.repeat(np.arange(n), d), np.tile(np.arange(d), n),
                    values.ravel(), n, d)


def _platt_from_cv(dev_X: CsrMatrix, dev_y: np.ndarray, space_name: str,
                   loss: str, c: float, seed: int) -> tuple[float, float]:
    """Calibration margins from an internal split of the development fold.

    The development set is split PLATT_FOLDS ways; each part's margins
    come from a model trained on the other parts, so no margin is scored
    by a model that saw its lead. Falls back to in-sample margins, before
    fitting any part, when the fold has fewer than 2*PLATT_FOLDS rows or
    a split would leave a single-class training part.
    """
    n = dev_X.n_rows
    order = np.random.default_rng(seed).permutation(n)
    parts = [order[i::PLATT_FOLDS] for i in range(PLATT_FOLDS)]
    rests = [np.setdiff1d(order, part) for part in parts]
    if n < 2 * PLATT_FOLDS or any(len(np.unique(dev_y[rest])) < 2
                                  for rest in rests):
        model = train_linear(dev_X, dev_y, space_name, loss, c)
        return fit_platt_sigmoid(model.margins(dev_X), dev_y)
    margin_out = np.zeros(n)
    for part, rest in zip(parts, rests):
        model = train_linear(csr_take(dev_X, rest), dev_y[rest], space_name,
                             loss, c)
        margin_out[part] = model.margins(csr_take(dev_X, part))
    return fit_platt_sigmoid(margin_out, dev_y)


def train_decision_fusion(train_rows: np.ndarray,
                          dev_rows: np.ndarray,
                          y: np.ndarray,
                          bundle: FeatureBundle,
                          config: TrainConfig | None = None,
                          first_layer: Mapping[str, LinearModel] | None = None,
                          ) -> FusionModel:
    """Two-layer stack: per-space logistic models, then a hinge combiner.

    Rows index the bundle's table, ``y`` gives each table row's class.
    First-layer models are ``train_single`` models on ``train_rows`` with
    ``dev_rows``, one per feature space (pass ``first_layer`` to reuse
    ones already trained so). The second layer trains on the development
    rows' three-probability vectors from the first layer's ``dev_margins``
    (squared hinge; c by its accuracy on those same vectors, ties to
    smallest c) and carries a Platt calibration fit on margins from an
    internal split of the development fold.

    Raises DataLeakError when the two sets share a lead.
    """
    config = config or TrainConfig()
    if not len(train_rows) or not len(dev_rows):
        raise ValidationError("both training and development sets are required")
    _check_disjoint(bundle.table, train_rows, dev_rows, "development")
    if first_layer is None:
        first_layer = {name: train_single(train_rows, y, bundle, name,
                                          config, dev_rows)
                       for name in SPACE_ORDER}
    _check_first_layer(first_layer)
    dev_margins = [first_layer[name].dev_margins for name in SPACE_ORDER]
    if any(z is None or len(z) != len(dev_rows) for z in dev_margins):
        raise ValidationError("first layer lacks development margins")

    dev_y = y[dev_rows]
    meta_X = _second_layer_rows(first_layer, dev_margins)
    second = _grid_search(meta_X, dev_y, meta_X, dev_y, SPACE_META,
                          LOSS_HINGE, config)
    second.platt = _platt_from_cv(meta_X, dev_y, SPACE_META, LOSS_HINGE,
                                  second.l2_c, config.seed)
    return FusionModel(first_layer=dict(first_layer), second_layer=second)


@dataclass
class LeadClassifier:
    """A trained model bound to its feature bundle; scores raw leads."""

    mode: str
    bundle: FeatureBundle
    model: LinearModel | FusionModel

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}")
        is_fusion = isinstance(self.model, FusionModel)
        if is_fusion != (self.mode == MODE_DECISION_FUSION):
            raise ValidationError(f"model type does not match mode {self.mode!r}")
        layers = (self.model.first_layer.items() if is_fusion
                  else [("+".join(MODE_SPACES[self.mode]), self.model)])
        for name, model in layers:
            dim = sum(self.bundle.space(n).dim for n in name.split("+"))
            if model.space_name != name or model.dim != dim:
                raise ValidationError(
                    f"{model.space_name!r} model with {model.dim} weights "
                    f"does not fit the {dim}-dim {name!r} space")

    def margins(self, leads: Sequence[AnnotatedLead]) -> np.ndarray:
        """Decision margins of the leads, scored SCORE_BLOCK at a time,
        each block from a table over it."""
        blocks = [leads[i:i + SCORE_BLOCK]
                  for i in range(0, len(leads), SCORE_BLOCK)]
        return np.concatenate([np.zeros(0)] + [
            self.model.score(replace(self.bundle, table=FeatureTable(block)),
                             np.arange(len(block)))
            for block in blocks])

    def proba_from_margins(self, z: np.ndarray) -> np.ndarray:
        """Content-dense probability of each decision margin."""
        return self.model.proba_from_margins(z)

    def probabilities(self, leads: Sequence[AnnotatedLead]) -> np.ndarray:
        """Content-dense probability of each lead."""
        return self.proba_from_margins(self.margins(leads))

    def predict_proba(self, lead: AnnotatedLead) -> float:
        return float(self.probabilities([lead])[0])

    def predict_label(self, lead: AnnotatedLead) -> str:
        return margin_label(float(self.margins([lead])[0]))


def _linear_to_record(model: LinearModel) -> dict:
    return {
        "space_name": model.space_name,
        "loss": model.loss,
        "l2_c": model.l2_c,
        "bias": model.bias,
        "platt": list(model.platt) if model.platt is not None else None,
        "weights": [float(v) for v in model.weights],
    }


def _linear_from_record(rec, where: str) -> LinearModel:
    platt = json_field(rec, "platt", list, float, optional=True, where=where)
    return LinearModel(
        weights=np.array(json_field(rec, "weights", list, float, where=where),
                         dtype=np.float64),
        bias=float(json_field(rec, "bias", float, where=where)),
        space_name=json_field(rec, "space_name", str, where=where),
        loss=json_field(rec, "loss", str, where=where),
        l2_c=float(json_field(rec, "l2_c", float, where=where)),
        platt=None if platt is None else tuple(platt),
    )


MODEL_FORMAT = "contentdense-model"
MODEL_VERSION = 1


def classifier_to_record(clf: LeadClassifier) -> dict:
    """Self-describing JSON object: mode, spaces, and model parameters."""
    spaces = {}
    for space in clf.bundle.active_spaces():
        spaces[space.name] = space_to_lines(space)
    rec: dict = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "mode": clf.mode,
        "pr_value": clf.bundle.pr_value,
        "spaces": spaces,
    }
    if isinstance(clf.model, FusionModel):
        rec["first_layer"] = {name: _linear_to_record(m)
                              for name, m in sorted(clf.model.first_layer.items())}
        rec["second_layer"] = _linear_to_record(clf.model.second_layer)
    else:
        rec["model"] = _linear_to_record(clf.model)
    return rec


def classifier_from_record(rec) -> LeadClassifier:
    """Rebuild a classifier from its JSON object; CorpusFormatError when a
    field is missing or mistyped (json_field), ValidationError when it has
    no model format marker or a weight count misses its space's dim."""
    if json_field(rec, "format", str, optional=True) != MODEL_FORMAT:
        raise ValidationError("not a model file (missing format marker)")
    if json_field(rec, "version", int) != MODEL_VERSION:
        raise ValidationError(f"unsupported model version {rec['version']!r}")
    tables = json_field(rec, "spaces", dict)
    spaces = {name: space_from_lines(
                  json_field(tables, name, list, str, where="spaces"))
              for name in tables}
    bundle = FeatureBundle(
        mrc=spaces.get(SPACE_MRC), mi=spaces.get(SPACE_MI),
        pr=spaces.get(SPACE_PR), pr_value=rec.get("pr_value", "count"),
    )
    mode = json_field(rec, "mode", str)
    if mode == MODE_DECISION_FUSION:
        layers = json_field(rec, "first_layer", dict)
        model: LinearModel | FusionModel = FusionModel(
            first_layer={name: _linear_from_record(m, f"first_layer {name}")
                         for name, m in layers.items()},
            second_layer=_linear_from_record(
                json_field(rec, "second_layer", dict), "second_layer"))
    else:
        model = _linear_from_record(json_field(rec, "model", dict), "model")
    return LeadClassifier(mode=mode, bundle=bundle, model=model)


def save_classifier(clf: LeadClassifier, path: str | Path) -> None:
    text = json.dumps(classifier_to_record(clf), ensure_ascii=False,
                      separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_classifier(path: str | Path) -> LeadClassifier:
    """Read a model file; CorpusFormatError when it is not JSON or not a
    well-formed model (see classifier_from_record)."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            return classifier_from_record(json.load(fh))
    except (ValueError, CorpusFormatError, ValidationError) as e:
        raise CorpusFormatError(f"{path}: {e}") from e
