"""Linear classifiers and the two fusion architectures.

Training minimizes 0.5*||w||^2 + c * sum(loss) with an unregularized bias
via deterministic L-BFGS (zero start, no randomness), so identical data
and config give bitwise-identical weights. Class encoding is
content_dense = +1; a lead is predicted content_dense when its decision
margin is >= 0 (exact ties go to content_dense).

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
from dataclasses import dataclass
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
    margins,
    objective_and_grad,
    pack_csr,
)
from .labeling import CONTENT_DENSE, NON_CONTENT_DENSE
from .optimize import fit_platt_sigmoid, minimize_lbfgs

MODE_MRC = "mrc"
MODE_MI = "mi"
MODE_PR = "pr"
MODE_FEATURE_FUSION = "feature_fusion"
MODE_DECISION_FUSION = "decision_fusion"
MODES = (MODE_MRC, MODE_MI, MODE_PR, MODE_FEATURE_FUSION, MODE_DECISION_FUSION)

SINGLE_MODE_SPACE = {MODE_MRC: SPACE_MRC, MODE_MI: SPACE_MI, MODE_PR: SPACE_PR}

SPACE_META = "META"

SCORE_BLOCK = 1024  # leads per scoring pass; bounds feature-matrix memory

DEFAULT_C_GRID = (2.0 ** -5, 2.0 ** -3, 2.0 ** -1, 2.0, 2.0 ** 3, 2.0 ** 5)

MAX_ITERS = 300  # L-BFGS iterations per fit
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

    @property
    def sorted_c_grid(self) -> tuple[float, ...]:
        return tuple(sorted(self.c_grid))


def _label_to_y(labels: Sequence[str]) -> np.ndarray:
    y = np.empty(len(labels), dtype=np.float64)
    for k, label in enumerate(labels):
        if label == CONTENT_DENSE:
            y[k] = 1.0
        elif label == NON_CONTENT_DENSE:
            y[k] = -1.0
        else:
            raise ValidationError(f"unknown label {label!r}")
    return y


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

    def proba_from_margins(self, z: np.ndarray) -> np.ndarray:
        """Probability of the content_dense class for each margin.

        Logistic models apply the sigmoid to the margin directly; hinge
        models require a fitted Platt calibration (a, b) and return
        sigmoid(a*margin + b).
        """
        if self.loss == LOSS_LOGISTIC:
            return np.array([_sigmoid(m) for m in z.tolist()])
        if self.platt is None:
            raise ValidationError(
                "hinge model has no Platt calibration; fit one on held-out "
                "margins before asking for probabilities"
            )
        a, b = self.platt
        with np.errstate(over="ignore", invalid="ignore"):
            z = a * z + b
        if np.isnan(z).any():  # a zero slope times an infinite margin
            raise NumericError(f"{self.space_name} Platt calibration gave a NaN")
        return np.array([_sigmoid(m) for m in z.tolist()])


def margin_label(z: float) -> str:
    """Predicted class of a decision margin; exact ties go to content_dense."""
    return CONTENT_DENSE if z >= 0.0 else NON_CONTENT_DENSE


def _train_on_csr(X: CsrMatrix, y: np.ndarray, space_name: str, loss: str,
                  c: float) -> LinearModel:
    if not 0 < c < math.inf:
        raise ValidationError("c must be positive and finite")
    n, d = X.n_rows, X.n_cols
    if n < 2:
        raise ValidationError("need at least two training examples")
    if len(np.unique(y)) < 2:
        raise SingleClassError("training labels cover a single class")

    def fun(packed: np.ndarray):
        w = packed[:d]
        b = packed[d]
        value, grad_w, grad_b = objective_and_grad(w, b, X, y, c, loss)
        return value, np.concatenate([grad_w, [grad_b]])

    res = minimize_lbfgs(fun, np.zeros(d + 1), max_iters=MAX_ITERS, tol=TOL)
    w = res.x[:d]
    b = float(res.x[d])
    if not (np.all(np.isfinite(w)) and math.isfinite(b)):
        raise NumericError("optimizer produced non-finite parameters")
    return LinearModel(weights=w, bias=b, space_name=space_name, loss=loss,
                       l2_c=c)


def train_linear(X: CsrMatrix, y: Sequence[str], space_name: str, loss: str,
                 c: float) -> LinearModel:
    """Fit one linear model at a fixed c to the rows of ``X``.

    Minimizes 0.5*||w||^2 + c*sum(loss_i) from a zero start to within TOL
    of a stationary point (gradient infinity norm). The bias is not
    regularized. Deterministic.
    """
    if X.n_rows != len(y):
        raise ValidationError(f"{X.n_rows} rows for {len(y)} labels")
    return _train_on_csr(X, _label_to_y(y), space_name, loss, c)


def _grid_search(train_X: CsrMatrix, train_y: np.ndarray,
                 dev_X: CsrMatrix | None, dev_y: np.ndarray | None,
                 space_name: str, loss: str,
                 config: TrainConfig) -> LinearModel:
    """Pick c by development accuracy; ties go to the smallest c.

    With a single-value grid no development data is needed.
    """
    grid = config.sorted_c_grid
    if len(grid) == 1:
        return _train_on_csr(train_X, train_y, space_name, loss, grid[0])
    if dev_X is None or dev_y is None:
        raise ValidationError(
            "grid search over several c values needs a development set"
        )
    best_model = None
    best_acc = -1.0
    for c in grid:
        model = _train_on_csr(train_X, train_y, space_name, loss, c)
        predicted = np.where(model.margins(dev_X) >= 0.0, 1.0, -1.0)
        acc = float((predicted == dev_y).mean())
        if acc > best_acc:
            best_model, best_acc = model, acc
    return best_model


def _check_disjoint(train_leads: Sequence[AnnotatedLead],
                    dev_leads: Sequence[AnnotatedLead]) -> None:
    overlap = {l.id for l in train_leads} & {l.id for l in dev_leads}
    if overlap:
        raise DataLeakError(
            f"training and development sets share {len(overlap)} lead(s), "
            f"e.g. {sorted(overlap)[0]!r}"
        )


def train_single(train_leads: Sequence[AnnotatedLead],
                 labels: Mapping[str, str],
                 bundle: FeatureBundle,
                 space_name: str,
                 config: TrainConfig | None = None,
                 dev_leads: Sequence[AnnotatedLead] | None = None,
                 ) -> LinearModel:
    """Grid-searched logistic model on one feature space.

    A ``space_name`` joining several spaces with "+" (a combined space's
    name) trains on their rows side by side. A model trained on one space
    can be passed to train_decision_fusion as a first-layer member.
    """
    config = config or TrainConfig()
    if dev_leads:
        _check_disjoint(train_leads, dev_leads)
    names = space_name.split("+")
    train_X = bundle.matrix(train_leads, names)
    train_y = _label_to_y([labels[l.id] for l in train_leads])
    dev_X = dev_y = None
    if dev_leads:
        dev_X = bundle.matrix(dev_leads, names)
        dev_y = _label_to_y([labels[l.id] for l in dev_leads])
    return _grid_search(train_X, train_y, dev_X, dev_y, space_name,
                        LOSS_LOGISTIC, config)


def train_feature_fusion(train_leads: Sequence[AnnotatedLead],
                         labels: Mapping[str, str],
                         bundle: FeatureBundle,
                         config: TrainConfig | None = None,
                         dev_leads: Sequence[AnnotatedLead] | None = None,
                         ) -> LinearModel:
    """Logistic model on the concatenated feature representation.

    A development set is required whenever config.c_grid has more than one
    value (grid search selects by development accuracy).
    """
    return train_single(train_leads, labels, bundle,
                        bundle.combined_name, config, dev_leads)


@dataclass
class FusionModel:
    """Three per-space first-layer models and one second-layer model.

    The second layer scores the vector of the first layer's content-dense
    probabilities, in the fixed order MRC, MI, PR.
    """

    first_layer: dict[str, LinearModel]
    second_layer: LinearModel

    def __post_init__(self):
        if set(self.first_layer) != set(SPACE_ORDER):
            raise ValidationError(
                f"first layer must cover {SPACE_ORDER}, got "
                f"{sorted(self.first_layer)}"
            )
        if self.second_layer.dim != len(self.first_layer):
            raise ValidationError(
                f"second layer dimension {self.second_layer.dim} does not "
                f"match {len(self.first_layer)} first-layer models"
            )

    def margins(self, probs: Mapping[str, Sequence[float]]) -> np.ndarray:
        """Second-layer margins of rows of first-layer probabilities."""
        return self.second_layer.margins(_meta_matrix(probs))


def _meta_matrix(probs: Mapping[str, Sequence[float]]) -> CsrMatrix:
    """Dense second-layer rows: the MRC, MI and PR probabilities."""
    values = np.column_stack([probs[name] for name in SPACE_ORDER])
    n, d = values.shape
    return pack_csr(np.repeat(np.arange(n), d), np.tile(np.arange(d), n),
                    values.ravel(), n, d)


def _platt_from_cv(dev_X: CsrMatrix, dev_y: np.ndarray, space_name: str,
                   loss: str, c: float, seed: int) -> tuple[float, float]:
    """Calibration margins from an internal split of the development fold.

    The development set is split PLATT_FOLDS ways; each part's margins
    come from a model trained on the other parts, so no margin is scored
    by a model that saw its lead. Falls back to in-sample margins when a
    split would leave a single-class training part.
    """
    n = dev_X.n_rows
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    parts = [order[i::PLATT_FOLDS] for i in range(PLATT_FOLDS)]
    margin_out = np.zeros(n)
    ok = n >= 2 * PLATT_FOLDS
    if ok:
        for part in parts:
            rest = np.setdiff1d(order, part)
            if len(np.unique(dev_y[rest])) < 2:
                ok = False
                break
            sub = csr_take(dev_X, rest)
            model = _train_on_csr(sub, dev_y[rest], space_name, loss, c)
            margin_out[part] = model.margins(csr_take(dev_X, part))
    if not ok:
        model = _train_on_csr(dev_X, dev_y, space_name, loss, c)
        margin_out = model.margins(dev_X)
    return fit_platt_sigmoid(margin_out, dev_y)


def train_decision_fusion(train_leads: Sequence[AnnotatedLead],
                          dev_leads: Sequence[AnnotatedLead],
                          labels: Mapping[str, str],
                          bundle: FeatureBundle,
                          config: TrainConfig | None = None,
                          first_layer: Mapping[str, LinearModel] | None = None,
                          ) -> FusionModel:
    """Two-layer stack: per-space logistic models, then a hinge combiner.

    First-layer models are ``train_single`` models on ``train_leads``, one
    per feature space (pass ``first_layer`` to reuse ones already
    trained). The second layer trains on the development set's
    three-probability vectors (squared hinge; c by its accuracy on those
    same vectors, ties to smallest c) and carries a Platt calibration fit
    on margins from an internal split of the development fold.

    Raises DataLeakError when the two sets share a lead id.
    """
    config = config or TrainConfig()
    if not train_leads or not dev_leads:
        raise ValidationError("both training and development sets are required")
    _check_disjoint(train_leads, dev_leads)
    if first_layer is None:
        first_layer = {name: train_single(train_leads, labels, bundle, name,
                                          config, dev_leads)
                       for name in SPACE_ORDER}
    elif set(first_layer) != set(SPACE_ORDER):
        raise ValidationError(
            f"first layer must cover {SPACE_ORDER}, got {sorted(first_layer)}"
        )

    dev_probs: dict[str, np.ndarray] = {}
    for name in SPACE_ORDER:
        model = first_layer[name]
        if model.space_name != name:
            raise ValidationError(
                f"first-layer model for {name!r} was trained on "
                f"{model.space_name!r}"
            )
        dev_X = bundle.matrix(dev_leads, [name])
        dev_probs[name] = model.proba_from_margins(model.margins(dev_X))

    dev_y = _label_to_y([labels[l.id] for l in dev_leads])
    meta_X = _meta_matrix(dev_probs)
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
        for names, model in self._layers():
            dim = sum(self.bundle.space(name).dim for name in names)
            if model.space_name != "+".join(names) or model.dim != dim:
                raise ValidationError(
                    f"{model.space_name!r} model with {model.dim} weights "
                    f"does not fit the {dim}-dim {'+'.join(names)!r} space")

    def _layers(self) -> list[tuple[list[str], LinearModel]]:
        """(space names, model) of each model that scores feature rows."""
        if self.mode == MODE_DECISION_FUSION:
            return [([name], self.model.first_layer[name])
                    for name in SPACE_ORDER]
        if self.mode == MODE_FEATURE_FUSION:
            return [([s.name for s in self.bundle.active_spaces()], self.model)]
        return [([SINGLE_MODE_SPACE[self.mode]], self.model)]

    def margins(self, leads: Sequence[AnnotatedLead]) -> np.ndarray:
        """Decision margins of the leads, scored SCORE_BLOCK at a time."""
        return np.concatenate([np.zeros(0)] + [
            self._block_margins(leads[i:i + SCORE_BLOCK])
            for i in range(0, len(leads), SCORE_BLOCK)])

    def _block_margins(self, leads: Sequence[AnnotatedLead]) -> np.ndarray:
        layers = self._layers()
        bundle = self.bundle.holding(leads)
        if self.mode != MODE_DECISION_FUSION:
            [(names, model)] = layers
            return model.margins(bundle.matrix(leads, names))
        return self.model.margins(
            {names[0]: model.proba_from_margins(
                model.margins(bundle.matrix(leads, names)))
             for names, model in layers})

    def proba_from_margins(self, z: np.ndarray) -> np.ndarray:
        """Content-dense probability of each decision margin."""
        fusion = self.mode == MODE_DECISION_FUSION
        return (self.model.second_layer if fusion
                else self.model).proba_from_margins(z)

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
