"""Forecast metrics, the historical-average baseline, variant comparison,
embedding export, and the domain-confusion probe.

All metrics run on the raw vph scale, against the raw test windows of the
target, the same truth for the model and the baseline. MAPE averages only
over samples whose ground truth exceeds ``MAPE_THRESHOLD`` (1 vph); the
included count is carried in the report.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import CheckpointError
from .config import VARIANTS, variant_uses
from .data import chrono_split, denormalize_values, make_windows
from .textio import (ABOVE_0, AT_LEAST_0, AT_LEAST_1, FINITE, DataError, atomic_open,
                     check_fields, write_table)
from .train import FinetuneModel, PretrainModel, _load_params, predict_windows


MAPE_THRESHOLD = 1.0  # vph; MAPE skips samples whose truth is not above it


class MetricError(ValueError):
    pass


def _pair(name, y, y_hat):
    """y and y_hat as float arrays, which must share one non-empty shape,
    and a new flat float64 array of their size, also viewed in that shape:
    the one buffer a metric's arithmetic runs in."""
    y, y_hat = np.asarray(y, float), np.asarray(y_hat, float)
    if y.size == 0 or y.shape != y_hat.shape:
        raise MetricError(f"{name}: bad shapes {y.shape} vs {y_hat.shape}")
    err = np.empty(y.size)
    return y, y_hat, err, err.reshape(y.shape)


def mae(y, y_hat):
    y, y_hat, err, shaped = _pair("mae", y, y_hat)
    np.subtract(y, y_hat, out=shaped)
    return float(np.abs(err, out=err).mean())


def rmse(y, y_hat):
    y, y_hat, err, shaped = _pair("rmse", y, y_hat)
    np.subtract(y, y_hat, out=shaped)
    return float(np.sqrt(np.square(err, out=err).mean()))


def mape(y, y_hat):
    """Fractional MAPE over indices with |y| > MAPE_THRESHOLD, and the
    number of those indices. The kept errors are divided by y and then made
    absolute: division rounds alike for either sign, so that is
    |y - y_hat| / |y| bit for bit."""
    y, y_hat, err, shaped = _pair("mape", y, y_hat)
    keep = np.abs(y, out=shaped) > MAPE_THRESHOLD
    if not keep.any():
        raise MetricError("mape: every sample fell below the inclusion threshold")
    np.subtract(y, y_hat, out=shaped)
    np.divide(shaped, y, out=shaped, where=keep)
    return float(np.abs(shaped, out=shaped)[keep].mean()), int(keep.sum())


@dataclass
class MetricReport:
    variant: str
    horizon: int
    mae: float
    rmse: float
    mape: float
    n_samples: int
    mape_included: int
    seed: int
    config_hash: str
    domain: str = ""
    mape_threshold: float = MAPE_THRESHOLD

    def write(self, path):
        """One `key=repr(value)` line per field."""
        with atomic_open(path) as fh:
            for key in ("variant", "domain", "horizon", "mae", "rmse", "mape",
                        "n_samples", "mape_included", "mape_threshold", "seed",
                        "config_hash"):
                fh.write(f"{key}={getattr(self, key)!r}\n")

    @classmethod
    def read(cls, path):
        """Parse write's lines, one per key; values are Python literals,
        never code, each of its field's kind (an int counts as a float, a
        bool as neither) and within its field's range (``_REPORT_RULES``),
        with no more samples in the MAPE than in the report."""
        known = {f.name for f in fields(cls)}
        kv, line_of = {}, {}
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                key, _, val = line.strip().partition("=")
                if key in line_of:
                    raise MetricError(f"{path}: report key {key!r} appears on "
                                      f"lines {line_of[key]} and {ln}")
                line_of[key] = ln
                try:
                    if key not in known:
                        raise ValueError("not a report field")
                    kv[key] = ast.literal_eval(val)
                except (ValueError, SyntaxError) as exc:
                    raise MetricError(f"{path}, line {ln}: {line.strip()!r}: "
                                      f"{exc}") from exc
        try:
            check_fields(kv, _REPORT_KINDS, _REPORT_RULES, "report")
            report = cls(**kv)
        except (DataError, TypeError) as exc:
            raise MetricError(f"{path}: {exc}") from exc
        if report.mape_included > report.n_samples:
            raise MetricError(f"{path}: mape_included {report.mape_included} "
                              f"exceeds n_samples {report.n_samples}")
        return report


# a report holding a value of each field's kind, as ``check_fields`` reads them
_REPORT_KINDS = MetricReport(variant="", horizon=0, mae=0.0, rmse=0.0, mape=0.0,
                             n_samples=0, mape_included=0, seed=0, config_hash="")
_REPORT_RULES = {
    "variant": ((f"one of {', '.join(VARIANTS)} or ha",
                 lambda v: v in VARIANTS or v == "ha"),),
    **dict.fromkeys(("horizon", "n_samples"), (AT_LEAST_1,)),
    **dict.fromkeys(("seed", "mape_included"), (AT_LEAST_0,)),
    **dict.fromkeys(("mae", "rmse", "mape"), (FINITE, AT_LEAST_0)),
    "mape_threshold": (FINITE, ABOVE_0),
}


def _reports(variant, truth, preds, horizons, config, target):
    """One MetricReport per horizon over each window's first h steps."""
    reports = []
    for h in horizons:
        y, y_hat = truth[:, :h, :], preds[:, :h, :]
        mp, included = mape(y, y_hat)
        reports.append(MetricReport(
            variant=variant, horizon=h, mae=mae(y, y_hat), rmse=rmse(y, y_hat),
            mape=mp, n_samples=y.size, mape_included=included,
            seed=config.seed, config_hash=config.config_hash(),
            domain=target.name))
    return reports


def _raw_test(config, target, horizons):
    """The target's raw test segment, the truth of every scorer, once each
    horizon is found within the trained one."""
    for h in horizons:
        if h > config.horizon:
            raise ValueError(f"horizon {h} exceeds trained horizon {config.horizon}")
    return chrono_split(target.series, config.split_ratios, config.history,
                        config.horizon, config.target_train_days)[2]


def evaluate(checkpoint, config, target, horizons, variant):
    """Metric reports of `variant` on the target test split, one per horizon.

    The model is the ``FinetuneModel`` of `variant`, and the finetuned
    checkpoint must hold exactly its parameters and the target's stats,
    else ``CheckpointError``. Predictions are cut to each horizon's first
    steps, denormalized with the stored target stats, and scored against
    the raw test windows, as ``evaluate_ha`` is. A checkpoint records no
    variant, so ``full``, ``wo_da`` and ``target_only``, which share their
    parameter names, pass for one another.
    """
    if checkpoint.stage != "finetuned":
        raise ValueError(f"evaluate expects a finetuned checkpoint, got "
                         f"{checkpoint.stage!r}")
    st = checkpoint.stats.get(target.name)
    if st is None:
        raise CheckpointError(f"checkpoint holds no normalization stats for "
                              f"domain {target.name!r}")
    test = _raw_test(config, target, horizons)
    model = FinetuneModel(config, variant_uses(variant), np.random.default_rng(0))
    params = model.params()
    for name in checkpoint.tensors:
        if name not in params:
            raise CheckpointError(f"checkpoint parameter {name} is not part "
                                  f"of a {variant!r} model")
    _load_params(params, checkpoint.tensors)

    test_set = make_windows(test, config.history, config.horizon)
    emb = model.embeddings(target.raw_features, target.graph)
    preds = predict_windows(model.forecaster, emb, test_set, st)
    denormalize_values(preds, st)
    return _reports(variant, test_set.targets, preds, horizons, config, target)


_HA_CHUNK = 4096  # windows per contiguous copy in evaluate_ha


def evaluate_ha(config, target, horizons):
    """Historical-average baseline on the raw test windows evaluate scores."""
    test_set = make_windows(_raw_test(config, target, horizons),
                            config.history, config.horizon)
    # a mean over a strided view can sum in another order than over a
    # contiguous array and differ in the last bit; keep the contiguous sums,
    # copying one chunk of windows at a time rather than all of them
    inputs, n = test_set.inputs, _HA_CHUNK
    means = np.empty((len(inputs), 1, inputs.shape[2]))  # (B, 1, N_f)
    for lo in range(0, len(inputs), n):
        means[lo:lo + n] = np.ascontiguousarray(inputs[lo:lo + n]).mean(
            axis=1, keepdims=True)
    preds = np.repeat(means, config.horizon, axis=1)
    return _reports("ha", test_set.targets, preds, horizons, config, target)


def compare_variants(reports, reference):
    """Percentage improvement of every report over the named reference at
    the same horizon. Returns rows of dicts ready for CSV. A variant may
    have one report per horizon: MetricError names both seeds of a second.
    Reports of different configs are refused too."""
    domains = {r.domain for r in reports}
    if len(domains) > 1:
        raise MetricError(f"reports span multiple datasets: {sorted(domains)}")
    seen = {}
    for rep in reports:
        first = seen.setdefault((rep.variant, rep.horizon), rep)
        if first is not rep:
            raise MetricError(f"two reports of variant {rep.variant!r} at horizon "
                              f"{rep.horizon}, of seeds {first.seed} and {rep.seed}")
    hashes = sorted({r.config_hash for r in reports})
    if len(hashes) > 1:
        raise MetricError(f"reports of different configs: config hashes "
                          f"{', '.join(hashes)}")
    refs = {r.horizon: r for r in reports if r.variant == reference}
    if not refs:
        raise MetricError(f"reference variant {reference!r} not among reports")
    rows = []
    for rep in sorted(reports, key=lambda r: (r.horizon, r.variant)):
        ref = refs.get(rep.horizon)
        if ref is None:
            raise MetricError(f"variant {rep.variant!r} reports horizon {rep.horizon}, "
                              f"of which reference variant {reference!r} has no report")
        row = {"variant": rep.variant, "horizon": rep.horizon,
               "mae": rep.mae, "rmse": rep.rmse, "mape": rep.mape}
        for metric in ("mae", "rmse", "mape"):
            ref_v = getattr(ref, metric)
            row[f"impv_pct_{metric}"] = (
                100.0 * (ref_v - getattr(rep, metric)) / ref_v if ref_v else 0.0)
        rows.append(row)
    return rows


def write_comparison_csv(rows, path):
    cols = ["variant", "horizon", "mae", "rmse", "mape",
            "impv_pct_mae", "impv_pct_rmse", "impv_pct_mape"]
    write_table(path, cols, (("{variant},{horizon}".format(**row),
                              [row[c] for c in cols[2:]]) for row in rows))


def export_embeddings(checkpoint, config, domains, path):
    """CSV rows (domain, node, kind in {raw, shared}) for external
    projection tools. 'raw' rows are the node2vec features verbatim;
    'shared' rows come from each domain's stage-1 encoder."""
    embeddings = stage1_embeddings(checkpoint, config, domains)
    write_table(path, ["domain", "node", "kind"]
                + [f"f{i}" for i in range(config.embed_dim)],
                ((f"{dom.name},{v},{kind}", rows[v])
                 for dom, shared in zip(domains, embeddings)
                 for kind, rows in (("raw", dom.raw_features), ("shared", shared))
                 for v in range(dom.graph.n_nodes)))


def stage1_embeddings(checkpoint, config, domains):
    """Shared embeddings per domain from a pretrained checkpoint; the last
    domain is the target."""
    names = [d.name for d in domains[:-1]]
    model = PretrainModel(config, names, np.random.default_rng(0))
    _load_params(model.params(), checkpoint.tensors)
    out = []
    for i, dom in enumerate(domains):
        enc = model.encoders[dom.name] if i < len(names) else model.target_encoder
        out.append(enc.forward(dom.raw_features, dom.graph).data)
    return out


# the probe's share of training nodes, and its full-batch steps and step size
PROBE_TRAIN_FRAC, PROBE_EPOCHS, PROBE_LR = 0.7, 300, 0.5


def domain_confusion_probe(embeddings_by_domain, seed=0):
    """Test accuracy of a fresh softmax-regression probe predicting the
    domain of frozen embeddings. Lower accuracy = better mixing."""
    xs, ys = [], []
    for label, emb in enumerate(embeddings_by_domain):
        xs.append(np.asarray(emb))
        ys.append(np.full(emb.shape[0], label))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    x = (x - x.mean(axis=0)) / (x.std(axis=0) + 1e-9)
    rng = np.random.default_rng([seed, 0x9B0E])
    order = rng.permutation(len(x))
    cut = int(PROBE_TRAIN_FRAC * len(x))
    tr, te = order[:cut], order[cut:]
    n_classes = len(embeddings_by_domain)
    w = np.zeros((x.shape[1], n_classes))
    b = np.zeros(n_classes)
    onehot = np.eye(n_classes)[y[tr]]
    for _ in range(PROBE_EPOCHS):
        logits = x[tr] @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / len(tr)
        w -= PROBE_LR * (x[tr].T @ g)
        b -= PROBE_LR * g.sum(axis=0)
    pred = (x[te] @ w + b).argmax(axis=1)
    return float((pred == y[te]).mean())
