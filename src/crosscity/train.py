"""Two-stage training: adversarial pre-training across source cities, then
fine-tuning on the target city with a private encoder and combiner.

Stage 1 visits the source domains round-robin inside every epoch. Each
optimizer step minimizes the forecasting L1 loss on the current source batch
plus the domain cross-entropy over all domains' node embeddings, routed
through gradient reversal with the scheduled factor, so the classifier
learns to tell domains apart while the encoders learn to fool it. Target
signal values are never touched in stage 1 (the series read counter proves
it); only the target graph topology and raw node features participate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import forecaster as fc
from .adversary import DomainClassifier, adaptation_factor, adversarial_loss
from .autodiff import Tensor
from .checkpoint import Checkpoint, CheckpointError
from .config import variant_uses
from .data import NormalizationStats, chrono_split, make_windows, normalize
from .gin import SpatialEncoder, glorot
from .forecaster import ForecasterParams
from .parallel import for_each, shared_empty
from .textio import atomic_open


class ProtocolError(RuntimeError):
    pass


@dataclass
class DomainData:
    """Everything known about one city: topology, raw node features, and
    (optionally) its traffic series."""
    name: str
    graph: object
    raw_features: np.ndarray
    series: object = None


@dataclass
class ReplayLog:
    steps: list = field(default_factory=list)
    target_embedding_uses_per_epoch: list = field(default_factory=list)

    def record(self, **kw):
        self.steps.append(kw)

    def write(self, path):
        with atomic_open(path) as fh:
            for rec in self.steps:
                fh.write(" ".join(f"{k}={v}" for k, v in rec.items()) + "\n")


class Sgdm:
    """SGD with momentum: v = mu*v + g; p -= lr*v. State keyed by name."""

    def __init__(self, lr, momentum):
        self.lr = lr
        self.momentum = momentum
        self.velocity = {}

    def step(self, params, grads):
        """grads holds a gradient for every name in params."""
        for name, p in params.items():
            v = self.momentum * self.velocity.get(name, 0.0) + grads[name]
            self.velocity[name] = v
            p.data = p.data - self.lr * v


def collect_grads(params):
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad)
            for name, p in params.items()}


def clip_global_norm(grads, max_norm):
    """Rescale to global norm max_norm if above it; grads itself when not.
    FloatingPointError names the first non-finite gradient."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if not math.isfinite(total):
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient in {name}")
    if total > max_norm > 0:
        scale = max_norm / total
        return {k: g * scale for k, g in grads.items()}
    return grads


# -- model assembly ---------------------------------------------------------

class PretrainModel:
    """Per-source encoders + target encoder + shared forecaster + classifier."""

    def __init__(self, config, source_names, rng):
        d = config.embed_dim
        self.source_names = list(source_names)
        self.encoders = {
            name: SpatialEncoder(d, d, config.gin_layers, rng)
            for name in source_names
        }
        self.target_encoder = SpatialEncoder(d, d, config.gin_layers, rng)
        self.forecaster = ForecasterParams(
            config.n_features, config.hidden_dim, d, config.horizon, rng)
        self.classifier = DomainClassifier(
            d, len(source_names) + 1, config.classifier_hidden, rng)

    def params(self):
        out = {}
        for name in self.source_names:
            out.update(self.encoders[name].params(f"encoder.src.{name}"))
        out.update(self.target_encoder.params("encoder.target"))
        out.update(self.forecaster.params())
        out.update(self.classifier.params())
        return out


class CombinerParams:
    """Three affine maps fusing shared and private embeddings."""

    def __init__(self, dim, rng):
        def affine():
            return (Tensor(glorot(rng, dim, dim), requires_grad=True),
                    Tensor(np.zeros(dim), requires_grad=True))
        self.pre_w, self.pre_b = affine()
        self.pri_w, self.pri_b = affine()
        self.cmb_w, self.cmb_b = affine()

    def combine(self, shared, private):
        a = ad.add_rowvec(ad.matmul(shared, self.pre_w), self.pre_b)
        b = ad.add_rowvec(ad.matmul(private, self.pri_w), self.pri_b)
        return ad.add_rowvec(ad.matmul(ad.add(a, b), self.cmb_w), self.cmb_b)

    def params(self):
        return {
            "combiner.pre.w": self.pre_w, "combiner.pre.b": self.pre_b,
            "combiner.pri.w": self.pri_w, "combiner.pri.b": self.pri_b,
            "combiner.cmb.w": self.cmb_w, "combiner.cmb.b": self.cmb_b,
        }


class FinetuneModel:
    """Target-side model with the parts `uses` (``config.variant_uses``)
    names, drawn from rng in this order: shared encoder, private encoder,
    combiner, forecaster. An unused part is None; params() names the rest."""

    def __init__(self, config, uses, rng):
        d = config.embed_dim
        self.encoder = (SpatialEncoder(d, d, config.gin_layers, rng)
                        if uses.shared_encoder else None)
        self.private = (SpatialEncoder(d, d, config.gin_layers, rng)
                        if uses.private_encoder else None)
        self.combiner = CombinerParams(d, rng) if uses.private_encoder else None
        self.forecaster = ForecasterParams(
            config.n_features, config.hidden_dim, d, config.horizon, rng)

    def embeddings(self, raw, graph):
        if self.encoder is None:
            return Tensor(np.zeros((graph.n_nodes, self.forecaster.embed_dim)))
        shared = self.encoder.forward(raw, graph)
        if self.private is None:
            return shared
        private = self.private.forward(raw, graph)
        return self.combiner.combine(shared, private)

    def params(self):
        out = {}
        if self.encoder is not None:
            out.update(self.encoder.params("encoder.target"))
        if self.private is not None:
            out.update(self.private.params("encoder.private"))
        if self.combiner is not None:
            out.update(self.combiner.params())
        out.update(self.forecaster.params())
        return out


def _update(params, loss, opt, config, where):
    """One optimizer step on loss; where (stage, step, domain) prefixes the
    error for a non-finite gradient. A parameter off the loss's tape gets a
    zero gradient."""
    for par in params.values():
        par.grad = None
    loss.backward()
    grads = collect_grads(params)
    try:
        grads = clip_global_norm(grads, config.grad_clip_norm)
    except FloatingPointError as exc:
        raise FloatingPointError(f"{where}: {exc}") from None
    opt.step(params, grads)


def _load_params(params, tensors):
    for name, p in params.items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        if tensors[name].shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: {tensors[name].shape} vs {p.data.shape}")
        p.data = tensors[name].copy()


# -- stage 1 ----------------------------------------------------------------

def _batched_forecast_loss(model_forecaster, embeddings, dataset, idx):
    node_ids = dataset.node_ids[idx]
    f_v = ad.gather_rows(embeddings, node_ids)
    preds = fc.forecast(model_forecaster, dataset.inputs[idx], f_v)
    return fc.source_loss(preds, dataset.targets[idx])


_PREDICT_BATCH = 512  # windows per tape-free forward call


def predict_windows(forecaster, embeddings, dataset):
    """Forecasts for every window of dataset, in order, as one (N, H, N_f)
    array. Each batch of 512 windows is a slice of the dataset run through
    the tape-free forward, so its values do not depend on the workers that
    ``parallel.for_each`` spreads the batches over: the caller and
    processes forked for this call alone. Each worker writes its batches
    into the output, which is shared memory and returned as it is."""
    emb, n = embeddings.data, _PREDICT_BATCH
    out = shared_empty((len(dataset), forecaster.horizon, forecaster.n_features))

    def predict_batch(lo):
        out[lo:lo + n] = fc.predict(forecaster, dataset.inputs[lo:lo + n],
                                    emb[dataset.node_ids[lo:lo + n]])

    for_each(predict_batch, range(0, len(dataset), n))
    return out


def pretrain(config, sources, target, variant="full", replay_log=None):
    """Stage-1 adversarial pre-training. Returns a 'pretrained' checkpoint.

    sources: DomainData list with series; target: DomainData whose series,
    if attached, is never read here. variant 'wo_da' disables the domain
    classifier path entirely.
    """
    if not sources:
        raise ValueError("pretrain needs at least one source domain")
    names = [s.name for s in sources]
    if len(set(names)) < len(names) or target.name in names:
        raise ProtocolError(f"source domains {names} must be distinct and "
                            f"exclude the target {target.name!r}")
    uses = variant_uses(variant)
    if not uses.pretrain:
        raise ValueError(f"pretrain does not apply to variant {variant!r}")
    use_da = uses.adversary

    if target.series is not None:
        guard_reads = target.series.read_count

    rng = np.random.default_rng([config.seed, 0x1A17])
    batch_rng = np.random.default_rng([config.seed, 0xBA7C])
    model = PretrainModel(config, [s.name for s in sources], rng)
    params = model.params()
    opt = Sgdm(config.learning_rate, config.momentum)

    stats = {}
    train_sets = {}
    for src in sources:
        train, _, _ = chrono_split(src.series, config.split_ratios,
                                   config.history, config.horizon,
                                   config.source_train_days)
        stats[src.name] = st = NormalizationStats.fit(train)
        train_sets[src.name] = make_windows(normalize(train, st),
                                            config.history, config.horizon)

    total_steps = max(1, config.pretrain_epochs
                      * config.pretrain_batches_per_epoch * len(sources))

    def step_losses(src, factor, where):
        """One optimizer step on a batch of src; its forecast and domain
        losses as floats, so that no step's tape outlives it."""
        embeddings = model.encoders[src.name].forward(src.raw_features, src.graph)
        dataset = train_sets[src.name]
        idx = batch_rng.choice(len(dataset), size=min(config.batch_size,
                                                      len(dataset)),
                               replace=False)
        loss_src = _batched_forecast_loss(model.forecaster, embeddings,
                                          dataset, idx)
        if not use_da:
            _update(params, loss_src, opt, config, where)
            return float(loss_src.data), 0.0
        groups = []
        for gj, other in enumerate(sources):
            emb = (embeddings if other.name == src.name
                   else model.encoders[other.name].forward(
                       other.raw_features, other.graph))
            groups.append((emb, gj))
        target_emb = model.target_encoder.forward(target.raw_features, target.graph)
        groups.append((target_emb, len(sources)))
        loss_adv = adversarial_loss(model.classifier, groups,
                                    reversal_factor=factor)
        _update(params, ad.add(loss_src, loss_adv), opt, config, where)
        return float(loss_src.data), float(loss_adv.data)

    step = 0
    for epoch in range(config.pretrain_epochs):
        target_uses = 0
        for _ in range(config.pretrain_batches_per_epoch):
            for src in sources:
                factor = adaptation_factor(step / total_steps, config.eta) if use_da else 0.0
                loss_src, loss_adv = step_losses(
                    src, factor, f"pretrain step {step}, domain {src.name}")
                target_uses += use_da
                if replay_log is not None:
                    replay_log.record(
                        step=step, epoch=epoch, domain=src.name,
                        factor=round(float(factor), 6),
                        loss_src=loss_src, loss_adv=loss_adv,
                        classifier_updated=int(use_da))
                step += 1
        if replay_log is not None:
            replay_log.target_embedding_uses_per_epoch.append(target_uses)

    if target.series is not None and target.series.read_count != guard_reads:
        raise ProtocolError("target-domain signals were read during pre-training")

    tensors = {name: p.data.copy() for name, p in params.items()}
    return Checkpoint("pretrained", config.config_hash(), config.seed, tensors, stats)


# -- stage 2 ----------------------------------------------------------------

def _epoch_val_mae(model, dataset, embeddings, stats):
    preds = predict_windows(model.forecaster, embeddings, dataset)
    return float((np.abs(preds - dataset.targets) * stats.std).mean())


def finetune(checkpoint, target, config, variant="full", replay_log=None):
    """Stage-2 fine-tuning on the target city. Returns a 'finetuned'
    checkpoint holding the best-validation weights and target stats."""
    uses = variant_uses(variant)
    if uses.pretrain:
        if checkpoint is None:
            raise ValueError(f"variant {variant!r} requires a pretrained checkpoint")
        if checkpoint.stage != "pretrained":
            raise ValueError(
                f"expected a 'pretrained' checkpoint, got {checkpoint.stage!r}")

    init_rng = np.random.default_rng([config.seed, 0xF17E])
    model = FinetuneModel(config, uses, init_rng)
    if uses.pretrain:
        _load_params(model.encoder.params("encoder.target"), checkpoint.tensors)
        _load_params(model.forecaster.params(), checkpoint.tensors)
    params = model.params()
    opt = Sgdm(config.learning_rate, config.momentum)
    batch_rng = np.random.default_rng([config.seed, 0xF1BA])

    train, val, _ = chrono_split(target.series, config.split_ratios,
                                 config.history, config.horizon,
                                 config.target_train_days)
    st = NormalizationStats.fit(train)
    train_set = make_windows(normalize(train, st), config.history, config.horizon)
    val_set = make_windows(normalize(val, st), config.history, config.horizon)

    def step_loss(idx, where):
        """One optimizer step on the windows idx; its loss as a float, so
        that the step's tape is gone before validation."""
        emb = model.embeddings(target.raw_features, target.graph)
        loss = _batched_forecast_loss(model.forecaster, emb, train_set, idx)
        _update(params, loss, opt, config, where)
        return float(loss.data)

    best_val = np.inf
    best_tensors = {name: p.data.copy() for name, p in params.items()}
    patience_left = config.early_stop_patience
    for epoch in range(config.finetune_max_epochs):
        order = batch_rng.permutation(len(train_set))
        n_batches = min(config.finetune_batches_per_epoch,
                        int(np.ceil(len(train_set) / config.batch_size)))
        for b in range(n_batches):
            idx = order[b * config.batch_size:(b + 1) * config.batch_size]
            step = epoch * n_batches + b
            loss = step_loss(idx, f"finetune step {step}, domain {target.name}")
            if replay_log is not None:
                replay_log.record(step=step, epoch=epoch,
                                  domain=target.name, factor=0.0,
                                  loss_src=loss, loss_adv=0.0,
                                  classifier_updated=0)
        emb = model.embeddings(target.raw_features, target.graph)
        val_mae = _epoch_val_mae(model, val_set, emb, st)
        if val_mae < best_val - 1e-12:
            best_val = val_mae
            best_tensors = {name: p.data.copy() for name, p in params.items()}
            patience_left = config.early_stop_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break

    stats = dict(checkpoint.stats) if uses.pretrain else {}
    stats[target.name] = st
    return Checkpoint("finetuned", config.config_hash(), config.seed,
                      best_tensors, stats)
