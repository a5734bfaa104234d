"""Experiment configuration: every knob of both training stages, JSON
serializable and hashable so runs are reproducible byte for byte."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .textio import check_fields, parse_fields


class VariantUses(NamedTuple):
    """The parts of the protocol a model variant uses."""
    pretrain: bool          # stage-1 pre-training on the source cities
    adversary: bool         # the domain classifier during pre-training
    shared_encoder: bool    # the (pre-trained) shared spatial encoder
    private_encoder: bool   # the fine-tuning private encoder and combiner


_VARIANT_USES = {
    "full": VariantUses(True, True, True, True),
    "wo_da": VariantUses(True, False, True, True),
    "wo_pri": VariantUses(True, True, True, False),
    "target_only": VariantUses(False, False, True, True),
    "temporal_forecaster": VariantUses(False, False, False, False),
}
VARIANTS = tuple(_VARIANT_USES)


def variant_uses(variant):
    """What `variant` uses; ValueError for an unknown name."""
    try:
        return _VARIANT_USES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


# the range of each bounded key, checked once its kind is: what it expects
# and its test; a null train-days value means every day
_RANGES = {
    **dict.fromkeys(
        ("history", "horizon", "n_features", "embed_dim", "hidden_dim",
         "gin_layers", "classifier_hidden", "walks_per_node", "walk_length",
         "skipgram_window", "skipgram_epochs", "batch_size", "pretrain_epochs",
         "pretrain_batches_per_epoch", "finetune_max_epochs",
         "finetune_batches_per_epoch", "source_train_days",
         "target_train_days"),
        ("at least 1", lambda v: v >= 1)),
    "skipgram_negatives": ("at least 0", lambda v: v >= 0),
    **dict.fromkeys(("walk_p", "walk_q", "learning_rate", "skipgram_lr"),
                    ("a value above 0", lambda v: v > 0)),
    "momentum": ("a value in [0, 1)", lambda v: 0 <= v < 1),
    "split_ratios": ("three positive ratios summing to 1",
                     lambda v: len(v) == 3 and all(r > 0 for r in v)
                     and abs(sum(v) - 1.0) <= 1e-9),
}


@dataclass
class ExperimentConfig:
    source_domains: list = field(default_factory=list)
    target_domain: str = "target"

    history: int = 12           # H'
    horizon: int = 12           # H
    n_features: int = 1
    embed_dim: int = 64         # D_e == D_f
    hidden_dim: int = 64
    gin_layers: int = 1
    classifier_hidden: int = 32

    # node2vec
    walk_p: float = 1.0
    walk_q: float = 1.0
    walks_per_node: int = 200
    walk_length: int = 8
    skipgram_window: int = 3
    skipgram_negatives: int = 5
    skipgram_epochs: int = 5
    skipgram_lr: float = 0.025

    # optimization
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    grad_clip_norm: float = 5.0
    pretrain_epochs: int = 200
    pretrain_batches_per_epoch: int = 20
    finetune_max_epochs: int = 2000
    finetune_batches_per_epoch: int = 40
    early_stop_patience: int = 50
    eta: float = 10.0           # adaptation-schedule steepness

    # data
    split_ratios: tuple = (0.7, 0.1, 0.2)
    source_train_days: int = None
    target_train_days: int = None

    seed: int = 0

    def to_dict(self):
        d = asdict(self)
        d["split_ratios"] = list(self.split_ratios)
        return d

    @classmethod
    def from_dict(cls, d):
        """The config of a JSON object. Each value must have its field's
        kind and lie in its range (``_RANGES``), and is kept as it is, so
        the hash sees what the JSON said. The domain names must not be
        empty, and the source domains must be distinct and exclude the
        target."""
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object, got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        check_fields(d, cls(), "config")
        for key, value in d.items():
            rule = _RANGES.get(key)
            if rule is not None and value is not None and not rule[1](value):
                raise ValueError(f"config key {key!r}: expected {rule[0]}, "
                                 f"got {value!r}")
        cfg = cls(**d)
        cfg.split_ratios = tuple(cfg.split_ratios)
        cfg.source_domains = list(cfg.source_domains)
        sources = cfg.source_domains
        if not cfg.target_domain:
            raise ValueError("config key 'target_domain': expected a "
                             "non-empty name, got ''")
        if "" in sources:
            raise ValueError(f"config key 'source_domains': expected "
                             f"non-empty names, got {sources}")
        if len(set(sources)) < len(sources) or cfg.target_domain in sources:
            raise ValueError(
                f"config keys 'source_domains' {sources} and 'target_domain' "
                f"{cfg.target_domain!r}: the sources must be distinct and "
                f"exclude the target")
        return cfg

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def with_overrides(self, overrides):
        """Apply key=value overrides, each read as its field's kind."""
        fields = parse_fields(overrides, ExperimentConfig(), "config")
        return ExperimentConfig.from_dict({**self.to_dict(), **fields})
