"""Experiment configuration: every knob of both training stages, JSON
serializable and hashable so runs are reproducible byte for byte."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple


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
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.split_ratios = tuple(cfg.split_ratios)
        cfg.source_domains = list(cfg.source_domains)
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
        """Apply dotted-key=value overrides (flat keys only)."""
        d = self.to_dict()
        for key, raw in overrides.items():
            if key not in d:
                raise ValueError(f"unknown config key {key!r}")
            cur = getattr(self, key)
            items = [s for s in raw.split(";") if s]
            try:
                if isinstance(cur, int):
                    d[key] = int(raw)
                elif isinstance(cur, float):
                    d[key] = float(raw)
                elif isinstance(cur, tuple):
                    d[key] = [float(s) for s in items]
                elif isinstance(cur, list):
                    d[key] = items
                elif cur is None:
                    d[key] = None if raw in ("", "none", "None") else int(raw)
                else:
                    d[key] = raw
            except ValueError:
                kind = "float" if isinstance(cur, (float, tuple)) else "int"
                raise ValueError(f"config key {key!r}: cannot read {raw!r} "
                                 f"as {kind}") from None
        return ExperimentConfig.from_dict(d)
