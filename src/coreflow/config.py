"""Experiment config files: a small key-value format with nested blocks.

Grammar (one statement per line, ``#`` starts a comment):

    experiment completion        # tucker2-noise | completion | theorem-suite | custom
    seed 42
    out results
    # seeds 10                   # theorem-suite: how many seeds it checks

    model {
      family tucker              # cp | tucker | tucker2 | tt | tr | custom
      modes 20,20,20
      ranks 4,4,4
      # custom models instead supply:
      # plan oa,ab,ib->oi
      # shapes 6x3,3x3,5x3
    }

    objective {
      source synthetic           # or a DTF1/CSV tensor path
      mask_density 0.3           # observed (training) fraction, in (0, 1]
      noise_alpha 0.0            # comma list sweeps alphas (tucker2-noise)
      resample true              # redraw noise every step
    }

    optimizer {
      kind adam                  # sgd | adam | sam | das
      base adam                  # sgd | adam (the optimizer wrapped by sam/das)
      eta 0.001
      rho 0.01                   # sam radius
      alpha 0.001                # das strength
      momentum 0.0
      beta1 0.9
      beta2 0.999
      epsilon 1e-8
      weight_decay 0.0
      iters 20000
      schedule constant          # constant | cosine
    }

The optimizer defaults are eta=0.001 with betas (0.9, 0.999).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .model import (
    ReconstructionSpec,
    cp_spec,
    custom_spec,
    tr_spec,
    tt_spec,
    tucker2_spec,
    tucker_spec,
)
from .optim import AdamConfig, DasConfig, OptimizerConfig, SamConfig, SgdConfig

EXPERIMENT_KINDS = ("tucker2-noise", "completion", "theorem-suite", "custom")


@dataclass
class ModelBlock:
    family: str = ""
    modes: tuple[int, ...] = ()
    ranks: tuple[int, ...] = ()
    plan: str = ""
    shapes: tuple[tuple[int, ...], ...] = ()


@dataclass
class ObjectiveBlock:
    source: str = "synthetic"
    mask_density: float = 1.0
    noise_alphas: tuple[float, ...] = (0.0,)
    resample: bool = True


@dataclass
class OptimizerBlock:
    kind: str = "adam"
    base: str = "adam"
    eta: float = 0.001
    rho: float = 0.01
    alpha: float = 0.001
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    iters: int = 1000
    schedule: str = "constant"


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    out: str = "out"
    suite_seeds: int = 10
    model: ModelBlock = field(default_factory=ModelBlock)
    objective: ObjectiveBlock = field(default_factory=ObjectiveBlock)
    optimizer: OptimizerBlock = field(default_factory=OptimizerBlock)


def _tokenize(text: str):
    """Return statements (line_number, key, value) with block-prefixed keys,
    plus the set of block names that appeared (even empty ones)."""
    block = None
    statements = []
    blocks_seen = set()
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("{"):
            if block is not None:
                raise ParseError(f"line {num}: nested block inside {block!r}")
            block = line[:-1].strip()
            if not block:
                raise ParseError(f"line {num}: block needs a name")
            blocks_seen.add(block)
            continue
        if line == "}":
            if block is None:
                raise ParseError(f"line {num}: stray '}}'")
            block = None
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"line {num}: expected 'key value', got {line!r}")
        key = parts[0] if block is None else f"{block}.{parts[0]}"
        statements.append((num, key, parts[1].strip()))
    if block is not None:
        raise ParseError(f"unclosed block {block!r}")
    return statements, blocks_seen


def _to_float(num, key, value) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"line {num}: {key} needs a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ParseError(f"line {num}: {key} needs a finite number, got {value!r}")
    return number


def _to_int(num, key, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"line {num}: {key} needs an integer, got {value!r}") from None


def _to_bool(num, key, value) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ParseError(f"line {num}: {key} needs true/false, got {value!r}")


def _to_ints(num, key, value) -> tuple[int, ...]:
    return tuple(_to_int(num, key, tok) for tok in value.split(",") if tok.strip())


def _to_floats(num, key, value) -> tuple[float, ...]:
    numbers = tuple(_to_float(num, key, tok) for tok in value.split(",") if tok.strip())
    if not numbers:
        raise ParseError(f"line {num}: {key} needs at least one number, got {value!r}")
    return numbers


def _to_shapes(num, key, value) -> tuple[tuple[int, ...], ...]:
    shapes = []
    for tok in value.split(","):
        tok = tok.strip()
        if not tok:
            continue
        shapes.append(tuple(_to_int(num, key, d) for d in tok.split("x")))
    return tuple(shapes)


def _text(num, key, value) -> str:
    return value


def _lower(num, key, value) -> str:
    return value.lower()


# Each key's field and parser; the block is the key's prefix (none for a
# top-level key).  A parser gets the line number, the key's last part (for
# its messages) and the value.
_KEYS = {
    "experiment": ("kind", _text),
    "seed": ("seed", _to_int),
    "out": ("out", _text),
    "seeds": ("suite_seeds", _to_int),
    "model.family": ("family", _text),
    "model.modes": ("modes", _to_ints),
    "model.ranks": ("ranks", _to_ints),
    "model.plan": ("plan", _text),
    "model.shapes": ("shapes", _to_shapes),
    "objective.source": ("source", _text),
    "objective.mask_density": ("mask_density", _to_float),
    "objective.noise_alpha": ("noise_alphas", _to_floats),
    "objective.resample": ("resample", _to_bool),
    "optimizer.kind": ("kind", _lower),
    "optimizer.base": ("base", _lower),
    **{f"optimizer.{name}": (name, _to_float) for name in (
        "eta", "rho", "alpha", "momentum", "beta1", "beta2", "epsilon", "weight_decay")},
    "optimizer.iters": ("iters", _to_int),
    "optimizer.schedule": ("schedule", _lower),
}


def parse_config_text(text: str, base_dir: str = ".") -> ExperimentConfig:
    cfg = ExperimentConfig(kind="")
    statements, blocks_seen = _tokenize(text)
    for num, key, value in statements:
        if key not in _KEYS:
            raise ParseError(f"line {num}: unknown key {key!r}")
        block, _, name = key.rpartition(".")
        field_name, parse = _KEYS[key]
        setattr(getattr(cfg, block) if block else cfg, field_name, parse(num, name, value))
    _validate(cfg, blocks_seen | {key for _, key, _ in statements}, base_dir)
    return cfg


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read config: {exc}") from exc
    return parse_config_text(text, base_dir=os.path.dirname(os.path.abspath(path)))


def check_seed_count(count: int, name: str) -> None:
    """A theorem suite's seed count, named ``name`` in the error: at least 1,
    and at most ``sys.maxsize``, the longest list of seeds Python can index."""
    if count < 1:
        raise ValidationError(f"{name} must be >= 1, got {count}")
    if count > sys.maxsize:
        raise ValidationError(f"{name} must be <= {sys.maxsize}, got {count}")


def _validate(cfg: ExperimentConfig, seen: set, base_dir: str) -> None:
    """Check ``cfg`` and fill in its kind's defaults; ``seen`` holds the
    block names and the (block-prefixed) keys the text gave."""
    if cfg.kind not in EXPERIMENT_KINDS:
        raise ValidationError(
            f"experiment must be one of {EXPERIMENT_KINDS}, got {cfg.kind!r}"
        )
    if cfg.kind == "theorem-suite":
        check_seed_count(cfg.suite_seeds, "seeds")
        return
    if "model" not in seen:
        raise ValidationError("missing 'model' block")
    if cfg.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.kind == "tucker2-noise":
        cfg.model.family = cfg.model.family or "tucker2"
        cfg.model.modes = cfg.model.modes or (10, 8)
        cfg.model.ranks = cfg.model.ranks or (4, 4)
        if "objective.noise_alpha" not in seen:
            cfg.objective.noise_alphas = (0.0, 0.1, 0.3)
        alphas = cfg.objective.noise_alphas  # one trajectory file and rank per strength
        if alphas[0] < 0 or any(a >= b for a, b in zip(alphas, alphas[1:])):
            raise ValidationError("noise_alpha must be >= 0 and strictly ascending in "
                                  f"tucker2-noise, got {','.join(map(repr, alphas))}")
    spec = build_model_spec(cfg.model)  # raises on inconsistency
    if cfg.kind == "tucker2-noise" and spec.num_cores != 3:
        raise ValidationError(
            f"tucker2-noise needs a model of 3 cores, got {spec.num_cores}"
        )
    obj = cfg.objective
    if len(obj.noise_alphas) > 1 and cfg.kind != "tucker2-noise":
        raise ValidationError(
            f"noise_alpha takes one value in a {cfg.kind} experiment (a list sweeps "
            f"only in tucker2-noise), got {len(obj.noise_alphas)}"
        )
    if not 0.0 < obj.mask_density <= 1.0:
        raise ValidationError(f"mask_density must be in (0,1], got {obj.mask_density}")
    if cfg.kind == "tucker2-noise" and (obj.source != "synthetic" or obj.mask_density < 1.0):
        raise ValidationError("tucker2-noise fits a synthetic target on every entry, got "
                              f"source {obj.source!r} and mask_density {obj.mask_density!r}")
    if obj.source != "synthetic":
        path = obj.source
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise ValidationError(f"objective source file not found: {obj.source}")
        cfg.objective.source = path
    opt = cfg.optimizer
    if opt.kind not in ("sgd", "adam", "sam", "das"):
        raise ValidationError(f"optimizer kind must be sgd|adam|sam|das, got {opt.kind!r}")
    if opt.iters < 1:
        raise ValidationError(f"iters must be >= 1, got {opt.iters}")
    if opt.schedule not in ("constant", "cosine"):
        raise ValidationError(f"schedule must be constant|cosine, got {opt.schedule!r}")
    build_optimizer(opt)  # raises on bad hyperparameters


def build_model_spec(block: ModelBlock) -> ReconstructionSpec:
    fam = block.family
    try:
        if fam == "cp":
            if len(block.modes) != 3 or len(block.ranks) != 1:
                raise ValidationError("cp needs 3 modes and a single rank")
            return cp_spec(block.modes, block.ranks[0])
        if fam == "tucker":
            if len(block.modes) != 3 or len(block.ranks) != 3:
                raise ValidationError("tucker needs 3 modes and 3 ranks")
            return tucker_spec(block.modes, block.ranks)
        if fam == "tucker2":
            if len(block.modes) != 2 or len(block.ranks) != 2:
                raise ValidationError("tucker2 needs 2 modes and 2 ranks")
            return tucker2_spec(block.modes[0], block.modes[1], *block.ranks)
        if fam == "tt":
            if len(block.ranks) != len(block.modes) - 1:
                raise ValidationError("tt needs len(modes)-1 ranks")
            return tt_spec(block.modes, block.ranks)
        if fam == "tr":
            if len(block.ranks) != len(block.modes):
                raise ValidationError("tr needs one rank per mode")
            return tr_spec(block.modes, block.ranks)
        if fam == "custom":
            if not block.plan or not block.shapes:
                raise ValidationError("custom needs 'plan' and 'shapes'")
            return custom_spec(block.plan, list(block.shapes))
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"bad model block: {exc}") from exc
    raise ValidationError(f"unknown model family {fam!r}")


def build_optimizer(block: OptimizerBlock) -> OptimizerConfig:
    if block.base not in ("sgd", "adam"):
        raise ValidationError(f"optimizer base must be sgd|adam, got {block.base!r}")
    try:
        sgd = SgdConfig(block.eta, block.momentum, block.weight_decay)
        adam = AdamConfig(
            block.eta, block.beta1, block.beta2, block.epsilon, block.weight_decay
        )
        if block.kind == "sgd":
            return sgd
        if block.kind == "adam":
            return adam
        base = sgd if block.base == "sgd" else adam
        if block.kind == "sam":
            return SamConfig(block.rho, base)
        if block.kind == "das":
            return DasConfig(block.alpha, base)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    raise ValidationError(f"unknown optimizer kind {block.kind!r}")
