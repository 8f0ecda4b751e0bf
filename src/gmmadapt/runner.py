"""Orchestration: source training, the online adaptation loop, sweeps,
memory tables, and replay.

Per target batch, in order: forward -> mixture update -> likelihoods and
entropies -> threshold calibration (first n_init batches) -> prediction
-> three-way pseudo-labeling -> scoring -> augmented view -> losses ->
backprop -> SGD step. Prediction and pseudo-labeling read the same
thresholds, likelihoods and entropies, so the prediction waits for
neither the pseudo-labels nor anything after them. Each batch is seen
exactly once; the prediction for a batch always precedes the parameter
update it triggers.

One run is sequential across batches: within one batch's step only the
mixture's blocks of classes run in parallel (see gmm_stream). A sweep is
sequential too: its cells run one after another in value-major order.
Cells whose configs agree on every key that build_task and
train_source_model read (setup_key) share one task and one trained
source model; each cell adapts its own copy of that model over its own
pass of the stream, so a shared set-up writes the same bytes as a fresh
one.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import metrics
from .config import RunConfig
from .errors import ConfigError, GmmAdaptError, MalformedFile, NumericalFailure, declared_types
from .gmm_stream import GaussianMixtureStream
from .metrics import MemoryModelInputs, RunRecord, memory_report, score_batch, summarize
from .objectives import contrastive_loss, kld_loss
from .ood_gate import ThresholdState, normalized_entropy_rows
from .simulator import SourceSet, TargetStream, make_task
from .toy_model import OptimizerConfig, ToyModel, accuracy, augment, train_source

ENV_OUTPUT_ROOT = "GMMADAPT_RUNS"


def derive_seeds(seed: int) -> dict[str, int]:
    """Stable per-purpose sub-seeds from the run seed."""
    state = np.random.SeedSequence(seed).generate_state(4)
    return {
        "data": int(state[0]),
        "model": int(state[1]),
        "source_train": int(state[2]),
        "augment": int(state[3]),
    }


# The config keys build_task and train_source_model read. Runs that agree
# on all of them build the same task and train the same source model.
SETUP_KEYS = ("seed", "shift", "domain", "n_source_train", "n_source_holdout", "n_batches",
              "n_b", "fd", "fd_r", "source_epochs", "source_lr", "momentum")


def setup_key(cfg: RunConfig) -> str:
    """Identity of the set-up (task and trained source model) a config asks for."""
    doc = cfg.to_dict()
    return json.dumps([doc[key] for key in SETUP_KEYS])


def build_task(cfg: RunConfig) -> tuple[SourceSet, TargetStream]:
    seeds = derive_seeds(cfg.seed)
    return make_task(
        cfg.shift,
        cfg.domain,
        seed=seeds["data"],
        n_source_train=cfg.n_source_train,
        n_source_holdout=cfg.n_source_holdout,
        n_batches=cfg.n_batches,
        batch_size=cfg.n_b,
    )


def train_source_model(cfg: RunConfig, source: SourceSet) -> tuple[ToyModel, float, list[float]]:
    seeds = derive_seeds(cfg.seed)
    model = ToyModel(cfg.domain.d_in, cfg.fd, cfg.fd_r, cfg.shift.n_source_classes,
                     seed=seeds["model"])
    history = train_source(
        model,
        source.x_train,
        source.y_train,
        epochs=cfg.source_epochs,
        cfg=OptimizerConfig(cfg.source_lr, cfg.momentum),
        batch_size=cfg.n_b,
        seed=seeds["source_train"],
    )
    holdout_acc = accuracy(model, source.x_holdout, source.y_holdout)
    return model, holdout_acc, history


@dataclass
class Setup:
    """A target stream and the source model an adaptation run starts from.

    Runs never mutate it: each takes its own model copy and stream pass.
    """

    stream: TargetStream
    model: ToyModel
    holdout_acc: float


def prepare_setup(cfg: RunConfig, model_path: str | None = None) -> Setup:
    """Build the task and train the source model, or load it from model_path.
    ConfigError for a config that does not validate, edited in place or not."""
    cfg.validate()
    source, stream = build_task(cfg)
    if model_path is not None:
        model = ToyModel.load(model_path)
        _check_model_matches(model, cfg, model_path)
        holdout_acc = accuracy(model, source.x_holdout, source.y_holdout)
    else:
        model, holdout_acc, _ = train_source_model(cfg, source)
    return Setup(stream, model, holdout_acc)


@dataclass
class AdaptResult:
    records: list[RunRecord]
    model: ToyModel
    gmm: GaussianMixtureStream
    thresholds: ThresholdState

    def summary(self, cfg: RunConfig) -> dict:
        return summarize(self.records, cfg.shift.kind, cfg.n_init)


def adapt_stream(cfg: RunConfig, model: ToyModel, stream: TargetStream) -> AdaptResult:
    """Run the online loop over one target stream, mutating the model.
    ConfigError, before any batch, for a config that does not validate."""
    cfg.validate()
    n_classes = cfg.shift.n_source_classes
    gmm = GaussianMixtureStream(n_classes, cfg.fd_r, cfg.jitter)
    thresholds = ThresholdState(n_init=cfg.n_init, p_reject=cfg.p_reject)
    optimizer = OptimizerConfig(cfg.lr, cfg.momentum)
    aug_rng = np.random.default_rng(np.random.SeedSequence(derive_seeds(cfg.seed)["augment"]))
    use_contrastive = cfg.loss_mode in ("both", "contrastive_only")
    use_kld = cfg.loss_mode in ("both", "kld_only")

    records: list[RunRecord] = []
    for batch in stream:
        try:
            cache = model.forward(batch.inputs)
            gmm.update(cache.reduced, cache.probs)
            likelihoods = gmm.likelihood_vectors(cache.reduced)
            entropies = normalized_entropy_rows(likelihoods)
            if not thresholds.frozen:
                thresholds.calibrate(entropies)
            preds = thresholds.predict_batch(cache.probs, likelihoods, entropies)
            pseudo = thresholds.pseudo_label_batch(likelihoods, entropies)
            counts, rates = score_batch(batch.true_labels, preds, pseudo, n_classes)

            # The mixture means are the prototypes: a massless mode holds a
            # zero mean, and no pseudo-label names it.
            loss_c = loss_k = 0.0
            d_logits = d_reduced = None
            if use_kld:
                loss_k, d_logits = kld_loss(cache.probs, pseudo, n_classes)
                d_logits = cfg.lam * d_logits
            if use_contrastive:
                cache_aug = model.forward(augment(batch.inputs, aug_rng, cfg.augment_sigma),
                                          classifier=False)
                loss_c, d_feats = contrastive_loss(
                    np.vstack([cache.reduced, cache_aug.reduced]), np.concatenate([pseudo, pseudo]),
                    gmm.means, n_classes, cfg.temperature, cfg.unknown_positive_pairs,
                )
                d_reduced, d_reduced_aug = np.split(d_feats, 2)
            if use_kld or use_contrastive:
                grads = model.backward(cache, d_reduced=d_reduced, d_logits=d_logits)
                if use_contrastive:
                    for name, grad in model.backward(cache_aug, d_reduced=d_reduced_aug).items():
                        grads[name] += grad
                model.sgd_step(grads, optimizer)
        except GmmAdaptError as err:
            raise NumericalFailure(batch.batch_index, err) from err

        records.append(
            RunRecord(
                batch=batch.batch_index,
                tau_k=thresholds.tau_k,
                tau_u=thresholds.tau_u,
                loss_c=loss_c,
                loss_kld=loss_k,
                counts=counts,
                **rates,
            )
        )
    return AdaptResult(records, model, gmm, thresholds)


def resolve_output_dir(explicit: str | None, default_name: str) -> Path:
    if explicit is not None:
        return Path(explicit)
    root = Path(os.environ.get(ENV_OUTPUT_ROOT, "runs"))
    return root / default_name


def run_adapt(cfg: RunConfig, out_dir: Path, *, setup: Setup | None = None) -> dict:
    """Full adaptation run: artifacts land in out_dir, summary returned.

    setup, when given, must come from prepare_setup for a config with the
    same setup_key, which is how a loaded source model is passed; it is
    left unchanged. Without it, prepare_setup(cfg) trains the source model.
    Layout, in write order: config.resolved.json (before the first
    batch), metrics.jsonl, model.ckpt, gmm.ckpt, summary.json.
    """
    if setup is None:
        setup = prepare_setup(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = cfg.resolved_dict()
    resolved["derived"]["source_holdout_accuracy"] = setup.holdout_acc
    (out_dir / "config.resolved.json").write_text(json.dumps(resolved, indent=2) + "\n")

    result = adapt_stream(cfg, setup.model.copy(), setup.stream.restarted())
    summary = result.summary(cfg)
    metrics.write_jsonl(result.records, out_dir / "metrics.jsonl")
    result.model.save(out_dir / "model.ckpt")
    (out_dir / "gmm.ckpt").write_text(result.gmm.to_snapshot())
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def _check_model_matches(model: ToyModel, cfg: RunConfig, model_path) -> None:
    """A loaded model must have the shapes the config asks for."""
    pairs = {
        "domain.d_in": (model.d_in, cfg.domain.d_in),
        "fd": (model.fd, cfg.fd),
        "fd_r": (model.fd_r, cfg.fd_r),
        "n_source_classes": (model.n_classes, cfg.shift.n_source_classes),
    }
    wrong = [f"{key} is {got} in the model, {want} in the config"
             for key, (got, want) in pairs.items() if got != want]
    if wrong:
        raise ConfigError(f"model {model_path} does not match the config: " + "; ".join(wrong))


def replay(run_dir: Path) -> dict:
    """Re-score a stored run from its metric log, without re-adaptation.

    A pure function of config.resolved.json and metrics.jsonl; it must
    reproduce the stored summary.json exactly.
    """
    run_dir = Path(run_dir)
    path = run_dir / "config.resolved.json"
    try:
        cfg = RunConfig.from_dict(json.loads(path.read_text()))
    except (json.JSONDecodeError, ConfigError) as err:
        raise MalformedFile(f"{path}: {err}") from err
    path = run_dir / "metrics.jsonl"
    records = metrics.read_jsonl(path)
    if len(records) != cfg.n_batches:
        raise MalformedFile(f"{path}: {len(records)} records for n_batches {cfg.n_batches}")
    return summarize(records, cfg.shift.kind, cfg.n_init)


def run_sweep(
    base: RunConfig,
    parameter: str,
    values: list,
    repeats: int,
    out_dir: Path,
    compensate_n_init: bool = False,
) -> list[dict]:
    """Cross product of values x repeats, one row of aggregated means per value.

    Any top-level int or float key can be swept except seed, which the
    repeats own: repeats use seeds base.seed + r so the same seeds pair up
    across values. The parameter is named by its config key or its field
    name, in any case (lambda, lam, FD_r, N_b). When sweeping the batch
    size, the compensation mode rescales n_init to hold n_init * n_b
    (samples used for initialization) constant. Cells with one setup_key
    share one prepare_setup: sweeping a key outside SETUP_KEYS trains one
    source model per repeat, not one per cell.
    """
    sweepable = {}
    for field, (key, typ, _) in declared_types(RunConfig).items():
        if typ in (int, float) and field != "seed":
            sweepable[key] = sweepable[field] = field
    name = sweepable.get(parameter.lower())
    if name is None:
        raise GmmAdaptError(
            f"unknown sweep parameter {parameter!r}; choose from {sorted(sweepable)}"
        )
    if repeats < 1:
        raise GmmAdaptError("repeats must be at least 1")
    if compensate_n_init and name != "n_b":
        raise GmmAdaptError("n_init compensation only applies to batch-size sweeps")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise GmmAdaptError(f"sweep values repeat: {repeated}")

    # Every cell is validated before the first one runs.
    cells = []
    for value in values:
        for rep in range(repeats):
            changes = {"seed": base.seed + rep, name: value}
            if compensate_n_init and value > 0:  # replace rejects any n_b below 4
                changes["n_init"] = max(1, int(np.floor(base.n_init * base.n_b / value + 0.5)))
            cfg = replace(base, **changes)
            cells.append((f"{name}={value}_rep{rep}", cfg.validate(), setup_key(cfg)))
    last_cell = {key: i for i, (_, _, key) in enumerate(cells)}

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    setups: dict[str, Setup] = {}
    primary = []
    for i, (run_name, cfg, key) in enumerate(cells):
        if key not in setups:
            setups[key] = prepare_setup(cfg)
        setup = setups.pop(key) if last_cell[key] == i else setups[key]
        summary = run_adapt(cfg, out_dir / run_name, setup=setup)
        primary.append(summary["full_run"]["primary_metric"])

    columns = ("parameter", "value", "n_runs", "mean_primary_metric", "std_primary_metric")
    rows = []
    for k, value in enumerate(values):
        results = primary[k * repeats:(k + 1) * repeats]
        stats = (name, value, repeats, float(np.mean(results)), float(np.std(results)))
        rows.append(dict(zip(columns, stats)))
    metrics.write_csv(rows, out_dir / "sweep.csv", columns)
    return rows


# The memory table's columns: the class count, then MemoryReport's fields.
MEMORY_COLUMNS = ("n_classes", *(f.name for f in fields(metrics.MemoryReport)))


def run_memory(inputs: MemoryModelInputs, class_lo: int, class_hi: int) -> list[dict]:
    """MEMORY_COLUMNS rows for every class count in [class_lo, class_hi]."""
    if class_lo < 1 or class_hi < class_lo:
        raise GmmAdaptError("class range must satisfy 1 <= lo <= hi")
    return [{"n_classes": n, **asdict(memory_report(inputs, n))}
            for n in range(class_lo, class_hi + 1)]
