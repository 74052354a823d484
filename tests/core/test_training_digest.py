"""Training runs are pinned by digests taken while pre-training, fine-tuning
and the dual-encoder baselines still ran three hand-written loops.

Each case trains a tiny seeded model (dropout on, so the train/eval switch
and the dropout streams are pinned too) and hashes its loss histories
(``float.hex``), whether it stopped early, every final weight and its
predictions. Equal digests mean a training loop shuffles, clips, steps,
stops and restores exactly as before, epoch for epoch.

The ``pinned_host`` fixture (``tests/core/conftest.py``) skips the pins,
rather than failing them, on a CPU whose float64 kernels compute other
bits. The restore tests below need no pin and always run.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines.dual_encoder import DualEncoderTrainer, make_baseline
from repro.core.config import TabSketchFMConfig
from repro.core.finetune import (
    CrossEncoder,
    FinetuneConfig,
    Finetuner,
    PairExample,
    TaskType,
)
from repro.core.inputs import InputEncoder
from repro.core.model import TabSketchFM
from repro.core.pretrain import PretrainConfig, Pretrainer
from repro.sketch.pipeline import SketchConfig, sketch_table
from repro.table.schema import table_from_rows
from repro.text.tokenizer import WordPieceTokenizer

#: case -> sha256 of (losses, stopped_early, final weights, predictions).
TRAINING_DIGESTS = {
    "pretrain-early-stop":
        "1db985e7a7fe05723474d731f0d474263ec9bd6202f37d168294ad8cadedf07d",
    "finetune-binary-early-stop":
        "0298fcfd33ca1a211c120f806bfc493064eaccdc963416b02db79b9ca29516b3",
    "finetune-regression":
        "b2485f0a4525a865c032f6afa0b37e45c4430561207d873427cbfc427ef6363a",
    "finetune-multilabel":
        "64f56e44bbdd6c1e674f482de44695723b2f77dab8e7a2600ffeefb63de30600",
    "dual-encoder-trainable":
        "54ba324c01c67e98aa870bbcc8e77ab131e9c8d2356a7fc025a4f7883dd277f9",
    "dual-encoder-frozen-trunk":
        "47d4c2edbbe95c53e89af65a5cd4954dfa11a8495eca750a9258ec73ec591059",
    "dual-encoder-per-row":
        "8c66c0d2a9ce6c1d9078d00778dbb58c2643a552dc0c7b8d10a84201fbab742f",
}


def _tables(n: int = 8, rows: int = 10):
    """Tables in two 'domains' told apart by values and magnitudes."""
    rng = np.random.default_rng(0)
    tables = []
    for i in range(n):
        domain = i % 2
        pool = [f"d{domain}v{j}" for j in range(24)]
        values = [pool[int(rng.integers(24))] for _ in range(rows)]
        numbers = [str(int(rng.integers(100, 1000)) * 10**domain) for _ in range(rows)]
        tables.append(table_from_rows(
            f"t{i}", ["key", "amount", "region"],
            [[v, x, f"r{domain}"] for v, x in zip(values, numbers)],
            description=f"domain {domain} ledger",
        ))
    return tables


def _stack(tables):
    texts: list[str] = []
    for table in tables:
        texts.append(table.description)
        texts.extend(table.header)
        for column in table.columns:
            texts.extend(column.values[:4])
    tokenizer = WordPieceTokenizer.train(texts, vocab_size=300)
    config = TabSketchFMConfig(
        vocab_size=len(tokenizer.vocabulary), dim=16, num_layers=1,
        num_heads=2, ffn_dim=32, dropout=0.1, max_seq_len=64,
        sketch=SketchConfig(num_perm=8, seed=1), seed=0,
    )
    return tokenizer, config, InputEncoder(config, tokenizer)


def _hash(history, stopped_early: bool, model, predictions=None) -> str:
    digest = hashlib.sha256()
    for loss in history.train_losses + [None] + history.valid_losses:
        digest.update(b"|" if loss is None else float(loss).hex().encode())
    digest.update(b"stopped" if stopped_early else b"ran")
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode() + array.tobytes())
    if predictions is not None:
        digest.update(f"{predictions.dtype}{predictions.shape}".encode())
        digest.update(predictions.tobytes())
    return digest.hexdigest()


def _pretrain(epochs: int = 10):
    tables = _tables()
    _, config, encoder = _stack(tables)
    model = TabSketchFM(config)
    trainer = Pretrainer(model, encoder, PretrainConfig(
        epochs=epochs, batch_size=4, learning_rate=5e-2, patience=2, seed=3,
    ))
    encoded = [encoder.encode_table(sketch_table(t, config.sketch)) for t in tables]
    examples = trainer.build_examples(encoded)
    history = trainer.train(examples[:-6], examples[-6:])
    return history, model


def _pairs(task: TaskType, sketches):
    rng = np.random.default_rng(5)
    pairs = []
    for i in range(len(sketches)):
        for j in range(i + 1, len(sketches)):
            same = int(i % 2 == j % 2)
            if task is TaskType.BINARY:
                label = same
            elif task is TaskType.REGRESSION:
                label = float(same) + 0.25 * float(rng.random())
            else:
                label = [float(same), float(1 - same), float(rng.integers(2))]
            pairs.append((sketches[i], sketches[j], label))
    return pairs


FINETUNE_CASES = {
    "finetune-binary-early-stop": (TaskType.BINARY, 2, dict(
        epochs=10, batch_size=6, learning_rate=2e-2, patience=1,
    )),
    "finetune-regression": (TaskType.REGRESSION, 1, dict(
        epochs=3, batch_size=8, learning_rate=3e-3,
    )),
    "finetune-multilabel": (TaskType.MULTILABEL, 3, dict(
        epochs=3, batch_size=8, learning_rate=3e-3,
    )),
}


def _finetune(case: str, epochs: int | None = None):
    task, outputs, recipe = FINETUNE_CASES[case]
    if epochs is not None:
        recipe = {**recipe, "epochs": epochs}
    tables = _tables()
    _, config, encoder = _stack(tables)
    sketches = [sketch_table(t, config.sketch) for t in tables]
    examples = [PairExample(a, b, label) for a, b, label in _pairs(task, sketches)]
    model = CrossEncoder(TabSketchFM(config), task, outputs, dropout=0.1, seed=2)
    trainer = Finetuner(model, encoder, FinetuneConfig(seed=4, **recipe))
    history = trainer.train(examples[:-8], examples[-8:])
    return history, model, trainer.predict(examples)


DUAL_ENCODER_CASES = {
    "dual-encoder-trainable": "TaBERT",
    "dual-encoder-frozen-trunk": "TAPAS",
    "dual-encoder-per-row": "TABBIE",
}
DUAL_ENCODER_EPOCHS = 10


def _dual_encoder(name: str, epochs: int = DUAL_ENCODER_EPOCHS):
    tables = _tables()
    tokenizer, _, _ = _stack(tables)
    model, spec = make_baseline(name, tokenizer, TaskType.BINARY, 2, dim=12, seed=1)
    trainer = DualEncoderTrainer(
        model, spec, epochs=epochs, batch_size=6, learning_rate=1e-2,
        patience=1, seed=6,
    )
    triples = _pairs(TaskType.BINARY, tables)
    history = trainer.train(triples[:-8], triples[-8:])
    return history, model, trainer.predict(triples)


def training_digest(case: str) -> str:
    if case == "pretrain-early-stop":
        history, model = _pretrain()
        return _hash(history, history.stopped_early, model)
    if case in FINETUNE_CASES:
        history, model, predictions = _finetune(case)
        return _hash(history, history.stopped_early, model, predictions)
    history, model, predictions = _dual_encoder(DUAL_ENCODER_CASES[case])
    stopped_early = len(history.train_losses) < DUAL_ENCODER_EPOCHS
    return _hash(history, stopped_early, model, predictions)


@pytest.mark.parametrize("case", sorted(TRAINING_DIGESTS))
def test_training_run_pinned(pinned_host, case):
    assert training_digest(case) == TRAINING_DIGESTS[case]


def _same_weights(first, second) -> bool:
    first, second = first.state_dict(), second.state_dict()
    return all(np.array_equal(first[name], second[name]) for name in first)


def _best_epochs(history) -> int:
    return int(np.argmin(history.valid_losses)) + 1


def test_pretrainer_early_stop_restores_best_weights():
    history, model = _pretrain()
    assert history.stopped_early
    best = _best_epochs(history)
    assert best < len(history.valid_losses)
    # The same seeded run cut at the best epoch ends on the weights the
    # early-stopped run restored.
    _, at_best = _pretrain(epochs=best)
    assert _same_weights(model, at_best)


def test_finetuner_early_stop_restores_best_weights():
    case = "finetune-binary-early-stop"
    history, model, _ = _finetune(case)
    assert history.stopped_early
    best = _best_epochs(history)
    assert best < len(history.valid_losses)
    _, at_best, _ = _finetune(case, epochs=best)
    assert _same_weights(model, at_best)


def test_dual_encoder_early_stop_keeps_last_weights():
    history, model, _ = _dual_encoder("TAPAS")
    ran = len(history.train_losses)
    assert ran < DUAL_ENCODER_EPOCHS
    best = _best_epochs(history)
    assert best < ran
    _, at_last, _ = _dual_encoder("TAPAS", epochs=ran)
    _, at_best, _ = _dual_encoder("TAPAS", epochs=best)
    assert _same_weights(model, at_last)
    assert not _same_weights(model, at_best)
