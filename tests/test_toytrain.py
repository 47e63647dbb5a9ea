import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstickets import toytrain
from kstickets.selection import WinningTicketSet
from kstickets.toytrain import (
    EXAMPLE_GROUP,
    TRAIN_MODES,
    SyntheticTask,
    ToyModel,
    TrainConfig,
    _distinct_probs,
    _grad,
    _softmax,
    _top2,
    emit_prediction_log,
    evaluate,
    generate_task,
    init_model,
    model_from_checkpoint,
    model_to_checkpoint,
    read_task_csv,
    train,
    write_task_csv,
)
from kstickets.transfer import emit_mask
from oracles import forward


def small_setup(seed=0, v=32, d=8, n_pairs=200, zipf=1.0):
    return generate_task(seed, v, n_pairs, zipf), init_model(seed, v, d)


def test_task_without_pairs_is_rejected():
    with pytest.raises(ValueError, match="task has no pairs"):
        SyntheticTask(vocab_size=8, sources=[], targets=[])


class TestGenerateTask:
    def test_deterministic(self):
        t1 = generate_task(7, 64, 100, 1.5)
        t2 = generate_task(7, 64, 100, 1.5)
        np.testing.assert_array_equal(t1.sources, t2.sources)
        np.testing.assert_array_equal(t1.targets, t2.targets)

    def test_different_seeds_differ(self):
        t1 = generate_task(1, 64, 100, 1.5)
        t2 = generate_task(2, 64, 100, 1.5)
        assert not np.array_equal(t1.sources, t2.sources)

    def test_targets_follow_mapping(self):
        task = generate_task(3, 64, 500, 1.5)
        pairs = np.unique(np.stack([task.sources, task.targets], axis=1), axis=0)
        assert np.unique(pairs[:, 0]).size == len(pairs)  # one target per source
        assert np.unique(pairs[:, 1]).size == len(pairs)  # distinct sources, distinct targets

    def test_zipf_zero_is_roughly_uniform(self):
        task = generate_task(5, 128, 12800, 0.0)
        content = np.unique(task.sources)
        assert content.size == 64
        counts = np.bincount(task.sources, minlength=128)[content]
        expected = 12800 / len(content)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 103.5  # chi2 99.9th percentile at df = 63

    def test_single_pair(self):
        task = generate_task(11, 16, 1, 1.0)
        assert task.n_pairs == 1
        s, t = task.sources[0], task.targets[0]
        # the permutation does not depend on n_pairs: a longer task maps s alike
        longer = generate_task(11, 16, 500, 1.0)
        assert set(longer.targets[longer.sources == s].tolist()) == {t}

    def test_vocab_domain(self):
        with pytest.raises(ValueError, match="vocab_size"):
            generate_task(0, 3, 10, 1.0)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            generate_task(-1, 16, 10, 1.0)

    @pytest.mark.parametrize("zipf", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_zipf_exponent_is_rejected(self, zipf):
        with pytest.raises(ValueError, match=f"zipf_exponent must be finite, got {zipf}"):
            generate_task(0, 16, 10, zipf)

    @pytest.mark.parametrize("zipf", [-93.0, -93.1, -1000.0])
    def test_zipf_exponent_whose_weights_overflow_is_rejected(self, zipf):
        # 2048 content ranks: from -93 the weights' sum overflows, from -93.1 the weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"keep the Zipf weights finite, got {zipf}"):
                generate_task(0, 4096, 10, zipf)

    def test_zipf_exponent_just_short_of_overflow_is_kept(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            task = generate_task(0, 4096, 100, -92.5)
        assert task.n_pairs == 100


class TestInitModel:
    def test_deterministic(self):
        m1 = init_model(4, 16, 8)
        m2 = init_model(4, 16, 8)
        assert m1.embedding.tobytes() == m2.embedding.tobytes()
        assert m1.output_weights.tobytes() == m2.output_weights.tobytes()

    def test_seeds_differ(self):
        assert (
            init_model(1, 16, 8).embedding.tobytes()
            != init_model(2, 16, 8).embedding.tobytes()
        )

    def test_range(self):
        m = init_model(0, 64, 32)
        assert float(np.abs(m.embedding).max()) <= 0.1
        assert float(np.abs(m.output_weights).max()) <= 0.1

    def test_dim_one_allowed(self):
        assert init_model(0, 4, 1).dim == 1

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            init_model(-1, 16, 8)


class TestForward:
    def test_zero_row_gives_uniform(self):
        m = init_model(0, 8, 4)
        m.embedding[3] = 0.0
        probs = forward(m, 3)
        np.testing.assert_allclose(probs, np.full(8, 1 / 8), atol=1e-12)

    def test_sums_to_one(self):
        m = init_model(1, 32, 16)
        for tok in (0, 7, 31):
            assert abs(forward(m, tok).sum() - 1.0) < 1e-6

    def test_argmax_shift_invariant(self):
        m = init_model(2, 16, 8)
        probs = forward(m, 5)
        shifted = ToyModel(m.embedding, m.output_weights)
        logits = shifted.output_weights.astype(np.float64) @ shifted.embedding[
            5
        ].astype(np.float64)
        probs2 = np.exp(logits + 7.0 - (logits + 7.0).max())
        probs2 /= probs2.sum()
        assert int(np.argmax(probs)) == int(np.argmax(probs2))

    def test_token_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            forward(init_model(0, 8, 4), 8)


class TestTrain:
    def test_partial_freezes_non_ticket_rows(self):
        task, model = small_setup()
        tickets = WinningTicketSet(method="ks", vocab_size=32, token_ids=(1, 4, 9))
        tuned, _ = train(
            model, task, TrainConfig(mode="partial", tickets=tickets, epochs=3)
        )
        frozen = [i for i in range(32) if i not in (1, 4, 9)]
        assert (
            tuned.embedding[frozen].tobytes() == model.embedding[frozen].tobytes()
        )
        assert tuned.output_weights.tobytes() == model.output_weights.tobytes()

    def test_frozen_complement_freezes_ticket_rows(self):
        task, model = small_setup()
        tickets = WinningTicketSet(method="ks", vocab_size=32, token_ids=(1, 4, 9))
        tuned, _ = train(
            model,
            task,
            TrainConfig(mode="frozen_complement", tickets=tickets, epochs=3),
        )
        assert (
            tuned.embedding[[1, 4, 9]].tobytes()
            == model.embedding[[1, 4, 9]].tobytes()
        )

    def test_embed_mode_freezes_output_weights(self):
        task, model = small_setup()
        tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=3))
        assert tuned.output_weights.tobytes() == model.output_weights.tobytes()
        assert tuned.embedding.tobytes() != model.embedding.tobytes()

    def test_full_mode_updates_everything(self):
        task, model = small_setup()
        tuned, _ = train(model, task, TrainConfig(mode="full", epochs=3))
        assert tuned.output_weights.tobytes() != model.output_weights.tobytes()
        assert tuned.embedding.tobytes() != model.embedding.tobytes()

    def test_loss_falls(self):
        task, model = small_setup()
        _, losses = train(
            model, task, TrainConfig(mode="embed", learning_rate=0.1, epochs=20)
        )
        assert len(losses) == 20
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        task, model = small_setup()
        cfg = TrainConfig(mode="embed", epochs=5, seed=3)
        t1, l1 = train(model, task, cfg)
        t2, l2 = train(model, task, cfg)
        assert t1.embedding.tobytes() == t2.embedding.tobytes()
        assert l1 == l2

    def test_modes_require_tickets(self):
        with pytest.raises(ValueError, match="requires a ticket set"):
            TrainConfig(mode="partial")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            TrainConfig(mode="adapter")

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), 0.0, -0.1])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        # NaN passes a plain "<= 0" check and would train a NaN model
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {lr}"):
            TrainConfig(mode="embed", learning_rate=lr)

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            TrainConfig(mode="embed", seed=-1)

    def test_vocab_mismatch(self):
        task, _ = small_setup()
        model = init_model(0, 16, 8)
        with pytest.raises(ValueError, match="vocab"):
            train(model, task, TrainConfig(mode="embed", epochs=1))

    def test_ticket_vocab_mismatch_names_both_sizes(self):
        task, model = small_setup(v=16)
        tickets = WinningTicketSet(method="ks", vocab_size=32, token_ids=(3,))
        with pytest.raises(ValueError, match="^ticket vocab_size 32 does not match model vocab 16$"):
            train(model, task, TrainConfig(mode="full", tickets=tickets, epochs=1))


class TestEvaluate:
    def test_untrained_near_chance(self):
        task, model = small_setup(v=64, d=16, n_pairs=400)
        assert evaluate(model, task) < 0.2

    def test_trained_model_improves(self):
        task, model = small_setup(d=16)
        tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=40))
        assert evaluate(tuned, task) > 0.8

    def test_deterministic(self):
        task, model = small_setup()
        assert evaluate(model, task) == evaluate(model, task)


class TestPredictionLog:
    def test_identical_models_agree(self):
        task, model = small_setup()
        records = emit_prediction_log(model, model, model, task)
        assert (records.tuned_prediction == records.partial_prediction).all()

    def test_p1_ge_p2(self):
        task, model = small_setup()
        records = emit_prediction_log(model, None, None, task)
        assert (records.p1 >= records.p2).all()

    def test_record_count_and_grouping(self):
        task, model = small_setup(n_pairs=45)
        records = emit_prediction_log(model, None, None, task)
        assert len(records) == 45
        assert records.example_id[0] == 0 and records.position[0] == 0
        assert records.example_id[EXAMPLE_GROUP] == 1
        assert records.position[44] == 44 % EXAMPLE_GROUP

    def test_base_probs_attached(self):
        task, model = small_setup()
        base = init_model(9, 32, 8)
        records = emit_prediction_log(model, None, base, task)
        assert records.base_p1 is not None and (records.base_p1 >= records.base_p2).all()

    def test_shape_mismatch(self):
        task, model = small_setup()
        with pytest.raises(ValueError, match="shape mismatch"):
            emit_prediction_log(model, init_model(0, 32, 4), None, task)

    def test_columns_match_the_models(self):
        task, model = small_setup(n_pairs=45)
        partial, base = init_model(3, 32, 8), init_model(9, 32, 8)
        log = emit_prediction_log(model, partial, base, task)
        probs = np.stack([forward(model, s) for s in task.sources.tolist()])
        np.testing.assert_array_equal(log.reference_token, task.targets)
        np.testing.assert_array_equal(log.tuned_prediction, probs.argmax(axis=1))
        np.testing.assert_allclose(log.p1, probs.max(axis=1), rtol=1e-12)
        base_probs = np.stack([forward(base, s) for s in task.sources.tolist()])
        np.testing.assert_allclose(log.base_p1, base_probs.max(axis=1), rtol=1e-12)


@pytest.mark.parametrize("vocab", [8, 32])
@pytest.mark.parametrize(
    "use", [evaluate, lambda model, task: emit_prediction_log(model, None, None, task)],
    ids=["evaluate", "emit_prediction_log"],
)
def test_task_of_another_vocab_is_refused(use, vocab):
    # a larger vocab would index past the model's rows, and a smaller one would be scored
    with pytest.raises(ValueError, match=f"^task vocab {vocab} does not match model vocab 16$"):
        use(init_model(0, 16, 8), generate_task(1, vocab, 50))


def test_prediction_log_peak_is_one_probability_matrix():
    """The softmax works in place: a log of three models peaks near one n x V float64 matrix."""
    task, models = generate_task(6, 4096, 1000, 1.5), [init_model(s, 4096, 64) for s in (1, 2, 3)]
    tracemalloc.start()
    try:
        log = emit_prediction_log(*models, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 1000
    assert peak <= 1.5 * task.n_pairs * 4096 * 8


def test_prediction_log_peak_scales_with_distinct_sources():
    """Each model scores its distinct sources once: a log of three models peaks
    near one distinct x V float64 matrix plus a float64 copy of the output weights."""
    v, d = 8192, 64
    task, models = generate_task(7, v, 2000, 1.8), [init_model(s, v, d) for s in (1, 2, 3)]
    distinct = np.unique(task.sources).size
    tracemalloc.start()
    try:
        emit_prediction_log(*models, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * distinct * v * 8 + v * d * 8 + (1 << 20)


def dense_log_columns(model, sources):
    """(prediction, p1, p2) with every source row scored, the way the log was
    built before distinct sources were scored once: its bit-for-bit oracle."""
    w64 = model.output_weights.astype(np.float64)
    return _top2(_softmax(model.embedding[sources].astype(np.float64) @ w64.T))


@pytest.mark.parametrize("v", [256, 8192])
def test_prediction_log_matches_dense_oracle(v):
    # OpenBLAS rows can depend on the row count of a product; at d=64 the
    # distinct-source product and the dense one agree bit for bit here
    for seed in (1, 2, 3):
        task = generate_task(seed, v, 1000, 1.8)
        tuned, partial, base = (init_model(seed + k, v, 64) for k in range(3))
        log = emit_prediction_log(tuned, partial, base, task)
        got = {
            "tuned": (log.tuned_prediction, log.p1, log.p2),
            "partial": (log.partial_prediction,),
            "base": (log.base_p1, log.base_p2),
        }
        want = {
            "tuned": dense_log_columns(tuned, task.sources),
            "partial": dense_log_columns(partial, task.sources)[:1],
            "base": dense_log_columns(base, task.sources)[1:],
        }
        for name in got:
            for g, w in zip(got[name], want[name]):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, seed)


@settings(max_examples=30)
@given(
    v=st.integers(2, 300),
    d=st.sampled_from([1, 6, 64, 768]),
    n=st.integers(1, 120),
    distinct=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)
def test_records_of_one_source_share_their_columns(v, d, n, distinct, seed):
    # holds at every shape, whatever row count the products run at
    rng = np.random.default_rng(seed)
    pool = rng.choice(v, size=min(distinct, v), replace=False)
    sources = rng.choice(pool, size=n)
    task = SyntheticTask(vocab_size=v, sources=sources, targets=np.zeros(n, dtype=np.int64))
    log = emit_prediction_log(*(init_model(seed + k, v, d) for k in range(3)), task)
    columns = (log.tuned_prediction, log.p1, log.p2, log.partial_prediction,
               log.base_p1, log.base_p2)
    for s in np.unique(sources):
        at = sources == s
        for col in columns:
            bits = col[at].view(np.int64)
            assert (bits == bits[0]).all()


def top2_oracle(probs):
    """The stable-argsort top-2 that _top2 replaces: its bit-for-bit oracle."""
    order = np.argsort(-probs, axis=1, kind="stable")
    rows = np.arange(probs.shape[0])
    top = order[:, 0]
    return top, probs[rows, top], probs[rows, order[:, 1]]


def test_top2_matches_argsort_oracle():
    rng = np.random.default_rng(5)
    for trial in range(2000):
        n, v = int(rng.integers(1, 30)), int(rng.integers(2, 12))
        if trial % 4 == 3:
            probs = rng.random((n, v))
        else:  # few distinct values: tied maxima, tied runners-up, zero rows
            probs = rng.integers(0, 1 + trial % 4, size=(n, v)) / 4.0
        want = top2_oracle(probs)
        got = _top2(probs.copy())
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _softmax_oracle(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def dense_train_oracle(model, task, config):
    """The dense training loop that train replaces: its bit-for-bit oracle.

    Every step runs the softmax over every batch row, builds a [V, d] gradient
    and rewrites every trainable row.
    """
    emb = model.embedding.copy()
    out = model.output_weights.copy()
    v, d = emb.shape
    selected = np.zeros(v, dtype=bool)
    if config.mode in ("full", "embed"):
        selected[:] = True
    else:
        selected[list(config.tickets.token_ids)] = True
        if config.mode == "frozen_complement":
            selected = ~selected
    rows = np.flatnonzero(selected)
    lr = config.learning_rate
    rng = np.random.default_rng(config.seed)
    n = task.n_pairs
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            src = task.sources[batch]
            tgt = task.targets[batch]
            e64 = emb[src].astype(np.float64)
            w64 = out.astype(np.float64)
            probs = _softmax_oracle(e64 @ w64.T)
            picked = probs[np.arange(batch.size), tgt]
            epoch_loss += float(-np.log(picked).sum())
            delta = probs
            delta[np.arange(batch.size), tgt] -= 1.0
            delta /= batch.size
            grad_emb = np.zeros((v, d))
            np.add.at(grad_emb, src, delta @ w64)
            if config.mode == "full":
                out = (w64 - lr * (delta.T @ e64)).astype(np.float32)
            emb[rows] = (emb[rows].astype(np.float64) - lr * grad_emb[rows]).astype(np.float32)
        losses.append(epoch_loss / n)
    return ToyModel(emb, out), losses


def assert_same_training(model, task, config):
    want_model, want_losses = dense_train_oracle(model, task, config)
    got_model, got_losses = train(model, task, config)
    assert got_model.embedding.tobytes() == want_model.embedding.tobytes()
    assert got_model.output_weights.tobytes() == want_model.output_weights.tobytes()
    assert np.array(got_losses).tobytes() == np.array(want_losses).tobytes()


def oracle_tickets(seed, v):
    ids = np.random.default_rng(seed).choice(v, size=max(1, v // 3), replace=False)
    return WinningTicketSet(method="ks", vocab_size=v, token_ids=tuple(sorted(ids.tolist())))


@pytest.mark.parametrize("v", [4, 32, 300])
@pytest.mark.parametrize("mode", ["full", "embed", "partial", "frozen_complement"])
def test_train_matches_dense_oracle(mode, v):
    for seed in (1, 2, 3):
        task, model = generate_task(seed, v, 50, 1.2), init_model(seed, v, 6)
        tickets = oracle_tickets(seed, v)
        for batch_size in (1, 7, 32):
            config = TrainConfig(mode=mode, tickets=tickets, learning_rate=0.5,
                                 epochs=2, seed=seed, batch_size=batch_size)
            assert_same_training(model, task, config)


@pytest.mark.parametrize("v", [256, 8192])
@pytest.mark.parametrize("mode", TRAIN_MODES)
def test_train_matches_dense_oracle_at_pipeline_sizes(mode, v):
    # d=64, Zipf 1.8 and batches of 32, as in the toy pipeline and the
    # benchmark: train scores a batch's distinct sources once, the oracle
    # every batch row
    for seed in (1, 2, 3):
        task, model = generate_task(seed, v, 500, 1.8), init_model(seed, v, 64)
        config = TrainConfig(mode=mode, tickets=oracle_tickets(seed, v), epochs=1, seed=seed)
        assert_same_training(model, task, config)


@pytest.mark.parametrize("scale", [1, 5], ids=["x1", "x5"])
@pytest.mark.parametrize("mode", ["embed", "full", "partial"])
def test_train_matches_dense_oracle_on_one_pair_batches(mode, scale):
    # batch_size=1 at the pipeline's V and d: the dense step's products are
    # 1-row products, which round apart from a row of a larger one
    for seed in (1, 2):
        task, model = generate_task(seed, 8192, 500, 1.8), init_model(seed, 8192, 64)
        model = ToyModel(model.embedding * scale, model.output_weights * scale)
        config = TrainConfig(mode=mode, tickets=oracle_tickets(seed, 8192), epochs=1,
                             seed=seed, batch_size=1)
        assert_same_training(model, task, config)


@pytest.mark.parametrize("mode", ["full", "embed", "partial", "frozen_complement"])
def test_train_matches_dense_oracle_on_repeated_sources(mode):
    # every batch reads row 3 several times, so its gradient sums many terms
    sources = np.array([3, 3, 1, 3, 0, 3, 3, 2, 3, 1] * 5)
    task = SyntheticTask(vocab_size=8, sources=sources, targets=(sources * 3 + 1) % 8)
    model = init_model(4, 8, 5)
    tickets = WinningTicketSet(method="ks", vocab_size=8, token_ids=(1, 3))
    for batch_size in (1, 7, 32):
        assert_same_training(model, task, TrainConfig(
            mode=mode, tickets=tickets, epochs=3, seed=9, batch_size=batch_size))


@pytest.mark.parametrize("covered", [False, True], ids=["empty", "every-row"])
@pytest.mark.parametrize("mode", ["partial", "frozen_complement"])
def test_train_matches_dense_oracle_on_edge_ticket_sets(mode, covered):
    task, model = small_setup(seed=2)
    ids = tuple(range(32)) if covered else ()
    tickets = WinningTicketSet(method="ks", vocab_size=32, token_ids=ids)
    assert_same_training(model, task, TrainConfig(mode=mode, tickets=tickets, epochs=2, batch_size=7))
    trained = mode == "partial" and covered or mode == "frozen_complement" and not covered
    tuned, _ = train(model, task, TrainConfig(mode=mode, tickets=tickets, epochs=2))
    assert (tuned.embedding.tobytes() != model.embedding.tobytes()) == trained


PIPELINE_V, PIPELINE_D = 8192, 64


def tickets_training(mode, ids, v=PIPELINE_V):
    """The ticket set under which exactly the rows ids are trainable in mode."""
    ids = set(ids) if mode == "partial" else set(range(v)) - set(ids)
    return WinningTicketSet(method="ks", vocab_size=v, token_ids=tuple(sorted(ids)))


def one_batch_task(sources, v=PIPELINE_V):
    sources = np.asarray(sources)
    return SyntheticTask(vocab_size=v, sources=sources, targets=(sources * 31 + 7) % v)


def pipeline_model(scale=1):
    model = init_model(3, PIPELINE_V, PIPELINE_D)
    return ToyModel(model.embedding * scale, model.output_weights * scale)


# one batch of 32 pairs at the pipeline's V and d: (sources, trainable rows)
LIVE_CASES = {
    "one-frozen-source": ([5] * 32, [9]),
    "one-trainable-source": ([5] * 32, [5]),
    "one-live-pair": ([5] + list(range(100, 3200, 100)), [5]),
    "no-live-pair": (list(range(100, 3300, 100)), [9]),
}

@pytest.mark.parametrize("scale", [1, 5], ids=["x1", "x5"])
@pytest.mark.parametrize("case", LIVE_CASES)
@pytest.mark.parametrize("mode", ["partial", "frozen_complement"])
def test_train_matches_dense_oracle_on_live_pair_edges(mode, case, scale):
    # a batch whose live pairs (trainable sources) are all, one or none of
    # its 32: train scores the frozen pairs once and computes the live alone
    sources, live = LIVE_CASES[case]
    config = TrainConfig(mode=mode, tickets=tickets_training(mode, live), learning_rate=0.5,
                         epochs=3, seed=3)
    assert_same_training(pipeline_model(scale), one_batch_task(sources), config)


def recording(seen, name, real, index):
    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.setdefault(name, []).append(result[index].copy())
        return result
    return wrapper


def train_recording_step(monkeypatch, model, task, live):
    """Each float64 probability and gradient array of a one-epoch train, in call order."""
    seen = {}
    monkeypatch.setattr(toytrain, "_distinct_probs",
                        recording(seen, "probs", toytrain._distinct_probs, 2))
    monkeypatch.setattr(toytrain, "_grad", recording(seen, "grad", toytrain._grad, 1))
    train(model, task, TrainConfig(mode="partial", tickets=tickets_training("partial", live),
                                   epochs=1, batch_size=task.n_pairs))
    return seen


@pytest.mark.parametrize("batch_size", [2, 32])
def test_one_live_pair_keeps_the_float64_rows_of_the_step_over_every_pair(monkeypatch, batch_size):
    # The end outputs rarely show a 1-row product's rounding: the float32
    # update and the loss sums absorb it. So compare the live pair's float64
    # probability and gradient rows with those of the products over the
    # batch's distinct sources (forward) and every pair (backward).
    live = 5
    task = one_batch_task([live] + list(range(100, 100 * batch_size, 100)))
    model = pipeline_model()
    e64 = model.embedding.astype(np.float64)
    w64 = model.output_weights.astype(np.float64)
    rows, inverse = np.unique(task.sources, return_inverse=True)
    k = int(np.searchsorted(rows, live))
    probs = _softmax(e64[rows] @ w64.T)
    delta = probs[inverse]
    delta[np.arange(batch_size), task.targets] -= 1.0
    delta /= batch_size
    backward = delta @ w64
    want_grad = np.zeros((1, PIPELINE_D))
    np.add.at(want_grad, [0], backward[:1])
    # the premise: alone, the live row's products round differently here
    assert _softmax(e64[[live]] @ w64.T).tobytes() != probs[k].tobytes()
    assert (delta[:1] @ w64).tobytes() != backward[0].tobytes()

    seen = train_recording_step(monkeypatch, model, task, [live])
    assert seen["probs"][-1].tobytes() == probs[k].tobytes()
    assert seen["grad"][-1].tobytes() == want_grad.tobytes()


def test_one_frozen_source_is_scored_as_a_row_of_a_larger_product(monkeypatch):
    # the frozen table has one row here: padded, it gives the frozen pair the
    # probability the product over the batch's distinct sources gives it
    task = one_batch_task([9] + list(range(100, 3200, 100)))
    model = pipeline_model()
    e64 = model.embedding.astype(np.float64)
    w64 = model.output_weights.astype(np.float64)
    rows = np.unique(task.sources)
    probs = _softmax(e64[rows] @ w64.T)
    assert _softmax(e64[[9]] @ w64.T).tobytes() != probs[0].tobytes()  # the premise
    seen = train_recording_step(monkeypatch, model, task, rows[1:])
    assert seen["probs"][0].tobytes() == probs[0].tobytes()


@pytest.mark.parametrize("live", [[5], [9]], ids=["trainable", "frozen"])
def test_one_source_batch_is_scored_as_a_row_of_a_larger_product(monkeypatch, live):
    # 32 pairs of one distinct source are 32 rows in the step over every
    # pair: the one softmax row train computes, the step's if the source is
    # trainable or the frozen table's if not, is padded to give their bits
    task = one_batch_task([5] * 32)
    model = pipeline_model()
    e64 = model.embedding.astype(np.float64)
    w64 = model.output_weights.astype(np.float64)
    dense = _softmax(e64[task.sources] @ w64.T)[:1]
    assert _softmax(e64[[5]] @ w64.T).tobytes() != dense.tobytes()  # the premise
    seen = train_recording_step(monkeypatch, model, task, live)
    assert [p.tobytes() for p in seen["probs"] if len(p)] == [dense.tobytes()]


@pytest.mark.parametrize("live", [[5], [9]], ids=["trainable", "frozen"])
@pytest.mark.parametrize("n_pairs, batch_size", [(1, 1), (33, 32)], ids=["batch-size-1", "final-batch"])
def test_one_pair_batch_keeps_its_1_row_product(monkeypatch, n_pairs, batch_size, live):
    # a batch of one pair is one row in the step over every pair too: it is
    # computed unpadded, frozen source or not, and its loss is not the table's
    task = one_batch_task([5] * n_pairs)
    model = pipeline_model()
    config = TrainConfig(mode="partial", tickets=tickets_training("partial", live),
                         epochs=1, batch_size=batch_size)
    # row 5 as the one-pair batch reads it: after the 32-pair step, if any,
    # which is the same step in any pair order, as every pair is the same
    stepped = model
    if n_pairs > batch_size:
        stepped, _ = train(model, one_batch_task([5] * batch_size), config)
    e64 = stepped.embedding[[5]].astype(np.float64)
    w64 = model.output_weights.astype(np.float64)
    one_row = _softmax(e64 @ w64.T)
    padded = _softmax(np.repeat(e64, 2, axis=0) @ w64.T)[:1]
    assert padded.tobytes() != one_row.tobytes()  # the premise
    seen = {}
    monkeypatch.setattr(toytrain, "_distinct_probs",
                        recording(seen, "probs", toytrain._distinct_probs, 2))
    train(model, task, config)
    assert seen["probs"][-1].tobytes() == one_row.tobytes()
    assert_same_training(model, task, config)


@pytest.mark.parametrize("mode", TRAIN_MODES)
def test_train_softmaxes_the_frozen_rows_once_and_each_steps_live_rows(monkeypatch, mode):
    # outside full and embed mode a step skips its frozen sources: the rows
    # through _softmax are the frozen table's plus each step's live distinct
    # rows (the row of a one-pair batch, here the last of each epoch)
    v, seed, batch_size = 512, 7, 32
    task, model = generate_task(seed, v, 19 * batch_size + 1, 1.8), init_model(seed, v, 16)
    config = TrainConfig(mode=mode, tickets=oracle_tickets(seed, v), epochs=2, seed=seed)
    counted = []

    def counting(logits):
        counted.append(len(logits))
        return _softmax(logits)

    monkeypatch.setattr(toytrain, "_softmax", counting)
    train(model, task, config)

    trainable = np.ones(v, dtype=bool)
    if mode in ("partial", "frozen_complement"):
        trainable = emit_mask(config.tickets, mode == "frozen_complement")
    want = np.unique(task.sources[~trainable[task.sources]]).size
    dense = 0
    rng = np.random.default_rng(seed)
    for _ in range(config.epochs):
        order = rng.permutation(task.n_pairs)
        for start in range(0, task.n_pairs, batch_size):
            batch = order[start : start + batch_size]
            distinct = np.unique(task.sources[batch])
            dense += distinct.size
            want += distinct.size if batch.size == 1 else int(trainable[distinct].sum())
    assert sum(counted) == want
    if mode in ("full", "embed"):
        assert want == dense
    else:
        assert want < dense


def grad_check(model, task, epsilon=1e-4):
    """Max relative error between analytic and central-difference gradients.

    Checks the cross-entropy gradient w.r.t. embedding entries on a fixed
    batch (first 32 pairs). Only the rows the batch reads can have a nonzero
    gradient, so only their entries are probed: every one, or 512 strided
    ones when there are more.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    b = min(32, task.n_pairs)
    src = task.sources[:b]
    tgt = task.targets[:b]
    w64 = model.output_weights.astype(np.float64)
    emb64 = model.embedding.astype(np.float64)
    d = emb64.shape[1]
    rows, inverse, probs = _distinct_probs(emb64, w64, src, pad=b > 1)
    _, grad = _grad(probs, inverse, tgt, w64, b, pad=b > 1)

    def loss_at(e):
        p = _softmax(e[src] @ w64.T)
        return float(-np.log(p[np.arange(b), tgt]).mean())

    total = rows.size * d
    if total <= 512:
        flat_indices = np.arange(total)
    else:
        flat_indices = np.linspace(0, total - 1, 512).astype(np.int64)
    e = emb64.copy()
    worst = 0.0
    for flat in flat_indices:
        k, j = divmod(int(flat), d)
        i = rows[k]
        e[i, j] += epsilon
        lp = loss_at(e)
        e[i, j] -= 2.0 * epsilon
        lm = loss_at(e)
        e[i, j] = emb64[i, j]
        fd = (lp - lm) / (2.0 * epsilon)
        ga = grad[k, j]
        err = abs(ga - fd) / max(1e-8, abs(ga) + abs(fd))
        worst = max(worst, err)
    return worst


def grad_check_oracle(model, task, epsilon=1e-4):
    """grad_check with its own gradient and a fresh copy per probe: its oracle.

    The gradient has train's distinct-row form: one row per source the batch
    reads, its softmax row times its pair count, minus one at each pair's
    target in batch order, over the batch size. A product has one row only
    where the batch has one pair, as in train.
    """
    b = min(32, task.n_pairs)
    src = task.sources[:b]
    tgt = task.targets[:b]
    w64 = model.output_weights.astype(np.float64)
    emb64 = model.embedding.astype(np.float64)
    d = emb64.shape[1]
    read = np.unique(src)

    def product(a, m):
        return (np.vstack([a, a]) @ m)[:1] if len(a) == 1 and b > 1 else a @ m

    probs = _softmax_oracle(product(emb64[read], w64.T))
    delta = probs * np.array([(src == r).sum() for r in read])[:, None]
    for s, t in zip(src, tgt):
        delta[np.searchsorted(read, s), t] -= 1.0
    delta /= b
    analytic = product(delta, w64)

    def loss_at(e):
        p = _softmax_oracle(e[src] @ w64.T)
        return float(-np.log(p[np.arange(b), tgt]).mean())

    total = read.size * d
    if total <= 512:
        flat_indices = np.arange(total)
    else:
        flat_indices = np.linspace(0, total - 1, 512).astype(np.int64)
    worst = 0.0
    for flat in flat_indices:
        k, j = flat // d, flat % d
        i = read[k]
        e = emb64.copy()
        e[i, j] += epsilon
        lp = loss_at(e)
        e[i, j] -= 2.0 * epsilon
        lm = loss_at(e)
        fd = (lp - lm) / (2.0 * epsilon)
        ga = analytic[k, j]
        err = abs(ga - fd) / max(1e-8, abs(ga) + abs(fd))
        worst = max(worst, err)
    return worst


ZERO_FD_TASK = SyntheticTask(
    vocab_size=16, sources=np.zeros(8, dtype=np.int64), targets=np.ones(8, dtype=np.int64)
)


GRAD_SETUPS = pytest.mark.parametrize("setup", [
    lambda: small_setup(v=16, d=8, n_pairs=64),  # 7 read rows, 56 entries
    lambda: (ZERO_FD_TASK, init_model(3, 16, 8)),  # one source row
    lambda: small_setup(seed=4, v=300, d=12, n_pairs=100),  # 24 read rows, 288 of 3600 entries
    lambda: small_setup(seed=4, v=300, d=32, n_pairs=100),  # 512 strided of 768 read entries
], ids=["swept", "one-row", "every-read-entry", "strided"])


@GRAD_SETUPS
def test_grad_check_matches_oracle(setup):
    task, model = setup()
    assert grad_check(model, task) == grad_check_oracle(model, task)


@GRAD_SETUPS
def test_grad_matches_the_dense_per_pair_gradient(setup):
    # _grad sums a source's pairs before its backward product, the dense step
    # after it: the two round apart only in float64's last bits
    task, model = setup()
    b = min(32, task.n_pairs)
    src, tgt = task.sources[:b], task.targets[:b]
    w64 = model.output_weights.astype(np.float64)
    delta = _softmax_oracle(model.embedding[src].astype(np.float64) @ w64.T)
    delta[np.arange(b), tgt] -= 1.0
    delta /= b
    dense = np.zeros(model.embedding.shape)
    np.add.at(dense, src, delta @ w64)
    rows, inverse, probs = _distinct_probs(model.embedding, w64, src, pad=b > 1)
    _, grad = _grad(probs, inverse, tgt, w64, b, pad=b > 1)
    want = dense[rows]
    assert np.abs(grad - want).max() <= b * np.finfo(np.float64).eps * np.abs(want).max()


class TestGradCheck:
    def test_small_model_accurate(self):
        task, model = small_setup(v=16, d=8, n_pairs=64)
        assert grad_check(model, task) < 1e-3

    def test_untouched_rows_have_zero_fd(self):
        # the batch reads only row 0, so only its 8 entries are probed; the
        # other rows' gradient is exactly zero and is never probed
        model = init_model(3, 16, 8)
        assert grad_check(model, ZERO_FD_TASK) < 1e-3

    def test_deterministic(self):
        task, model = small_setup(v=16, d=8, n_pairs=64)
        assert grad_check(model, task) == grad_check(model, task)

    def test_epsilon_domain(self):
        task, model = small_setup()
        with pytest.raises(ValueError):
            grad_check(model, task, epsilon=0.0)


class TestTaskAndModelFiles:
    def test_task_round_trip(self, tmp_path):
        task = generate_task(5, 32, 50, 1.2)
        path = tmp_path / "task.csv"
        write_task_csv(task, path)
        back = read_task_csv(path, 32)
        np.testing.assert_array_equal(back.sources, task.sources)
        np.testing.assert_array_equal(back.targets, task.targets)

    def test_task_vocab_validated(self, tmp_path):
        task = generate_task(5, 32, 50, 1.2)
        path = tmp_path / "task.csv"
        write_task_csv(task, path)
        with pytest.raises(ValueError, match=rf"{path}: bad task row at line \d+: .* outside \[0, 4\)"):
            read_task_csv(path, 4)

    def test_model_checkpoint_round_trip(self):
        model = init_model(8, 16, 4)
        back = model_from_checkpoint(model_to_checkpoint(model))
        assert back.embedding.tobytes() == model.embedding.tobytes()
        assert back.output_weights.tobytes() == model.output_weights.tobytes()
