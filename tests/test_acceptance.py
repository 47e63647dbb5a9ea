"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""

import time

import numpy as np
import pytest

from kstickets.certify import (
    PredictionLog,
    alpha_sweep,
    certified,
)
from kstickets.checkpoint import (
    Checkpoint,
    TensorRecord,
    get_embedding,
    write_checkpoint,
)
from kstickets.cli import run
from kstickets.ksstat import (
    Sample,
    ks_critical_value,
    ks_pvalue_asymptotic,
    ks_statistic,
)
from kstickets.selection import (
    analyze_pair,
    count_frequencies,
    select_by_alpha,
)
from kstickets.toytrain import (
    TrainConfig,
    emit_prediction_log,
    evaluate,
    generate_task,
    init_model,
    model_from_checkpoint,
    model_to_checkpoint,
    train,
    write_task_csv,
)
from kstickets.transfer import splice_partial_transfer
from oracles import brute_force_ks, diff_rows, ks_pvalue_permutation, tau_from_pvalue_inversion


def ok(n, text):
    print(f"\ncriterion {n:2d} PASS: {text}")


def view_of(matrix):
    matrix = np.asarray(matrix, dtype=np.float32)
    ckpt = Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())])
    return get_embedding(ckpt, "embed")


def test_criterion_01_ks_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        a = rng.normal(size=n)
        b = rng.normal(loc=rng.uniform(-1, 1), size=m)
        assert ks_statistic(Sample(a), Sample(b)) == brute_force_ks(a, b)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(1, f"1000 random pairs match the brute-force sup exactly ({elapsed:.2f}s)")


def test_criterion_02_critical_value_formula():
    got = ks_critical_value(0.05, 4096, 4096)
    assert abs(got - 0.030010) <= 1e-6
    for d in (256, 1024, 4096):
        inv = tau_from_pvalue_inversion(0.05, d, d)
        closed = ks_critical_value(0.05, d, d)
        assert abs(inv - closed) / closed < 0.05
    ok(2, "tau(0.05, 4096) = 0.030010 and p-value inversion agrees within 5%")


def test_criterion_03_pvalue_cross_check():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        shift = rng.uniform(0.0, 0.35)
        x = rng.normal(0.0, 1.0, 256)
        y = rng.normal(shift, 1.0, 256)
        a, b = Sample(x), Sample(y)
        asym = ks_pvalue_asymptotic(ks_statistic(a, b), 256, 256)
        perm = ks_pvalue_permutation(a, b, trials=20000, seed=1000 + i)
        worst = max(worst, abs(asym - perm))
        assert abs(asym - perm) <= 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(3, f"asymptotic vs permutation p within 0.03 (worst {worst:.4f}, {elapsed:.1f}s)")


def test_criterion_04_nested_ticket_sets():
    rng = np.random.default_rng(99)
    v, d = 512, 128
    base = rng.normal(size=(v, d)).astype(np.float32)
    # per-row perturbation scales spanning none to large
    scales = np.linspace(0.0, 1.5, v)[:, None]
    tuned = (base + rng.normal(size=(v, d)) * scales).astype(np.float32)
    scores = analyze_pair(view_of(base), view_of(tuned))
    previous: set[int] = set()
    sizes = []
    for alpha in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0):
        current = set(select_by_alpha(scores, alpha, d).token_ids)
        assert previous <= current
        previous = current
        sizes.append(len(current))
    ok(4, f"ticket sets nested ascending over alpha grid (sizes {sizes})")


def test_criterion_05_splice_exactness():
    rng = np.random.default_rng(41)
    from kstickets.selection import WinningTicketSet

    for trial in range(100):
        v = int(rng.integers(2, 24))
        d = int(rng.integers(1, 12))
        base_m = rng.normal(size=(v, d)).astype(np.float32)
        tuned_m = rng.normal(size=(v, d)).astype(np.float32)
        base = Checkpoint([TensorRecord("embed", (v, d), base_m.ravel())])
        tuned = Checkpoint([TensorRecord("embed", (v, d), tuned_m.ravel())])

        full = WinningTicketSet(method="ks", vocab_size=v, token_ids=tuple(range(v)))
        spliced = splice_partial_transfer(base, tuned, "embed", full)
        assert spliced.tensor("embed").data.tobytes() == tuned_m.tobytes()

        empty = WinningTicketSet(method="ks", vocab_size=v, token_ids=())
        spliced = splice_partial_transfer(base, tuned, "embed", empty)
        assert spliced.tensor("embed").data.tobytes() == base_m.tobytes()

        k = int(rng.integers(0, v + 1))
        ids = tuple(sorted(rng.choice(v, size=k, replace=False).tolist()))
        tickets = WinningTicketSet(method="ks", vocab_size=v, token_ids=ids)
        spliced = splice_partial_transfer(base, tuned, "embed", tickets)
        assert diff_rows(spliced, base, "embed") <= set(ids)
    ok(5, "full/empty splices byte-exact; diff_rows subset of tickets, 100 fixtures")


@pytest.fixture(scope="module")
def toy_runs():
    """Three-seed end-to-end runs shared by criteria 6, 8, and 9."""
    start = time.monotonic()
    runs = []
    for seed in (1, 2, 3):
        task = generate_task(seed, vocab_size=256, n_pairs=2000, zipf_exponent=1.8)
        model = init_model(seed, 256, 64)
        cfg = dict(learning_rate=0.1, epochs=50, seed=seed, batch_size=32)
        embed_model, _ = train(model, task, TrainConfig(mode="embed", **cfg))
        scores = analyze_pair(view_of(model.embedding), view_of(embed_model.embedding))
        tickets = select_by_alpha(scores, 0.05, 64)
        partial_model, _ = train(
            model, task, TrainConfig(mode="partial", tickets=tickets, **cfg)
        )
        frozen_model, _ = train(
            model, task, TrainConfig(mode="frozen_complement", tickets=tickets, **cfg)
        )
        spliced = splice_partial_transfer(
            model_to_checkpoint(model),
            model_to_checkpoint(embed_model),
            "embedding",
            tickets,
        )
        runs.append(
            {
                "seed": seed,
                "task": task,
                "base": model,
                "embed": embed_model,
                "partial": partial_model,
                "frozen": frozen_model,
                "transfer": model_from_checkpoint(spliced),
                "tickets": tickets,
            }
        )
    return runs, time.monotonic() - start


def test_criterion_06_certification_ordering(toy_runs):
    runs, _ = toy_runs
    r = runs[0]
    records = emit_prediction_log(r["embed"], r["partial"], r["base"], r["task"])
    assert (records.p1 > records.p2).all()  # tie-free fixture
    alphas = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0]
    reports = alpha_sweep(records, alphas, d=64)
    certified = [rep.certified_accuracy for rep in reports]
    assert certified == sorted(certified)
    for rep in reports:
        assert rep.certified_accuracy <= rep.tuned_accuracy
    assert reports[-1].tau == 0.0
    assert reports[-1].certified_accuracy == reports[-1].tuned_accuracy
    ok(6, f"certified accuracy non-decreasing {certified[0]:.3f}->{certified[-1]:.3f}, "
          "equals tuned accuracy at alpha=1")


def test_criterion_07_certified_predictions_never_flip():
    """Monte-Carlo check of the distance-bound guarantee.

    Synthetic randomized predictor over 8 classes: input x picks a frozen
    parameter row i(x) and a threshold t(x); the predictor outputs class c0(x)
    with probability F_i(t(x)) (empirical CDF of the row) and otherwise draws
    from a fixed runner-up profile over the remaining 7 classes. Every class
    probability is then 1-Lipschitz in the row's KS distance, which is the
    mechanism the gap condition relies on.
    """
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    n_rows, d, n_classes = 4, 1024, 8
    alpha = 0.05
    tau = ks_critical_value(alpha, d, d)  # 0.0600
    rows = [np.sort(rng.normal(mu, 1.0, d)) for mu in (0.0, 0.5, -0.3, 1.0)]

    # inputs: row index, threshold in the upper-quantile region, top class,
    # and a fixed runner-up probability profile over the other classes
    n_inputs = 600
    row_of = rng.integers(0, n_rows, n_inputs)
    quantile = rng.uniform(0.75, 0.95, n_inputs)
    thresholds = np.array(
        [rows[row_of[i]][int(quantile[i] * (d - 1))] for i in range(n_inputs)]
    )
    top_class = rng.integers(0, n_classes, n_inputs)
    profile = rng.uniform(0.1, 1.0, size=(n_inputs, n_classes))
    profile[np.arange(n_inputs), top_class] = 0.0
    profile /= profile.sum(axis=1, keepdims=True)

    def class_probs(sorted_rows):
        f = np.empty(n_inputs)
        for r in range(n_rows):
            sel = row_of == r
            f[sel] = np.searchsorted(sorted_rows[r], thresholds[sel], side="right") / d
        q = profile * (1.0 - f)[:, None]
        q[np.arange(n_inputs), top_class] = f
        return q

    q0 = class_probs(rows)
    reference = np.argmax(q0, axis=1)
    order = np.sort(q0, axis=1)
    p1, p2 = order[:, -1], order[:, -2]
    records = PredictionLog(
        example_id=np.arange(n_inputs),
        position=np.zeros(n_inputs, dtype=int),
        reference_token=reference,
        tuned_prediction=reference,
        p1=p1,
        p2=p2,
    )
    is_certified = certified(records, tau)
    assert is_certified.sum() >= 500
    keep = np.flatnonzero(is_certified)[:500]

    # each perturbation replaces floor(tau * d) entries per row, keeping the
    # per-row KS distance strictly under tau; distances verified exactly
    k = int(tau * d)
    flips = 0
    checked = 0
    for trial in range(10_000):
        perturbed = []
        for r in range(n_rows):
            pert = rows[r].copy()
            idx = rng.choice(d, size=k, replace=False)
            pert[idx] = rng.normal(3.0, 2.0, k)  # adversarially far values
            pert = np.sort(pert)
            perturbed.append(pert)
            assert ks_statistic(Sample(rows[r]), Sample(pert)) <= tau
            checked += 1
        q = class_probs(perturbed)
        flips += int((np.argmax(q, axis=1)[keep] != reference[keep]).sum())
    elapsed = time.monotonic() - start
    assert flips == 0
    assert elapsed < 120.0
    ok(7, f"0 argmax flips over 500 certified inputs x 10000 perturbations "
          f"({checked} KS distances verified, {elapsed:.1f}s)")


def test_criterion_08_end_to_end_toy_pipeline(toy_runs):
    runs, elapsed = toy_runs
    summary = []
    for r in runs:
        task = r["task"]
        base_acc = evaluate(r["base"], task)
        embed_acc = evaluate(r["embed"], task)
        partial_acc = evaluate(r["partial"], task)
        transfer_acc = evaluate(r["transfer"], task)
        frozen_acc = evaluate(r["frozen"], task)
        gain = embed_acc - base_acc

        assert embed_acc >= 0.9  # (a)
        assert 0 < len(r["tickets"]) < 128  # (b)
        assert partial_acc - base_acc >= 0.9 * gain  # (c)
        assert transfer_acc - base_acc >= 0.8 * gain  # (d)
        assert frozen_acc < partial_acc  # (e)
        summary.append(
            f"seed {r['seed']}: embed={embed_acc:.3f} tickets={len(r['tickets'])} "
            f"partial={partial_acc:.3f} transfer={transfer_acc:.3f} "
            f"frozen={frozen_acc:.3f}"
        )
    assert elapsed < 180.0
    ok(8, f"toy pipeline over 3 seeds in {elapsed:.1f}s; " + "; ".join(summary))


def test_criterion_09_tickets_are_high_frequency(toy_runs):
    runs, _ = toy_runs
    medians = []
    for r in runs:
        counts = count_frequencies(r["task"].sources, 256)
        ticket_ids = set(r["tickets"].token_ids)
        med_ticket = float(np.median([counts[i] for i in ticket_ids]))
        med_rest = float(
            np.median([counts[i] for i in range(256) if i not in ticket_ids])
        )
        assert med_ticket > med_rest
        medians.append((med_ticket, med_rest))
    ok(9, f"median ticket vs non-ticket corpus frequency per seed: {medians}")


def test_criterion_10_cli_determinism(tmp_path):
    def launch(args):
        assert run(args) == 0

    def twice(name, args_of):
        d1, d2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        d1.mkdir(), d2.mkdir()
        launch(args_of(d1))
        launch(args_of(d2))
        files1 = sorted(p.name for p in d1.iterdir())
        files2 = sorted(p.name for p in d2.iterdir())
        assert files1 == files2 and files1
        for f1, f2 in zip(files1, files2):
            assert (d1 / f1).read_bytes() == (d2 / f2).read_bytes(), f"{name}/{f1}"

    shared = tmp_path / "shared"
    shared.mkdir()
    task = generate_task(5, 64, 400, 1.5)
    write_task_csv(task, shared / "task.csv")
    model = init_model(5, 64, 32)
    tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=15, seed=5))
    write_checkpoint(model_to_checkpoint(model), shared / "base.ckpt")
    write_checkpoint(model_to_checkpoint(tuned), shared / "tuned.ckpt")
    (shared / "corpus.txt").write_text("\n".join(str(s) for s in task.sources) + "\n")

    twice("toy_gen", lambda d: ["toy", "gen", "--seed", "5", "--vocab", "64",
                                "--pairs", "400", "--zipf", "1.5",
                                "--out", str(d / "task.csv")])
    twice("toy_init", lambda d: ["toy", "init", "--seed", "5", "--vocab", "64",
                                 "--dim", "32", "--out", str(d / "model.ckpt")])
    twice("analyze", lambda d: ["analyze", "--base", str(shared / "base.ckpt"),
                                "--tuned", str(shared / "tuned.ckpt"),
                                "--tensor", "embedding",
                                "--out", str(d / "scores.csv")])
    launch(["analyze", "--base", str(shared / "base.ckpt"),
            "--tuned", str(shared / "tuned.ckpt"), "--tensor", "embedding",
            "--out", str(shared / "scores.csv")])
    twice("select", lambda d: ["select", "--scores", str(shared / "scores.csv"),
                               "--alpha", "0.05", "--dim", "32",
                               "--out", str(d / "tickets.txt")])
    twice("select_topk", lambda d: ["select", "--scores", str(shared / "scores.csv"),
                                    "--method", "kl", "--top-k", "7",
                                    "--out", str(d / "tickets.txt")])
    launch(["select", "--scores", str(shared / "scores.csv"), "--alpha", "0.05",
            "--dim", "32", "--out", str(shared / "tickets.txt")])
    twice("mask", lambda d: ["mask", "--tickets", str(shared / "tickets.txt"),
                             "--out", str(d / "mask.txt")])
    twice("transfer", lambda d: ["transfer", "--base", str(shared / "base.ckpt"),
                                 "--tuned", str(shared / "tuned.ckpt"),
                                 "--tensor", "embedding",
                                 "--tickets", str(shared / "tickets.txt"),
                                 "--out", str(d / "spliced.ckpt")])
    twice("toy_train", lambda d: ["toy", "train", "--model", str(shared / "base.ckpt"),
                                  "--task", str(shared / "task.csv"),
                                  "--mode", "partial",
                                  "--tickets", str(shared / "tickets.txt"),
                                  "--epochs", "5", "--seed", "5",
                                  "--out", str(d / "model.ckpt"),
                                  "--loss-out", str(d / "loss.csv")])
    twice("toy_eval", lambda d: ["toy", "eval", "--model", str(shared / "tuned.ckpt"),
                                 "--task", str(shared / "task.csv"),
                                 "--out", str(d / "acc.txt")])
    twice("predict_log", lambda d: ["toy", "predict-log",
                                    "--tuned", str(shared / "tuned.ckpt"),
                                    "--partial", str(shared / "base.ckpt"),
                                    "--base", str(shared / "base.ckpt"),
                                    "--task", str(shared / "task.csv"),
                                    "--out", str(d / "log.csv")])
    launch(["toy", "predict-log", "--tuned", str(shared / "tuned.ckpt"),
            "--partial", str(shared / "base.ckpt"),
            "--base", str(shared / "base.ckpt"),
            "--task", str(shared / "task.csv"), "--out", str(shared / "log.csv")])
    twice("certify", lambda d: ["certify", "--log", str(shared / "log.csv"),
                                "--dim", "32", "--alpha", "0.05,0.25,1.0",
                                "--first-k", "20", "--out", str(d / "report.txt")])
    twice("freq", lambda d: ["freq", "--corpus", str(shared / "corpus.txt"),
                             "--vocab", "64", "--out", str(d / "counts.csv")])
    ok(10, "all CLI subcommands byte-identical across reruns")
