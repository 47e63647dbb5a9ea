import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kstickets
from kstickets.checkpoint import Checkpoint, TensorRecord, read_checkpoint, write_checkpoint
from kstickets._text import fmt_float
from kstickets import cli
from kstickets.cli import _off_lattice, run
from kstickets.selection import read_scores_csv, read_ticket_file
from kstickets.toytrain import (
    TrainConfig,
    generate_task,
    init_model,
    model_to_checkpoint,
    train,
    write_task_csv,
)


@pytest.fixture()
def workdir(tmp_path):
    """Seeded task, base checkpoint, and embed-tuned checkpoint on disk."""
    task = generate_task(1, 64, 300, 1.5)
    model = init_model(1, 64, 32)
    tuned, _ = train(model, task, TrainConfig(mode="embed", epochs=15, seed=1))
    write_task_csv(task, tmp_path / "task.csv")
    write_checkpoint(model_to_checkpoint(model), tmp_path / "base.ckpt")
    write_checkpoint(model_to_checkpoint(tuned), tmp_path / "tuned.ckpt")
    (tmp_path / "corpus.txt").write_text(
        "\n".join(str(s) for s in task.sources) + "\n"
    )
    return tmp_path


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cmd",
    [
        ["analyze"],
        ["select"],
        ["mask"],
        ["transfer"],
        ["certify"],
        ["freq"],
        ["toy"],
        ["toy", "gen"],
        ["toy", "init"],
        ["toy", "train"],
        ["toy", "eval"],
        ["toy", "predict-log"],
    ],
)
def test_subcommand_help_exits_zero(cmd, capsys):
    assert run(cmd + ["--help"]) == 0


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1


def test_missing_required_flag(capsys):
    assert run(["analyze", "--base", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag(capsys):
    assert run(["mask", "--nope"]) == 1


def test_corrupt_checkpoint_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint at all")
    code = run(
        [
            "analyze",
            "--base",
            str(bad),
            "--tuned",
            str(bad),
            "--tensor",
            "embedding",
            "--out",
            str(tmp_path / "scores.csv"),
        ]
    )
    assert code == 2
    assert "not a checkpoint" in capsys.readouterr().err


def test_analyze_writes_scores(workdir):
    out = workdir / "scores.csv"
    code = run(
        [
            "analyze",
            "--base",
            str(workdir / "base.ckpt"),
            "--tuned",
            str(workdir / "tuned.ckpt"),
            "--tensor",
            "embedding",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    scores = read_scores_csv(out)
    assert len(scores) == 64
    assert scores.frequency is None


def test_analyze_attaches_frequencies(workdir):
    assert (
        run(
            [
                "freq",
                "--corpus",
                str(workdir / "corpus.txt"),
                "--vocab",
                "64",
                "--out",
                str(workdir / "counts.csv"),
            ]
        )
        == 0
    )
    assert (
        run(
            [
                "analyze",
                "--base",
                str(workdir / "base.ckpt"),
                "--tuned",
                str(workdir / "tuned.ckpt"),
                "--tensor",
                "embedding",
                "--freq",
                str(workdir / "counts.csv"),
                "--out",
                str(workdir / "scores.csv"),
            ]
        )
        == 0
    )
    scores = read_scores_csv(workdir / "scores.csv")
    assert scores.frequency is not None
    assert scores.frequency.sum() == 300


def full_analyze(workdir):
    run(
        [
            "analyze",
            "--base",
            str(workdir / "base.ckpt"),
            "--tuned",
            str(workdir / "tuned.ckpt"),
            "--tensor",
            "embedding",
            "--out",
            str(workdir / "scores.csv"),
        ]
    )


def test_select_by_alpha_then_mask_and_transfer(workdir):
    full_analyze(workdir)
    assert (
        run(
            [
                "select",
                "--scores",
                str(workdir / "scores.csv"),
                "--alpha",
                "0.05",
                "--dim",
                "32",
                "--out",
                str(workdir / "tickets.txt"),
            ]
        )
        == 0
    )
    tickets = read_ticket_file(workdir / "tickets.txt")
    assert tickets.method == "ks"
    assert 0 < len(tickets.token_ids) < 64

    assert (
        run(
            [
                "mask",
                "--tickets",
                str(workdir / "tickets.txt"),
                "--out",
                str(workdir / "mask.txt"),
            ]
        )
        == 0
    )
    mask_lines = (workdir / "mask.txt").read_text().splitlines()
    assert len(mask_lines) == 64
    assert sum(int(x) for x in mask_lines) == len(tickets.token_ids)

    assert (
        run(
            [
                "transfer",
                "--base",
                str(workdir / "base.ckpt"),
                "--tuned",
                str(workdir / "tuned.ckpt"),
                "--tensor",
                "embedding",
                "--tickets",
                str(workdir / "tickets.txt"),
                "--out",
                str(workdir / "spliced.ckpt"),
            ]
        )
        == 0
    )
    spliced = read_checkpoint(workdir / "spliced.ckpt")
    base = read_checkpoint(workdir / "base.ckpt")
    assert (
        spliced.tensor("output_weights").data.tobytes()
        == base.tensor("output_weights").data.tobytes()
    )


def test_ticket_file_matches_its_tau(tmp_path):
    # d=64 grid rows shifted by k = 0..64 steps give every D = k/64, then
    # noisy rows; each ticket file lists exactly the rows with D > its tau
    rng = np.random.default_rng(3)
    grid, noise = np.tile(np.arange(64.0), (65, 1)), rng.normal(size=(40, 64))
    base = np.vstack([grid, noise])
    tuned = np.vstack([grid + np.arange(65.0)[:, None], noise + rng.normal(size=(40, 64))])
    for name, matrix in (("base", base), ("tuned", tuned)):
        matrix = matrix.astype(np.float32)
        write_checkpoint(Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())]),
                         tmp_path / f"{name}.ckpt")
    scores_csv, out = tmp_path / "scores.csv", tmp_path / "tickets.txt"
    assert run(["analyze", "--base", str(tmp_path / "base.ckpt"), "--tuned",
                str(tmp_path / "tuned.ckpt"), "--tensor", "embed", "--out", str(scores_csv)]) == 0
    scores = read_scores_csv(scores_csv)
    for alpha in ("0.01", "0.05", "0.25", "0.5", "0.75", "0.9", "1.0"):
        assert run(["select", "--scores", str(scores_csv), "--alpha", alpha,
                    "--dim", "64", "--out", str(out)]) == 0
        tickets = read_ticket_file(out)
        chosen = np.isin(scores.token_id, tickets.token_ids)
        assert (scores.ks_statistic[chosen] > tickets.tau).all(), alpha
        assert (scores.ks_statistic[~chosen] <= tickets.tau).all(), alpha


def test_select_alpha_checks_dim_against_the_scores(tmp_path, capsys):
    # rows shifted by k = 0..64 steps give every D = k/64
    grid = np.tile(np.arange(64, dtype=np.float32), (65, 1))
    shifted = grid + np.arange(65, dtype=np.float32)[:, None]
    for name, matrix in (("base", grid), ("tuned", shifted)):
        write_checkpoint(Checkpoint([TensorRecord("embed", matrix.shape, matrix.ravel())]),
                         tmp_path / f"{name}.ckpt")
    scores_csv, out = tmp_path / "scores.csv", tmp_path / "tickets.txt"
    assert run(["analyze", "--base", str(tmp_path / "base.ckpt"), "--tuned",
                str(tmp_path / "tuned.ckpt"), "--tensor", "embed", "--out", str(scores_csv)]) == 0
    select = ["select", "--scores", str(scores_csv), "--alpha", "0.05", "--out", str(out)]
    assert run([*select, "--dim", "64"]) == 0
    out.unlink()
    # D = 1/64 on line 3 is not k/32
    assert run([*select, "--dim", "32"]) == 2
    assert f"{scores_csv}: line 3: ks_statistic 0.015625 is not k/32" in capsys.readouterr().err
    assert not out.exists()
    # the documented limit: a multiple of the true d puts every k/64 on its lattice
    assert run([*select, "--dim", "4096"]) == 0


def test_lattice_check_keeps_every_statistic_analyze_writes():
    # analyze writes D = k/d at 9 significant digits, which moves it by at
    # most 5e-9 * D: every k of every d in 2..4096 stays on the lattice
    for d in range(2, 4097):
        x = np.arange(d + 1) / d
        for moved in (x, x * (1 - 5e-9), x * (1 + 5e-9)):
            assert _off_lattice(np.clip(moved, 0.0, 1.0), d).size == 0, d
    # and the values fmt_float really writes, next to and at the 9th digit's ties
    for d in [*range(2, 300), 640, 768, 1000, 1024, 2047, 2048, 3000, 4095, 4096]:
        x = np.arange(d + 1) / d
        for near in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0)):
            written = np.array([float(fmt_float(v)) for v in near.tolist()])
            assert _off_lattice(written, d).size == 0, d


def test_lattice_check_catches_a_dim_that_is_not_a_multiple():
    for true_d in (3, 64, 768, 4096):
        written = np.array([float(fmt_float(k / true_d)) for k in range(true_d + 1)])
        for d in range(2, 4097):
            assert (_off_lattice(written, d).size == 0) == (d % true_d == 0), (true_d, d)


@pytest.mark.parametrize("argv", [
    ["select", "--scores", "{dir}/scores.csv", "--method", "ks", "--top-k", "-1"],
    ["freq", "--corpus", "{dir}/corpus.txt", "--vocab", "64", "--top-k", "-2"],
], ids=["select", "freq"])
def test_negative_top_k_exits_two(workdir, capsys, argv):
    full_analyze(workdir)
    out = workdir / "out.txt"
    assert run([a.format(dir=workdir) for a in argv] + ["--out", str(out)]) == 2
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_select_requires_exactly_one_mode(workdir, capsys):
    full_analyze(workdir)
    args = ["select", "--scores", str(workdir / "scores.csv"), "--out", "t.txt"]
    for mode in ([], ["--alpha", "0.05", "--dim", "32", "--method", "ks"]):  # neither, both
        assert run(args + mode) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--alpha" in err and "--method" in err
    assert run(args + ["--alpha", "0.05"]) == 1  # missing --dim


def test_select_top_k(workdir):
    full_analyze(workdir)
    assert (
        run(
            [
                "select",
                "--scores",
                str(workdir / "scores.csv"),
                "--method",
                "abs",
                "--top-k",
                "5",
                "--out",
                str(workdir / "topk.txt"),
            ]
        )
        == 0
    )
    tickets = read_ticket_file(workdir / "topk.txt")
    assert tickets.method == "abs"
    assert len(tickets.token_ids) == 5


def test_freq_top_k(workdir):
    assert (
        run(
            [
                "freq",
                "--corpus",
                str(workdir / "corpus.txt"),
                "--vocab",
                "64",
                "--top-k",
                "3",
                "--out",
                str(workdir / "top3.csv"),
            ]
        )
        == 0
    )
    lines = (workdir / "top3.csv").read_text().splitlines()
    assert lines[0] == "token_id,count"
    assert len(lines) == 4
    counts = [int(l.split(",")[1]) for l in lines[1:]]
    assert counts == sorted(counts, reverse=True)


def test_toy_pipeline_via_cli(tmp_path, capsys):
    root = tmp_path
    assert run(["toy", "gen", "--seed", "3", "--vocab", "32", "--pairs", "100",
                "--zipf", "1.2", "--out", str(root / "task.csv")]) == 0
    assert run(["toy", "init", "--seed", "3", "--vocab", "32", "--dim", "16",
                "--out", str(root / "model.ckpt")]) == 0
    assert run(["toy", "train", "--model", str(root / "model.ckpt"),
                "--task", str(root / "task.csv"), "--mode", "embed",
                "--epochs", "10", "--seed", "3",
                "--out", str(root / "tuned.ckpt"),
                "--loss-out", str(root / "loss.csv")]) == 0
    loss_lines = (root / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,loss"
    assert len(loss_lines) == 11

    assert run(["toy", "eval", "--model", str(root / "tuned.ckpt"),
                "--task", str(root / "task.csv"),
                "--out", str(root / "acc.txt")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("accuracy=")
    assert (root / "acc.txt").read_text().startswith("accuracy=")

    assert run(["toy", "predict-log", "--tuned", str(root / "tuned.ckpt"),
                "--partial", str(root / "tuned.ckpt"),
                "--base", str(root / "model.ckpt"),
                "--task", str(root / "task.csv"),
                "--out", str(root / "log.csv")]) == 0

    assert run(["certify", "--log", str(root / "log.csv"), "--dim", "16",
                "--alpha", "0.05,0.5,1.0", "--first-k", "20",
                "--out", str(root / "report.txt")]) == 0
    report = (root / "report.txt").read_text()
    assert report.count("alpha=") == 3

    assert run(["certify", "--log", str(root / "log.csv"), "--dim", "16",
                "--alpha", "0.05", "--prob-source", "base",
                "--out", str(root / "report_base.txt")]) == 0
    assert "certified_accuracy=" in (root / "report_base.txt").read_text()


def test_toy_train_partial_requires_tickets(tmp_path):
    run(["toy", "gen", "--seed", "1", "--vocab", "16", "--pairs", "20",
         "--out", str(tmp_path / "task.csv")])
    run(["toy", "init", "--seed", "1", "--vocab", "16", "--dim", "4",
         "--out", str(tmp_path / "model.ckpt")])
    code = run(["toy", "train", "--model", str(tmp_path / "model.ckpt"),
                "--task", str(tmp_path / "task.csv"), "--mode", "partial",
                "--out", str(tmp_path / "out.ckpt")])
    assert code == 1


def test_toy_train_on_a_header_only_task_exits_two(tmp_path, capsys):
    ckpt, task, out = tmp_path / "model.ckpt", tmp_path / "task.csv", tmp_path / "out.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 16, 4)), ckpt)
    task.write_text("source,target\n")
    code = run(["toy", "train", "--model", str(ckpt), "--task", str(task), "--mode", "embed",
                "--out", str(out)])
    assert code == 2
    assert f"error: {task}: no pairs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv, name", [
    (["toy", "train", "--model", "{dir}/model.ckpt", "--task", "{dir}/task.csv",
      "--mode", "embed", "--lr"], "learning_rate must be finite and > 0"),
    (["toy", "gen", "--seed", "1", "--vocab", "16", "--pairs", "20", "--zipf"],
     "zipf_exponent must be finite"),
], ids=["train-lr", "gen-zipf"])
def test_toy_non_finite_rates_exit_two_before_writing(tmp_path, capsys, argv, name, value):
    write_checkpoint(model_to_checkpoint(init_model(1, 16, 4)), tmp_path / "model.ckpt")
    write_task_csv(generate_task(1, 16, 20), tmp_path / "task.csv")
    out = tmp_path / "out"
    assert run([a.format(dir=tmp_path) for a in argv] + [value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {name}, got {float(value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("zipf", ["-93", "-93.1", "-1000"])
def test_toy_gen_overflowing_zipf_exits_two_before_writing(tmp_path, capsys, zipf):
    # finite exponents whose weights rank ** -zipf overflow, with no numpy warning
    out = tmp_path / "task.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["toy", "gen", "--seed", "1", "--vocab", "4096", "--pairs", "20",
                    "--zipf", zipf, "--out", str(out)])
    assert code == 2
    err = f"error: zipf_exponent must keep the Zipf weights finite, got {float(zipf)}\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_certify_bad_alpha_list(workdir):
    (workdir / "log.csv").write_text(
        "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
        "partial_pred_id,base_p1,base_p2\n0,0,1,1,0.9,0.1,,,\n"
    )
    code = run(["certify", "--log", str(workdir / "log.csv"), "--dim", "16",
                "--alpha", "abc", "--out", str(workdir / "r.txt")])
    assert code == 1


def test_freq_out_of_range_token(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1\n2\n99\n")
    code = run(["freq", "--corpus", str(corpus), "--vocab", "8",
                "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_freq_token_beyond_int64_exits_two(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("1\n99999999999999999999\n")
    code = run(["freq", "--corpus", str(corpus), "--vocab", "8",
                "--out", str(tmp_path / "c.csv")])
    assert code == 2


SCORES_HEADER = "token_id,ks_statistic,p_value,cos,abs_l2,relative,ratio,kl,frequency"
LOG_HEADER = (
    "example_id,position,reference_id,tuned_pred_id,tuned_p1,tuned_p2,"
    "partial_pred_id,base_p1,base_p2"
)


@pytest.mark.parametrize(
    "what, text, argv",
    [
        ("scores", f"{SCORES_HEADER}\n0,0,1,1,0,1,0,0,\n1,x,1,1,0,1,0,0,\n",
         ["select", "--scores", "{bad}", "--alpha", "0.05", "--dim", "4", "--out", "{out}"]),
        ("log", f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n0,1,1,1,0.9,zz,,,\n",
         ["certify", "--log", "{bad}", "--dim", "4", "--alpha", "0.05", "--out", "{out}"]),
        ("log", f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n0,1,1,1,0.3,0.4,,,\n",
         ["certify", "--log", "{bad}", "--dim", "4", "--alpha", "0.05", "--out", "{out}"]),
        ("log", f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,0.5,0.2\n0,1,1,1,0.9,0.1,,0.5,\n",
         ["certify", "--log", "{bad}", "--dim", "4", "--alpha", "0.05", "--out", "{out}"]),
        ("task", "source,target\n0,1\n2,q\n",
         ["toy", "eval", "--model", "{ckpt}", "--task", "{bad}", "--out", "{out}"]),
        ("task", "source,target\n0,1\n2,9\n",
         ["toy", "train", "--model", "{ckpt}", "--task", "{bad}", "--mode", "embed",
          "--out", "{out}"]),
        ("counts", "token_id,count\n0,1\n1,1.5\n",
         ["analyze", "--base", "{ckpt}", "--tuned", "{ckpt}", "--tensor", "embedding",
          "--freq", "{bad}", "--out", "{out}"]),
    ],
    ids=["scores", "log", "log-p1-below-p2", "log-half-blank-base", "task",
         "task-id-outside-vocab", "counts"],
)
def test_malformed_cell_names_path_and_line(tmp_path, capsys, what, text, argv):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    bad = tmp_path / f"{what}.csv"
    bad.write_text(text)
    out = tmp_path / "out.txt"
    code = run([a.format(bad=bad, out=out, ckpt=ckpt) for a in argv])
    assert code == 2
    assert f"{bad}: bad {what} row at line 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, reason",
    [("99,7", "token id 99 outside [0, 4)"), ("-3,2", "token id -3 outside [0, 4)"),
     ("2,-1", "negative count -1")],
    ids=["id-above-vocab", "negative-id", "negative-count"],
)
def test_counts_row_outside_vocab_exits_two(tmp_path, capsys, row, reason):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    counts = tmp_path / "counts.csv"
    counts.write_text(f"token_id,count\n0,1\n{row}\n")
    out = tmp_path / "scores.csv"
    code = run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt), "--tensor", "embedding",
                "--freq", str(counts), "--out", str(out)])
    assert code == 2
    assert f"{counts}: bad counts row at line 3: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, reason",
    [("token_id,count\n0,1\n1,1.5\n", "bad counts row at line 3"),
     ("token_id,count\n0,1\n4,2\n", "token id 4 outside [0, 4)"),
     ("id,count\n0,1\n", "header")],
    ids=["non-integer", "id-above-vocab", "wrong-header"],
)
def test_analyze_checks_counts_before_scoring(tmp_path, capsys, monkeypatch, text, reason):
    def never(*args):
        raise AssertionError("analyze_pair ran before the counts file was checked")

    monkeypatch.setattr(cli, "analyze_pair", never)
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    counts = tmp_path / "counts.csv"
    counts.write_text(text)
    out = tmp_path / "scores.csv"
    code = run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt), "--tensor", "embedding",
                "--freq", str(counts), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(counts) in err and reason in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "model.ckpt"]


def test_counts_repeated_id_keeps_last_line(tmp_path):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    counts = tmp_path / "counts.csv"
    counts.write_text("token_id,count\n2,5\n0,1\n2,9\n")
    out = tmp_path / "scores.csv"
    assert run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt), "--tensor", "embedding",
                "--freq", str(counts), "--out", str(out)]) == 0
    assert read_scores_csv(out).frequency.tolist() == [1, 0, 9, 0]


@pytest.mark.parametrize(
    "extra", ["garbage\n", "token_ids=3\n"], ids=["no-equals", "repeated-key"]
)
def test_malformed_ticket_file_exits_two(tmp_path, capsys, extra):
    tickets = tmp_path / "tickets.txt"
    tickets.write_text("method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=1\n" + extra)
    code = run(["mask", "--tickets", str(tickets), "--out", str(tmp_path / "m.txt")])
    assert code == 2
    assert f"{tickets}: bad ticket row at line 6" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, argv, reason",
    [("tickets.txt", "method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=3,1\n",
      ["mask", "--tickets"], "token_ids must be strictly ascending"),
     ("tickets.txt", "method=ks\nalpha=\ntau=\nvocab_size=8\ntoken_ids=3,x\n",
      ["mask", "--tickets"], "invalid literal for int() with base 10: 'x'"),
     ("scores.csv", "token_id,ks_statistic,p_value,cos,abs_l2,relative,ratio,kl,frequency\n"
      "1,0,1,1,0,0,1,0,\n", ["select", "--method", "cos", "--top-k", "1", "--scores"],
      "scores must cover token ids 0..V-1 exactly once"),
     ("tickets.txt", "method=ks\nalpha=\ntau=\nvocab_size=-3\ntoken_ids=\n",
      ["mask", "--tickets"], "vocab_size -3 must be >= 0"),
     ("scores.csv", f"{SCORES_HEADER}\n",
      ["select", "--alpha", "0.05", "--dim", "64", "--scores"], "no rows"),
     ("log.csv", f"{LOG_HEADER}\n",
      ["certify", "--dim", "4", "--alpha", "0.05", "--log"], "no records"),
     ("log.csv", f"{LOG_HEADER}\n0,3,1,1,0.9,0.1,,,\n",
      ["certify", "--dim", "4", "--alpha", "0.05", "--first-k", "2", "--log"],
      "no records at a position below --first-k 2")],
    ids=["tickets-descending", "tickets-non-integer", "scores-missing-id",
         "tickets-negative-vocab", "scores-header-only", "log-header-only",
         "log-emptied-by-first-k"],
)
def test_table_errors_name_the_file(tmp_path, capsys, name, text, argv, reason):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "out.txt"
    assert run([*argv, str(path), "--out", str(out)]) == 2
    assert f"error: {path}: {reason}\n" == capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_with_trailing_bytes_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    write_checkpoint(model_to_checkpoint(init_model(1, 4, 2)), ckpt)
    with open(ckpt, "ab") as fh:
        fh.write(bytes(8))
    code = run(["analyze", "--base", str(ckpt), "--tuned", str(ckpt),
                "--tensor", "embedding", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "8 trailing payload bytes" in capsys.readouterr().err


def test_mixed_blank_log_columns_are_absent(tmp_path, capsys):
    """A column blank in some rows reads as absent in every row."""
    def log_file(name, cells):
        rows = [f"0,{k},1,{1 + k % 2},0.9,0.{k},{cells(k)}" for k in range(6)]
        (tmp_path / name).write_text("\n".join([LOG_HEADER, *rows]) + "\n")
        return str(tmp_path / name)

    mixed = log_file("mixed.csv", lambda k: f"{'' if k == 2 else 1},"
                                            + ("," if k == 4 else "0.8,0.1"))
    blank = log_file("blank.csv", lambda k: ",,")
    certify = ["certify", "--dim", "4", "--alpha", "0.05,1.0"]
    assert run([*certify, "--log", mixed, "--out", str(tmp_path / "m.txt")]) == 0
    assert run([*certify, "--log", blank, "--out", str(tmp_path / "b.txt")]) == 0
    report = (tmp_path / "m.txt").read_text()
    assert report == (tmp_path / "b.txt").read_text()
    assert "prediction_accuracy=\n" in report and "n_records=6\n" in report
    code = run([*certify, "--log", mixed, "--prob-source", "base", "--out", str(tmp_path / "x.txt")])
    assert code == 2
    assert "record has no base-model probabilities" in capsys.readouterr().err


def test_mixed_blank_frequency_column_is_absent(tmp_path, capsys):
    def scores_file(name, freq):
        rows = [f"{i},0.{i},0.5,0.9,0.{3 - i},1,0.{i},0.{i},{freq(i)}" for i in range(4)]
        (tmp_path / name).write_text("\n".join([SCORES_HEADER, *rows]) + "\n")
        return str(tmp_path / name)

    mixed = scores_file("mixed.csv", lambda i: "" if i == 1 else 7)
    blank = scores_file("blank.csv", lambda i: "")
    select = ["select", "--method", "abs", "--top-k", "2"]
    assert run([*select, "--scores", mixed, "--out", str(tmp_path / "m.txt")]) == 0
    assert run([*select, "--scores", blank, "--out", str(tmp_path / "b.txt")]) == 0
    assert (tmp_path / "m.txt").read_text() == (tmp_path / "b.txt").read_text()
    assert "token_ids=0,1\n" in (tmp_path / "m.txt").read_text()
    code = run(["select", "--method", "frequency", "--top-k", "1", "--scores", mixed,
                "--out", str(tmp_path / "f.txt")])
    assert code == 2
    assert "frequency ranking requires counts on every score" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, message",
    [(["freq", "--corpus", "{dir}/corpus.txt", "--vocab", "64", "--top-k", "65"], 2,
      "error: top-k 65 exceeds vocab size 64\n"),
     (["select", "--scores", "{dir}/scores.csv", "--method", "ks"], 1,
      "usage error: --method requires --top-k\n"),
     (["certify", "--log", "{dir}/log.csv", "--dim", "4", "--alpha", ","], 1,
      "usage error: at least one alpha required\n")],
    ids=["freq-top-k-above-vocab", "select-method-without-top-k", "certify-no-alpha"],
)
def test_option_errors_write_nothing(workdir, capsys, argv, code, message):
    full_analyze(workdir)
    (workdir / "log.csv").write_text(f"{LOG_HEADER}\n0,0,1,1,0.9,0.1,,,\n")
    out = workdir / "out.txt"
    assert run([a.format(dir=workdir) for a in argv] + ["--out", str(out)]) == code
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_python_m_runs_the_cli(tmp_path):
    src = str(Path(kstickets.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    gen = ["toy", "gen", "--seed", "1", "--vocab", "16", "--pairs", "20", "--out"]
    proc = subprocess.run([sys.executable, "-m", "kstickets.cli", *gen, str(tmp_path / "m.csv")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert run([*gen, str(tmp_path / "run.csv")]) == 0
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()
