"""Subcommand front-end: analyze -> select -> (mask | transfer) -> certify,
plus toy-training and token-frequency utilities.

Every stage reads and writes plain files, so a full experiment is a shell
script. Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace

import numpy as np

from ._text import Column, fmt_float, read_csv, write_csv, write_text
from .certify import (
    PROB_SOURCES,
    alpha_sweep,
    filter_first_k,
    read_prediction_log,
    write_prediction_log,
    write_reports,
)
from .checkpoint import (
    CheckpointError,
    get_embedding,
    read_checkpoint,
    validate_pair,
    write_checkpoint,
)
from .selection import (
    SELECTION_METHODS,
    analyze_pair,
    read_scores_csv,
    read_ticket_file,
    select_by_alpha,
    select_top_k,
    count_frequencies,
    write_scores_csv,
    write_ticket_file,
)
from .toytrain import (
    TRAIN_MODES,
    TrainConfig,
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
from .transfer import emit_mask, splice_in_place, write_mask_file

__all__ = ["run", "main", "build_parser"]

COUNTS_HEADER = "token_id,count"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_counts_csv(counts: np.ndarray, path, top_k: int | None) -> None:
    ids = np.arange(counts.size)
    if top_k is not None:
        if top_k < 0:
            raise ValueError(f"top-k {top_k} must be >= 0")
        if top_k > counts.size:
            raise ValueError(f"top-k {top_k} exceeds vocab size {counts.size}")
        ids = np.lexsort((ids, -counts))[:top_k]
    write_csv(path, COUNTS_HEADER, [ids, counts[ids]])


def _read_counts_csv(path, vocab_size: int) -> np.ndarray:
    """The count of every id 0..V-1: 0 when not listed, the last line's when repeated."""
    token_id = Column(np.int64, valid=lambda i: (0 <= i) & (i < vocab_size),
                      invalid=f"token id {{}} outside [0, {vocab_size})")
    count = Column(np.int64, valid=lambda c: c >= 0, invalid="negative count {}")
    ids, values = (np.asarray(c, dtype=np.int64)
                   for c in read_csv(path, COUNTS_HEADER, (token_id, count), "counts"))
    last = ids.size - 1 - np.unique(ids[::-1], return_index=True)[1]
    counts = np.zeros(vocab_size, dtype=np.int64)
    counts[ids[last]] = values[last]
    return counts


def _read_corpus(path) -> np.ndarray:
    """Whitespace-separated ids; an id beyond int64 raises OverflowError (exit 2).

    numpy's C parser reads the text first. Its answer is kept unless it
    warned or raised, or the text has a sign or no token (numpy reads a lone
    sign, or blank text, as 0), or an id is int64's maximum (numpy clamps an
    overflow to it); then Python's split() and int() decide.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "-" not in text and "+" not in text and not text.isspace():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ids = np.fromstring(text, dtype=np.int64, sep=" ")
            except (ValueError, OverflowError, Warning):  # Python's parse decides
                ids = None
        if ids is not None and not (ids == np.iinfo(np.int64).max).any():
            return ids
    try:
        return np.array(text.split(), dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: corpus must contain integer token ids") from exc


def _off_lattice(statistic: np.ndarray, d: int) -> np.ndarray:
    """The rows whose KS statistic is not k/d for an integer 0 <= k <= d.

    analyze writes D = k/d to 9 significant digits, within 5e-9 * D of k/d,
    so D * d lies within 5e-9 * d of k: the tolerance 1e-8 * d keeps every
    such row. For a true dimension and a d both up to 4096, a statistic off
    the 1/d lattice is at least 1/4096 - 5e-9 * d from it, so a d that is
    not a multiple of the true one is caught on any row with such a k.
    """
    x = statistic * d
    on = (np.abs(x - np.rint(x)) <= 1e-8 * d) & (statistic >= 0) & (statistic <= 1)
    return np.flatnonzero(~on)


def _cmd_analyze(args) -> None:
    base = read_checkpoint(args.base)
    tuned = read_checkpoint(args.tuned)
    validate_pair(base, tuned, args.tensor)
    scores = analyze_pair(
        get_embedding(base, args.tensor), get_embedding(tuned, args.tensor)
    )
    if args.freq is not None:
        scores = replace(scores, frequency=_read_counts_csv(args.freq, len(scores)))
    write_scores_csv(scores, args.out)


def _cmd_select(args) -> None:
    scores = read_scores_csv(args.scores)
    if args.alpha is not None:
        if args.dim is None:
            raise _UsageError("--alpha requires --dim")
        tickets = select_by_alpha(scores, args.alpha, args.dim)
        if (off := _off_lattice(scores.ks_statistic, args.dim)).size:
            i = int(off[0])
            raise ValueError(
                f"{args.scores}: line {i + 2}: ks_statistic {fmt_float(scores.ks_statistic[i])} "
                f"is not k/{args.dim} for any k in 0..{args.dim}: were these scores "
                f"analyzed at another --dim?"
            )
    else:
        if args.top_k is None:
            raise _UsageError("--method requires --top-k")
        tickets = select_top_k(scores, args.method, args.top_k)
    write_ticket_file(tickets, args.out)


def _cmd_mask(args) -> None:
    tickets = read_ticket_file(args.tickets)
    write_mask_file(emit_mask(tickets, complement=args.complement), args.out)


def _cmd_transfer(args) -> None:
    # base is read for this call alone, so its own buffer takes the rows
    base = read_checkpoint(args.base)
    tuned = read_checkpoint(args.tuned)
    tickets = read_ticket_file(args.tickets)
    write_checkpoint(splice_in_place(base, tuned, args.tensor, tickets), args.out)


def _cmd_certify(args) -> None:
    log = read_prediction_log(args.log)
    if args.first_k is not None:
        log = filter_first_k(log, args.first_k)
    try:
        alphas = [float(a) for a in args.alpha.split(",") if a]
    except ValueError as exc:
        raise _UsageError(f"bad --alpha list: {args.alpha!r}") from exc
    if not alphas:
        raise _UsageError("at least one alpha required")
    reports = alpha_sweep(log, alphas, args.dim, args.prob_source)
    write_reports(reports, args.out)


def _cmd_freq(args) -> None:
    corpus = _read_corpus(args.corpus)
    counts = count_frequencies(corpus, args.vocab)
    _write_counts_csv(counts, args.out, args.top_k)


def _cmd_toy_gen(args) -> None:
    task = generate_task(args.seed, args.vocab, args.pairs, args.zipf)
    write_task_csv(task, args.out)


def _cmd_toy_init(args) -> None:
    write_checkpoint(model_to_checkpoint(init_model(args.seed, args.vocab, args.dim)), args.out)


def _cmd_toy_train(args) -> None:
    model = model_from_checkpoint(read_checkpoint(args.model))
    task = read_task_csv(args.task, model.vocab_size)
    tickets = None
    if args.tickets is not None:
        tickets = read_ticket_file(args.tickets)
    elif args.mode in ("partial", "frozen_complement"):
        raise _UsageError(f"--mode {args.mode} requires --tickets")
    config = TrainConfig(
        mode=args.mode,
        tickets=tickets,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    tuned, losses = train(model, task, config)
    write_checkpoint(model_to_checkpoint(tuned), args.out)
    if args.loss_out is not None:
        write_csv(args.loss_out, "epoch,loss", [np.arange(len(losses)), np.array(losses)])


def _cmd_toy_eval(args) -> None:
    model = model_from_checkpoint(read_checkpoint(args.model))
    task = read_task_csv(args.task, model.vocab_size)
    line = f"accuracy={fmt_float(evaluate(model, task))}"
    print(line)
    if args.out is not None:
        write_text(args.out, line + "\n")


def _cmd_toy_predict_log(args) -> None:
    tuned, partial, base = (
        None if path is None else model_from_checkpoint(read_checkpoint(path))
        for path in (args.tuned, args.partial, args.base)
    )
    task = read_task_csv(args.task, tuned.vocab_size)
    write_prediction_log(emit_prediction_log(tuned, partial, base, task), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kstickets", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("analyze", help="score every row of a checkpoint pair")
    p.add_argument("--base", required=True)
    p.add_argument("--tuned", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--freq", help="counts CSV to attach as the frequency column")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("select", help="pick winning-ticket rows from a scores CSV")
    p.add_argument("--scores", required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=int)
    mode.add_argument("--method", choices=SELECTION_METHODS)
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("mask", help="emit a 0/1 trainability mask from tickets")
    p.add_argument("--tickets", required=True)
    p.add_argument("--complement", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_mask)

    p = sub.add_parser("transfer", help="splice ticket rows from tuned into base")
    p.add_argument("--base", required=True)
    p.add_argument("--tuned", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--tickets", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("certify", help="certified-accuracy report from a prediction log")
    p.add_argument("--log", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--alpha", required=True, help="comma-separated significance levels")
    p.add_argument("--prob-source", choices=PROB_SOURCES, default="tuned", dest="prob_source")
    p.add_argument("--first-k", type=int, dest="first_k", help="keep only the first K positions per example")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("freq", help="count token occurrences in an id stream")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--top-k", type=int, dest="top_k", help="write only the K most frequent tokens")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_freq)

    toy = sub.add_parser("toy", help="desk-scale trainer utilities")
    toysub = toy.add_subparsers(dest="toy_command", parser_class=_Parser)

    p = toysub.add_parser("gen", help="generate a seeded Zipf token-mapping task")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--zipf", type=float, default=1.5)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_toy_gen)

    p = toysub.add_parser("init", help="initialize a seeded model checkpoint")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vocab", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_toy_init)

    p = toysub.add_parser("train", help="train a model on a task (maskable modes)")
    p.add_argument("--model", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--mode", choices=list(TRAIN_MODES), required=True)
    p.add_argument("--tickets")
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-out", dest="loss_out")
    p.set_defaults(handler=_cmd_toy_train)

    p = toysub.add_parser("eval", help="pair accuracy of a model on a task")
    p.add_argument("--model", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_toy_eval)

    p = toysub.add_parser("predict-log", help="emit a per-pair prediction log CSV")
    p.add_argument("--tuned", required=True)
    p.add_argument("--partial")
    p.add_argument("--base")
    p.add_argument("--task", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_toy_predict_log)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
