#!/usr/bin/env python3
"""Sweep the significance level: ticket count, certified accuracy, and the
consistency of ticket-row distributions between partial tuning and embed
tuning, at toy scale.
"""

import argparse

from kstickets.certify import alpha_sweep
from kstickets.checkpoint import TensorRecord
from kstickets.selection import analyze_pair, compare_ticket_distributions, select_by_alpha
from kstickets.toytrain import (
    TrainConfig,
    emit_prediction_log,
    generate_task,
    init_model,
    train,
)


def view_of(matrix):
    return TensorRecord("embed", matrix.shape, matrix)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vocab", type=int, default=256)
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--pairs", type=int, default=2000)
    ap.add_argument("--zipf", type=float, default=1.8)
    ap.add_argument(
        "--alphas", default="0.01,0.05,0.1,0.2,0.3,0.5,0.7,0.9,1.0",
        help="comma-separated significance levels",
    )
    args = ap.parse_args()
    alphas = [float(a) for a in args.alphas.split(",")]

    task = generate_task(args.seed, args.vocab, args.pairs, args.zipf)
    base = init_model(args.seed, args.vocab, args.dim)
    cfg = dict(learning_rate=0.1, epochs=50, seed=args.seed, batch_size=32)
    embed_model, _ = train(base, task, TrainConfig(mode="embed", **cfg))
    scores = analyze_pair(view_of(base.embedding), view_of(embed_model.embedding))

    print(f"{'alpha':>6} {'tau':>8} {'tickets':>8} {'certified':>10} "
          f"{'tuned':>8} {'verified':>9} {'consistency':>11}")
    for alpha in alphas:
        tickets = select_by_alpha(scores, alpha, args.dim)
        partial_model, _ = train(
            base, task, TrainConfig(mode="partial", tickets=tickets, **cfg)
        )
        log = emit_prediction_log(embed_model, partial_model, base, task)
        report = alpha_sweep(log, [alpha], args.dim)[0]
        consistency = compare_ticket_distributions(
            view_of(partial_model.embedding),
            view_of(embed_model.embedding),
            tickets,
            alpha,
        )
        print(f"{alpha:>6.2f} {report.tau:>8.4f} {len(tickets):>8d} "
              f"{report.certified_accuracy:>10.4f} {report.tuned_accuracy:>8.4f} "
              f"{report.verified_percentage:>9.4f} {consistency:>11.2f}")


if __name__ == "__main__":
    main()
