"""Tests of the benchmark's own code at smoke size:
    python3 -m pytest perfbench/test_bench.py

A clean run of every workload has error_rate 0; an output corrupted by a
faulty program raises it above 0.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import kstickets.cli  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, out_path  # noqa: E402


def faulty(target: str, corrupt, warmup=True, later=True):
    """The real CLI, except that `corrupt` rewrites output file `target`."""

    def cli_run(argv):
        code = kstickets.cli.run(argv)
        out = Path(out_path(argv))
        warm = out.parent.name == "pass0"
        if out.name == target and (warmup if warm else later):
            corrupt(out)
        return code

    return cli_run


def flip_last_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def drop_first_ticket(path: Path) -> None:
    lines = path.read_text().splitlines()
    ids = lines[-1].removeprefix("token_ids=").split(",")
    path.write_text("\n".join(lines[:-1] + ["token_ids=" + ",".join(ids[1:])]) + "\n")


def measure(tmp_path, workload, cli_run=None, trace=0):
    return run.measure(workload, 3, "smoke", 0, trace, tmp_path, cli_run)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_has_no_failures(tmp_path, workload, trace):
    res = measure(tmp_path, workload, trace=trace)
    assert res["failures"] == {}
    assert res["failed"] == 0 and res["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(res["metrics"]) == names
    assert all(math.isfinite(v) for v in res["metrics"].values())
    if not trace:
        assert all(v > 0 for v in res["metrics"].values())


def test_flipped_byte_in_transfer_checkpoint_fails(tmp_path):
    res = measure(tmp_path, "score-d64", faulty("transfer.ckpt", flip_last_byte))
    assert "transfer" in res["failures"]
    assert res["failed"] > 0


def test_dropped_ticket_fails(tmp_path):
    res = measure(tmp_path, "score-d64", faulty("tickets-0.01.txt", drop_first_ticket))
    assert "select-alpha-0.01" in res["failures"]
    assert res["failed"] > 0


def test_corruption_after_warmup_fails_by_digest(tmp_path):
    res = measure(tmp_path, "sweep-d768", faulty("transfer-0.05.ckpt", flip_last_byte, warmup=False))
    assert res["failures"] == {}
    assert res["passes"][0]["mismatch"] == ["transfer-0.05"]
    assert res["failed"] == 1


def test_tampered_certify_report_fails(tmp_path):
    def tamper(path):
        path.write_text(path.read_text().replace("d=64", "d=65", 1))

    res = measure(tmp_path, "toy-train", faulty("report.txt", tamper))
    assert "certify" in res["failures"]


def test_nonzero_exit_and_crash_fail(tmp_path):
    def cli_run(argv):
        if argv[0] == "mask":
            return 2
        if argv[0] == "certify":
            raise RuntimeError("crash")
        return kstickets.cli.run(argv)

    res = measure(tmp_path, "toy-train", cli_run)
    assert res["warmup"]["codes"]["mask"] == 2 and res["warmup"]["codes"]["certify"] == 1
    assert res["failed"] >= 4  # both stages, in the warm-up pass and the timed pass


def test_failed_stage_does_not_hide_other_faults(tmp_path):
    corrupt = faulty("transfer.ckpt", flip_last_byte)

    def cli_run(argv):
        return 2 if argv[0] == "mask" else corrupt(argv)

    res = measure(tmp_path, "score-d64", cli_run)
    assert set(res["failures"]) == {"mask", "mask-complement", "transfer"}
    assert res["failures"]["mask"] == ["output missing"]
