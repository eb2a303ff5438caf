"""Golden run records: tiny presets of all five scenarios, pinned by bytes.

Each preset is emitted with ``emit_report`` and checked against the sha256
of its ``report.json`` and of every CSV it writes, plus the run-directory
name (the manifest hash): once with the gated runs pooled over two
processes, once with fork hidden, so that they all run in one. A refactor
of the solvers, the scenario layer or the records must leave every one of
these unchanged. The gate is on in every preset but the Lax-Friedrichs
one, and the presets cover all three verdicts, so the gate and verdict
paths are pinned too.

The hashes belong to NumPy 2.4 on x86-64 Linux: another NumPy build may sum
or round in a different order and change the last digits of the CSVs.
"""

import hashlib
import multiprocessing

import pytest

from nclaw import experiments as ex
from nclaw.records import emit_report

# (preset, scenario function, arguments, run directory, verdict, CSV count,
#  sha256 of report.json, sha256 of the sorted "path sha256" lines of the CSVs)
GOLDEN = [
    ("ce1", "counterexample_1", dict(n_particles=300, godunov_n=512),
     "ce1-a6e396ad9b3253ff", "PASS", 62,
     "9cdc6974dc14ab3e16de34fe25a45c0c659a94cec1020367632a5ca4e62bf9ce",
     "069929d554ed0fd33260e83ff9c85d43db0f020c5cfe7ab2cade321fb13634e0"),
    ("ce1_lax_friedrichs", "counterexample_1",
     dict(n_particles=300, godunov_n=512, solver="lax_friedrichs", gate=False),
     "ce1-020b2745f187133b", "FAIL", 62,
     "26c7f1bc13a0075c2d06e9130903234ef65cbc21b23e6990d899a88ec2c9a978",
     "7be0f348f70c5ce30a93cb8605ec1376299fdce8a01b9917b91b62666e362c3c"),
    ("ce2", "counterexample_2", dict(n_particles=200, godunov_n=512),
     "ce2-42c3262a7a4a7ca9", "PASS", 137,
     "0ba39827a4adeaa8dc672355afcf7cdfea1de6dfe81a4e3da4261c78f47d5cbd",
     "a707b8a46b53f4dbfdafc703d99103d60f15ec0dbd196d98c6546f89a5817fb4"),
    ("ce3", "counterexample_3", dict(n_particles=200, godunov_n=512),
     "ce3-1d3ca951566f4874", "INCONCLUSIVE", 103,
     "5cde25bc78e0f916e0dad508e30c04ba105fb3aac2667d0f9af5f57eaa9892d0",
     "a3af12e09a20ece205a6435946864eb3f0e41ede6473a45ddb936df7a28614e3"),
    ("rate", "singular_limit_rate", dict(eps_list=(0.4, 0.2), t_end=0.2),
     "rate-5d5d7e979357829b", "FAIL", 0,
     "8d137d18f5fb506c916038d9ddda3601aa5195e5956a6305543466edad31d2a6",
     hashlib.sha256(b"").hexdigest()),
    ("visc", "vanishing_viscosity", dict(nu_list=(0.1, 0.03), t_end=0.1),
     "visc-15a01de0cf99a9dd", "FAIL", 0,
     "4726aa31379da36feabc840ba4e997e23e7255d7836e2d4ccc9c804ac5f12980",
     hashlib.sha256(b"").hexdigest()),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


pinned = pytest.mark.parametrize(
    "fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha",
    [g[1:] for g in GOLDEN],
    ids=[g[0] for g in GOLDEN],
)


@pinned
def test_record_bytes_pinned(
    tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha
):
    _check(tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha)


@pinned
def test_record_bytes_pinned_without_fork(
    monkeypatch, tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha
):
    # where the platform cannot fork, the gated runs go one after the other
    # in this process, and the records must not move
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _check(tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha)


def _check(tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha):
    report = getattr(ex, fn_name)(**kwargs)
    assert report.verdict == verdict
    run_dir = emit_report(report, tmp_path)["run_dir"]
    assert run_dir.name == run_dir_name
    assert _sha256(run_dir / "report.json") == report_sha
    csvs = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*.csv"))
    assert len(csvs) == n_csv
    lines = "".join(f"{name} {_sha256(run_dir / name)}\n" for name in csvs)
    assert hashlib.sha256(lines.encode()).hexdigest() == csv_sha
