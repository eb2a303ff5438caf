"""Golden run records: tiny presets of all five scenarios, pinned by bytes.

Each preset is emitted with ``emit_report`` and checked against the sha256
of its ``report.json`` and of every CSV it writes, plus the run-directory
name (the manifest hash): once with the gated runs pooled over two
processes, once with fork hidden, so that they all run in one. A refactor
of the solvers, the scenario layer or the records must leave every one of
these unchanged. The gate is on in every preset but the Lax-Friedrichs
one, and the presets cover all three verdicts, so the gate and verdict
paths are pinned too. Every ``report.json`` and ``manifest.json`` must
also read back through a strict JSON parser.

The hashes belong to NumPy 2.4 on x86-64 Linux: another NumPy build may sum
or round in a different order and change the last digits of the CSVs. The
grid convolution is a BLAS matrix product, so the bytes of the runs that
convolve on a grid (Lax-Friedrichs, IMEX) also depend on the OpenBLAS kernel
NumPy picks for the CPU, as they did when ``np.convolve`` called ``ddot``.
"""

import hashlib
import json
import multiprocessing

import pytest

from nclaw import experiments as ex
from nclaw.records import emit_report

# (preset, scenario function, arguments, run directory, verdict, CSV count,
#  sha256 of report.json, sha256 of the sorted "path sha256" lines of the CSVs)
GOLDEN = [
    ("ce1", "counterexample_1", dict(n_particles=300, godunov_n=512),
     "ce1-a6e396ad9b3253ff", "PASS", 62,
     "007255b555c50d586a514b003376c29f890c321ad003c6a2c82f8e277ab6dac9",
     "067afe4fc313e4ab0105dfa03f524252b69ccc667c9d5213e721142e3233f5ae"),
    ("ce1_lax_friedrichs", "counterexample_1",
     dict(n_particles=300, godunov_n=512, solver="lax_friedrichs", gate=False),
     "ce1-020b2745f187133b", "FAIL", 62,
     "26c7f1bc13a0075c2d06e9130903234ef65cbc21b23e6990d899a88ec2c9a978",
     "a348592896d4461b1f9bcdf875a4cc912253b98ddb182e985c389dcc0b480899"),
    ("ce2", "counterexample_2", dict(n_particles=200, godunov_n=512),
     "ce2-42c3262a7a4a7ca9", "PASS", 137,
     "1483bee999cc2044d075b14374ea1b3e375d95da43b6a6bb59effcf15b78fa53",
     "43ca257e5ef7e1cb87b7aca9ebfb287450899b3c4ef59e785a11f33e4b9ab877"),
    ("ce3", "counterexample_3", dict(n_particles=200, godunov_n=512),
     "ce3-1d3ca951566f4874", "INCONCLUSIVE", 103,
     "d4b7d9c3a2bd72dd0fab7106d99216e268d9095e80aab34d08bf99d98f935a35",
     "8c378cede67f797bc379935c8ab1a0bd8aa0496ddf3650462ff32f4efebceb16"),
    ("rate", "singular_limit_rate", dict(eps_list=(0.4, 0.2), t_end=0.2),
     "rate-5d5d7e979357829b", "FAIL", 0,
     "8ae0392e995a0d9605c6353f7a9407ba7e5eeab706ae9bebbd637bc62acd2f6f",
     hashlib.sha256(b"").hexdigest()),
    ("visc", "vanishing_viscosity", dict(nu_list=(0.1, 0.03), t_end=0.1),
     "visc-15a01de0cf99a9dd", "FAIL", 0,
     "9b4f6b7779ef13a4f04e794063ad9919eccec338ad88af85d3628fc28d59b03d",
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


@pytest.mark.parametrize("fn_name, kwargs", [g[1:3] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_records_are_strict_json(tmp_path, fn_name, kwargs):
    # JSON has no NaN or Infinity: a strict reader must take every record
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    run_dir = emit_report(getattr(ex, fn_name)(**kwargs), tmp_path)["run_dir"]
    for name in ("report.json", "manifest.json"):
        json.loads((run_dir / name).read_text(), parse_constant=reject)
