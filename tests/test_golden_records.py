"""Golden run records: tiny presets of all five scenarios, pinned by bytes.

Each preset is emitted with ``emit_report`` and checked against the sha256
of its ``report.json`` and of every CSV it writes, plus the run-directory
name (the manifest hash): once with the gated runs pooled over two
processes, once with fork hidden, so that they all run in one. A refactor
of the solvers, the scenario layer or the records must leave every one of
these unchanged. The gate is on in every preset but ``ce1_no_gate``, and
the presets cover all three verdicts, so the gate and verdict paths are
pinned too. Every ``report.json`` and ``manifest.json`` must also read
back through a strict JSON parser.

The hashes belong to NumPy 2.4 on x86-64 Linux: another NumPy build may sum
or round in a different order and change the last digits of the CSVs. The
grid convolution is a BLAS matrix product, so the bytes of the runs that
convolve on a grid (Lax-Friedrichs, IMEX) also depend on the OpenBLAS kernel
NumPy picks for the CPU, as they did when ``np.convolve`` called ``ddot``.
``PINNED_BACKEND`` records the NumPy and BLAS build and the OpenBLAS kernel
the hashes were pinned on, read as the manifest reads them, and a hash that
differs on another backend says so.
"""

import hashlib
import json
import multiprocessing

import pytest

from nclaw import experiments as ex
from nclaw import records
from nclaw.records import emit_report

PINNED_BACKEND = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
                  "blas_core": "SkylakeX"}

# (preset, scenario function, arguments, run directory, verdict, CSV count,
#  sha256 of report.json, sha256 of the sorted "path sha256" lines of the CSVs)
GOLDEN = [
    ("ce1", "counterexample_1", dict(n_particles=300, godunov_n=512),
     "ce1-4fc80cad95a1a297", "PASS", 63,
     "f0413c63aeae29d20707470b712c3d637e2f7f9c35fd64350db2af39005189a0",
     "69a3a1b984e7694684fc7e96902ffd3fa898501cb0ca0b1d2816c3d1a04a7d73"),
    ("ce1_no_gate", "counterexample_1", dict(n_particles=300, godunov_n=512, gate=False),
     "ce1-130da4e6f506f372", "PASS", 63,
     "e043b5a2b446405982448f5ea98423e7a6c0d6d265577339985b9b383bc10fd0",
     "69a3a1b984e7694684fc7e96902ffd3fa898501cb0ca0b1d2816c3d1a04a7d73"),
    ("ce2", "counterexample_2", dict(n_particles=200, godunov_n=512),
     "ce2-42c3262a7a4a7ca9", "PASS", 137,
     "be11e5aa05292eb1f2aebbc168170263f5f7ed95b634bfa06beb00fb2246897c",
     "dee88fe479ce813d965160f0b623552aabff75efe7d4608eef48d11644cf8b70"),
    ("ce3", "counterexample_3", dict(n_particles=200, godunov_n=512),
     "ce3-1d3ca951566f4874", "INCONCLUSIVE", 103,
     "ff34e313a5c94dc5e2b2d24f8d272706cc5c8ca8f2e776375db12f5803a74756",
     "f20bd56fc5bb9e7d1c5339a5e57ce50872b4829c3b7bb5e893a6a7ba0f2b6869"),
    ("rate", "singular_limit_rate", dict(eps_list=(0.4, 0.2), t_end=0.2),
     "rate-5d5d7e979357829b", "FAIL", 0,
     "8ae0392e995a0d9605c6353f7a9407ba7e5eeab706ae9bebbd637bc62acd2f6f",
     hashlib.sha256(b"").hexdigest()),
    ("visc", "vanishing_viscosity", dict(nu_list=(0.1, 0.03), t_end=0.1),
     "visc-15a01de0cf99a9dd", "FAIL", 0,
     "08ae88b0b83110aa7bea082b18ce55e57e108348695d9da644cfbd86d233e444",
     hashlib.sha256(b"").hexdigest()),
]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _backend() -> dict:
    """The keys of the manifest's backend that the hashes may depend on."""
    backend = records._backend()
    return {key: backend[key] for key in PINNED_BACKEND}


def _backend_note(backend: dict) -> str:
    """Why a hash may differ on ``backend``: empty where it is the pinned one."""
    if backend == PINNED_BACKEND:
        return ""

    def named(b):
        return f"NumPy {b['numpy']} with {b['blas']} (kernel {b['blas_core']})"

    return (f"pinned on {named(PINNED_BACKEND)}, run on {named(backend)}: another "
            "backend may sum or round in another order")


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
    note = _backend_note(_backend())
    assert _sha256(run_dir / "report.json") == report_sha, note
    csvs = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*.csv"))
    assert len(csvs) == n_csv
    lines = "".join(f"{name} {_sha256(run_dir / name)}\n" for name in csvs)
    assert hashlib.sha256(lines.encode()).hexdigest() == csv_sha, note


def test_a_hash_on_another_backend_names_both_backends():
    assert _backend_note(PINNED_BACKEND) == ""
    for key, other in (("numpy", "2.0.0"), ("blas", "openblas 0.3.23"), ("blas_core", "Haswell")):
        note = _backend_note(dict(PINNED_BACKEND, **{key: other}))
        assert other in note and PINNED_BACKEND[key] in note


@pytest.mark.parametrize("fn_name, kwargs", [g[1:3] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_records_are_strict_json(tmp_path, fn_name, kwargs):
    # JSON has no NaN or Infinity: a strict reader must take every record
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    run_dir = emit_report(getattr(ex, fn_name)(**kwargs), tmp_path)["run_dir"]
    for name in ("report.json", "manifest.json"):
        json.loads((run_dir / name).read_text(), parse_constant=reject)
