"""Golden run records: tiny presets of all five scenarios, pinned by bytes.

Each preset is emitted with ``emit_report`` and checked against the sha256
of its ``report.json`` and of every CSV it writes, plus the run-directory
name (the manifest hash): once with the gated runs pooled over two
processes, once with fork hidden, so that they all run in one. A refactor
of the solvers, the scenario layer or the records must leave every one of
these unchanged. The gate is on in every preset but ``ce1_no_gate``, and
the presets cover all three verdicts, so the gate and verdict paths are
pinned too. Every ``report.json`` and ``manifest.json`` must also read
back through a strict JSON parser, and each headline number must have one
place in the record. The presets run three times in all: pooled, with
fork hidden, and in a process without SciPy.

The hashes belong to NumPy 2.4 on x86-64 Linux: another NumPy build may sum
or round in a different order and change the last digits of the CSVs. The
grid convolution is a BLAS matrix product, so the bytes of the runs that
convolve on a grid (Lax-Friedrichs, IMEX) also depend on the OpenBLAS kernel
NumPy picks for the CPU, as they did when ``np.convolve`` called ``ddot``.
The bytes of ``rate`` and ``visc`` also depend on the LAPACK their diffusion
solve calls (NumPy's OpenBLAS, or SciPy's where that is not found) and on
the C library's ``erf``, which ``math.erf`` calls from Python 3.11 on and
which builds their Gaussian datum. NumPy's own SIMD loops change the last
bits of ``np.exp`` and ``np.log`` with the CPU targets they dispatch to, so
the particle runs move with those. ``PINNED_BACKEND`` records the NumPy and
BLAS build, the OpenBLAS kernel, NumPy's enabled dispatch targets and the
LAPACK the hashes were pinned on, read as the manifest reads them, and a
hash that differs on another backend says so.
"""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nclaw import experiments as ex
from nclaw import records, viscous
from nclaw.cli import main
from nclaw.records import emit_report

PINNED_BACKEND = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
                  "blas_core": "SkylakeX", "cpu_dispatch": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
                  "lapack": "numpy-openblas"}

# (preset, scenario function, arguments, run directory, verdict, CSV count,
#  sha256 of report.json, sha256 of the sorted "path sha256" lines of the CSVs)
GOLDEN = [
    ("ce1", "counterexample_1", dict(n_particles=300, godunov_n=512),
     "ce1-4fc80cad95a1a297", "PASS", 56,
     "c48fcbeb0d92b54c5da2deaecc64ee1669a13d177d00302c4a0eaea96c0c090a",
     "ffda6c9b09361bb5465bf7dfac4b99a9e92edc9ecdcb36b2f6d525948ec38d86"),
    ("ce1_no_gate", "counterexample_1", dict(n_particles=300, godunov_n=512, gate=False),
     "ce1-130da4e6f506f372", "PASS", 56,
     "aeac4c22a4c7cc4b6d8f7f562b604e645717fac0549765338964f641d49630c6",
     "ffda6c9b09361bb5465bf7dfac4b99a9e92edc9ecdcb36b2f6d525948ec38d86"),
    ("ce2", "counterexample_2", dict(n_particles=200, godunov_n=512),
     "ce2-42c3262a7a4a7ca9", "PASS", 105,
     "727506f017f345e9da1b2cedf008a2bc14c3e76fdb78824e982738eb603e5455",
     "8b9d2ae86d5e43f38f7dc4740b5a3da6b02d208b5227309375f9ec4f9cbd2a27"),
    ("ce3", "counterexample_3", dict(n_particles=200, godunov_n=512),
     "ce3-1d3ca951566f4874", "INCONCLUSIVE", 81,
     "102193cfc574716e05c8ed28da32a6e6a1473f499dd3ea700377f0c4c94d5eb4",
     "517f0a4901e246f3a4e16cba578a577ceb2370275fd88ccb0e964af3d6183413"),
    ("rate", "singular_limit_rate", dict(eps_list=(0.4, 0.2), t_end=0.2),
     "rate-5d5d7e979357829b", "FAIL", 0,
     "25d3819206a6e1254e07537958753404ba37690506ba9bf382d67f4f3dcd4b9b",
     hashlib.sha256(b"").hexdigest()),
    ("visc", "vanishing_viscosity", dict(nu_list=(0.1, 0.03), t_end=0.1),
     "visc-15a01de0cf99a9dd", "FAIL", 0,
     "4dbe051fad23aeed8a04a621d00b5e695bde8e65abb870ab3ba19190bb8bc28c",
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
        return (f"NumPy {b['numpy']} (dispatch {b['cpu_dispatch']}) with {b['blas']} "
                f"(kernel {b['blas_core']}, LAPACK from {b['lapack']})")

    return (f"pinned on {named(PINNED_BACKEND)}, run on {named(backend)}: another "
            "backend may sum or round in another order")


pinned = pytest.mark.parametrize(
    "fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha",
    [g[1:] for g in GOLDEN],
    ids=[g[0] for g in GOLDEN],
)


@pinned
def test_record_bytes_pinned(
    monkeypatch, tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha
):
    # a check's number is recorded on the check, with its provenance the
    # manifest's entry for its name; every other headline number in numbers
    main = {}
    scenario = ex._scenario

    def spy(name, params, runs, headline, judge):
        def recorded(r, k):
            out = headline(r, k)
            if k == 1:
                main.update(out)
            return out

        return scenario(name, params, runs, recorded, judge)

    monkeypatch.setattr(ex, "_scenario", spy)
    report = _check(tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha)
    names = {c.name for c in report.checks}
    assert main and names <= set(main) and names <= set(report.manifest.provenance)
    assert all(report.manifest.provenance[c.name] == c.provenance for c in report.checks)
    assert not names & set(report.numbers)
    assert all((key in names) != (key in report.numbers) for key in main)


@pinned
def test_record_bytes_pinned_without_fork(
    monkeypatch, tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha
):
    # where the platform cannot fork, the gated runs go one after the other
    # in this process, and the records must not move
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _check(tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha)


def _check(tmp_path, fn_name, kwargs, run_dir_name, verdict, n_csv, report_sha, csv_sha):
    """Run a preset, check its verdict, run directory and pinned bytes, and
    that its report.json and manifest.json read back as strict JSON (JSON
    has no NaN or Infinity); return its report."""

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = getattr(ex, fn_name)(**kwargs)
    assert report.verdict == verdict
    run_dir = emit_report(report, tmp_path)["run_dir"]
    assert run_dir.name == run_dir_name
    _check_bytes(run_dir, n_csv, report_sha, csv_sha)
    for name in ("report.json", "manifest.json"):
        json.loads((run_dir / name).read_text(), parse_constant=reject)
    return report


def _check_bytes(run_dir, n_csv, report_sha, csv_sha):
    """The pinned sha256 of a run directory's report.json and of its CSVs."""
    note = _backend_note(_backend())
    assert _sha256(run_dir / "report.json") == report_sha, note
    csvs = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*.csv"))
    assert len(csvs) == n_csv
    lines = "".join(f"{name} {_sha256(run_dir / name)}\n" for name in csvs)
    assert hashlib.sha256(lines.encode()).hexdigest() == csv_sha, note


_WITHOUT_SCIPY = """
import ast
import sys

sys.modules["scipy"] = None  # every import of SciPy fails from here on
from nclaw import cli, experiments as ex
from nclaw.kernels import HeatKernelSpec, heat_kernel_grad_lq_norm, heat_kernel_l1_norm
from nclaw.records import emit_report

out = sys.argv[1]
for fn_name, kwargs in ast.literal_eval(sys.argv[2]):
    emit_report(getattr(ex, fn_name)(**kwargs), out)
for d in (1, 2, 3):
    spec = HeatKernelSpec(nu=0.7, dim=d)
    assert abs(heat_kernel_l1_norm(spec, 0.5) - 1.0) <= 1e-8
    assert heat_kernel_grad_lq_norm(spec, 0.5, 1.5) > 0.0
assert cli.main(["--out", out, "oracle"]) == 0
"""


def test_records_hold_without_scipy(tmp_path):
    # NumPy is the only runtime dependency: in a process where SciPy cannot
    # be imported, every golden preset writes its pinned bytes, and the
    # heat-kernel norms and the oracle run
    if viscous._lapack() is viscous._scipy_factor:
        pytest.skip("NumPy's bundled OpenBLAS is not loaded here: SciPy's LAPACK runs")
    env = dict(os.environ, PYTHONPATH=str(Path(records.__file__).resolve().parents[1]))
    presets = repr([g[1:3] for g in GOLDEN])
    subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "bare"), presets],
                   env=env, cwd=tmp_path, check=True)
    for _, _, _, run_dir_name, _, n_csv, report_sha, csv_sha in GOLDEN:
        _check_bytes(tmp_path / "bare" / run_dir_name, n_csv, report_sha, csv_sha)
    assert main(["--out", str(tmp_path / "here"), "oracle"]) == 0
    (oracle,) = (tmp_path / "here").iterdir()
    assert (tmp_path / "bare" / oracle.name).read_bytes() == oracle.read_bytes()


def test_a_hash_on_another_backend_names_both_backends():
    assert _backend_note(PINNED_BACKEND) == ""
    for key, other in (("numpy", "2.0.0"), ("blas", "openblas 0.3.23"), ("blas_core", "Haswell"),
                       ("cpu_dispatch", "AVX512F AVX512_SKX"), ("lapack", "scipy")):
        note = _backend_note(dict(PINNED_BACKEND, **{key: other}))
        assert other in note and PINNED_BACKEND[key] in note
