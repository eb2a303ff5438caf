"""NumPy is the library's only runtime dependency.

SciPy is declared only as extras: ``lapack``, the diffusion solve's LAPACK
where NumPy bundles no OpenBLAS, and ``test``, where it serves as an oracle.
The records are hashed without loading OpenSSL.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nclaw

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(nclaw.__file__).resolve().parent


def _names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _names(project["dependencies"]) == {"numpy"}
    extras = project["optional-dependencies"]
    assert [extra for extra, reqs in extras.items() if "scipy" in _names(reqs)] == [
        "lapack", "test"]


def _outside_functions(node):
    """The nodes under ``node`` that run when its module is imported."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def test_module_level_imports_are_stdlib_numpy_or_relative():
    # an import inside a function (SciPy's LAPACK fallback, multiprocessing)
    # runs only when called; one at module level runs on every import of nclaw
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        for node in _outside_functions(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names or top == "numpy", (
                    f"{path.name}:{node.lineno} imports {top}")


_HASH_IN_A_FRESH_PROCESS = """
import json
import sys

import nclaw.cli
from nclaw.records import _source_digest, manifest_hash

digests = [manifest_hash({"b": [0.5, 1], "a": "x"}), _source_digest()]
print(json.dumps({"openssl": "_hashlib" in sys.modules, "digests": digests}))
"""


def test_records_are_hashed_without_loading_openssl():
    # CPython's own sha256 gives hashlib's digests without its OpenSSL
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = json.loads(subprocess.run([sys.executable, "-c", _HASH_IN_A_FRESH_PROCESS], env=env,
                                    capture_output=True, text=True, check=True).stdout)
    assert out["openssl"] is False
    source = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    assert out["digests"] == [hashlib.sha256(b'{"a":"x","b":[0.5,1]}').hexdigest()[:16],
                              source.hexdigest()]
