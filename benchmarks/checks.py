"""Output digests, reference comparison and the environment block."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Floats are compared with this relative/absolute tolerance; everything
# else (decisions, verdicts, plan and CSV bytes, counts) must match exactly.
RTOL = 1e-6
ATOL = 1e-9


def digest(*parts) -> str:
    """sha256 over the bytes of arrays, strings and bytes, in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(str(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(str(p).encode())
    return h.hexdigest()[:16]


def probe(x: np.ndarray) -> list[float]:
    """Three fixed random projections of a float array: a compact stand-in
    for the whole array that moves with any change to any element."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    rng = np.random.default_rng(flat.size)
    return [float(v) for v in rng.standard_normal((3, flat.size)) @ flat]


def bits(mask: np.ndarray) -> str:
    return "".join("1" if v else "0" for v in np.asarray(mask).ravel())


def compare(ref, got, path: str = "") -> list[str]:
    """Differences between a recorded reference and fresh values.

    `digest` entries are skipped: they pin exact bytes, which may move in
    the last bits on another CPU; `Runner` reports them as changed instead.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{path}: keys differ"]
        out = []
        for k in ref:
            if k != "digest":
                out += compare(ref[k], got[k], f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{path}: length differs"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, bool) or isinstance(got, bool) or \
                not np.isclose(got, ref, rtol=RTOL, atol=ATOL):
            return [f"{path}: {got!r} != reference {ref!r}"]
        return []
    return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, key: str):
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(key)


def store_reference(workload: str, key: str, values) -> None:
    path = reference_path(workload)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[key] = values
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def environment(blas_threads: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, AttributeError):  # NumPy without mode="dicts"
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(blas_threads),
    }
