"""Build and load the package's small C kernels (``**/*.c``) at first use.

Each kernel is one C file with one entry point, compiled by the image's own
``gcc`` into the user cache dir and bound through ``ctypes``. Every kernel
has a Python reference that produces the same bytes; when the build or load
fails, ``load_or_warn`` logs one WARNING and the caller runs the reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import threading

# -ffp-contract=off: no fused multiply-add, so floating-point kernels round
# every operation exactly as their numpy reference does
CFLAGS = ["-O2", "-shared", "-fPIC", "-ffp-contract=off"]


def compile_library(source: str) -> ctypes.CDLL:
    """Compile ``source`` once per (source, flags) hash into the user cache
    dir (``$XDG_CACHE_HOME`` or ``~/.cache``, under ``lk_data_test_ray/``)
    and load it. The library lands under its final name by ``os.replace``,
    so Ray workers building at the same time are safe."""
    with open(source, "rb") as f:
        digest = hashlib.sha256(
            f.read() + " ".join(CFLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME")
                         or os.path.expanduser("~/.cache"), "lk_data_test_ray")
    stem = os.path.splitext(os.path.basename(source))[0]
    lib = os.path.join(cache, f"{stem}-{digest}.so")
    if not os.path.exists(lib):
        os.makedirs(cache, exist_ok=True)
        tmp = f"{lib}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            subprocess.run(["gcc", *CFLAGS, "-o", tmp, source], check=True,
                           capture_output=True, text=True)
            os.replace(tmp, lib)
        except subprocess.CalledProcessError as ex:
            raise RuntimeError(f"gcc failed: {ex.stderr.strip()}") from ex
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return ctypes.CDLL(lib)


def load_or_warn(bind, fallback: str):
    """``bind()``'s result, or None after one WARNING naming ``fallback``
    (what runs instead) when the kernel cannot be built or loaded. Callers
    cache the result per process, so the WARNING is logged once."""
    try:
        return bind()
    except Exception as ex:
        logging.getLogger("lk_data_test_ray").warning(
            "%s: %s", fallback, ex)
        return None
