"""Every C kernel in the package compiles warning-free."""

import glob
import os
import shutil
import subprocess

import pytest

import lk_data_test_ray

SOURCES = sorted(glob.glob(os.path.join(
    os.path.dirname(lk_data_test_ray.__file__), "**", "*.c"), recursive=True))


def test_kernels_are_found():
    assert {os.path.basename(s) for s in SOURCES} >= {"c6scan.c",
                                                      "tdcompress.c"}


@pytest.mark.parametrize("source", SOURCES, ids=os.path.basename)
def test_kernel_compiles_clean(source):
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    r = subprocess.run(["gcc", "-Wall", "-Wextra", "-Werror",
                        "-fsyntax-only", source],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
