"""Build the compiled kernels with nothing but a C compiler.

    python -m modsquares._kernels.build

Compiles `kernels.c` into a shared library next to it, which
`_ckernels` loads with ctypes.  `$CC` picks the compiler (default
`cc`).  `setup.py build_ext --inplace` builds the same file, with the
same machine code.  The new library replaces the old one by rename, so
a process that has the old one loaded keeps working.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

from . import LIBRARY

SOURCE = Path(__file__).with_name("kernels.c")
# setuptools compiles with Python's own CFLAGS, which carry -fwrapv; with
# it here too, this build and `setup.py build_ext` give the same machine code.
CFLAGS = ("-O3", "-fwrapv", "-Wall", "-Wextra", "-shared", "-fPIC")


def build(output: str | Path = LIBRARY) -> Path:
    """Compile SOURCE into `output`; raises CalledProcessError on failure."""
    output = Path(output)
    tmp = output.with_name(output.name + ".tmp")
    cc = shlex.split(os.environ.get("CC", "cc"))
    try:
        subprocess.run([*cc, *CFLAGS, "-o", str(tmp), str(SOURCE)], check=True)
        os.replace(tmp, output)
    finally:
        tmp.unlink(missing_ok=True)
    return output


if __name__ == "__main__":
    try:
        print(build())
    except (OSError, subprocess.CalledProcessError) as exc:
        sys.exit(f"could not build the compiled kernels: {exc}")
