"""Build script for the optional compiled kernels.

    python setup.py build_ext --inplace

is the one build command (`pip install -e .` runs it too); `CC` and
`CFLAGS` choose the compiler and extra flags.  `kernels.c` is plain C
with no Python.h: it becomes a shared library that
`modsquares._kernels._ckernels` loads with ctypes, so setuptools only
drives the C compiler here.  The package works without the library (a
pure-Python fallback is selected at import time), so the extension is
`optional=True`: a failed compile is a warning, not a failed install.
"""

from setuptools import Extension, setup

# Builds `LIBRARY` of _kernels/__init__.py, which explains the name.
kernels = Extension(
    "modsquares._kernels.kernels",
    ["src/modsquares/_kernels/kernels.c"],
    extra_compile_args=["-O3", "-Wall", "-Wextra"],
    optional=True,
)

setup(ext_modules=[kernels])
