"""Build script for the optional compiled kernels.

`kernels.c` is plain C with no Python.h: it becomes a shared library
that `modsquares._kernels._ckernels` loads with ctypes.  setuptools
only drives the C compiler here (`python -m modsquares._kernels.build`
does the same with `cc` alone).  The package works without the library
(a pure-Python fallback is selected at import time), so a failed
compile downgrades to a warning instead of aborting the install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Give up on the library (with a warning) if the compile fails."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        warnings.warn(
            f"could not build the compiled kernels ({exc}); "
            "falling back to the pure-Python backend"
        )


# Builds `LIBRARY` of _kernels/__init__.py, which explains the name.
kernels = Extension(
    "modsquares._kernels.kernels",
    ["src/modsquares/_kernels/kernels.c"],
    extra_compile_args=["-O3", "-Wall", "-Wextra"],
)

setup(ext_modules=[kernels], cmdclass={"build_ext": optional_build_ext})
