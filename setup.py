import os

from setuptools import Extension, setup

KERNEL = "src/ponedge/_kernel/_ckernel"

# No -ffast-math: the compiled kernel must keep strict IEEE semantics so
# that it stays bit-identical with the pure-Python fallback.
COMPILE_ARGS = ["-O3"]

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

if cythonize is not None and os.path.exists(KERNEL + ".pyx"):
    ext_modules = cythonize(
        [Extension("ponedge._kernel._ckernel", [KERNEL + ".pyx"],
                   extra_compile_args=COMPILE_ARGS)],
        compiler_directives={"language_level": "3"},
    )
elif os.path.exists(KERNEL + ".c"):
    # without Cython, compile the generated C source shipped next to the .pyx
    ext_modules = [Extension("ponedge._kernel._ckernel", [KERNEL + ".c"],
                             extra_compile_args=COMPILE_ARGS)]
else:
    ext_modules = []

setup(ext_modules=ext_modules)
