from setuptools import Extension, setup

# kernel.c uses no CPython API: it is built as a plain shared library, named
# like an extension module so that it lands next to pykernel.py, and loaded
# through ctypes. No -ffast-math, and no fused multiply-adds: the C kernel
# must keep strict IEEE semantics to stay bit-identical with pykernel.
KERNEL = Extension("ponedge._kernel.kernel", ["src/ponedge/_kernel/kernel.c"],
                   extra_compile_args=["-O3", "-ffp-contract=off"])

setup(ext_modules=[KERNEL])
