"""The C kernel is compiled on first use into the kernel cache, and reused after."""

import ctypes
import hashlib
import os
import re
import stat
import subprocess
import sys
import sysconfig
import tempfile

import pytest

from ponedge import _kernel
from ponedge._kernel import ckernel

from fresh_process import needs_compiler, path_finds_compiler, ponedge_env, run_cli, run_python

RESOLVE = "import ponedge; print(ponedge.resolve_backend())"
RUN_FLAGS = ["run", "--scenario", "aigc", "--topology", "baseline", "--cpu-mips", "700000",
             "--seed", "5", "--duration", "60"]


def cached_files(tmp_path) -> list[str]:
    return sorted(path.name for path in (tmp_path / "cache" / "ponedge").iterdir())


@needs_compiler
def test_cold_cache_builds_the_library_and_resolves_c(tmp_path):
    done = run_python(RESOLVE, ponedge_env(tmp_path))
    assert (done.stdout, done.stderr) == ("c\n", "")
    assert stat.S_IMODE((tmp_path / "cache" / "ponedge").stat().st_mode) == 0o700
    # named by the sha256 of the shipped kernel.c, the compiler argv and the
    # interpreter's extension suffix
    with open(_kernel.SOURCE, "rb") as fh:
        key = fh.read() + "\0".join(["", *_kernel.compiler_argv(),
                                     sysconfig.get_config_var("EXT_SUFFIX")]).encode()
    assert cached_files(tmp_path) == [f"kernel-{hashlib.sha256(key).hexdigest()[:16]}.so"]


@needs_compiler
@path_finds_compiler
def test_second_process_reuses_the_library_without_a_compiler(tmp_path):
    # the compiler runs at most once per cache: a process that cannot find
    # one still resolves c, from the library the first process built
    assert run_python(RESOLVE, ponedge_env(tmp_path)).stdout == "c\n"
    (library,) = (tmp_path / "cache" / "ponedge").iterdir()
    built = library.stat().st_mtime_ns
    done = run_python(RESOLVE, ponedge_env(tmp_path, compiler=False))
    assert (done.stdout, done.stderr) == ("c\n", "")
    assert library.stat().st_mtime_ns == built
    assert cached_files(tmp_path) == [library.name]


@path_finds_compiler
def test_failed_build_falls_back_in_one_line_and_c_exits_2(tmp_path):
    compiler = tmp_path / "bin" / _kernel.compiler_argv()[0]
    compiler.parent.mkdir()
    compiler.write_text("#!/bin/sh\necho 'kernel.c:1: error: no can do' >&2\nexit 1\n")
    compiler.chmod(0o755)
    argv = RUN_FLAGS + ["--out-dir", str(tmp_path / "out")]
    env = ponedge_env(tmp_path, compiler=False)
    env["PATH"] = str(compiler.parent)
    auto = run_cli(argv, env)
    assert auto.returncode == 0
    assert len(auto.stderr.splitlines()) == 1 and "pure-Python" in auto.stderr
    c = run_cli(argv, dict(env, PONEDGE_BACKEND="c"))
    assert c.returncode == 2
    assert "kernel.c:1: error: no can do" in c.stderr
    assert cached_files(tmp_path) == []  # no staging file is left behind


def test_python_backend_never_builds(tmp_path):
    done = run_cli(RUN_FLAGS + ["--out-dir", str(tmp_path / "out")],
                   ponedge_env(tmp_path, backend="python"))
    assert done.returncode == 0
    assert not (tmp_path / "cache").exists()


@needs_compiler
def test_concurrent_cold_cache_runs_agree(tmp_path):
    # two processes building into one cold cache at once both load a library
    # and write the same files
    env = ponedge_env(tmp_path, backend="c")
    procs = [subprocess.Popen([sys.executable, "-m", "ponedge.cli", *RUN_FLAGS,
                               "--out-dir", str(tmp_path / name),
                               "--trace", str(tmp_path / f"{name}.tsv")],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
             for name in ("a", "b")]
    errors = [proc.communicate(timeout=120)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], errors
    assert len(cached_files(tmp_path)) == 1
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
    files = {}
    for name in ("a", "b"):
        root = tmp_path / name
        files[name] = {path.relative_to(root): path.read_bytes()
                       for path in sorted(root.rglob("*")) if path.is_file()}
    assert len(files["a"]) == 3 and files["a"] == files["b"]


@needs_compiler
def test_tests_use_a_kernel_cache_of_their_own():
    # conftest points XDG_CACHE_HOME at a temporary directory of this session's own
    cache = os.environ["XDG_CACHE_HOME"]
    assert os.path.dirname(cache) == tempfile.gettempdir()
    assert os.path.basename(cache).startswith("ponedge-test-cache-")
    assert _kernel._library_path().startswith(os.path.join(cache, "ponedge", ""))


# the ctypes type of each C type a struct passed through ctypes declares
C_TYPES = {"int": ctypes.c_int, "long long": ctypes.c_longlong, "double": ctypes.c_double}


def c_struct_fields(struct: str) -> list[tuple[str, type]]:
    """The fields of `struct struct` in kernel.c, in order, each with its
    ctypes type: a pointer is a c_void_p, and a C string a c_char_p."""
    with open(_kernel.SOURCE) as fh:
        source = re.sub(r"/\*.*?\*/", "", fh.read(), flags=re.S)
    (body,) = re.findall(rf"\bstruct {struct} \{{(.*?)\}};", source, flags=re.S)
    fields = []
    for declaration in body.split(";")[:-1]:
        match = re.fullmatch(r"\s*(?:const\s+)?(\w+(?: \w+)*?)\s*(\*?)\s*(\w+)\s*",
                             declaration)
        assert match, declaration
        kind, pointer, name = match.groups()
        if pointer:
            fields.append((name, ctypes.c_char_p if kind == "char" else ctypes.c_void_p))
        else:
            fields.append((name, C_TYPES[kind]))
    return fields


@pytest.mark.parametrize("struct,twin", [("kernel_run", ckernel._Run),
                                         ("trace_text", ckernel._TraceText),
                                         ("tasks_text", ckernel._TasksText),
                                         ("arrivals", ckernel._Arrivals)])
def test_c_structs_match_their_ctypes_twins(struct, twin):
    # ctypes lays out _fields_ in order, so a field of another name, place or
    # type makes C read or write the wrong memory
    assert c_struct_fields(struct) == twin._fields_
