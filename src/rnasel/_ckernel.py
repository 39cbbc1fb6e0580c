"""The C swap kernel (``_anneal.c``): build, cache, load and bind.

The kernel runs every temperature step of one chain of swap moves in one
call, exactly as the Python reference ``_kernels.anneal_chain`` does, and
gives the same bits: the same floating-point operations in the same order,
libm's ``exp`` and ``sqrt``, and the chain's own PCG64 stream, read through
numpy's public ``bitgen_t`` interface with ``Generator.integers``'
bounded-draw rule. ctypes releases the GIL for the call.

On first use the source is compiled with the system C compiler and the
library is cached per user under ``$XDG_CACHE_HOME/rnasel`` (else
``~/.cache/rnasel``, else a private per-user temporary directory), keyed by
a hash of the source, the flags and the machine type. If no compiler is
found, the build fails, the library will not load, or its bounded draw
disagrees with ``Generator.integers``, ``load`` warns once and returns None,
and the annealer runs the Python reference instead: slower, never a
different answer.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from ._kernels import REL_VAR_EPS

SOURCE = Path(__file__).with_name("_anneal.c")
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# rnasel_bounded takes bounds up to 2**32 (numpy's 32-bit Lemire branch)
MAX_BOUND = 2**32


class KernelFallbackWarning(RuntimeWarning):
    """The C kernel is unavailable; annealing runs the Python reference."""


class _Unavailable(Exception):
    pass


class Chain(ctypes.Structure):
    """Mirror of ``chain_t`` in ``_anneal.c``."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "ratios", "norms", "iu", "ju", "w", "sel", "comp", "best_sel",
            "s1", "s2", "cp", "t_s1", "t_s2", "t_cp", "m", "v",
        )
    ] + [(name, ctypes.c_int64) for name in ("g", "p", "n", "n_comp")] + [
        (name, ctypes.c_double)
        for name in (
            "max_norm", "alpha", "count_pos", "rel_var_eps", "norm_sum", "cur_u", "best_u",
        )
    ]


def find_compiler() -> str | None:
    """Path of the C compiler the loader builds with, or None."""
    return shutil.which("cc")


def cache_dir() -> Path:
    """Per-user directory that holds built libraries."""
    try:
        xdg = os.environ.get("XDG_CACHE_HOME")
        path = (Path(xdg) if xdg else Path.home() / ".cache") / "rnasel"
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        pass
    path = Path(tempfile.gettempdir()) / f"rnasel-{os.getuid()}"
    path.mkdir(mode=0o700, exist_ok=True)
    # the temporary directory is shared: load only from one that we own and
    # that nobody else can write to
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise _Unavailable(f"{path} is not a private directory")
    return path


def _build(cache: Path) -> Path:
    source = SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, " ".join(FLAGS).encode(), platform.machine().encode()]))
    target = cache / f"anneal-{key.hexdigest()[:16]}.so"
    if target.exists():
        return target
    compiler = find_compiler()
    if compiler is None:
        raise _Unavailable("no C compiler (cc) on PATH")
    fd, tmp = tempfile.mkstemp(dir=cache, prefix=target.name, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise _Unavailable(f"{compiler} failed: {proc.stderr.strip()}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _probe(lib) -> None:
    """Check the C bounded draw against Generator.integers on a short stream."""
    bounds = (1, 2, 3, 7, 10, 1000, 2**31 + 1, 2**32 - 1, 2**32) * 8
    mine, ref = np.random.default_rng(20210105), np.random.default_rng(20210105)
    bitgen = mine.bit_generator.ctypes.bit_generator
    for k, interleave in zip(bounds, [False, True] * len(bounds)):
        got, want = lib.rnasel_bounded(bitgen, k), int(ref.integers(0, k))
        if got != want:
            raise _Unavailable(f"C bounded draw gave {got} where Generator.integers(0, {k}) gave {want}")
        if interleave:
            mine.random()
            ref.random()
    if mine.bit_generator.state != ref.bit_generator.state:
        raise _Unavailable("C bounded draws left the generator in a different state")


@functools.cache
def _load_once():
    try:
        lib = ctypes.CDLL(str(_build(cache_dir())))
        lib.rnasel_bounded.argtypes = (ctypes.c_void_p, ctypes.c_int64)
        lib.rnasel_bounded.restype = ctypes.c_int64
        lib.rnasel_anneal_chain.argtypes = (
            ctypes.POINTER(Chain), ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        )
        lib.rnasel_anneal_chain.restype = None
        _probe(lib)
    except (_Unavailable, OSError, AttributeError, subprocess.TimeoutExpired) as exc:
        warnings.warn(
            f"C swap kernel unavailable ({exc}); annealing runs the slower Python kernel",
            KernelFallbackWarning,
        )
        return None
    return lib


_load_lock = threading.Lock()


def load():
    """The loaded kernel library, or None after a single warning."""
    with _load_lock:
        return _load_once()


def _address(array: np.ndarray, dtype) -> int:
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"kernel array must be C-contiguous {np.dtype(dtype)}")
    return array.ctypes.data


def anneal_chain(
    state, best_sel: np.ndarray, rng: np.random.Generator, temperatures, swaps: int, cur_u: float
):
    """Every temperature step of one chain in C, as ``_kernels.anneal_chain``.

    Updates ``state`` and ``best_sel`` in place and returns the per-step
    arrays (cur_u, best_u, accepted), or None if the kernel is unavailable.
    """
    context, pair = state.context, state.pair
    if context.n_features > MAX_BOUND:
        return None
    lib = load()
    if lib is None:
        return None
    f64, i64 = np.float64, np.int64
    g, p = context.n_treated, len(pair.iu)
    scratch = [np.empty(size) for size in (g, g, p, g, g)]  # t_s1, t_s2, t_cp, m, v
    temperatures = np.array(temperatures, dtype=f64)
    steps = len(temperatures)
    cur_trace, best_trace, accepted_trace = np.empty(steps), np.empty(steps), np.empty(steps, dtype=i64)
    chain = Chain(
        _address(context.ratios, f64), _address(context.norms, f64),
        _address(pair.iu, i64), _address(pair.ju, i64), _address(pair.w, f64),
        _address(state.sel, i64), _address(state.comp, i64), _address(best_sel, i64),
        _address(state.s1, f64), _address(state.s2, f64), _address(state.cp, f64),
        *(array.ctypes.data for array in scratch),
        g, p, state.n, state.comp.size,
        context.max_norm, state.alpha, pair.count_positive, REL_VAR_EPS,
        state.norm_sum, cur_u, cur_u,
    )
    with rng.bit_generator.lock:
        lib.rnasel_anneal_chain(
            ctypes.byref(chain), rng.bit_generator.ctypes.bit_generator,
            temperatures.ctypes.data, steps, swaps,
            cur_trace.ctypes.data, best_trace.ctypes.data, accepted_trace.ctypes.data,
        )
    state.norm_sum = chain.norm_sum
    return cur_trace, best_trace, accepted_trace
