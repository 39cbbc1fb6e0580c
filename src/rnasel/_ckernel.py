"""The compiled library (``_anneal.c``): build, cache, load and bind.

It holds four things. ``anneal_chain`` runs every temperature step of one
chain of swap moves in one call, exactly as the Python reference
``_kernels.anneal_chain`` does, and gives the same bits: the same
floating-point operations in the same order, libm's ``exp`` and ``sqrt``,
and the chain's own PCG64 stream, read through numpy's public ``bitgen_t``
interface with ``Generator.integers``' bounded-draw rule. ``parse_rows``
reads the well-formed rows of an expression matrix and converts each number
to the nearest double, as Python's ``float()`` does: by the Eisel-Lemire
algorithm (Lemire, "Number Parsing at a Gigabyte per Second", 2021) with the
table ``powers_of_five``, and with the C library's ``strtod`` for the few
numbers it leaves (more than 19 significant digits, a subnormal or infinite
result, an exponent outside the table, or a rounding it cannot decide).
``ingest.load_matrix`` reads every other file in Python. ``format_rows``
writes the rows of a table for ``ingest.write_table``, each number as the
bytes of Python's ``"%.17g" % x``: its 17 digits are ``round(|x| * 10**(16 -
k))``, with ``k = floor(log10(|x|))``, from one product with the same table,
and ``snprintf`` writes subnormal numbers, those under about 1e-292, and
those whose product lies within 2 units of its last place of a rounding tie.
``format_trace`` writes the rows of ``trace.csv`` for
``AnnealTrace.to_csv``, each float as the bytes of ``repr(x)``: the shortest
digits that read back to x, the nearest to x of those. A decimal of at most
15 significant digits survives a round trip through a double, so the
correctly rounded 15 digits, their trailing zeros dropped, are repr's when
they read back to x (by the same Eisel-Lemire converter); else the
correctly rounded 16 digits when they read back; else the 17 of
``format_rows``. It declines a block, which Python then writes, that holds
a subnormal, an infinity, a NaN, a number under about 1e-292, a rounding
within 2 units of a tie, a reading back the converter cannot decide, or a
power of two whose nearest 16-digit decimal does not read back (its lower
neighbour is nearer than its upper one, so repr may take a decimal above
it). ctypes releases the GIL for every call.

On first use the source is compiled with the system C compiler and the
library is cached per user under ``$XDG_CACHE_HOME/rnasel`` (else
``~/.cache/rnasel``, else a private per-user temporary directory), keyed by
a hash of the source, the flags and the machine type. If no compiler is
found, the build fails, the library will not load, its bounded draw
disagrees with ``Generator.integers``, its parser converts one of
``PROBE_NUMBERS`` to other bits than ``float()``, its table writer writes one
of ``PROBE_FLOATS`` unlike ``"%.17g" %``, or its trace writer writes one of
``PROBE_REPRS`` unlike ``repr`` (a broken branch or table entry, a libc that
misrounds, or a locale whose decimal point is not '.'), ``load`` warns once
and returns None, and rnasel anneals, parses and writes tables and traces
in Python instead: slower, never a different answer.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
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
    """The C library is unavailable; annealing, matrix parsing and table and trace writing run in Python."""


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


# Decimal strings that are hard to round correctly, and at least one for each
# branch of the C converter: exact halfway points (ties to even at 10^-1,
# 10^0, 10^1 and 10^23) and their neighbours, a near-halfway point that only
# the table's low word decides, results that round up to a power of two, the
# boundary between subnormal and normal numbers, the halfway point under the
# smallest subnormal, mantissas of 20 and more digits, and numbers that
# overflow or underflow.
PROBE_NUMBERS = (
    "0.1", "-0", "+.5", "5.", "1E+2", "1e23", "8.589973e9", "7.038531e-26",
    "9007199254740993", "9007199254740995", "123456789012345678e-30",
    "4503599627370496.5", "1801439850948201e1", "3.1336504494449907e-198",
    "0.99999999999999999", "98765432109876543219", "1.8e308",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "1234567890123456789012345678901234567890",
    "0.1000000000000000055511151231257827021181583404541015625",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
    "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", "1.7976931348623158e308", "1e-400", "1e400",
)


# Doubles for each branch of the C formatter: zeros, the fixed and exponent
# layouts either side of 1e-4, 1e16 and 1e17, k found one too low from the
# binary exponent (0.1, 1e-4, 1e17, 1.2e17), a rounding that carries into an
# 18th digit (1e-14 and 1e153 are just under their powers of ten), a rounding
# that only the table's low word decides (1.085274943667478e97), exact ties to
# even, 3-digit exponents, subnormals and |x| < 1e-292 (snprintf), infinities
# and a NaN with its sign bit set.
PROBE_FLOATS = (
    0.0, -0.0, 0.1, -1.5, 123.0, 0.0001, 9.9999999999999991e-05, 1e-05, 1e16, 99999999999999999.0,
    1.2e17, 1e-14, 1e153, 1.085274943667478e97, 2**-25, 3 * 2**-25, 1.7976931348623157e308, 5e-324,
    2.2250738585072009e-308, 1e-300, 1e-292, math.inf, -math.inf, -math.nan,
)


# Doubles for each branch of the C trace writer, whose digits are repr's:
# zeros; 15 digits or fewer (0.5, 1.23456789012345), with a sign, with ".0"
# in fixed form up to 1e15, either side of the fixed layout's ends 1e-4 and
# 1e16, and rounded up into a 16th digit (1e23 is just under its power of
# ten); 16 digits, also at a power of two (2**-60); 17 digits, also with
# 3-digit exponents; and what it declines: the largest double (its 15 digits
# read back as inf, which the converter leaves), a power of two whose nearest
# 16-digit decimal does not read back (2**-957), a 16-digit tie, a number
# under 1e-292, a subnormal, infinities and a NaN.
PROBE_REPRS = (
    0.0, -0.0, 0.5, 1.23456789012345, -1.5, 123.0, 1e15, 0.0001, 1e-05, 1e16, 1e23, 2 / 3, 2**-60, 0.30000000000000004,
    3.3333333333333335e299, -2.3333333333333334e-200, 1.7976931348623157e308, 2**-957, 292584158624471.75,
    1e-300, 5e-324, math.inf, -math.inf, math.nan,
)


def _probe(lib) -> None:
    """Check the C bounded draw against Generator.integers on a short stream,
    the C parser against float() on ``PROBE_NUMBERS``, bit for bit, the C
    formatter against ``"%.17g" %`` on ``PROBE_FLOATS`` and the C trace writer
    against ``repr`` on each of ``PROBE_REPRS`` it writes, byte for byte."""
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
    numbers = "\t".join(PROBE_NUMBERS).encode()
    row = bytearray(b"probe\t" + numbers + b"\n")
    got = np.empty((1, len(PROBE_NUMBERS)))
    if parse_rows(lib, row, 0, len(row), "\t", got, np.empty((1, 2), np.int64), len(row))[1] != len(row):
        raise _Unavailable(f"C parser rejected the row {bytes(row)!r}")
    want = np.array([float(text) for text in PROBE_NUMBERS])
    for text, mine, ref in zip(PROBE_NUMBERS, got[0], want):
        if mine.tobytes() != ref.tobytes():
            raise _Unavailable(f"C parser read {text!r} as {float(mine)!r}, float() as {float(ref)!r}")
    got = bytes(next(format_rows(lib, np.array([PROBE_FLOATS]), "\t"))).decode("ascii", "replace")
    want = "".join("\t" + "%.17g" % x for x in PROBE_FLOATS) + "\n"
    for x, mine, ref in zip(PROBE_FLOATS, got.split("\t")[1:], want.split("\t")[1:]):
        if mine != ref:
            raise _Unavailable(f"C formatter wrote {x!r} as {mine.strip()!r}, not {ref.strip()!r}")
    if got != want:
        raise _Unavailable(f"C formatter wrote {got!r}, not {want!r}")
    for count, x in enumerate(PROBE_REPRS):
        column = np.array([x])
        got = next(format_trace(lib, column, column, column, np.array([count])))
        want = f"0,{x!r},{x!r},{x!r},{count}\n"
        if got is not None and bytes(got) != want.encode():
            raise _Unavailable(f"C trace writer wrote {bytes(got).decode('ascii', 'replace')!r}, not {want!r}")


def _bind(lib):
    """Declare the argument and result types of ``lib``'s functions; return it."""
    lib.rnasel_bounded.argtypes = (ctypes.c_void_p, ctypes.c_int64)
    lib.rnasel_bounded.restype = ctypes.c_int64
    lib.rnasel_anneal_chain.argtypes = (
        ctypes.POINTER(Chain), ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.rnasel_anneal_chain.restype = None
    lib.rnasel_parse_rows.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64),
    )
    lib.rnasel_parse_rows.restype = ctypes.c_int64
    lib.rnasel_format_row.argtypes = (
        ctypes.c_void_p, ctypes.c_int64, ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.rnasel_format_row.restype = ctypes.c_int64
    lib.rnasel_format_trace.argtypes = (
        ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p,
    )
    lib.rnasel_format_trace.restype = ctypes.c_int64
    return lib


@functools.cache
def _load_once():
    try:
        lib = _bind(ctypes.CDLL(str(_build(cache_dir()))))
        _probe(lib)
    except (_Unavailable, OSError, AttributeError, subprocess.TimeoutExpired) as exc:
        warnings.warn(
            f"C library unavailable ({exc}); annealing, matrix parsing and table and trace writing run the"
            " slower Python code",
            KernelFallbackWarning,
        )
        return None
    return lib


_load_lock = threading.Lock()


def load():
    """The loaded library, or None after a single warning."""
    with _load_lock:
        return _load_once()


def _address(array: np.ndarray, dtype) -> int:
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"kernel array must be C-contiguous {np.dtype(dtype)}")
    return array.ctypes.data


def anneal_chain(state, best_sel, rng, temperatures, swaps, cur_u, cur_out, best_out, accepted_out):
    """Every temperature step of one chain in C, with the contract and the
    bits of ``_kernels.anneal_chain``: updates ``state`` and ``best_sel`` in
    place and fills the caller's ``cur_out``, ``best_out`` and
    ``accepted_out`` in place, one entry per step. ``temperatures`` and the
    outputs are C-contiguous float64 arrays (int64 for ``accepted_out``).

    Returns True, or None if the kernel is unavailable.
    """
    context, pair = state.context, state.pair
    if context.n_features > MAX_BOUND:
        return None
    lib = load()
    if lib is None:
        return None
    f64, i64 = np.float64, np.int64
    steps = len(temperatures)
    if any(out.shape != (steps,) for out in (cur_out, best_out, accepted_out)):
        raise ValueError(f"kernel outputs must have shape ({steps},)")
    g, p = context.n_treated, len(pair.iu)
    scratch = [np.empty(size) for size in (g, g, p, g, g)]  # t_s1, t_s2, t_cp, m, v
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
            _address(temperatures, f64), steps, swaps,
            _address(cur_out, f64), _address(best_out, f64), _address(accepted_out, i64),
        )
    state.norm_sum = chain.norm_sum
    return True


@functools.cache
def powers_of_five() -> np.ndarray:
    """The table of ``eisel_lemire`` in ``_anneal.c``: 5**q for q in [-342, 308]
    as read-only (high, low) ``uint64`` word pairs of a 128-bit number.

    For q >= 0 it is the top 128 bits of 5**q, truncated. For q < 0 it is
    ``2**b // 5**-q + 1`` with ``z = ceil(log2(5**-q))`` and ``b = z + 127``
    (q >= -27) or ``b = 2z + 128`` (q < -27), cut to its top 128 bits.
    """
    rows = []
    for q in range(-342, 309):
        power = 5 ** abs(q)
        if q >= 0:
            shift = 128 - power.bit_length()
            entry = power << shift if shift >= 0 else power >> -shift
        else:
            z = power.bit_length()  # = ceil(log2(power)): a power of 5 is no power of 2
            entry = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // power + 1
            entry >>= max(entry.bit_length() - 128, 0)
        rows.append((entry >> 64, entry & (2**64 - 1)))
    table = np.array(rows, dtype=np.uint64)
    table.setflags(write=False)
    return table


def parse_rows(
    lib, block: bytearray, start: int, stop: int, delim: str, values: np.ndarray, spans: np.ndarray,
    max_field: int,
) -> tuple[int, int]:
    """Parse the rows of ``block[start:stop]`` in C, at most ``len(values)``:
    row r's numbers go to ``values[r]``, a C-contiguous ``(rows, width)``
    float64 array, and its id's ``[start, end)`` offsets into ``block`` to
    ``spans[r]``, a C-contiguous ``(rows, 2)`` int64 array.

    Each row is an id, then ``width`` fields of ``delim`` and a number of the
    form ``[+-]?(digits[.digits*]|.digits)([eE][+-]?digits)?``, then ``\\n`` or
    ``\\r\\n``; the id holds no delimiter, quote, NUL or line break, and no field
    is longer than ``max_field`` bytes. Each number gets ``float()``'s bits,
    from the Eisel-Lemire converter with ``powers_of_five()`` or, in the cases
    the module docstring lists, from ``strtod``. Parsing stops at ``stop``,
    after ``len(values)`` rows, or at the first row not of that form.

    Returns ``(rows, consumed)``: how many rows were parsed and how many bytes
    from ``start`` they take, so ``block[start:stop]`` is all rows of that form
    exactly when ``consumed == stop - start``. A row takes at least ``2 *
    width + 1`` bytes (an empty id and a one-digit number per field), so
    ``(stop - start) // (2 * width + 1)`` rows of ``values`` hold any block.
    ``values[rows]`` may hold part of the row that stopped the parse.
    """
    if not 0 <= start <= stop <= len(block):
        raise ValueError(f"rows [{start}, {stop}) outside a block of {len(block)} bytes")
    if values.ndim != 2 or spans.shape != (len(values), 2):
        raise ValueError(f"values of shape {values.shape} and spans of shape {spans.shape} do not match")
    consumed = ctypes.c_int64()
    rows = lib.rnasel_parse_rows(
        ctypes.addressof(ctypes.c_char.from_buffer(block)) + start, stop - start, ord(delim), values.shape[1],
        max_field, len(values), powers_of_five().ctypes.data, _address(values, np.float64),
        _address(spans, np.int64), ctypes.byref(consumed),
    )
    spans[:rows] += start
    return rows, consumed.value


# Bytes rnasel_format_row writes at most per number (FORMAT_BYTES in
# _anneal.c): the delimiter and the longest "%.17g" of a double,
# "-d.<16 digits>e-ddd".
FORMAT_BYTES = 25


def format_rows(lib, values: np.ndarray, delim: str):
    """Yield each row of the 2-D ``values`` written in C: each number as
    ``delim`` and then the bytes of ``"%.17g" % x``, and then ``"\\n"``.

    One call per row, into one buffer that every row reuses: a yielded
    memoryview is valid until the next row is asked for. Each number is
    written from one product with ``powers_of_five()``, or, in the cases the
    module docstring lists, by ``snprintf``. ``delim`` must be one ASCII
    character; ``values`` is copied first only if it is not C-contiguous
    ``float64``.
    """
    if len(delim) != 1 or not delim.isascii():
        raise ValueError(f"delimiter must be one ASCII character, got {delim!r}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, width = values.shape
    out = bytearray(FORMAT_BYTES * width + 1)
    view = memoryview(out)
    address, out_address = values.ctypes.data, ctypes.addressof(ctypes.c_char.from_buffer(out))
    pow5 = powers_of_five().ctypes.data
    for r in range(rows):
        yield view[:lib.rnasel_format_row(address + 8 * width * r, width, ord(delim), pow5, out_address)]


# Rows of trace.csv per rnasel_format_trace call, and the bytes it writes at
# most per row (TRACE_ROW_BYTES in _anneal.c): a 20-byte step and count,
# three of the longest repr of a double, "-d.<16 digits>e-ddd", four commas
# and "\n".
TRACE_BLOCK = 1000
TRACE_ROW_BYTES = 2 * 20 + 3 * (FORMAT_BYTES - 1) + 5


def format_trace(lib, temperature, current_u, best_u, accepted):
    """Yield the rows of ``trace.csv`` written in C, ``TRACE_BLOCK`` to a
    block: row k is ``f"{k},{temperature[k]!r},{current_u[k]!r},{best_u[k]!r},
    {accepted[k]}\\n"``. A block is None where the writer declines one of its
    numbers (the cases the module docstring lists).

    One call per block, into one buffer that every block reuses: a yielded
    memoryview is valid until the next block is asked for. The columns are
    copied first only if they are not C-contiguous ``float64`` (``int64`` for
    ``accepted``).
    """
    columns = [
        np.ascontiguousarray(column, dtype)
        for column, dtype in zip((temperature, current_u, best_u, accepted), (np.float64,) * 3 + (np.int64,))
    ]
    steps = len(columns[0])
    if any(column.shape != (steps,) for column in columns):
        raise ValueError(f"trace columns of shapes {[column.shape for column in columns]} do not match")
    if steps == 0:
        return
    out = bytearray(TRACE_ROW_BYTES * min(steps, TRACE_BLOCK))
    view = memoryview(out)
    out_address = ctypes.addressof(ctypes.c_char.from_buffer(out))
    pow5 = powers_of_five().ctypes.data
    for start in range(0, steps, TRACE_BLOCK):
        rows = min(TRACE_BLOCK, steps - start)
        size = lib.rnasel_format_trace(
            start, rows, *(column.ctypes.data + column.itemsize * start for column in columns), pow5, out_address
        )
        yield None if size < 0 else view[:size]
