import ctypes
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rnasel import _ckernel
from rnasel.annealer import AnnealSchedule, AnnealTrace, run
from rnasel.model import Selection
from rnasel.objective import ObjectiveParams

from conftest import adversarial_floats, all_ones_weights, random_context, trace_columns

SRC = Path(_ckernel.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
needs_compiler = pytest.mark.skipif(_ckernel.find_compiler() is None, reason="no C compiler for the swap kernel")


@pytest.fixture
def fresh_loader():
    """Forget the loaded library before and after the test."""
    _ckernel._load_once.cache_clear()
    yield
    _ckernel._load_once.cache_clear()


def problem():
    ctx = random_context(np.random.default_rng(3), 14, 6)
    params = ObjectiveParams(alpha=0.2, n=5, weights=all_ones_weights(ctx))
    schedule = AnnealSchedule(t_init=1.0, t_final=1e-3, gamma=0.9, swaps_per_temperature=12, seed=4, restarts=2)
    return ctx, params, schedule


def test_failed_load_warns_and_falls_back_to_same_results(fresh_loader, monkeypatch, tmp_path):
    ctx, params, schedule = problem()
    live = run(ctx, params, schedule)
    _ckernel._load_once.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_ckernel, "find_compiler", lambda: None)
    with pytest.warns(_ckernel.KernelFallbackWarning, match="no C compiler"):
        fallback = run(ctx, params, schedule)
    assert _ckernel.load() is None
    assert fallback[0] == live[0]
    assert trace_columns(fallback[1]) == trace_columns(live[1])
    assert fallback[1].chain == live[1].chain


@needs_compiler
def test_builds_once_into_the_user_cache(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _ckernel.load() is not None
    built = list((tmp_path / "rnasel").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    _ckernel._load_once.cache_clear()
    monkeypatch.setattr(_ckernel, "find_compiler", lambda: None)  # a cached library needs no compiler
    assert _ckernel.load() is not None
    assert list((tmp_path / "rnasel").iterdir()) == built


@needs_compiler
def test_source_compiles_without_warnings(tmp_path):
    command = [
        _ckernel.find_compiler(), *_ckernel.FLAGS, "-std=c99", "-pedantic", "-Wall", "-Wextra", "-Werror",
        "-o", str(tmp_path / "anneal.so"), str(_ckernel.SOURCE), "-lm",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


C_SOURCE = _ckernel.SOURCE.read_text(encoding="utf-8")


def c_define(name):
    """The integer value of macro ``name`` in ``_anneal.c``, the macros it
    names substituted."""
    expr = re.search(rf"^#define {name} (.*)$", C_SOURCE, re.M).group(1)
    expr = re.sub(r"\b[A-Z_][A-Z0-9_]*\b", lambda m: str(c_define(m.group(0))), expr)
    assert re.fullmatch(r"[\d\s()+*-]+", expr), expr
    return eval(expr)


def c_struct_members(name):
    """The members of struct typedef ``name`` in ``_anneal.c``, in order, as
    (member, C type), the type of a pointer member being "pointer"."""
    body = re.search(rf"typedef struct \{{([^{{}}]*)\}} {name};", C_SOURCE).group(1)
    members = []
    for declaration in filter(None, map(str.strip, re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";"))):
        ctype, declarators = re.fullmatch(r"(?:const )?(\w+) (.+)", declaration, re.S).groups()
        for declarator in map(str.strip, declarators.split(",")):
            members.append((declarator.lstrip("*"), "pointer" if declarator.startswith("*") else ctype))
    return members


def test_python_declarations_match_the_c_source():
    # read as text, so a mismatch shows without a compiler: a buffer constant
    # smaller than C's would let C write past its bytearray
    ctypes_of = {"pointer": ctypes.c_void_p, "int64_t": ctypes.c_int64, "double": ctypes.c_double}
    assert [(member, ctypes_of[ctype]) for member, ctype in c_struct_members("chain_t")] == _ckernel.Chain._fields_
    assert c_define("FORMAT_BYTES") == _ckernel.FORMAT_BYTES
    assert c_define("TRACE_ROW_BYTES") == _ckernel.TRACE_ROW_BYTES
    assert c_define("POW5_MAX_Q") - c_define("POW5_MIN_Q") + 1 == len(_ckernel.powers_of_five())


# Run in a child process by test_library_is_clean_under_ubsan, with the path
# of a sanitizer build: an abort there fails the test instead of pytest.
UBSAN_CHECKS = r"""
import ctypes, itertools, sys
import numpy as np
from rnasel import _ckernel, annealer
from rnasel.model import PairWeights
from rnasel.objective import ObjectiveContext, ObjectiveParams
from conftest import adversarial_floats

lib = _ckernel._bind(ctypes.CDLL(sys.argv[1]))
_ckernel._probe(lib)
rng = np.random.default_rng(20211105)

bits = rng.integers(0, 2**64, size=4096, dtype=np.uint64, endpoint=False).view(np.float64)
powers = np.array([2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)])
nearby = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
values = np.concatenate([bits, nearby, -nearby])
values = values[: len(values) // 8 * 8].reshape(-1, 8)
for row, text in zip(values, _ckernel.format_rows(lib, values, "\t")):
    want = "".join("\t" + "%.17g" % x for x in row.tolist()) + "\n"
    assert bytes(text).decode() == want, (row.tolist(), bytes(text))

# hard numbers as trace rows, a thousand to a block; a yielded block is a
# view of a buffer that the next block reuses
column = adversarial_floats()
steps = list(range(len(column)))
got = b"".join(bytes(block) for block in _ckernel.format_trace(lib, column, -column, column, steps)).decode()
rows = zip(steps, column.tolist(), (-column).tolist(), column.tolist(), steps)
assert got == "".join("%d,%.17g,%.17g,%.17g,%d\n" % row for row in rows)

finite = values[np.isfinite(values)]
digits = ["".join(rng.choice(list("0123456789"), size=k)) for k in rng.integers(1, 30, size=2000)]
texts = [repr(x) for x in finite.tolist()] + [
    f"{sign}{d[:cut]}.{d[cut:]}e{exp}"
    for sign, d, cut, exp in zip(
        itertools.cycle(["", "-", "+"]), digits, rng.integers(0, 30, size=2000), rng.integers(-400, 400, size=2000)
    )
]
texts = texts[: len(texts) // 8 * 8]
block = bytearray(
    "".join(f"r{k}\t" + "\t".join(texts[k : k + 8]) + "\n" for k in range(0, len(texts), 8)).encode()
)
got = np.empty((len(texts) // 8, 8))
rows, consumed = _ckernel.parse_rows(lib, block, 0, len(block), "\t", got, np.empty((len(got), 2), np.int64), 64)
assert (rows, consumed) == (len(got), len(block)), (rows, consumed)
want = np.array([float(t) for t in texts]).reshape(-1, 8)
assert got.tobytes() == want.tobytes()

g = 6
ids = tuple(f"t{k}" for k in range(g))
ctx = ObjectiveContext(rng.normal(size=(30, g)), rng.random(30) + 0.1, ids)
weights = PairWeights.from_entries(ids, [("t0", "t1", 1), ("t2", "t3", 1), ("t0", "t5", -1)], default=0)
params = ObjectiveParams(alpha=0.3, n=5, weights=weights)
schedule = annealer.AnnealSchedule(t_init=1.0, t_final=1e-2, gamma=0.9, swaps_per_temperature=20, seed=5)
_ckernel.load = lambda: lib
selection, trace = annealer.run(ctx, params, schedule)
_ckernel.load = lambda: None
reference, reference_trace = annealer.run(ctx, params, schedule)
assert selection == reference and trace.current_u.tobytes() == reference_trace.current_u.tobytes()
assert trace.accepted_count.sum() > 0
print(len(values), "rows formatted,", len(got), "rows parsed,", trace.accepted_count.size, "steps annealed")
"""


@needs_compiler
def test_library_is_clean_under_ubsan(tmp_path):
    # the whole library built with undefined-behaviour checks that abort:
    # the load probe, hard cases for the trace writer, random and boundary
    # doubles written and read back, and one short chain
    build = tmp_path / "anneal-ubsan.so"
    command = [
        _ckernel.find_compiler(), *_ckernel.FLAGS, "-fsanitize=undefined", "-fno-sanitize-recover=all",
        "-o", str(build), str(_ckernel.SOURCE), "-lm",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 and "ubsan" in proc.stderr:
        pytest.skip(f"no libubsan: {proc.stderr.strip()}")
    assert proc.returncode == 0, proc.stderr
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    )
    child = subprocess.run(
        [sys.executable, "-c", UBSAN_CHECKS, str(build)], capture_output=True, text=True, timeout=300, env=env
    )
    assert child.returncode == 0, child.stderr
    assert "runtime error" not in child.stderr, child.stderr


@needs_compiler
def test_bounded_draw_matches_generator_integers():
    lib = _ckernel.load()
    assert lib is not None
    mine, ref = np.random.default_rng(8), np.random.default_rng(8)
    bitgen = mine.bit_generator.ctypes.bit_generator
    for k in (1, 2, 6, 25, 1975, 2**20 + 7, 2**32) * 50:
        assert lib.rnasel_bounded(bitgen, k) == ref.integers(0, k)
    assert mine.bit_generator.state == ref.bit_generator.state


@needs_compiler
def test_equal_moves_draw_like_the_reference(monkeypatch):
    # alpha = 1 with integer norms makes many swaps leave u exactly unchanged;
    # such a move is not an improvement, so it still consumes a uniform
    rng = np.random.default_rng(12)
    ctx = random_context(rng, 12, 4)
    ctx = type(ctx)(ctx.ratios, rng.integers(1, 4, size=12).astype(float), ctx.treated_ids)
    params = ObjectiveParams(alpha=1.0, n=4, weights=all_ones_weights(ctx))
    schedule = AnnealSchedule(t_init=1.0, t_final=1e-2, gamma=0.8, swaps_per_temperature=10, seed=5)
    assert _ckernel.load() is not None
    compiled = run(ctx, params, schedule)
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    reference = run(ctx, params, schedule)
    assert compiled[0] == reference[0]
    assert trace_columns(compiled[1]) == trace_columns(reference[1])


def test_cache_falls_back_to_a_private_temporary_directory(monkeypatch, tmp_path):
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = _ckernel.cache_dir()
    assert path == tmp_path / f"rnasel-{os.getuid()}"
    assert path.stat().st_mode & 0o777 == 0o700
    path.chmod(0o777)
    with pytest.raises(_ckernel._Unavailable, match="not a private directory"):
        _ckernel.cache_dir()


@needs_compiler
def test_parser_that_rejects_a_probe_number_is_not_used(fresh_loader, monkeypatch):
    monkeypatch.setattr(_ckernel, "PROBE_NUMBERS", (*_ckernel.PROBE_NUMBERS, "nan"))
    with pytest.warns(_ckernel.KernelFallbackWarning, match="C parser rejected"):
        assert _ckernel.load() is None


@needs_compiler
def test_parser_that_misrounds_is_not_used(fresh_loader, monkeypatch):
    parse_rows = _ckernel.parse_rows

    def misround(lib, block, start, stop, delim, values, spans, max_field):
        parsed = parse_rows(lib, block, start, stop, delim, values, spans, max_field)
        values[0, 5] = math.nextafter(values[0, 5], math.inf)  # the probe's 1e23
        return parsed

    monkeypatch.setattr(_ckernel, "parse_rows", misround)
    with pytest.warns(_ckernel.KernelFallbackWarning, match=r"C parser read '1e23' as 1\.0000000000000001e\+23"):
        assert _ckernel.load() is None


@needs_compiler
def test_formatter_that_misformats_is_not_used(fresh_loader, monkeypatch):
    format_rows = _ckernel.format_rows

    def one_digit_exponents(lib, values, delim):
        for row in format_rows(lib, values, delim):
            yield bytes(row).replace(b"e-05", b"e-5")

    monkeypatch.setattr(_ckernel, "format_rows", one_digit_exponents)
    with pytest.warns(
        _ckernel.KernelFallbackWarning,
        match=r"C formatter wrote 9\.999999999999999e-05 as '9\.9999999999999991e-5', not '9\.9999999999999991e-05'",
    ):
        assert _ckernel.load() is None


@needs_compiler
def test_probe_floats_cover_the_formatter_layouts():
    written = ["%.17g" % x for x in _ckernel.PROBE_FLOATS]
    assert {"0", "-0", "inf", "-inf", "nan", "0.0001", "9.9999999999999991e-05", "1e+17"} <= set(written)
    assert any(len(text.partition("e")[2]) == 4 for text in written)  # e+308, e-324


@needs_compiler
def test_trace_writer_that_misformats_is_not_used(fresh_loader, monkeypatch):
    format_trace = _ckernel.format_trace

    def one_digit_exponents(lib, *columns):
        for block in format_trace(lib, *columns):
            yield bytes(block).replace(b"e-05", b"e-5")

    monkeypatch.setattr(_ckernel, "format_trace", one_digit_exponents)
    with pytest.warns(
        _ckernel.KernelFallbackWarning,
        match=r"C trace writer wrote the row '6,9\.9999999999999991e-5,.*', not '6,9\.9999999999999991e-05,",
    ):
        assert _ckernel.load() is None


@needs_compiler
def test_trace_writer_that_swaps_columns_is_not_used(fresh_loader, monkeypatch):
    # the probe's current_u column runs backwards, so a writer that mixes it
    # up with temperature or best_u differs on the first row
    format_trace = _ckernel.format_trace

    def swapped(lib, temperature, current_u, best_u, accepted):
        return format_trace(lib, temperature, best_u, current_u, accepted)

    monkeypatch.setattr(_ckernel, "format_trace", swapped)
    with pytest.warns(
        _ckernel.KernelFallbackWarning, match=r"C trace writer wrote the row '0,0,0,nan,0\\n', not '0,0,nan,0,0\\n'"
    ):
        assert _ckernel.load() is None


@needs_compiler
def test_trace_csv_writes_g17_of_adversarial_columns(tmp_path, monkeypatch):
    # hard numbers over several blocks, inf, NaN and subnormals among them:
    # the C writer and Python write every one as "%.17g" does
    assert _ckernel.load() is not None
    column = adversarial_floats()
    assert len(column) > 2 * _ckernel.TRACE_BLOCK
    steps = len(column)
    trace = AnnealTrace(
        temperature=column, current_u=-column, best_u=column[::-1], accepted_count=np.arange(steps),
        selection=Selection((0,), 0.5, 0.5, 0.5), seed=3, chain=0,
    )
    rows = zip(range(steps), column.tolist(), (-column).tolist(), column[::-1].tolist(), range(steps))
    want = "step,temperature,current_u,best_u,accepted_count\n" + "".join(
        "%d,%.17g,%.17g,%.17g,%d\n" % row for row in rows
    )
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_text(encoding="ascii") == want
    monkeypatch.setattr(_ckernel, "load", lambda: None)
    trace.to_csv(path)
    assert path.read_text(encoding="ascii") == want
