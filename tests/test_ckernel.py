import math
import os
import subprocess
import tempfile

import numpy as np
import pytest

from rnasel import _ckernel
from rnasel.annealer import AnnealSchedule, run
from rnasel.objective import ObjectiveParams

from conftest import all_ones_weights, random_context, trace_columns

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
