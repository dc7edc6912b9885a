"""The executable-artifact tier: framing, staleness, and cache behaviour.

The format promise (docs/aot.md): an artifact either loads into the
exact executable state ``build_artifact`` captured, or it raises —
``ArtifactCorrupt`` for damage, ``ArtifactStale`` for any version or
fingerprint skew — and the cache treats both as a plain miss.  Nothing
a damaged artifact file contains may ever crash a worker or change a
program's observable behaviour.
"""

import importlib.util

import pytest

from repro.config import CompilerConfig
from repro.pipeline import compile_source, run_compiled
from repro.serve.cache import CompileCache
from repro.sexp.writer import write_datum
from repro.vm import artifact as artifact_mod
from repro.vm.artifact import (
    ArtifactCorrupt,
    ArtifactStale,
    build_artifact,
    load_artifact,
)

SOURCE = """
(define (tak x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))
(tak 14 8 2)
"""


def _run_signature(compiled):
    result = run_compiled(compiled)
    return (
        write_datum(result.value),
        result.output,
        result.counters.as_dict(),
        result.classifier.counts,
    )


# -- framing and round-trip -------------------------------------------


def test_round_trip_preserves_execution():
    compiled = compile_source(SOURCE)
    reference = _run_signature(compiled)
    data = build_artifact(compiled)
    loaded = load_artifact(data)
    # The executable state arrives pre-built: no predecode/blockcompile
    # work is left to do.
    assert all(code.fast_instructions is not None for code in loaded.codes)
    assert all(code.fast_blocks is not None for code in loaded.codes)
    assert _run_signature(loaded) == reference


def test_round_trip_checks_fingerprint():
    compiled = compile_source(SOURCE)
    data = build_artifact(compiled)
    load_artifact(data, expected_fingerprint=compiled.config.fingerprint())
    with pytest.raises(ArtifactStale):
        load_artifact(data, expected_fingerprint="not-this-config")


def test_truncated_artifact_is_corrupt():
    data = build_artifact(compile_source(SOURCE))
    for cut in (0, 3, len(data) // 2, len(data) - 1):
        with pytest.raises(ArtifactCorrupt):
            load_artifact(data[:cut])


def test_bit_flip_is_corrupt():
    data = build_artifact(compile_source(SOURCE))
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0x40
    with pytest.raises(ArtifactCorrupt):
        load_artifact(bytes(flipped))


def test_format_version_skew_is_stale(monkeypatch):
    data = build_artifact(compile_source(SOURCE))
    monkeypatch.setattr(artifact_mod, "ARTIFACT_VERSION", 999)
    with pytest.raises(ArtifactStale):
        load_artifact(data)


def test_round_trip_preserves_permutation_opcodes():
    """permopt output carries the swap/permi opcodes through the packed
    instruction streams and the marshalled trace modules."""
    rotation = """
    (define (rot a b c n)
      (if (= n 0) (+ a (* 2 b) (* 3 c)) (rot b c a (- n 1))))
    (rot 1 2 3 50)
    """
    compiled = compile_source(
        rotation, CompilerConfig(shuffle_strategy="permopt")
    )
    reference = _run_signature(compiled)
    assert reference[2]["swaps"] > 0
    loaded = load_artifact(build_artifact(compiled))
    assert _run_signature(loaded) == reference


def test_format_version_covers_permutation_isa():
    """The swap/permi extension changed the decoded stream and the trace
    accumulator layout, so the format number was bumped: artifacts from
    a version-1 build must degrade to misses, never misexecute."""
    assert artifact_mod.ARTIFACT_VERSION >= 2


def test_py_magic_skew_is_stale(monkeypatch):
    data = build_artifact(compile_source(SOURCE))
    monkeypatch.setattr(importlib.util, "MAGIC_NUMBER", b"\x00\x00\x00\x00")
    with pytest.raises(ArtifactStale):
        load_artifact(data)


def test_package_version_skew_is_stale(monkeypatch):
    data = build_artifact(compile_source(SOURCE))
    monkeypatch.setattr(artifact_mod, "__version__", "0.0.0-other")
    with pytest.raises(ArtifactStale):
        load_artifact(data)


# -- cache integration ------------------------------------------------


def test_artifact_hit_skips_isa_tier(tmp_path):
    root = str(tmp_path)
    config = CompilerConfig()
    CompileCache(root=root).compile(SOURCE, config)
    warm = CompileCache(root=root)
    compiled, hit = warm.compile(SOURCE, config)
    assert hit
    assert warm.stats.artifact_hits == 1
    assert warm.stats.disk_hits == 0
    assert all(code.fast_blocks is not None for code in compiled.codes)


def test_corrupt_artifact_falls_back_to_isa_tier(tmp_path):
    root = str(tmp_path)
    config = CompilerConfig()
    cold = CompileCache(root=root)
    cold.compile(SOURCE, config)
    reference = _run_signature(compile_source(SOURCE, config))
    (entry,) = cold.entries(tier="artifacts")
    with open(entry.path, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x01
    with open(entry.path, "wb") as handle:
        handle.write(bytes(data))
    warm = CompileCache(root=root)
    compiled, hit = warm.compile(SOURCE, config)
    assert hit  # the ISA tier still serves it
    assert warm.stats.artifact_misses == 1
    assert warm.stats.artifact_corruptions == 1
    assert warm.stats.disk_hits == 1
    assert _run_signature(compiled) == reference


def test_stale_artifact_recompiles_without_crash(tmp_path, monkeypatch):
    root = str(tmp_path)
    config = CompilerConfig()
    CompileCache(root=root).compile(SOURCE, config)
    # A later release bumps the format: everything already on disk in
    # the artifact tier must degrade to a miss, never an error.
    monkeypatch.setattr(artifact_mod, "ARTIFACT_VERSION", 999)
    warm = CompileCache(root=root)
    compiled, hit = warm.compile(SOURCE, config)
    assert hit  # ISA tier is version-keyed separately and still valid
    assert warm.stats.artifact_hits == 0
    assert warm.stats.artifact_misses == 1
    result = run_compiled(compiled)
    assert write_datum(result.value) == "3"


def test_artifact_disabled_configs_skip_the_tier(tmp_path):
    root = str(tmp_path)
    for config in (
        CompilerConfig(artifact_cache=False),
        CompilerConfig(vm_fast=False),
    ):
        cache = CompileCache(root=root)
        cache.compile(SOURCE, config)
        assert cache.stats.artifact_stores == 0
        assert cache.entries(tier="artifacts") == []
