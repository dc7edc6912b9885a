"""The content-addressed compile cache: keys, serialization, tiers.

The correctness bar here is the one docs/serving.md promises: a cache
hit is observationally identical to a fresh compile (values, output,
counters, profiles, under both VM dispatch loops), the key covers every
input that can change the generated code, and a damaged store degrades
to misses, never to errors.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

from repro.config import CompilerConfig, CostModel
from repro.pipeline import compile_source, run_compiled
from repro.serve.cache import (
    CacheCorrupt,
    CompileCache,
    cache_key,
    canonical_source,
    default_cache_dir,
    deserialize_compiled,
    serialize_compiled,
)
from repro.sexp.reader import ReaderError
from repro.sexp.writer import write_datum
from repro.vm.machine import trace_all

TAK = "(define (tak x y z) (if (not (< y x)) z (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y)))) (tak 8 4 2)"

CONFIG_SPREAD = [
    pytest.param(CompilerConfig(), id="paper-default"),
    pytest.param(CompilerConfig.baseline(), id="baseline"),
    pytest.param(CompilerConfig(save_strategy="early"), id="early-save"),
    pytest.param(
        CompilerConfig(save_convention="callee", save_strategy="lazy"),
        id="callee-lazy",
    ),
    pytest.param(CompilerConfig(shuffle_strategy="naive"), id="naive-shuffle"),
    pytest.param(CompilerConfig(vm_fast=False), id="legacy-vm"),
]


# -- canonicalization and keys -----------------------------------------


def test_canonical_source_ignores_formatting():
    a = canonical_source("(define (f x)\n  ; doubles\n  (+ x   x))\n(f 3)")
    b = canonical_source("(define (f x) (+ x x)) (f 3)")
    assert a == b


def test_canonical_source_distinguishes_prelude():
    assert canonical_source("(+ 1 2)", prelude=True) != canonical_source(
        "(+ 1 2)", prelude=False
    )


def test_canonical_source_rejects_unreadable():
    with pytest.raises(ReaderError):
        canonical_source("(unbalanced")


def test_cache_key_stable_across_formatting():
    config = CompilerConfig()
    assert cache_key("(+ 1 ; comment\n 2)", config) == cache_key("(+ 1 2)", config)


def test_cache_key_distinguishes_programs():
    assert cache_key("(+ 1 2)") != cache_key("(+ 1 3)")


# -- config fingerprint exhaustiveness ---------------------------------

# One mutation per CompilerConfig field, each producing a *valid*
# config that differs from the default only in that field.  The test
# below fails if a field is added without a mutation here, so a new
# knob can never be silently left out of the cache key.
FIELD_MUTATIONS = {
    "allocator": "linearscan",
    "num_arg_regs": 4,
    "num_temp_regs": 3,
    "lambda_lift": True,
    "lambda_lift_max_params": 4,
    "peephole": False,
    "save_strategy": "early",
    "restore_strategy": "lazy",
    "shuffle_strategy": "naive",
    "save_convention": "callee",
    "branch_prediction": "static-calls",
    "vm_fast": False,
    "cost_model": CostModel(load_latency=5),
}


def test_fingerprint_mutation_table_is_exhaustive():
    names = {f.name for f in dataclasses.fields(CompilerConfig)}
    assert names == set(FIELD_MUTATIONS), (
        "CompilerConfig grew a field without a FIELD_MUTATIONS entry; "
        "add one so the cache key is known to cover it"
    )


@pytest.mark.parametrize("name", sorted(FIELD_MUTATIONS))
def test_fingerprint_changes_on_every_field(name):
    default = CompilerConfig()
    mutated = default.with_(**{name: FIELD_MUTATIONS[name]})
    assert mutated.fingerprint() != default.fingerprint()
    assert cache_key("(+ 1 2)", mutated) != cache_key("(+ 1 2)", default)


def test_fingerprint_covers_cost_model_fields():
    default = CompilerConfig()
    for f in dataclasses.fields(CostModel):
        model = dataclasses.replace(default.cost_model, **{f.name: 99})
        assert default.with_(cost_model=model).fingerprint() != default.fingerprint()


def test_as_dict_round_trips():
    config = CompilerConfig(
        save_strategy="early", vm_fast=False, cost_model=CostModel(load_latency=7)
    )
    again = CompilerConfig.from_dict(config.as_dict())
    assert again == config
    assert again.fingerprint() == config.fingerprint()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        CompilerConfig.from_dict({"num_arg_regs": 6, "turbo": True})


@pytest.mark.parametrize("knob", ["artifact_cache", "aot_direct_calls"])
def test_from_dict_rejects_the_retired_artifact_knob(knob):
    # The executable-artifact tier and the AOT emitter are gone, and
    # their knobs with them.
    with pytest.raises(ValueError, match=knob):
        CompilerConfig.from_dict({knob: True})


# -- serialization ------------------------------------------------------


def _run_all_ways(compiled):
    """(value, output, counters, profile rows) under both VM loops."""
    out = {}
    for fast in (True, False):
        result = run_compiled(compiled, profile=True, vm_fast=fast)
        # The profile "label" embeds the CodeObject uid — a per-process
        # counter, not an observable of the compiled program.
        rows = sorted(
            (
                {k: v for k, v in p.as_dict().items() if k != "label"}
                for p in result.profile.profiles.values()
            ),
            key=lambda d: d["name"],
        )
        out[fast] = (
            write_datum(result.value),
            result.output,
            result.counters.as_dict(),
            rows,
        )
    return out


@pytest.mark.parametrize("config", CONFIG_SPREAD)
def test_roundtrip_is_observationally_identical(config):
    fresh = compile_source(TAK, config)
    thawed = deserialize_compiled(serialize_compiled(fresh))
    assert _run_all_ways(thawed) == _run_all_ways(compile_source(TAK, config))


def test_serialize_restores_fast_caches():
    compiled = compile_source(TAK, CompilerConfig())
    run_compiled(compiled)  # populate the lazily built fast caches
    populated = [c.fast_instructions for c in compiled.codes]
    serialize_compiled(compiled)
    assert [c.fast_instructions for c in compiled.codes] == populated


def test_round_trip_preserves_permutation_opcodes():
    """permopt output carries the swap/permi opcodes through the ISA
    tier's round trip, and the reloaded program runs them identically
    whether its code stays in the step tier or turns hot."""
    rotation = """
    (define (rot a b c n)
      (if (= n 0) (+ a (* 2 b) (* 3 c)) (rot b c a (- n 1))))
    (rot 1 2 3 50)
    """
    config = CompilerConfig(shuffle_strategy="permopt")
    reference = _run_all_ways(compile_source(rotation, config))
    assert reference[True][2]["swaps"] > 0
    thawed = deserialize_compiled(serialize_compiled(compile_source(rotation, config)))
    assert _run_all_ways(thawed) == reference
    thawed = deserialize_compiled(serialize_compiled(compile_source(rotation, config)))
    trace_all(thawed)
    assert _run_all_ways(thawed) == reference


def test_deserialize_rejects_bad_magic():
    with pytest.raises(CacheCorrupt, match="header"):
        deserialize_compiled(b"NOPE" + b"\x00" * 40)


def test_deserialize_rejects_truncation():
    blob = serialize_compiled(compile_source("(+ 1 2)", CompilerConfig()))
    with pytest.raises(CacheCorrupt):
        deserialize_compiled(blob[: len(blob) // 2])


def test_deserialize_rejects_flipped_byte():
    blob = bytearray(serialize_compiled(compile_source("(+ 1 2)", CompilerConfig())))
    blob[-1] ^= 0xFF
    with pytest.raises(CacheCorrupt, match="checksum"):
        deserialize_compiled(bytes(blob))


def test_deserialize_rejects_every_truncation():
    # Cuts inside the magic, mid-body and one byte short: a partly
    # written entry never loads.
    blob = serialize_compiled(compile_source(TAK, CompilerConfig()))
    for cut in (0, 3, len(blob) // 2, len(blob) - 1):
        with pytest.raises(CacheCorrupt):
            deserialize_compiled(blob[:cut])


def test_deserialize_rejects_a_damaged_digest():
    from repro.serve.cache import MAGIC

    blob = bytearray(serialize_compiled(compile_source(TAK, CompilerConfig())))
    blob[len(MAGIC)] ^= 0x40
    with pytest.raises(CacheCorrupt, match="checksum"):
        deserialize_compiled(bytes(blob))


def test_deserialize_rejects_wrong_payload_type():
    body = pickle.dumps({"not": "a program"})
    import hashlib

    from repro.serve.cache import MAGIC

    framed = MAGIC + hashlib.sha256(body).digest() + body
    with pytest.raises(CacheCorrupt, match="payload type"):
        deserialize_compiled(framed)


# -- the cache proper ---------------------------------------------------


def test_hit_matches_fresh_compile(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    config = CompilerConfig()
    first, hit1 = cache.compile(TAK, config)
    second, hit2 = cache.compile(TAK.replace(" ", "  ") + " ; same program", config)
    assert (hit1, hit2) == (False, True)
    assert second is first  # memory tier returns the same object
    assert _run_all_ways(second) == _run_all_ways(compile_source(TAK, config))


def test_disk_hit_survives_new_process_object(tmp_path):
    CompileCache(root=str(tmp_path)).compile(TAK, CompilerConfig())
    fresh_cache = CompileCache(root=str(tmp_path))
    compiled, hit = fresh_cache.compile(TAK, CompilerConfig())
    assert hit
    assert fresh_cache.stats.disk_hits == 1
    # Only the ISA is stored: the reloaded program builds its VM state
    # as it runs.
    assert all(code.fast_blocks is None for code in compiled.codes)
    assert _run_all_ways(compiled) == _run_all_ways(
        compile_source(TAK, CompilerConfig())
    )


def test_disk_hit_traces_only_the_code_that_turns_hot(tmp_path):
    # A reloaded program runs tiered, as a fresh compile does: the same
    # code objects turn hot and are trace-compiled, and no others.
    source = """
    (define (tak x y z)
      (if (not (< y x))
          z
          (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
    (define (sq x) (* x x))
    (+ (tak 14 8 2) (sq 3))
    """
    config = CompilerConfig()
    CompileCache(root=str(tmp_path)).compile(source, config)
    reloaded, hit = CompileCache(root=str(tmp_path)).compile(source, config)
    assert hit
    fresh = compile_source(source, config)
    signatures = []
    for compiled in (fresh, reloaded):
        result = run_compiled(compiled)
        signatures.append(
            (
                write_datum(result.value),
                result.output,
                result.counters.as_dict(),
                result.classifier.counts,
                [c.name for c in compiled.codes if c.fast_blocks is not None],
            )
        )
    assert signatures[0] == signatures[1]
    assert signatures[1][4] == ["tak"]


def test_version_skew_is_a_miss_never_an_error(tmp_path, monkeypatch):
    # A new release keys every program afresh, so what an older release
    # stored is never read, and the program compiles and runs as usual.
    import repro.serve.cache as cache_mod

    config = CompilerConfig()
    CompileCache(root=str(tmp_path)).compile(TAK, config)
    monkeypatch.setattr(cache_mod, "__version__", "0.0.0-other")
    later = CompileCache(root=str(tmp_path))
    compiled, hit = later.compile(TAK, config)
    assert not hit
    assert later.stats.corruptions == 0
    assert len(later.entries()) == 2
    assert _run_all_ways(compiled) == _run_all_ways(compile_source(TAK, config))


def test_entry_format_skew_is_a_miss_never_an_error(tmp_path, monkeypatch):
    # A new entry layout bumps MAGIC: an entry in the old layout counts
    # as a corruption, is recompiled and rewritten, and is never
    # unpickled as the new one.
    import repro.serve.cache as cache_mod

    config = CompilerConfig()
    CompileCache(root=str(tmp_path)).compile(TAK, config)
    monkeypatch.setattr(cache_mod, "MAGIC", b"RPC9")
    later = CompileCache(root=str(tmp_path))
    compiled, hit = later.compile(TAK, config)
    assert not hit
    assert later.stats.corruptions == 1
    assert _run_all_ways(compiled) == _run_all_ways(compile_source(TAK, config))
    _, hit = CompileCache(root=str(tmp_path)).compile(TAK, config)
    assert hit


def test_config_spread_gets_distinct_entries(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    for param in CONFIG_SPREAD:
        _, hit = cache.compile(TAK, param.values[0])
        assert not hit
    # One entry per config: a miss writes the ISA and nothing else.
    assert len(cache.entries()) == len(CONFIG_SPREAD)
    assert cache.stats.stores == len(CONFIG_SPREAD)
    assert os.listdir(str(tmp_path)) == ["objects"]


def test_given_key_skips_canonicalization(tmp_path, monkeypatch):
    import repro.serve.cache as cache_mod

    config = CompilerConfig()
    key = cache_key(TAK, config)

    def unread(*args, **kwargs):
        raise AssertionError("canonical_source called despite a given key")

    monkeypatch.setattr(cache_mod, "canonical_source", unread)
    cache = CompileCache(root=str(tmp_path))
    first, hit1 = cache.compile(TAK, config, key=key)
    second, hit2 = cache.compile(TAK, config, key=key)
    fresh, hit3 = CompileCache(root=str(tmp_path)).compile(TAK, config, key=key)
    assert (hit1, hit2, hit3) == (False, True, True)
    assert second is first
    assert [e.key for e in cache.entries()] == [key]
    assert _run_all_ways(fresh) == _run_all_ways(compile_source(TAK, config))


def test_corrupted_entry_is_a_miss_not_a_crash(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    cache.compile(TAK, CompilerConfig())
    (entry,) = cache.entries()
    with open(entry.path, "wb") as handle:
        handle.write(b"garbage")
    fresh = CompileCache(root=str(tmp_path))
    compiled, hit = fresh.compile(TAK, CompilerConfig())
    assert not hit
    assert fresh.stats.corruptions == 1
    # The bad entry was discarded and rewritten; next time hits.
    _, hit2 = CompileCache(root=str(tmp_path)).compile(
        TAK, CompilerConfig()
    )
    assert hit2
    assert compiled.total_instructions() > 0


def test_truncated_entry_is_a_miss(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    cache.compile(TAK, CompilerConfig())
    (entry,) = cache.entries()
    with open(entry.path, "rb") as handle:
        data = handle.read()
    with open(entry.path, "wb") as handle:
        handle.write(data[: len(data) // 3])
    fresh = CompileCache(root=str(tmp_path))
    _, hit = fresh.compile(TAK, CompilerConfig())
    assert not hit
    assert fresh.stats.corruptions == 1


def test_memory_lru_evicts_oldest(tmp_path):
    cache = CompileCache(root=str(tmp_path), memory_entries=2)
    sources = ["(+ 1 1)", "(+ 2 2)", "(+ 3 3)"]
    for source in sources:
        cache.compile(source, CompilerConfig())
    assert cache.stats.evictions == 1
    # Oldest fell out of memory but still hits from disk.
    _, hit = cache.compile(sources[0], CompilerConfig())
    assert hit
    assert cache.stats.disk_hits == 1


def test_memory_only_mode_touches_no_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "never"))
    cache = CompileCache(disk=False)
    _, hit1 = cache.compile("(+ 1 2)", CompilerConfig())
    _, hit2 = cache.compile("(+ 1 2)", CompilerConfig())
    assert (hit1, hit2) == (False, True)
    assert not os.path.exists(str(tmp_path / "never"))


def test_gc_evicts_lru_first(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    sources = ["(+ 1 1)", "(+ 2 2)", "(+ 3 3)"]
    for source in sources:
        cache.compile(source, CompilerConfig())
    entries = cache.entries()
    os.utime(entries[0].path, (1, 1))  # force a stale mtime
    removed = cache.gc(max_entries=2)
    assert removed == 1
    keys = {e.key for e in cache.entries()}
    assert entries[0].key not in keys


def test_gc_max_bytes(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    for source in ["(+ 1 1)", "(+ 2 2)"]:
        cache.compile(source, CompilerConfig())
    _, total = cache.disk_usage()
    assert cache.gc(max_bytes=total - 1) >= 1


def test_clear_invalidates_everything(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    cache.compile("(+ 1 2)", CompilerConfig())
    assert cache.clear() == 1
    assert cache.disk_usage() == (0, 0)
    _, hit = cache.compile("(+ 1 2)", CompilerConfig())
    assert not hit


def test_clear_removes_the_emptied_shard_directories(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    for n in range(6):
        cache.compile(f"(+ {n} 1)", CompilerConfig())
    objects = tmp_path / "objects"
    assert len([p for p in objects.iterdir() if p.is_dir()]) >= 2
    assert cache.clear() == 6
    assert [p for p in objects.iterdir() if p.is_dir()] == []


def test_clear_removes_a_leftover_artifact_tier(tmp_path):
    # A root written by a build that kept executable artifacts: no
    # walk reads artifacts/, so clear is what reclaims it.
    shard = tmp_path / "artifacts" / "ab"
    shard.mkdir(parents=True)
    (shard / ("ab" + "0" * 62 + ".bin")).write_bytes(b"RPA1 old artifact")
    cache = CompileCache(root=str(tmp_path))
    cache.compile("(+ 1 2)", CompilerConfig())
    assert cache.disk_usage()[0] == 1  # the leftover is no entry
    assert cache.clear() == 1
    assert not (tmp_path / "artifacts").exists()


def test_default_cache_dir_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", "/explicit/dir")
    assert default_cache_dir() == "/explicit/dir"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", "/xdg")
    assert default_cache_dir() == os.path.join("/xdg", "repro")
    monkeypatch.delenv("XDG_CACHE_HOME")
    monkeypatch.setenv("HOME", "/home/someone")
    assert default_cache_dir() == "/home/someone/.cache/repro"


def test_verify_scans_and_removes_corrupt_entries(tmp_path):
    cache = CompileCache(root=str(tmp_path))
    cache.compile(TAK, CompilerConfig())
    cache.compile("(+ 1 2)", CompilerConfig())
    entries = cache.entries()
    with open(entries[0].path, "wb") as handle:
        handle.write(b"garbage")

    fresh = CompileCache(root=str(tmp_path))
    report = fresh.verify()
    assert report["scanned"] == 2
    assert report["ok"] == 1
    assert report["corrupt"] == 1
    assert report["removed"] == 0
    assert fresh.stats.corruptions == 1
    assert fresh.disk_usage()[0] == 2  # scan-only leaves the store alone

    report = fresh.verify(remove=True)
    assert report["removed"] == 1
    assert fresh.disk_usage()[0] == 1
    # After removal the store is clean.
    assert CompileCache(root=str(tmp_path)).verify()["corrupt"] == 0
