"""The independent judge: reference answers from ``repro.interp``.

References are computed in a child process (``python3 -m
perfledger.judge``), so the interpreter's time and memory never count
against the program under test.  The child lifts Python's int-string
limit, so it can write integers the program under test cannot; the
parent process keeps the default limit.

Values and outputs are normalised the way ``repro.fuzz.oracle`` does:
opaque objects (``#<...>``) print as ``#<procedure>``, and outputs are
compared as character multisets, because the shuffler may legitimately
reorder ``display`` calls in sibling operands.

Answers are cached under the benchmark's state directory, keyed by a
digest of the sources, the prelude, the interpreter and this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from perfledger import common

#: Step budget per reference run.  Generated programs terminate by
#: construction; the budget only turns a runaway into an error.
MAX_STEPS = 200_000_000

#: The child must finish all references within this many seconds.
JUDGE_TIMEOUT_S = 150

_OPAQUE = re.compile(r"#<[^>]*>")


def normalize(text: str) -> str:
    """Opaque objects print differently in the interpreter and the VM."""
    return _OPAQUE.sub("#<procedure>", text)


def canon_output(text: str) -> str:
    """Order-insensitive form of a program's output."""
    return "".join(sorted(normalize(text)))


def mismatch(ref: Dict, value: str, output: str, expected: Optional[str] = None) -> bool:
    """Whether the program's (value, output) disagrees with the reference.

    *expected*, a hand-written answer, takes precedence over the
    interpreter's value when given.
    """
    want = normalize(expected) if expected is not None else ref["value"]
    if normalize(value) != want:
        return True
    return canon_output(output) != canon_output(ref["output"])


def judge_ops(ops, refs: Dict[str, Dict], expected=None) -> None:
    """After the window: mark each op that returned a value which, or
    whose output, disagrees with the reference (or with the hand-written
    answer *expected* gives for its key)."""
    for op in ops:
        if op.status == "ok" and op.value is not None:
            want = expected(op.key) if expected else None
            if mismatch(refs[op.key], op.value, op.output, want):
                op.status = "wrong value"


def _digest(items: Sequence[Tuple[str, str]]) -> str:
    from repro.pipeline import PRELUDE

    h = hashlib.sha256()
    h.update(Path(__file__).read_bytes())
    h.update((common.SRC / "repro" / "interp" / "interpreter.py").read_bytes())
    h.update(PRELUDE.encode())
    for key, source in items:
        h.update(f"\0{key}\0{len(source)}\0".encode())
        h.update(source.encode())
    return h.hexdigest()


def references(items: Sequence[Tuple[str, str]]) -> Dict[str, Dict]:
    """Reference answers for ``(key, source)`` pairs, from the cache or
    a fresh child process.  Each answer is ``{"ok", "value", "output",
    "steps"}``, or ``{"ok": False, "error"}``."""
    cache = common.STATE / "refs" / f"{_digest(items)}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "perfledger.judge"],
        input=json.dumps({"items": list(items), "max_steps": MAX_STEPS}),
        capture_output=True,
        text=True,
        env=common.child_env(),
        cwd=str(common.ROOT),
        timeout=JUDGE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"judge child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    answers = json.loads(proc.stdout)
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(answers))
    tmp.replace(cache)
    return answers


def _answer(source: str, max_steps: int) -> Dict:
    from repro.interp.interpreter import Interpreter
    from repro.sexp.writer import write_datum

    interp = Interpreter(max_steps=max_steps)
    try:
        value = interp.run_source(source, prelude=True)
        text = write_datum(value)
    except Exception as exc:  # noqa: BLE001 - every failure is an answer
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"[:300]}
    return {
        "ok": True,
        "value": normalize(text),
        "output": normalize(interp.port.contents()),
        # The interpreter counts evaluation steps only under a budget.
        "steps": interp._steps,
    }


def main() -> int:
    sys.set_int_max_str_digits(0)
    doc = json.load(sys.stdin)
    answers: Dict[str, Dict] = {}
    for key, source in doc["items"]:
        answers[key] = _answer(source, doc["max_steps"])
    json.dump(answers, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
