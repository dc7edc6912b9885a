"""CLI tests (invoked in-process via repro.cli.main)."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def tak_file(tmp_path):
    path = tmp_path / "tak.scm"
    path.write_text(
        "(define (tak x y z)\n"
        "  (if (not (< y x)) z\n"
        "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))\n"
        "(tak 8 4 2)\n"
    )
    return str(path)


class TestRun:
    def test_run_prints_value(self, tak_file, capsys):
        assert main(["run", tak_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_run_counters(self, tak_file, capsys):
        main(["run", tak_file, "--counters"])
        err = capsys.readouterr().err
        assert "stack refs" in err
        assert "eff. leaves" in err

    def test_run_baseline(self, tak_file, capsys):
        assert main(["run", tak_file, "--baseline"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_run_strategies(self, tak_file, capsys):
        for strategy in ("early", "late", "lazy-simple"):
            assert main(["run", tak_file, "--save-strategy", strategy]) == 0
            assert capsys.readouterr().out.strip() == "3"

    def test_run_lift_and_callee(self, tak_file, capsys):
        assert main(["run", tak_file, "--lift", "--convention", "callee"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_run_output_port(self, tmp_path, capsys):
        path = tmp_path / "p.scm"
        path.write_text('(begin (display "hi") (newline) 7)')
        main(["run", str(path)])
        out = capsys.readouterr().out
        assert out == "hi\n7\n"

    def test_run_prints_a_deeply_nested_value(self, tmp_path, capsys):
        path = tmp_path / "deep.scm"
        path.write_text(
            "(let loop ((i 0) (acc '()))"
            " (if (= i 2000) acc (loop (+ i 1) (list acc))))"
        )
        assert main(["run", str(path)]) == 0
        assert capsys.readouterr().out == "(" * 2000 + "()" + ")" * 2000 + "\n"

    def test_run_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("(+ 20 22)"))
        main(["run", "-"])
        assert capsys.readouterr().out.strip() == "42"

    def test_run_json(self, tak_file, capsys):
        assert main(["run", tak_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == "3"
        counters = doc["counters"]
        assert counters["instructions"] > 0
        assert counters["stack_refs"] == sum(
            counters["stack_reads"].values()
        ) + sum(counters["stack_writes"].values())
        # --json also carries the per-pass and per-procedure data.
        assert "allocate" in doc["passes"]
        assert doc["procedures"]

    def test_run_trace_dir(self, tak_file, tmp_path, capsys):
        store = str(tmp_path / "spans")
        trace = tmp_path / "trace.json"
        assert main(["run", tak_file, "--trace-dir", store]) == 0
        assert capsys.readouterr().out.strip().endswith("3")
        assert main(["spans", "export", "--trace-dir", store, "-o", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert "allocate" in names and "execute" in names


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["run", "/no/such/file.scm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "Traceback" not in err

    def test_reader_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scm"
        path.write_text("(foo")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: read error:")
        assert "Traceback" not in err

    def test_compile_error(self, tmp_path, capsys):
        path = tmp_path / "unbound.scm"
        path.write_text("(this-is-unbound 1)")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: compile error:")
        assert "unbound" in err

    def test_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "rt.scm"
        path.write_text("(car 1)")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: runtime error:")

    def test_disasm_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scm"
        path.write_text("(")
        assert main(["disasm", str(path)]) == 1
        assert "repro: read error" in capsys.readouterr().err

    def test_report_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scm"
        path.write_text("(set! nope 1)")
        assert main(["report", str(path)]) == 1
        assert "repro:" in capsys.readouterr().err

    def test_dotted_vector_is_a_read_error(self, tmp_path, capsys):
        path = tmp_path / "dotted.scm"
        path.write_text("'#(1 . 2)")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: read error: dot in vector")
        assert "Traceback" not in err

    def test_nesting_past_the_passes_is_a_compile_error(self, tmp_path, capsys):
        depth = 10_000
        path = tmp_path / "deep.scm"
        path.write_text("(define (g x) x)\n" + "(g " * depth + "1" + ")" * depth)
        for verb in ("run", "expand"):
            assert main([verb, str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("repro: compile error: program is nested too deeply")
            assert "Traceback" not in err


class TestDisasm:
    def test_disasm_whole_program(self, tak_file, capsys):
        assert main(["disasm", tak_file]) == 0
        out = capsys.readouterr().out
        assert "tak%" in out and "tailcall" in out

    def test_disasm_single_proc(self, tak_file, capsys):
        main(["disasm", tak_file, "--proc", "tak"])
        out = capsys.readouterr().out
        assert "tak%" in out and "main%" not in out

    def test_disasm_save_strategy_changes_code(self, tak_file, capsys):
        main(["disasm", tak_file, "--proc", "tak", "--save-strategy", "lazy"])
        lazy = capsys.readouterr().out
        main(["disasm", tak_file, "--proc", "tak", "--save-strategy", "early"])
        early = capsys.readouterr().out
        assert lazy != early


class TestExpand:
    def test_expand(self, tak_file, capsys):
        assert main(["expand", tak_file, "--no-prelude"]) == 0
        out = capsys.readouterr().out
        assert "(fix" in out and "tailcall" in out


class TestBenchAndTables:
    def test_bench_named(self, capsys):
        assert main(["bench", "tak"]) == 0
        out = capsys.readouterr().out
        assert "tak" in out and "75.0%" in out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "nope"]) == 1

    def test_bench_json(self, capsys):
        assert main(["bench", "tak", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["benchmark"] == "tak"
        assert rows[0]["counters"]["cycles"] > 0

    def test_bench_trace_dir(self, tmp_path, capsys):
        store = str(tmp_path / "spans")
        trace = tmp_path / "bench-trace.json"
        assert main(["bench", "tak", "deriv", "--trace-dir", store]) == 0
        assert main(["spans", "export", "--trace-dir", store, "-o", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        assert len(doc["otherData"]["traces"]) == 2  # one per benchmark
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert names.count("bench") == 2
        assert "allocate" in names and "execute" in names

    def test_bench_allocator_sweep(self, capsys):
        assert main(["bench", "tak", "--allocator", "all"]) == 0
        out = capsys.readouterr().out
        for allocator in ("lazy", "linearscan", "graphcolor"):
            assert allocator in out

    def test_bench_allocator_sweep_json(self, capsys):
        assert main(["bench", "tak", "--allocator", "all", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["allocator"] for r in rows] == [
            "lazy",
            "linearscan",
            "graphcolor",
        ]
        assert len({r["value"] for r in rows}) == 1

    def test_table2_subset(self, capsys):
        assert main(["table", "2", "--names", "tak"]) == 0
        out = capsys.readouterr().out
        assert "AVERAGE" in out

    def test_table_shuffle(self, capsys):
        assert main(["table", "shuffle", "--names", "tak"]) == 0
        assert "cyclic" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "tak" in out and "boyer" in out


class TestAlloc:
    def test_static_summary(self, tak_file, capsys):
        assert main(["alloc", tak_file, "--allocator", "linearscan"]) == 0
        out = capsys.readouterr().out
        assert "allocator    linearscan" in out
        assert "candidates" in out
        assert "pass shuffle" in out

    def test_compare_table(self, tak_file, capsys):
        assert main(["alloc", tak_file, "--compare"]) == 0
        out = capsys.readouterr().out
        for allocator in ("lazy", "linearscan", "graphcolor"):
            assert allocator in out
        assert "value: 3" in out

    def test_compare_json(self, tak_file, capsys):
        assert (
            main(
                [
                    "alloc",
                    tak_file,
                    "--compare",
                    "--json",
                    "--arg-regs",
                    "2",
                    "--temp-regs",
                    "1",
                ]
            )
            == 0
        )
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert len({r["value"] for r in rows}) == 1
        for row in rows:
            assert row["cycles"] > 0
