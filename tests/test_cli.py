import csv
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from panelcd.cli import (
    CsvParseError,
    NonNumericError,
    UnbalancedPanelError,
    dump_panel_csv,
    emit_report,
    load_panel_csv,
    main,
    parse_args,
)
from panelcd import cd_stats, cli
from panelcd.correlation import GRID_BLOCK
from panelcd.dgp import DgpConfig, generate_panel
from panelcd.panel import PanelError, fit

# one more digit than the csv module's field limit
OVERSIZE = "9" * (csv.field_size_limit() + 1)
H_BOUND = "dense alternative needs h > 0 with a finite bound sqrt(3h/n), got h="


class TestParseArgs:
    def test_test_command(self):
        args = parse_args(
            ["test", "--data", "p.csv", "--model", "hetero", "--tests", "rlm,rlmpe", "--alpha", "0.05"]
        )
        assert args.command == "test"
        assert args.test_config == cd_stats.TestConfig(alpha=0.05, tests=("RLM", "RLM_PE"))

    def test_simulate_command(self):
        args = parse_args(
            "simulate --dgp 1 --T 100 --n 100 --k 2 --errors normal --reps 2000 --seed 42".split()
        )
        assert args.command == "simulate"
        assert args.dgp_config.t == 100 and args.dgp_config.n == 100
        assert args.reps == 2000

    def test_dense_requires_h(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args("simulate --dgp 1 --T 50 --n 25 --alternative dense".split())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--h" in err and "3" in err

    def test_h_only_with_dense(self):
        with pytest.raises(SystemExit) as exc:
            parse_args("simulate --dgp 1 --T 50 --n 25 --h 3".split())
        assert exc.value.code == 2

    def test_k_defaults_per_dgp(self):
        assert parse_args("simulate --dgp 2 --T 50 --n 25".split()).dgp_config.k == 3
        assert parse_args("simulate --dgp 4 --T 50 --n 25".split()).dgp_config.k == 0

    def test_bad_worker_env_spares_test(self, monkeypatch):
        monkeypatch.setenv("PANELCD_WORKERS", "two")
        assert parse_args(["test", "--data", "p.csv"]).command == "test"

    def test_bad_worker_env_is_a_simulate_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("PANELCD_WORKERS", "two")
        with pytest.raises(SystemExit) as exc:
            parse_args("simulate --dgp 1 --T 50 --n 25".split())
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        monkeypatch.setenv("PANELCD_WORKERS", "3")
        assert parse_args("simulate --dgp 1 --T 50 --n 25".split()).workers == 3

    @pytest.mark.parametrize("command", ["dump-dgp", "simulate"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            ("--seed -1", "seed must be a non-negative integer"),
            ("--alternative dense --h inf", H_BOUND + "inf"),
            ("--alternative dense --h 1e308", H_BOUND + "1e+308"),
        ],
        ids=["seed", "h-inf", "h-1e308"],
    )
    def test_bad_seed_or_h_is_a_usage_error(self, capsys, command, flags, message):
        # once numpy's "expected non-negative integer" at exit 1, or an
        # OverflowError traceback from Generator.uniform
        with pytest.raises(SystemExit) as exc:
            main(f"{command} --dgp 1 --T 10 --n 3 {flags}".split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"panelcd: error: {message}\n")

    @pytest.mark.parametrize("flag", ["--reps", "--workers"])
    def test_simulate_count_below_one_is_a_usage_error(self, capsys, flag):
        # --reps 0 once exited 1 with the plan's "need reps >= 1"; the plan's
        # own message now comes at exit 2
        with pytest.raises(SystemExit) as exc:
            main(f"simulate --dgp 1 --T 10 --n 3 {flag} 0".split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"panelcd: error: need {flag[2:]} >= 1\n")

    @pytest.mark.parametrize("command", ["test --data p.csv", "simulate --dgp 1 --T 10 --n 3"])
    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan"])
    def test_alpha_outside_the_unit_interval_is_a_usage_error(self, capsys, command, alpha):
        with pytest.raises(SystemExit) as exc:
            main(f"{command} --alpha {alpha}".split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("panelcd: error: alpha must lie in (0, 1)\n")

    @pytest.mark.parametrize("command", ["simulate", "dump-dgp"])
    @pytest.mark.parametrize("flag, choices", [
        ("--errors", ["chisq", "normal", "student"]),
        ("--alternative", ["dense", "less-sparse", "null", "sparse"]),
    ])
    def test_enum_flags_offer_the_same_choices(self, capsys, command, flag, choices):
        # the choices once came from name tables in the CLI; they are the enums' values now,
        # and the library's "less_sparse" is not a command-line spelling
        for bad in ("bogus", "less_sparse"):
            with pytest.raises(SystemExit) as exc:
                main(f"{command} --dgp 1 --T 10 --n 3 {flag} {bad}".split())
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            offered = re.search(r"invalid choice: .*\(choose from (.*)\)$", captured.err.strip())
            assert [c.strip(" '") for c in offered.group(1).split(",")] == choices
        for good in choices:
            h = " --h 3" if good == "dense" else ""
            cfg = parse_args(f"{command} --dgp 1 --T 10 --n 3 {flag} {good}{h}".split()).dgp_config
            read = cfg.error_dist if flag == "--errors" else cfg.alternative
            assert read.value.replace("_", "-") == good

    def test_unknown_test_name(self):
        with pytest.raises(SystemExit) as exc:
            parse_args("test --data p.csv --tests rlm,bogus".split())
        assert exc.value.code == 2


class TestLoadPanelCsv:
    def test_shuffled_rows_canonicalize(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "unit,time,y,x1\n"
            "b,2,4.0,0.4\n"
            "a,1,1.0,0.1\n"
            "b,3,5.0,0.5\n"
            "a,3,3.0,0.3\n"
            "b,1,0.0,0.9\n"
            "a,2,2.0,0.2\n",
            encoding="utf-8",
        )
        panel = load_panel_csv(str(f))
        assert panel.n == 2 and panel.t == 3 and panel.k == 2
        assert panel.unit_ids == ("a", "b") and panel.time_ids == ("1", "2", "3")
        np.testing.assert_array_equal(panel.y[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(panel.x[0, :, 1], [0.1, 0.2, 0.3])
        assert np.all(panel.x[:, :, 0] == 1.0)

    def test_numeric_label_sorting(self, tmp_path):
        f = tmp_path / "p.csv"
        rows = ["unit,time,y"]
        # 17-digit time labels a unit apart round to one double but are two periods
        for u in ("10", "2", "1"):
            for t in ("20230101120000002", "20230101120000001"):
                rows.append(f"{u},{t},{t[-1]}")
        f.write_text("\n".join(rows) + "\n", encoding="utf-8")
        panel = load_panel_csv(str(f))
        assert panel.unit_ids == ("1", "2", "10")
        assert panel.time_ids == ("20230101120000001", "20230101120000002")
        np.testing.assert_array_equal(panel.y, [[1.0, 2.0]] * 3)

    def test_missing_row_is_unbalanced(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "unit,time,y\na,1,1.0\na,2,2.0\nb,1,3.0\n",
            encoding="utf-8",
        )
        with pytest.raises(UnbalancedPanelError, match="unit b: 1/2"):
            load_panel_csv(str(f))

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("unit,time,y\na,1,oops\na,2,2.0\n", encoding="utf-8")
        with pytest.raises(NonNumericError, match="line 2"):
            load_panel_csv(str(f))

    def test_duplicate_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("unit,time,y\na,1,1.0\na,1,2.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="duplicate"):
            load_panel_csv(str(f))

    @pytest.mark.parametrize(
        "body, error, line",
        [
            ("a,1,1.0\n\na,2,oops\n", NonNumericError, 4),
            ("a,1,1.0\n\na,1,2.0\n", CsvParseError, 4),
            # the earliest fault wins: non-numeric on line 3, short row on line 5
            ("a,1,1.0\na,2,bad\na,3,3.0\na,4\n", NonNumericError, 3),
            # a record the csv module cannot read ends reading like a short row
            pytest.param(f"a,1,oops\na,2,2.0\na,3,3.0\na,4,{OVERSIZE}\n", NonNumericError, 2,
                         id="non-numeric-before-oversize"),
            pytest.param(f"a,1,1.0\na,1,2.0\na,2,3.0\na,3,{OVERSIZE}\n", CsvParseError, 3,
                         id="duplicate-before-oversize"),
            # numpy's parser takes a field of any length
            pytest.param(f"a,1,1.0\na,2,0.{OVERSIZE}\n", CsvParseError, 3, id="finite-oversize"),
        ],
    )
    def test_fault_line_numbers(self, tmp_path, body, error, line):
        f = tmp_path / "p.csv"
        f.write_text("unit,time,y\n" + body, encoding="utf-8")
        with pytest.raises(error) as err:
            load_panel_csv(str(f))
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}")

    @pytest.mark.parametrize(
        "body, line, spellings",
        [
            ("a,1,1.0\na,01,2.0\nb,1,3.0\nb,01,4.0\n", 3, ("'01'", "'1'")),
            ("a,1,1.0\na,1.0,2.0\n", 3, ("'1.0'", "'1'")),
            ("7,1,1.0\n07,1,2.0\n", 3, ("'07'", "'7'")),
            # the earliest fault still wins
            ("a,1,x\na,1.0,2.0\n", 2, ("'x'",)),
            ("a,1,1.0\na,1.0,2.0\na,2,x\n", 3, ("'1.0'", "'1'")),
        ],
    )
    def test_one_number_spelled_two_ways_is_refused(self, tmp_path, body, line, spellings):
        f = tmp_path / "p.csv"
        f.write_text("unit,time,y\n" + body, encoding="utf-8")
        with pytest.raises(CsvParseError) as err:
            load_panel_csv(str(f))
        assert err.value.line == line
        assert all(s in str(err.value) for s in spellings)

    def test_quoted_label_with_comma(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            'unit,time,y\n"Smith, J",1,1.0\n"Smith, J",2,2.0\nb,1,3.0\nb,2,4.0\n',
            encoding="utf-8",
        )
        panel = load_panel_csv(str(f))
        assert panel.unit_ids == ("Smith, J", "b")
        np.testing.assert_array_equal(panel.y, [[1.0, 2.0], [3.0, 4.0]])

    def test_whitespace_padded_cells(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "unit,time,y,x1\na, 1 , 1.5 ,  0.25\na, 2 ,2.5,0.5 \n", encoding="utf-8"
        )
        panel = load_panel_csv(str(f))
        assert panel.unit_ids == ("a",) and panel.time_ids == ("1", "2")
        np.testing.assert_array_equal(panel.y, [[1.5, 2.5]])
        np.testing.assert_array_equal(panel.x[0, :, 1], [0.25, 0.5])

    def test_bad_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("id,period,value\na,1,1.0\n", encoding="utf-8")
        with pytest.raises(CsvParseError, match="header"):
            load_panel_csv(str(f))

    def test_nan_label_sorts_as_text_in_any_row_order(self, tmp_path):
        # "nan" parses as a float, but NaN has no order: as a number it
        # would land wherever the rows put it
        rows = [f"{u},{t},{10 * i + j}" for i, u in enumerate("abc") for j, t in enumerate(("1", "2", "nan"))]
        f = tmp_path / "p.csv"
        for order in (rows, rows[::-1]):
            f.write_text("unit,time,y\n" + "\n".join(order) + "\n", encoding="utf-8")
            panel = load_panel_csv(str(f))
            assert panel.time_ids == ("1", "2", "nan")
            np.testing.assert_array_equal(panel.y, [[0, 1, 2], [10, 11, 12], [20, 21, 22]])

    @pytest.mark.parametrize("reader", ["default", "chunked"])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, reader):
        # spreadsheet exports often start with one
        if reader == "chunked":
            monkeypatch.setattr(cli, "_load_whole", lambda path, add_intercept: None)
        f = tmp_path / "p.csv"
        f.write_text("\ufeffunit,time,y,x1\na,1,1.0,0.5\na,2,2.0,0.25\n", encoding="utf-8")
        panel = load_panel_csv(str(f))
        assert panel.unit_ids == ("a",) and panel.time_ids == ("1", "2")
        np.testing.assert_array_equal(panel.x[0, :, 1], [0.5, 0.25])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        loaded = []
        reader = threading.Thread(target=lambda: loaded.append(load_panel_csv(str(fifo))),
                                  daemon=True)
        reader.start()
        fifo.write_text("unit,time,y\na,1,1.0\na,2,2.0\n", encoding="utf-8")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert loaded[0].time_ids == ("1", "2")

    # labels as dumped, and 17-character unit labels in the same order
    @pytest.mark.parametrize("unit", [str, lambda u: f"firm-{int(u):012d}"],
                             ids=["dumped", "17-character"])
    def test_clean_dump_takes_the_whole_file_reader(self, tmp_path, monkeypatch, unit):
        def chunked(*args):
            raise AssertionError("the chunked reader ran")

        monkeypatch.setattr(cli, "_convert_chunk", chunked)
        gen = generate_panel(DgpConfig(dgp=2, t=12, n=30, k=3, seed=5))
        out = tmp_path / "dump.csv"
        assert main(["dump-dgp", "--dgp", "2", "--T", "12", "--n", "30", "--k", "3",
                     "--seed", "5", "--output", str(out)]) == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines(keepends=True)
        out.write_text(header + "".join(unit(u) + "," + rest
                                        for u, rest in (r.split(",", 1) for r in rows)),
                       encoding="utf-8")
        loaded = load_panel_csv(str(out))
        assert loaded.y.tobytes() == gen.panel.y.tobytes()
        assert loaded.x.tobytes() == gen.panel.x.tobytes()
        assert loaded.unit_ids == tuple(map(unit, gen.panel.unit_ids))
        assert loaded.time_ids == gen.panel.time_ids

    # the benchmark's cli-test-large shape with one row of two spaces, a row of
    # tabs and blanks, an unended last row of spaces, or one quoted label: each
    # goes to the chunked reader without numpy parsing the file first
    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:-1] + ["  \n"] + rows[-1:],
        lambda rows: rows[:1] + ["\t \t\n"] + rows[1:],
        lambda rows: rows + ["  "],
        lambda rows: rows[:-1] + ['"' + rows[-1].replace(",", '",', 1)],
    ], ids=["spaces", "tabs", "last-unended", "quoted"])
    def test_declined_file_is_not_parsed_first(self, tmp_path, monkeypatch, edit):
        def loadtxt(*args, **kwargs):
            raise AssertionError("numpy parsed the file")

        gen = generate_panel(DgpConfig(dgp=2, t=100, n=1000, k=3, seed=1))
        out = tmp_path / "dump.csv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            dump_panel_csv(gen.panel, fh)
        rows = out.read_text(encoding="utf-8").splitlines(keepends=True)
        out.write_text("".join(edit(rows)), encoding="utf-8")
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        loaded = load_panel_csv(str(out))
        assert loaded.y.tobytes() == gen.panel.y.tobytes()
        assert loaded.x.tobytes() == gen.panel.x.tobytes()

    # faults found after the parse, with empty rows that numpy skips before
    # them, each in every line ending
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("rows, error, message", [
        (["a,1,1.0", "", "a,2,2.0", "a,2,3.0"], CsvParseError,
         "line 5: duplicate observation for unit a, time 2"),
        # in hash order the pair was named the other way round, on line 2
        (["a,1,1.0", "", "a,1.0,2.0"], CsvParseError,
         "line 4: time label '1.0' equals '1' as a number"),
        (["a,1,1.0", "a,2,2.0", "", "b,1,3.0"], UnbalancedPanelError,
         "unbalanced panel: unit b: 1/2 periods (missing 2)"),
        (["a,1,1.0", "", "a,2,inf"], PanelError,
         "y has 1 non-finite value(s), first at unit a, time 2"),
    ], ids=["duplicate", "numeric-clash", "gap", "non-finite"])
    def test_fault_file_is_parsed_once(self, tmp_path, monkeypatch, rows, error, message, end):
        def chunked(*args):
            raise AssertionError("the chunked reader ran")

        f = tmp_path / "p.csv"
        f.write_bytes(end.join(["unit,time,y"] + rows + [""]).encode())
        with monkeypatch.context() as m, pytest.raises(error) as chunked_err:
            m.setattr(cli, "_load_whole", lambda path, add_intercept: None)
            load_panel_csv(str(f))
        monkeypatch.setattr(cli, "_read_chunks", chunked)
        with pytest.raises(error) as err:
            load_panel_csv(str(f))
        assert str(err.value) == str(chunked_err.value) == message

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_labels_padded_on_every_row_take_the_whole_file_reader(self, tmp_path, monkeypatch,
                                                                   end):
        def chunked(*args):
            raise AssertionError("the chunked reader ran")

        monkeypatch.setattr(cli, "_convert_chunk", chunked)
        f = tmp_path / "p.csv"
        rows = [f" {u}, {t},{10 * u + t}" for u in range(1, 4) for t in range(1, 3)]
        f.write_bytes(end.join(["\ufeffunit,time,y"] + rows + [""]).encode())
        panel = load_panel_csv(str(f))
        assert panel.unit_ids == ("1", "2", "3") and panel.time_ids == ("1", "2")
        np.testing.assert_array_equal(panel.y, [[11, 12], [21, 22], [31, 32]])

    def test_round_trip_is_bitwise(self, tmp_path):
        gen = generate_panel(DgpConfig(dgp=1, t=15, n=5, k=3, seed=21))
        out = tmp_path / "dump.csv"
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            dump_panel_csv(gen.panel, fh)
        loaded = load_panel_csv(str(out))
        assert np.array_equal(loaded.y, gen.panel.y)
        assert np.array_equal(loaded.x, gen.panel.x)
        assert loaded.unit_ids == gen.panel.unit_ids
        assert loaded.time_ids == gen.panel.time_ids

    def test_labels_needing_quotes_survive_load_dump_load(self, tmp_path):
        first = tmp_path / "first.csv"
        with open(first, "w", encoding="utf-8", newline="") as fh:
            rows = csv.writer(fh, lineterminator="\n")
            rows.writerow(["unit", "time", "y", "x1"])
            for u, unit in enumerate(["A, Inc", 'say "hi"', "plain"]):
                for s, time in enumerate(["2001,Q1", "2001 Q2", "2001 Q3"]):
                    rows.writerow([unit, time, 0.5 * u + s * s, u - 0.25 * s])
        loaded = load_panel_csv(str(first))
        second = tmp_path / "second.csv"
        with open(second, "w", encoding="utf-8", newline="\n") as fh:
            dump_panel_csv(loaded, fh)
        assert '"A, Inc",' in second.read_text(encoding="utf-8")
        again = load_panel_csv(str(second))
        assert again.unit_ids == loaded.unit_ids == ("A, Inc", "plain", 'say "hi"')
        assert again.time_ids == loaded.time_ids
        assert np.array_equal(again.y, loaded.y) and np.array_equal(again.x, loaded.x)


class TestEmitReport:
    def _result(self, p):
        return cd_stats.TestResult(
            name="RLM", statistic=1.2345, null_dist="normal", df=None,
            sided="upper", p_value=p, reject=p < 0.05, alpha=0.05,
        )

    def test_table_rounds_p_to_two_decimals(self):
        text = emit_report([self._result(0.04999)], "table", t_eff=50, n=10)
        assert "0.05" in text

    def test_csv_keeps_full_precision(self):
        text = emit_report([self._result(0.04999)], "csv", t_eff=50, n=10)
        assert "0.04999" in text

    def test_single_result_is_one_row(self):
        text = emit_report([self._result(0.2)], "csv", t_eff=50, n=10)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("cell_T,cell_n,dist,alternative,test,statistic")


class TestEndToEnd:
    def test_test_command_runs(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        gen = generate_panel(DgpConfig(dgp=1, t=30, n=8, k=2, seed=3))
        with open(data, "w", encoding="utf-8", newline="\n") as fh:
            dump_panel_csv(gen.panel, fh)
        code = main(["test", "--data", str(data), "--tests", "rlm,rlmpe,cdp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RLM" in out and "RLM_PE" in out

    def test_fixed_and_dynamic_models(self, tmp_path, capsys):
        for dgp, model, consumed in ((3, "fixed", 0), (4, "dynamic", 1)):
            data = tmp_path / f"dgp{dgp}.csv"
            k = 2 if dgp == 3 else 0
            gen = generate_panel(DgpConfig(dgp=dgp, t=30, n=8, k=k, seed=4))
            with open(data, "w", encoding="utf-8", newline="\n") as fh:
                dump_panel_csv(gen.panel, fh)
            code = main(
                ["test", "--data", str(data), "--model", model, "--tests", "rlm,lmadj"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert f"T_eff={30 - consumed}" in out
            if model == "fixed":
                assert "unsupported" in out

    def test_near_unit_root_notice_is_a_cli_warning(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        # unit 5 explodes; the others have lag coefficients of -0.75 to -0.49
        series = ((0.5, -0.2, 0.1, 0.4), (2.0, 1.0, 1.5, 1.2), (0.0, 1.0, -1.0, 0.5),
                  (3.0, 1.0, 2.0, 0.0), (1.0, 2.0, 4.1, 8.3))
        rows = [f"{i},{s},{y}" for i, ys in enumerate(series, 1) for s, y in enumerate(ys, 1)]
        data.write_text("unit,time,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the notice is plain stderr text, not a warning
            code = main(["test", "--data", str(data), "--model", "dynamic", "--tests", "rlm"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "panelcd: warning: |lag coefficient| > 0.999 for 1 unit(s): 5\n"
        assert "RLM" in captured.out

    def test_missing_file_is_runtime_error(self, capsys):
        assert main(["test", "--data", "/nonexistent/p.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_cell_is_refused(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        gen = generate_panel(DgpConfig(dgp=1, t=20, n=5, k=2, seed=1))
        with open(data, "w", encoding="utf-8", newline="\n") as fh:
            dump_panel_csv(gen.panel, fh)
        lines = data.read_text(encoding="utf-8").splitlines()
        fields = lines[7].split(",")
        fields[2] = "nan"
        lines[7] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["test", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err and f"unit {fields[0]}, time {fields[1]}" in captured.err

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n  \r\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, capsys, body):
        data = tmp_path / "p.csv"
        data.write_text("unit,time,y,x1\n" + body, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "panelcd: error: line 2: no data rows\n"

    def test_oversized_field_is_refused_with_its_line(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        big = "9" * 131_073  # one more than the csv module's default field limit
        data.write_text(f"unit,time,y\na,1,1.0\na,2,{big}\n", encoding="utf-8")
        assert main(["test", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 3:" in captured.err and "field larger than field limit" in captured.err
        assert "Traceback" not in captured.err

    def test_heterogeneous_without_regressors_is_invalid(self, tmp_path, capsys):
        data = tmp_path / "p.csv"
        rows = [f"{i},{s},{(i * 7 + s * s) % 11 + 0.5 * s}" for i in range(1, 5) for s in range(1, 13)]
        data.write_text("unit,time,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert main(["test", "--data", str(data), "--no-intercept"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid panel" in captured.err and "k=0" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("dgp, model", [(1, "hetero"), (2, "hetero"), (3, "fixed"), (4, "dynamic")])
    def test_round_trip_above_grid_block(self, tmp_path, dgp, model):
        # more units than two LM_adj grid blocks, and not a multiple of one
        n = 2 * GRID_BLOCK + 3
        data, report = tmp_path / "p.csv", tmp_path / "r.csv"
        dump = ["dump-dgp", "--dgp", str(dgp), "--T", "30", "--n", str(n), "--seed", "7"]
        assert main(dump + ["--output", str(data)]) == 0
        gen = generate_panel(parse_args(dump).dgp_config)
        loaded = load_panel_csv(str(data))
        assert np.array_equal(loaded.y, gen.panel.y)
        assert np.array_equal(loaded.x, gen.panel.x)
        assert loaded.has_intercept == gen.panel.has_intercept
        assert loaded.unit_ids == gen.panel.unit_ids
        assert loaded.time_ids == gen.panel.time_ids

        test = ["test", "--data", str(data), "--model", model, "--format", "csv"]
        assert main(test + ["--output", str(report)]) == 0
        resid = fit(gen.panel, gen.model_spec, keep_bases=True)
        results = cd_stats.run_all(resid, cd_stats.TestConfig(tests=cd_stats.ALL_TESTS))
        # the within estimator leaves LM_adj no design-pair moments
        unsupported = {"LM_adj"} if model == "fixed" else set()
        assert all(r.status == ("unsupported" if r.name in unsupported else "ok") for r in results)
        expected = emit_report(results, "csv", t_eff=resid.t_eff, n=resid.n)
        assert report.read_text(encoding="utf-8") == expected

    def test_simulate_reports_unsupported_apart_from_failed(self, capsys):
        argv = "simulate --dgp 3 --T 30 --n 10 --reps 20 --seed 1 --tests rlm,lmadj".split()
        assert main(argv + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "30,10,normal,null,LM_adj,,,,nan,nan,unsupported"
        assert lines[2].startswith("30,10,normal,null,RLM,") and lines[2].endswith(",0")
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()
        assert next(l for l in table if l.startswith("LM_adj")).split()[-1] == "unsupported"
        assert next(l for l in table if l.startswith("RLM")).split()[-1] == "0"

    def test_simulate_csv_output_is_stable(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "simulate", "--dgp", "1", "--T", "20", "--n", "6", "--k", "2",
            "--reps", "10", "--seed", "5", "--tests", "rlm", "--format", "csv",
        ]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_with_a_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main("simulate --dgp 1 --T 10 --n 3 --reps 3 --seed -1".split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("panelcd: error: seed must be a non-negative integer\n")

    def test_dump_dgp_writes_csv(self, tmp_path):
        out = tmp_path / "panel.csv"
        code = main(
            ["dump-dgp", "--dgp", "4", "--T", "12", "--n", "4", "--seed", "2", "--output", str(out)]
        )
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "unit,time,y"

    def test_exit_code_2_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "panelcd", "simulate", "--dgp", "9", "--T", "20", "--n", "6"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_cli_import_loads_no_scipy_or_process_pool(self):
        # scipy costs about 0.3 s at import and the worker pool is only
        # needed for multi-worker runs; neither may sit on the start-up path
        probe = (
            "import sys, panelcd.cli; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))"
        )
        src = str(Path(cd_stats.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_module_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "panelcd", "simulate", "--dgp", "1", "--T", "20",
                "--n", "6", "--reps", "4", "--seed", "1", "--tests", "rlm", "--format", "csv",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("cell_T,cell_n")
