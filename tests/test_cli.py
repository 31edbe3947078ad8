"""CLI tests (invoking main() directly)."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "timesharing-research" in out
        assert "rte-commercial" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "EBOX" in out and "SBI" in out

    def test_disasm(self, tmp_path, capsys):
        source = tmp_path / "prog.asm"
        source.write_text("movl #5, r0\nhalt\n")
        assert main(["disasm", str(source)]) == 0
        out = capsys.readouterr().out
        assert "movl    s^#5, r0" in out
        assert "halt" in out

    def test_disasm_missing_file_exits_2_with_one_line(self, tmp_path,
                                                       capsys):
        missing = tmp_path / "MISSING.mar"
        assert main(["disasm", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot read" in err and "MISSING.mar" in err

    def test_run_workload(self, capsys):
        assert main(["run-workload", "research",
                     "--instructions", "2500"]) == 0
        out = capsys.readouterr().out
        assert "cycles per instruction" in out
        assert "TABLE 1" in out

    def test_run_workload_paranoid(self, capsys):
        # A distinct budget sidesteps the memoised plain-run result, so
        # the monitor really installs and samples.
        assert main(["run-workload", "research", "--instructions",
                     "2600", "--paranoid"]) == 0
        out = capsys.readouterr().out
        assert "cycles per instruction" in out

    def test_run_workload_unknown_profile(self, capsys):
        assert main(["run-workload", "nonexistent"]) == 2

    def test_hotspots(self, capsys):
        assert main(["hotspots", "--instructions", "2500",
                     "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "routine.slot" in out
        assert "decode" in out

    def test_characterize_single_table(self, capsys):
        assert main(["characterize", "--instructions", "1500",
                     "--table", "1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE 1" in out

    def test_characterize_bad_table(self, capsys):
        assert main(["characterize", "--instructions", "1500",
                     "--table", "99"]) == 2

    def test_characterize_bad_table_lists_valid_keys(self, capsys):
        assert main(["characterize", "--table", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown table 'nope'" in err
        for key in ("1", "9", "s4"):
            assert key in err
        # Validation happens before the composite run: nothing printed.
        assert capsys.readouterr().out == ""

    def test_validate_smoke(self, tmp_path, capsys):
        report = tmp_path / "VALIDATE.json"
        assert main(["validate", "--smoke", "--fuzz", "1",
                     "--fuzz-instructions", "120",
                     "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "all invariants hold" in out
        assert "1 case(s), 0 divergence(s)" in out
        doc = json.loads(report.read_text())
        assert doc["ok"] is True
        assert doc["meta"]["smoke"] is True
        assert doc["fuzz"]["divergences"] == 0

    def test_version(self, capsys):
        import repro
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert repro.__version__ in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("command", ["characterize", "validate"])
    def test_empty_workload_selection_exits_2(self, command, capsys):
        assert main([command, "--smoke", "--workloads", ","]) == 2
        assert "selects no workloads" in capsys.readouterr().err

    def test_ubench_smoke(self, tmp_path, capsys):
        import json
        out_json = tmp_path / "UBENCH.json"
        assert main(["ubench", "--smoke", "--no-check", "--jobs", "1",
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "UBENCH - per-kernel cycles" in out
        assert "specifier mode cost" in out
        doc = json.loads(out_json.read_text())
        assert doc["all_exact"] and doc["all_reconciled"]
        assert doc["total_kernels"] == len(doc["kernels"])
        assert doc["meta"]["suite"] == "smoke"

    def test_ubench_filters(self, capsys):
        assert main(["ubench", "--group", "float", "--mode", "register",
                     "--no-check", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "mulf2_rr" in out
        assert "movl_register" not in out

    def test_ubench_no_match(self, capsys):
        assert main(["ubench", "--group", "bogus", "--no-check"]) == 2
        err = capsys.readouterr().err
        assert "no kernels match" in err
        assert "simple" in err and "decimal" in err

    def test_explore_unknown_axis_rejected_before_simulating(
            self, capsys):
        assert main(["explore", "--axis", "cache_size=1,2"]) == 2
        err = capsys.readouterr().err
        assert "unknown axis 'cache_size'" in err
        # The error lists the valid MachineParams fields...
        for field in ("cache_bytes", "tb_entries", "overlapped_decode"):
            assert field in err
        # ...and nothing was simulated or printed before validation.
        assert capsys.readouterr().out == ""

    def test_explore_machine_axis_onto_a_refusing_backend_exits_2(
            self, capsys):
        assert main(["explore", "--spec", "smoke",
                     "--axis", "machine=uvax78032",
                     "--axis", "workload=transaction-decimal",
                     "--no-store"]) == 2
        captured = capsys.readouterr()
        assert "does not implement" in captured.err
        assert "ADDP" in captured.err
        assert captured.out == ""

    def test_explore_bad_axis_value_rejected(self, capsys):
        assert main(["explore", "--axis", "cache_bytes=tiny"]) == 2
        assert "not an integer" in capsys.readouterr().err

    def test_explore_unknown_spec(self, capsys):
        assert main(["explore", "--spec", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown spec 'nonesuch'" in err
        assert "paper-sensitivity" in err and "smoke" in err

    def test_explore_points_listing_does_not_simulate(self, tmp_path,
                                                      capsys):
        assert main(["explore", "--smoke", "--points",
                     "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "3 points x 5 workloads" in out
        assert "baseline" in out
        assert "overlapped_decode=True" in out
        assert "0/5 cached" in out

    def test_explore_smoke_run(self, tmp_path, capsys, smoke_sweep,
                               smoke_store):
        import json
        out_json = tmp_path / "EXPLORE.json"
        # Reuse the session store: the sweep is warm, so this exercises
        # the full CLI path without re-simulating anything.
        assert main(["explore", "--smoke", "--jobs", "1",
                     "--store", str(smoke_store.root),
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "sensitivity to cache_bytes" in out
        assert "one cycle per non-PC-changing instruction: EXACT" in out
        doc = json.loads(out_json.read_text())
        assert doc["sensitivity"]["decode_claim"]["ok"] is True
        assert doc["stats"]["simulated"] == 0

    def test_ubench_with_consistency_check(self, capsys):
        assert main(["ubench", "--group", "callret", "--jobs", "1",
                     "--check-instructions", "1500"]) == 0
        out = capsys.readouterr().out
        assert "consistency vs. composite" in out
        assert "paper Table 5: 10.6" in out

    def test_engine_flag_validated_before_simulating(self, capsys):
        assert main(["characterize", "--engine", "warp"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine 'warp'" in err
        for name in ("scalar", "batch", "auto"):
            assert name in err
        # Nothing simulated, nothing printed.
        assert capsys.readouterr().out == ""

    def test_validate_rejects_auto_engine(self, capsys):
        assert main(["validate", "--smoke", "--engine", "auto"]) == 2
        assert "unknown engine 'auto'" in capsys.readouterr().err

    def test_explore_smoke_batch_engine(self, tmp_path, capsys):
        import json
        out_json = tmp_path / "EXPLORE.json"
        assert main(["explore", "--smoke", "--engine", "batch",
                     "--store", str(tmp_path / "store"),
                     "--json", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        assert doc["meta"]["engine"] == "batch"
        assert doc["stats"]["engine"] == "batch"


class TestWorkloadZooCLI:
    def test_workloads_lists_the_registry(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "timesharing-research" in out
        assert "compiler-build" in out
        assert "vax780" in out and "uvax78032" in out

    def test_workloads_json(self, tmp_path, capsys):
        out_path = tmp_path / "workloads.json"
        assert main(["workloads", "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["count"] >= 12
        names = [entry["name"] for entry in doc["workloads"]]
        assert "transaction-decimal" in names

    def test_record_trace_round_trip(self, tmp_path, capsys):
        from repro.workloads.registry import WORKLOADS, unregister

        trace_path = tmp_path / "commercial.rprt"
        try:
            assert main(["record-trace", "rte-commercial", "--smoke",
                         "--seed", "7", "--out",
                         str(trace_path)]) == 0
            out = capsys.readouterr().out
            assert "registered as workload: trace-rte-commercial" \
                in out
            assert trace_path.exists()
            assert main(["run-workload", f"trace:{trace_path}",
                         "--smoke", "--seed", "7"]) == 0
            out = capsys.readouterr().out
            assert "trace-rte-commercial" in out
        finally:
            for name in [n for n, s in WORKLOADS.items()
                         if s.trace is not None]:
                unregister(name)

    def test_characterize_workload_subset(self, capsys):
        assert main(["characterize", "--smoke", "--table", "8",
                     "--workloads", "compiler-build,queue-kernel"]) == 0
        assert "TABLE 8" in capsys.readouterr().out

    def test_run_workload_zoo_member(self, capsys):
        assert main(["run-workload", "tb-thrash", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "tb-thrash" in out

    def test_unknown_workload_exits_2_and_names_the_roster(self,
                                                           capsys):
        assert main(["run-workload", "no-such-load"]) == 2
        err = capsys.readouterr().err
        assert "no-such-load" in err
        assert "compiler-build" in err
