import argparse
import json
import tracemalloc

import pytest

from qwitness.cli import main, make_parser


def run(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestAnalyze:
    def test_composite_range(self, tmp_path):
        code, out = run(tmp_path, "analyze", "--range", "2", "100", "--question", "composite")
        assert code == 0
        body = load(out)["report"]
        assert body["compressibility"]["m"] == 4
        assert body["compressibility"]["q"] == 74
        assert body["compressibility"]["regime"] == "Compressible"
        assert body["findings"] == []

    def test_mobius_support(self, tmp_path):
        code, out = run(
            tmp_path, "analyze", "--squarefree", "25", "--question", "mobius-plus-one"
        )
        assert code == 0
        body = load(out)["report"]
        assert body["paradox"]["detected"] is True
        assert body["compressibility"]["regime"] == "Incompressible"
        assert body["randomness"]["primary"]["regime"] == "Maximal"

    def test_recurrence(self, tmp_path):
        code, out = run(
            tmp_path, "analyze", "--range", "1", "20",
            "--question", "recurrence", "--p", "2", "--q", "1",
        )
        assert code == 0
        body = load(out)["report"]
        assert body["randomness"]["primary"]["regime"] == "NoRandomness"
        assert body["compressibility"]["m"] == 1

    def test_csv_format(self, tmp_path):
        out = tmp_path / "bits.csv"
        code = main([
            "analyze", "--range", "2", "4", "--question", "composite",
            "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == "element,bit\n2,0\n3,0\n4,1\n"

    def test_both_formats(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--range", "2", "9", "--question", "composite",
            "--format", "both", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert (tmp_path / "report.csv").exists()

    def test_both_without_out_rejected(self, capsys):
        assert main(["analyze", "--range", "2", "9", "--question", "composite",
                     "--format", "both"]) == 2
        assert "both" in capsys.readouterr().err

    def test_both_formats_refuse_an_out_ending_in_csv(self, tmp_path, capsys):
        # the CSV would take the report's own path and overwrite it
        out = tmp_path / "r.csv"
        code = main([
            "analyze", "--range", "2", "9", "--question", "composite",
            "--format", "both", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"qwitness: --format both would write the CSV over the report at {str(out)!r}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, tmp_path):
        args = ["analyze", "--squarefree", "20", "--question", "mobius-plus-one"]
        _, a = run(tmp_path, *args, name="a.json")
        _, b = run(tmp_path, *args, name="b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_emission(self, tmp_path):
        _, out = run(tmp_path, "analyze", "--range", "2", "50", "--question", "composite")
        parsed = load(out)
        assert json.dumps(parsed, indent=2) + "\n" == out.read_text()


class TestWitness:
    def test_composite_candidates(self, tmp_path):
        code, out = run(tmp_path, "witness", "--range", "2", "100", "--question", "composite")
        assert code == 0
        body = load(out)["witness"]
        assert body["relation"]["candidates"] == [2, 3, 5, 7]
        assert body["covers"]["min_cover"]["chosen"] == [2, 3, 5, 7]

    def test_mobius_pair_witnesses(self, tmp_path):
        code, out = run(
            tmp_path, "witness", "--squarefree", "25", "--question", "mobius-plus-one"
        )
        assert code == 0
        body = load(out)["witness"]
        rel = body["relation"]
        i35 = rel["targets"].index(35)
        witnesses = [rel["candidates"][j] for j in rel["incidence"][i35]]
        assert witnesses == [5, 7]

    def test_identity_on_explicit_list(self, tmp_path):
        code, out = run(tmp_path, "witness", "--list", "3,7,11", "--question", "identity")
        assert code == 0
        body = load(out)["witness"]
        assert body["relation"]["targets"] == [3, 7, 11]
        assert body["relation"]["candidates"] == [3, 7, 11]
        assert body["relation"]["incidence"] == [[0], [1], [2]]
        assert body["covers"]["unique_witness_assignment"]["exists"] is True


class TestSimulate:
    def test_four_one_trace(self, tmp_path):
        # s = 1..4 with residue oracle mod 4, residue 1: single marked pair
        code, out = run(
            tmp_path, "simulate", "--range", "1", "4",
            "--question", "recurrence", "--p", "4", "--q", "1",
        )
        assert code == 0
        body = load(out)["simulate"]
        assert body["support"] == 4
        assert body["marked_pairs"] == 1
        assert body["grover_trace"][0] == pytest.approx(0.25)
        assert body["grover_trace"][1] == pytest.approx(1.0, abs=1e-9)
        # the amplified state concentrates on the single marked configuration
        entries = body["amplified_state"]
        top = max(entries, key=lambda e: e[1] ** 2 + e[2] ** 2)
        assert top[1] ** 2 + top[2] ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_nothing_to_amplify(self, tmp_path, capsys):
        code = main([
            "simulate", "--list", "2,4,6", "--question", "recurrence",
            "--p", "2", "--q", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "nothing to amplify" in capsys.readouterr().err

    def test_counting_eight_two(self, tmp_path):
        code, out = run(
            tmp_path, "simulate", "--range", "1", "8",
            "--question", "recurrence", "--p", "4", "--q", "1", "--phase-bits", "4",
        )
        assert code == 0
        body = load(out)["simulate"]
        assert body["marked_pairs"] == 2
        assert abs(body["counting"]["estimated_m"] - 2) < 0.5

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_wide_registers_on_a_tiny_support(self, tmp_path, command):
        # 61 qubits of value-encoded registers, but only a 2 x 2 support
        code, out = run(
            tmp_path, command, "--list", "3,1000000007", "--question", "prime",
            "--qubit-cap", "64",
        )
        assert code == 0
        body = load(out)[{"analyze": "report", "simulate": "simulate"}[command]]
        if command == "analyze":
            assert body["quantum"]["total_qubits"] == 61
            assert body["findings"] == []
        else:
            assert body["layout"]["total_qubits"] == 61
            assert len(body["amplified_state"]) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["--range", "2", "100", "--question", "composite"],
            ["--range", "1", "20", "--question", "recurrence", "--p", "2", "--q", "1"],
            ["--squarefree", "25", "--question", "mobius-plus-one", "--phase-bits", "8"],
            ["--list", "3,7,11,12", "--question", "prime"],
        ],
        ids=["composite-2-100", "recurrence-1-20", "mobius-sf25-t8", "list-prime"],
    )
    def test_simulate_prints_the_analyze_stage(self, tmp_path, argv):
        _, a = run(tmp_path, "analyze", *argv, name="analyze.json")
        _, s = run(tmp_path, "simulate", *argv, name="simulate.json")
        quantum, sim = load(a)["report"]["quantum"], load(s)["simulate"]
        assert sim["layout"]["total_qubits"] == quantum["total_qubits"]
        assert sim["support"] == quantum["support"]
        assert sim["marked_pairs"] == quantum["marked_pairs"]
        assert sim["optimal_iterations"] == quantum["grover"]["iterations"]
        assert sim["grover_trace"][-1] == quantum["grover"]["success_probability"]
        assert sim["counting"] == quantum["counting"]

    def test_no_candidates_is_nothing_to_amplify(self, tmp_path, capsys):
        code = main([
            "simulate", "--list", "4,6,8", "--question", "prime",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "qwitness: nothing to amplify: the relation has no candidate witnesses\n"

    def test_cap_exceeded_exits_three(self, tmp_path, capsys):
        code = main([
            "simulate", "--range", "2", "100", "--question", "composite",
            "--qubit-cap", "6", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 3


class TestLargeInputs:
    def test_unit_norm_holds_on_a_large_support(self, tmp_path):
        # 1999 x 303 pairs on 23 qubits: a BLAS norm drifted past the tolerance here
        code, out = run(tmp_path, "analyze", "--range", "2", "2000", "--question", "prime")
        assert code == 0
        body = load(out)["report"]
        assert body["quantum"]["total_qubits"] == 23
        assert body["findings"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--range", "2", "8000", "--question", "prime", "--no-quantum"],
            ["witness", "--range", "2", "8000", "--question", "prime"],
            ["analyze", "--range", "1", "1500", "--question", "identity", "--no-quantum"],
        ],
        ids=["analyze-prime-8000", "witness-prime-8000", "analyze-identity-1500"],
    )
    def test_exact_cover_deeper_than_the_recursion_limit(self, tmp_path, argv):
        # about 1000 and 1500 self-paired targets: one search level per witness
        code, out = run(tmp_path, *argv)
        assert code == 0
        body = load(out)
        if "report" in body:
            assert body["report"]["covers"]["exact_cover"]["kind"] == "ExactCover"
        else:
            assert body["witness"]["covers"]["exact_cover"]["kind"] == "ExactCover"

    def test_exact_set_cover_deeper_than_the_recursion_limit(self, tmp_path):
        # about 1000 self-paired targets under the exact set-cover search
        code, out = run(
            tmp_path, "analyze", "--range", "2", "8000", "--question", "prime",
            "--no-quantum", "--exact-threshold", "2000",
        )
        assert code == 0
        cover = load(out)["report"]["covers"]["min_cover"]
        assert (cover["kind"], cover["m"]) == ("ExactMinimumCover", 1007)

    @pytest.mark.parametrize("command", ["analyze", "witness"])
    def test_exact_set_cover_on_a_large_mobius_support(self, tmp_path, command):
        # 1000 squarefree elements: both covers come from one include-first search
        code, out = run(
            tmp_path, command, "--squarefree", "1000", "--question", "mobius-plus-one",
            "--no-quantum", "--exact-threshold", "100000",
        )
        assert code == 0
        covers = load(out)["report" if command == "analyze" else "witness"]["covers"]
        assert (covers["min_cover"]["kind"], covers["min_cover"]["m"]) == ("ExactMinimumCover", 19)
        assert covers["exact_cover"]["kind"] == "NoCoverExists"

    def test_mobius_elements_beyond_the_sieve_guard(self, tmp_path):
        # max(S) is above 2e8, but the builder only sieves up to sqrt(max(S))
        values = "2,3,6,1000000007,2000000014"
        argv = ["--list", values, "--question", "mobius-plus-one"]
        code, _ = run(tmp_path, "analyze", *argv, "--no-quantum")
        assert code == 0
        code, out = run(tmp_path, "witness", *argv, name="witness.json")
        assert code == 0
        relation = load(out)["witness"]["relation"]
        assert relation["targets"] == [6, 2000000014]
        assert relation["candidates"] == [2, 3, 1000000007]
        assert relation["incidence"] == [[0, 1], [0, 2]]

    LARGE_SEMIPRIME = ["--list", "6,1000036000099", "--question", "mobius-plus-one", "--no-quantum"]

    def test_semiprime_beyond_the_fixed_trial_pool_analyze(self, tmp_path):
        # 1000036000099 = 1000003 * 1000033: both factors lie past the fixed 1e5
        # trial pool, but within the sqrt(max) pool the bitstring now reads
        code, out = run(tmp_path, "analyze", *self.LARGE_SEMIPRIME)
        assert code == 0
        assert load(out)["report"]["bitstring"] == "11"

    def test_semiprime_beyond_the_fixed_trial_pool_witness(self, tmp_path):
        code, out = run(tmp_path, "witness", *self.LARGE_SEMIPRIME)
        assert code == 0
        # both elements answer 1, so both are targets; the mu = -1 pool is empty
        relation = load(out)["witness"]["relation"]
        assert relation["targets"] == [6, 1000036000099]
        assert relation["full_pool"] == []

    @pytest.mark.parametrize("command", ["analyze", "witness", "simulate"])
    def test_sieve_guard_is_the_bitstring_stage(self, tmp_path, capsys, command):
        # sqrt(max) = 316227766 is past the 2e8 sieve guard
        tracemalloc.start()
        try:
            code, _ = run(tmp_path, command, "--list", "6,100000000000000003",
                          "--question", "composite", "--no-quantum")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            "qwitness: bitstring stage: sieve bound 316227766 exceeds the 200000000 guard\n"
        )
        assert peak < 4 << 20  # refused before the 316 MB sieve is allocated


class TestParserOnce:
    def test_one_parser_per_process(self, monkeypatch, tmp_path):
        built = []
        construct = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            construct(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        make_parser.cache_clear()
        source = ["--range", "2", "30", "--question", "composite"]
        assert main(["analyze", *source, "--out", str(tmp_path / "a.json")]) == 0
        with pytest.raises(SystemExit) as stopped:
            main(["analyze", *source, "--phase-bits", "many"])
        assert stopped.value.code == 2
        assert main(["witness", *source, "--out", str(tmp_path / "w.json")]) == 0
        assert main(["simulate", *source, "--out", str(tmp_path / "s.json")]) == 0
        # one build: the top-level parser and its three subcommand parsers
        assert built == ["qwitness", "qwitness analyze", "qwitness witness", "qwitness simulate"]


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "range": [2, 100], "question": "composite", "phase_bits": 4,
        }))
        out = tmp_path / "r.json"
        code = main(["analyze", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        doc = load(out)
        assert doc["meta"]["options"]["phase_bits"] == 4
        assert doc["report"]["compressibility"]["m"] == 4

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"range": [2, 100], "question": "composite"}))
        out = tmp_path / "r.json"
        code = main([
            "analyze", "--config", str(cfg), "--range", "2", "50", "--out", str(out),
        ])
        assert code == 0
        assert load(out)["report"]["sequence"]["length"] == 49

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"range": [2, 9], "question": "composite", "bogus": 1}))
        assert main(["analyze", "--config", str(cfg)]) == 2

    def test_two_sequence_specs_rejected(self, capsys):
        code = main([
            "analyze", "--range", "2", "9", "--squarefree", "5", "--question", "composite",
        ])
        assert code == 2

    def test_missing_question_rejected(self, capsys):
        assert main(["analyze", "--range", "2", "9"]) == 2

    def test_p_only_valid_for_recurrence(self, capsys):
        assert main(["analyze", "--range", "2", "9", "--question", "composite",
                     "--p", "2"]) == 2

    def test_non_ascending_list_rejected(self, capsys):
        assert main(["analyze", "--list", "5,2", "--question", "composite"]) == 2

    def test_env_ceiling_enforced(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QWITNESS_QUBIT_CAP", "10")
        code = main([
            "analyze", "--range", "2", "9", "--question", "composite",
            "--qubit-cap", "20", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3
        assert "ceiling" in capsys.readouterr().err

    def test_env_ceiling_allows_smaller_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QWITNESS_QUBIT_CAP", "30")
        code, out = run(tmp_path, "analyze", "--range", "2", "9", "--question", "composite")
        assert code == 0

    def test_env_ceiling_clamps_the_default_cap(self, tmp_path, monkeypatch):
        # without an explicit --qubit-cap, the ceiling lowers the default and
        # the quantum stage skips rather than the run failing
        monkeypatch.setenv("QWITNESS_QUBIT_CAP", "5")
        code, out = run(tmp_path, "analyze", "--range", "2", "100", "--question", "composite")
        assert code == 0
        body = load(out)["report"]
        assert body["quantum"]["skipped"] is True
        assert "exceeds cap 5" in body["quantum"]["reason"]

    def test_io_error_exits_four(self, tmp_path, capsys):
        code = main([
            "analyze", "--range", "2", "9", "--question", "composite",
            "--out", str(tmp_path / "missing" / "r.json"),
        ])
        assert code == 4

    @pytest.mark.parametrize("name, errno_text", [
        ("missing.json", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing-file", "directory"])
    def test_unreadable_config_file_exits_four(self, tmp_path, monkeypatch, capsys,
                                               name, errno_text):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / name
        code = main(["analyze", "--config", str(cfg), "--range", "2", "9",
                     "--question", "composite"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("qwitness: [Errno ")
        assert errno_text in captured.err and str(cfg) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, env, config",
        [
            (["--list", "1,a,3", "--question", "even"], None, None),
            (["--range", "2", "10", "--question", "even"], "abc", None),
            (["--question", "even"], None, {"range": [2]}),
            (["--question", "even"], None, {"range": [2, 10], "phase_bits": "x"}),
            (["--range", "2", "50", "--question", "composite", "--phase-bits", "30"], None, None),
            (["--range", "2", "50", "--question", "composite", "--phase-bits", "40"], None, None),
            # refused before the range is built; the tuple alone would not fit
            (["--range", "1", "1000000000000", "--question", "even"], None, None),
        ],
        ids=[
            "list-element", "env-ceiling", "range-arity", "config-phase-bits",
            "phase-bits-30", "phase-bits-40", "range-span",
        ],
    )
    def test_malformed_numbers_exit_two(self, tmp_path, monkeypatch, capsys, argv, env, config):
        if env is not None:
            monkeypatch.setenv("QWITNESS_QUBIT_CAP", env)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        code = main(["analyze", *argv, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("qwitness: ")

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"out": 1, "format": "csv"}, "out"),
            ({"out": 7}, "out"),
            ({"out": 1, "format": "both"}, "out"),
            ({"out": ["a"]}, "out"),
            ({"out": "a\u0000b"}, "out"),
            ({"out": "a\ud800b"}, "out"),
            ({"no_quantum": "false"}, "no_quantum"),
            ({"list": [4, 6.9, 8]}, "list"),
            ({"qubit_cap": 20.9}, "qubit_cap"),
            ({"exact_threshold": True}, "exact_threshold"),
        ],
        ids=[
            "out-fd-csv", "out-fd-7", "out-int-both", "out-list", "out-null-byte",
            "out-lone-surrogate", "no-quantum-string",
            "list-float", "qubit-cap-float", "exact-threshold-bool",
        ],
    )
    def test_config_values_keep_their_json_types(
        self, tmp_path, monkeypatch, capsys, config, key
    ):
        monkeypatch.chdir(tmp_path)
        sequence = {} if "list" in config else {"range": [2, 30]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"question": "composite", **sequence, **config}))
        code = main(["analyze", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"qwitness: {key}")
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "raw",
        [b'\xff\xfe{"range": [2, 9], "question": "even"}', b"[" * 100_000 + b"]" * 100_000],
        ids=["not-utf8", "nested-100000-deep"],
    )
    def test_undecodable_config_file_exits_two(self, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        code = main(["analyze", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"qwitness: config file {cfg} is not valid JSON: ")
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_no_quantum_flag(self, tmp_path):
        code, out = run(
            tmp_path, "analyze", "--range", "2", "30", "--question", "composite",
            "--no-quantum",
        )
        assert code == 0
        body = load(out)["report"]
        assert body["quantum"]["skipped"] is True
        assert "quantum stage skipped: disabled by options" in body["findings"]
