"""Tests for the command-line interface."""

import pytest

from repro.cli import main

PROGRAM = """
    mov r1, 42
    Wait 4
    Pulse {q2}, X180
    Wait 4
    MPG {q2}, 300
    MD {q2}, r7
    halt
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.qasm"
    path.write_text(PROGRAM)
    return path


def test_assemble_writes_binary(source_file, tmp_path, capsys):
    out = tmp_path / "prog.bin"
    rc = main(["assemble", str(source_file), "-o", str(out)])
    assert rc == 0
    blob = out.read_bytes()
    assert len(blob) == 4 * 7
    assert "7 instructions" in capsys.readouterr().out


def test_assemble_default_output_name(source_file, tmp_path):
    rc = main(["assemble", str(source_file)])
    assert rc == 0
    assert (tmp_path / "prog.bin").exists()


def test_disassemble_roundtrip(source_file, tmp_path, capsys):
    out = tmp_path / "prog.bin"
    main(["assemble", str(source_file), "-o", str(out)])
    capsys.readouterr()
    rc = main(["disassemble", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mov r1, 42" in text
    assert "Pulse {q2}, X180" in text
    assert "MD {q2}, r7" in text


def test_run_from_source(source_file, capsys):
    rc = main(["run", str(source_file), "--qubits", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "completed:            True" in out
    assert "'r7': 1" in out
    assert "'r1': 42" in out


def test_run_from_binary(source_file, tmp_path, capsys):
    out = tmp_path / "prog.bin"
    main(["assemble", str(source_file), "-o", str(out)])
    capsys.readouterr()
    rc = main(["run", str(out)])
    assert rc == 0
    assert "'r7': 1" in capsys.readouterr().out


def test_run_with_trace(source_file, capsys):
    rc = main(["run", str(source_file), "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pulse_start" in out


def test_missing_file_error(capsys):
    rc = main(["run", "/nonexistent/prog.qasm"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_assembly_error(tmp_path, capsys):
    path = tmp_path / "bad.qasm"
    path.write_text("frobnicate r1")
    rc = main(["assemble", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_allxy_command(capsys):
    """``repro exp allxy`` prints Figure 9: both staircases and the
    deviation against the paper's value."""
    rc = main(["exp", "allxy", "--param", "n_rounds=8"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ideal   : ")
    assert lines[1].startswith("measured: ")
    assert len(lines[0]) == len(lines[1]) == len("ideal   : ") + 42
    assert lines[2].startswith("deviation: ")
    assert "paper: 0.012 at N = 25600; this run N = 8" in lines[2]


def test_allxy_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["allxy"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'allxy'" in capsys.readouterr().err


def test_exp_list(capsys):
    rc = main(["exp", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("rabi", "rb", "allxy", "t1", "ramsey", "echo",
                 "cz_calibration", "bell", "ghz"):
        assert name in out
    assert "params:" in out
    # --list shows each experiment's target arity.
    assert "target: 1 qubit" in out
    assert "target: 2 qubits (pair)" in out
    assert "target: register (2+ qubits)" in out


def test_exp_without_name_lists(capsys):
    rc = main(["exp"])
    assert rc == 0
    assert "rabi" in capsys.readouterr().out


def test_exp_runs_registered_experiment(capsys):
    rc = main(["exp", "rabi", "--param", "n_rounds=4",
               "--param", "amplitudes=[0.0, 0.25, 0.5, 0.75, 0.999]"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pi amplitude" in out
    assert "5 jobs | backend=serial" in out


def test_exp_stream_prints_jobs_and_fits(capsys):
    rc = main(["exp", "rabi", "--stream", "--param", "n_rounds=4",
               "--param", "amplitudes=[0.0, 0.25, 0.5, 0.75, 0.999]"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "  done " in out
    assert "fit 5/5" in out


def test_exp_multi_qubit(capsys):
    rc = main(["exp", "allxy", "--qubits", "0,1", "--param", "n_rounds=2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "q0:" in out and "q1:" in out


def test_parse_targets_register_syntax():
    from repro.cli import _parse_targets

    assert _parse_targets("0,1") == ((0,), (1,))
    assert _parse_targets("0-1,1-2") == ((0, 1), (1, 2))
    assert _parse_targets("0-1-2") == ((0, 1, 2),)
    assert _parse_targets("2, 0-1") == ((2,), (0, 1))


def test_parse_params_json_bool_spellings():
    from repro.cli import _parse_params

    # `replay=false` must not become the (truthy) string "false".
    assert _parse_params(["replay=false"]) == {"replay": False}
    assert _parse_params(["replay=True", "stream=true"]) == \
        {"replay": True, "stream": True}
    assert _parse_params(["bases=('ZZ',)", "label=falsey"]) == \
        {"bases": ("ZZ",), "label": "falsey"}


def test_exp_stream_reports_replay_fallback(capsys):
    rc = main(["exp", "ghz", "--qubits", "0-1", "--stream",
               "--param", "n_rounds=4", "--param", "repeats=1",
               "--param", "replay=false"])
    assert rc == 0
    assert "[no replay: replay disabled by spec]" in capsys.readouterr().out


def test_exp_bell_pair(capsys):
    rc = main(["exp", "bell", "--qubits", "0-1", "--param", "n_rounds=6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fidelity >=" in out
    assert "3 jobs | backend=serial" in out


def test_exp_pair_sweep(capsys):
    rc = main(["exp", "bell", "--qubits", "0-1,1-2", "--stream",
               "--param", "n_rounds=4", "--param", "bases=('ZZ',)"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "q0-1:" in out and "q1-2:" in out
    assert "fit 2/2" in out


def test_exp_ghz_chain(capsys):
    rc = main(["exp", "ghz", "--qubits", "0-1-2",
               "--param", "n_rounds=4", "--param", "repeats=1"])
    assert rc == 0
    assert "population" in capsys.readouterr().out


def test_exp_unknown_name_errors(capsys):
    rc = main(["exp", "nope"])
    assert rc == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_exp_bad_param_errors(capsys):
    rc = main(["exp", "rabi", "--param", "norounds"])
    assert rc == 2
    assert "key=value" in capsys.readouterr().err


def test_exp_save_artifact(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    rc = main(["exp", "t1", "--param", "n_rounds=2",
               "--param", "delays_cycles=[4, 8, 16, 24]",
               "--save", str(out_path)])
    assert rc == 0
    assert out_path.exists()
    assert "sweep artifact" in capsys.readouterr().out


def test_batch_rabi_sweep(capsys):
    rc = main(["batch", "--experiment", "rabi", "--points", "3",
               "--rounds", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "amplitude   P(|1>)" in out
    assert "3 jobs | backend=serial" in out
    assert "compile cache hit rate:" in out
    assert "machine reuse rate:" in out


def test_batch_allxy_repeats(capsys):
    rc = main(["batch", "--experiment", "allxy", "--repeat", "2",
               "--rounds", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "allxy#0" in out and "allxy#1" in out
    assert "deviation=" in out


def test_batch_raw_program(source_file, capsys):
    rc = main(["batch", "--program", str(source_file), "--repeat", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "job0" in out and "job1" in out
    assert "2 jobs | backend=serial" in out
