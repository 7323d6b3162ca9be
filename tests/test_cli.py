import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scfde.cli as cli
import scfde.harness as harness
from scfde.cli import ConfigError, build_config, build_parser, main, parse_snr_list
from scfde.harness import SimulationConfig

FAST = [
    "--seq-len", "64", "--nr", "4", "--taps", "3", "--taps-est", "3",
    "--mod-order", "16", "--snr", "8", "--frames", "2", "--seed", "1",
]


def test_snr_list_and_range_parsing():
    assert parse_snr_list("0,4,8") == (0.0, 4.0, 8.0)
    assert parse_snr_list("0:16:4") == (0.0, 4.0, 8.0, 12.0, 16.0)
    assert parse_snr_list("7") == (7.0,)
    with pytest.raises(ConfigError):
        parse_snr_list("0:16")
    with pytest.raises(ConfigError):
        parse_snr_list("0:16:-2")
    with pytest.raises(ConfigError, match="empty SNR range"):
        parse_snr_list("8:4:1")
    with pytest.raises(ConfigError):
        parse_snr_list("a,b")


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(-50.0, 50.0),
    step=st.one_of(st.floats(1e-4, 1e-3), st.floats(1e-3, 1e-2)),
    n=st.integers(1, 3000),
)
@example(start=0.0005, step=0.001, n=3)
def test_snr_range_refusals_agree_with_the_keys(start, step, n):
    # parse_snr_list refuses a range for its keys only when its values really
    # repeat one; a range it lists either builds or repeats a key
    text = f"{start!r}:{start + (n - 1) * step!r}:{step!r}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "snr_key_count", lambda lo_db, hi_db: math.inf)
        listed = parse_snr_list(text)
    repeats = len({harness._snr_key(snr) for snr in listed}) < len(listed)
    try:
        snrs = parse_snr_list(text)
    except ConfigError as err:
        assert "keys at 1e-3 dB resolution" in str(err)
        assert repeats
        return
    assert snrs == listed
    try:
        SimulationConfig(snr_db_list=snrs)
    except ValueError as err:
        assert "repeat at 1e-3 dB resolution" in str(err)
        assert repeats
    else:
        assert not repeats


def test_a_range_with_a_key_per_value_can_still_repeat_one():
    # 0.5, 1.5 and 2.5 (1e-3 dB) round half to even to the keys 0, 2, 2
    snrs = parse_snr_list("0.0005:0.0025:0.001")
    assert len(snrs) == 3
    with pytest.raises(ValueError, match="repeat at 1e-3 dB resolution"):
        SimulationConfig(snr_db_list=snrs)


def test_preset_fills_defaults_and_flags_override():
    args = build_parser().parse_args(["sweep", "--preset", "fig5", "--snr", "7"])
    cfg = build_config(args)
    assert cfg.seq_lengths == (1024,)
    assert (cfg.Nr, cfg.L, cfg.L_est, cfg.M) == (64, 9, 9, 64)
    args = build_parser().parse_args(
        ["sweep", "--preset", "fig7", "--snr", "7", "--seq-len", "256"]
    )
    cfg = build_config(args)
    assert cfg.seq_lengths == (256,)
    assert cfg.L == 5


def test_config_file_parsed_and_overridden(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# experiment file\n"
        "seq-len = 64\n"
        "nr = 4\n"
        "taps = 3\n"
        "taps-est = 3\n"
        "mod-order = 16\n"
        "snr = 4,8\n"
        "frames = 5\n"
        "seed = 9\n"
    )
    args = build_parser().parse_args(["sweep", "--config", str(path), "--frames", "2"])
    cfg = build_config(args)
    assert cfg.snr_db_list == (4.0, 8.0)
    assert cfg.frames_per_point == 2  # flag beats file
    assert cfg.seed == 9


# one valid raw value per flag; a flag added without one fails the test below
FLAG_SAMPLES = {
    "snr": "4,8",
    "frames": "3",
    "nr": "2",
    "taps": "2",
    "taps_est": "2",
    "mod_order": "16",
    "seq_len": "32,64",
    "receivers": "blind_qq,mrc_ofdm",
    "seed": "5",
    "workers": "2",
    "ofdm_taps": "3",
    "out": "ber.csv",
    "dump_trials": "trials.csv",
}


def test_every_flag_and_config_key_build_the_same_config(tmp_path):
    assert set(FLAG_SAMPLES) == set(cli._FLAGS)
    parser = build_parser()
    for flag, raw in FLAG_SAMPLES.items():
        name = flag.replace("_", "-")
        path = tmp_path / f"{flag}.cfg"
        path.write_text(f"{name} = {raw}\n")
        from_flag = build_config(parser.parse_args(["sweep", f"--{name}", raw]))
        from_file = build_config(parser.parse_args(["sweep", "--config", str(path)]))
        field_name, convert, _ = cli._FLAGS[flag]
        assert from_flag == from_file, flag
        assert getattr(from_flag, field_name) == convert(raw), flag
        assert from_flag != SimulationConfig(), flag


def test_preset_flag_beats_config_file_preset(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset = fig7\n")
    parser = build_parser()
    cfg = build_config(parser.parse_args(["sweep", "--config", str(path)]))
    assert cfg.L == 5  # the file's preset applies on its own
    cfg = build_config(parser.parse_args(["sweep", "--preset", "fig5", "--config", str(path)]))
    assert (cfg.seq_lengths, cfg.L) == ((1024,), 9)
    argv = ["sweep", "--preset", "fig5", "--config", str(path), *FAST, "--receivers", "mrc_ofdm"]
    assert main(argv) == 0
    path.write_text("preset = fig9\n")  # the file's preset is checked as --preset's choices are
    assert main(["sweep", "--config", str(path)]) == 2


def test_trace_refuses_every_sweep_only_flag_and_key(tmp_path, monkeypatch, capsys):
    # trace has no flag for a SWEEP_ONLY field (argparse exits 2) and no
    # config key for one (unknown key, exit 2), and runs no trial either way
    def no_trials(cfg):
        raise AssertionError("trace ran trials despite a config error")

    monkeypatch.setattr(cli, "residual_trace", no_trials)
    dump = tmp_path / "trials.csv"
    sweep_only = (("dump_trials", str(dump)), ("receivers", "mrc_ofdm"), ("ofdm_taps", "2"))
    assert {cli._FLAGS[flag][0] for flag, _ in sweep_only} == set(harness.SWEEP_ONLY)
    for flag, raw in sweep_only:
        with pytest.raises(SystemExit) as info:
            main(["trace", *FAST, "--" + flag.replace("_", "-"), raw])
        assert info.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err
        path = tmp_path / f"{flag}.cfg"
        path.write_text(f"{flag.replace('_', '-')} = {raw}\n")
        assert main(["trace", *FAST, "--config", str(path)]) == 2, flag
        assert f"unknown key {flag!r}" in capsys.readouterr().err
    assert not dump.exists()


def test_trace_help_names_no_sweep_only_flag(capsys):
    for command, shown in (("sweep", True), ("trace", False)):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--receivers", "--ofdm-taps", "--dump-trials"):
            assert (flag in text) == shown, (command, flag)


def test_trace_csv_echoes_no_sweep_only_field(tmp_path):
    trace_out, sweep_out = tmp_path / "trace.csv", tmp_path / "sweep.csv"
    assert main(["trace", *FAST, "--out", str(trace_out)]) == 0
    assert main(["sweep", *FAST, "--out", str(sweep_out)]) == 0
    trace_echo = [l for l in trace_out.read_text().splitlines() if l.startswith("#")]
    sweep_echo = [l for l in sweep_out.read_text().splitlines() if l.startswith("#")]
    dropped = ["# receivers = blind_pilot,blind_ca,blind_qq,mrc_ofdm", "# ofdm_taps = None"]
    assert [l for l in sweep_echo if l not in dropped] == trace_echo
    assert all(l in sweep_echo for l in dropped)


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, monkeypatch, capsys):
    def no_trials(cfg):
        raise AssertionError("trials ran despite a config error")

    monkeypatch.setattr(cli, "sweep", no_trials)
    monkeypatch.setattr(cli, "residual_trace", no_trials)
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# d\u00e9cal\u00e9\nframes = 2\n".encode("latin-1"))
    for command in ("sweep", "trace"):
        assert main([command, "--config", str(path)]) == 2, command
        assert "cannot read config file" in capsys.readouterr().err
    # the same comment in UTF-8 is read
    path.write_text("# d\u00e9cal\u00e9\nframes = 2\n", encoding="utf-8")
    args = build_parser().parse_args(["sweep", "--config", str(path)])
    assert build_config(args).frames_per_point == 2


# the console-script check's configuration
SMALL_CFG = "seq-len = 64\nnr = 4\ntaps = 2\ntaps-est = 2\nmod-order = 16\nsnr = 7\nframes = 2\n"


def test_a_byte_order_mark_leaves_the_csv_bytes_alone(tmp_path):
    # an editor that saves "UTF-8 with BOM" puts U+FEFF before the first key
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(SMALL_CFG, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + SMALL_CFG.encode("utf-8"))
    csvs = []
    for path in (plain, marked):
        out = tmp_path / f"{path.stem}.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_a_hash_starts_a_comment_only_at_a_line_start_or_after_whitespace(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a full-line comment\n"
        "   # an indented one\n"
        + SMALL_CFG.replace("snr = 7", "snr = 7  # dB")
        + "out = run#1.csv\n"
    )
    cfg = build_config(build_parser().parse_args(["sweep", "--config", str(path)]))
    assert cfg.snr_db_list == (7.0,)
    assert cfg.out_path == "run#1.csv"
    assert main(["sweep", "--config", str(path), "--receivers", "mrc_ofdm"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run#1.csv", "run.cfg"]


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("unknown-key = 3\n")
    args = build_parser().parse_args(["sweep", "--config", str(path)])
    with pytest.raises(ConfigError):
        build_config(args)
    path.write_text("seq-len 64\n")  # a line that is no key = value pair
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        build_config(args)


@pytest.mark.parametrize("key", ["eps", "mu", "pdp_ratio", "max_iter"])
def test_removed_options_are_neither_flags_nor_config_keys(key, tmp_path, capsys):
    # AM stops on a stall or at BlindConfig's fixed cap of 100, so there is
    # no tolerance and no cap to set; the ridge weight and the tap-power
    # decay are constants of 0.5
    path = tmp_path / f"{key}.cfg"
    path.write_text(f"{key} = 0.5\n")
    for command in ("sweep", "trace"):
        with pytest.raises(SystemExit) as info:
            main([command, "--" + key.replace("_", "-"), "0.5"])
        assert info.value.code == 2
        assert main([command, "--config", str(path)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err


def test_config_file_repeated_key_rejected(tmp_path, capsys):
    # the second line would silently win; '-' and '_' spell the same key
    cases = (
        ("frames = 5\nframes = 1\n", "'frames' on lines 1 and 2"),
        ("seq_len = 64\n# P\nseq-len = 32\n", "'seq_len' on lines 1 and 3"),
    )
    for text, message in cases:
        path = tmp_path / "repeat.cfg"
        path.write_text(text)
        assert main(["sweep", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "trace"])
@pytest.mark.parametrize("snr", ["-4:8:6", "-4,2", "-.5,1"])
def test_negative_snr_flag_value_builds_the_equals_form_config(command, snr, monkeypatch):
    # argparse takes '-4:8:6' for an option unless it is attached with '='
    seen = []
    monkeypatch.setattr(cli, "sweep", lambda cfg: seen.append(cfg) or [])
    monkeypatch.setattr(cli, "residual_trace", lambda cfg: seen.append(cfg) or [])
    geometry = ["--seq-len", "64", "--nr", "4", "--taps", "2", "--taps-est", "2"]
    assert main([command, *geometry, "--snr", snr, "--frames", "2"]) == 0
    assert main([command, *geometry, f"--snr={snr}", "--frames", "2"]) == 0
    separate, attached = seen
    assert separate == attached
    assert separate.snr_db_list == parse_snr_list(snr)
    assert separate.snr_db_list[0] < 0


def test_snr_flag_without_a_value_still_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--snr", "--frames", "2"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["sweep", "trace"])
def test_abbreviated_flags_exit_2_and_full_flags_run(command, monkeypatch, capsys):
    # a prefix of --snr is an unknown option whatever its value, so '--sn 7'
    # is refused like '--sn -4:8:6'; the full flag takes either form
    monkeypatch.setattr(cli, "sweep", lambda cfg: [])
    monkeypatch.setattr(cli, "residual_trace", lambda cfg: [])
    geometry = ["--seq-len", "64", "--nr", "4", "--taps", "2", "--taps-est", "2"]
    for snr in (["--sn", "7"], ["--sn", "-4:8:6"]):
        with pytest.raises(SystemExit) as info:
            main([command, *geometry, *snr, "--frames", "2"])
        assert info.value.code == 2, snr
        assert "unrecognized arguments" in capsys.readouterr().err
    for snr in (["--snr", "-4:8:6"], ["--snr=-4:8:6"]):
        assert main([command, *geometry, *snr, "--frames", "2"]) == 0, snr


def test_an_output_naming_the_config_file_exits_2_and_leaves_it(tmp_path, monkeypatch, capsys):
    def no_trials(cfg):
        raise AssertionError("trials ran despite a config error")

    monkeypatch.setattr(cli, "sweep", no_trials)
    monkeypatch.setattr(cli, "residual_trace", no_trials)
    (tmp_path / "sub").mkdir()
    path = tmp_path / "run.cfg"
    text = "seq-len = 64\nnr = 4\ntaps = 2\ntaps-est = 2\nsnr = 7\nframes = 2\n"
    path.write_text(text)
    other = str(tmp_path / "other.csv")
    for same in (str(path), str(tmp_path / "sub" / ".." / "run.cfg")):
        for argv in (
            ["sweep", "--out", same],
            ["sweep", "--dump-trials", same],
            ["sweep", "--out", other, "--dump-trials", same],
            ["trace", "--out", same],
        ):
            assert main([*argv, "--config", str(path)]) == 2, argv
            assert "is the config file" in capsys.readouterr().err
            assert path.read_text() == text
    # the same clash named by a key inside the file itself
    for command, key in (("sweep", "out"), ("sweep", "dump-trials"), ("trace", "out")):
        keyed = tmp_path / f"{command}-{key}.cfg"
        keyed_text = f"{text}{key} = {keyed}\n"
        keyed.write_text(keyed_text)
        assert main([command, "--config", str(keyed)]) == 2, (command, key)
        assert "is the config file" in capsys.readouterr().err
        assert keyed.read_text() == keyed_text
    assert not (tmp_path / "other.csv").exists()


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "ber.csv"
    rc = main(["sweep", *FAST, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert "snr_db,receiver,P,Nr,L,L_est,M,frames,frames_failed,bits_total,bit_errors,ber,mean_iterations,mean_final_residual" in lines
    assert len([l for l in lines if not l.startswith("#")]) == 1 + 4  # header + receivers


def test_sweep_stdout_when_no_out(capsys):
    rc = main(["sweep", *FAST, "--receivers", "mrc_ofdm"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "mrc_ofdm" in captured


def test_trace_writes_csv(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["trace", *FAST, "--out", str(out)])
    assert rc == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "P,snr_db,iteration,normalized_error"
    assert body[1].startswith("64,8,1,")


def test_exit_code_2_on_config_errors(capsys):
    assert main(["sweep", "--receivers", "bogus"]) == 2
    assert main(["sweep", "--snr", "0:1"]) == 2
    assert main(["sweep", "--seq-len", "100"]) == 2
    assert main(["sweep", "--config", "/nonexistent.cfg"]) == 2


def test_exit_code_2_on_invalid_combinations(tmp_path, capsys):
    # each is rejected while the configuration is built, before any trial
    assert main(["sweep", "--seq-len", "16", "--taps", "9"]) == 2  # frame too short
    assert main(["sweep", "--seq-len", "64", "--taps-est", "40"]) == 2  # P <= 2 L_est
    for flag, rule in [
        ("--nr", "Nr must be a whole number >= 1"),
        ("--taps", "tap count must be a whole number >= 1"),
        ("--taps-est", "L_est must be a whole number >= 1"),
    ]:
        capsys.readouterr()
        assert main(["sweep", *FAST, flag, "0"]) == 2
        assert rule in capsys.readouterr().err
    assert main(["sweep", "--snr", "nan"]) == 2
    assert main(["sweep", "--snr", "0:inf:1"]) == 2  # infinite range
    assert main(["sweep", "--snr=-inf:0:1"]) == 2
    assert main(["sweep", "--snr", "0:4:inf"]) == 2
    assert main(["sweep", "--snr", "0:1e308:1e-308"]) == 2  # uncountable range
    assert main(["sweep", "--snr", "0:1e300:1"]) == 2  # more values than keys
    assert main(["sweep", "--snr", "0:0.0015:0.0005"]) == 2  # four values, three keys
    assert main(["sweep", "--snr", "1e308"]) == 2  # no 1e-3 dB key
    assert main(["sweep", "--mod-order", "32"]) == 2
    assert main(["sweep", "--snr", "7,7.0004"]) == 2  # SNRs share a substream
    assert main(["sweep", "--seq-len", ",", "--snr", "7"]) == 2  # no sequence length
    assert main(["sweep", "--snr", ",", "--seq-len", "64"]) == 2  # no SNR
    assert main(["sweep", "--seq-len", "64,64"]) == 2  # repeated length
    assert main(["sweep", "--frames", "abc"]) == 2  # not an integer
    assert main(["sweep", *FAST, "--snr=-4000"]) == 2  # noise variance overflows
    assert main(["trace", *FAST, "--snr=-3080"]) == 2  # receive energy overflows
    same = tmp_path / "same.csv"
    for dump in (same, tmp_path / "sub" / ".." / "same.csv"):  # dump overwrites the CSV
        assert main(["sweep", *FAST, "--out", str(same), "--dump-trials", str(dump)]) == 2
    assert not same.exists()


def test_exit_code_3_on_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    rc = main(["sweep", *FAST, "--out", str(blocker / "nested.csv")])
    assert rc == 3


def test_exit_code_3_before_any_trial_when_an_output_has_no_directory(
    tmp_path, monkeypatch, capsys
):
    def no_trial(*args):
        raise AssertionError("a trial ran before the output paths were checked")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    monkeypatch.setattr(harness, "trace_trial", no_trial)
    ok, missing = tmp_path / "ok.csv", str(tmp_path / "missing" / "x.csv")
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(["sweep", *FAST, "--out", str(ok), "--dump-trials", missing]) == 3
    assert main(["sweep", *FAST, "--out", missing]) == 3
    assert main(["trace", "--seq-len", "64", "--nr", "4", "--taps", "3", "--out", missing]) == 3
    # an output path that names an existing directory fails the same way
    assert main(["sweep", *FAST, "--out", str(ok), "--dump-trials", str(folder)]) == 3
    assert main(["sweep", *FAST, "--out", str(folder)]) == 3
    # so does an empty path, which abspath resolves to the working directory
    monkeypatch.chdir(folder)
    assert main(["sweep", *FAST, "--out", ""]) == 3
    assert main(["sweep", *FAST, "--out", str(ok), "--dump-trials", ""]) == 3
    assert list(tmp_path.iterdir()) == [folder] and not any(folder.iterdir())
    assert "I/O error" in capsys.readouterr().err
    # two empty paths are refused as empty, not compared as one file (exit 2)
    assert main(["sweep", *FAST, "--out", "", "--dump-trials", ""]) == 3
    assert "output path '' is empty" in capsys.readouterr().err
    assert not any(folder.iterdir())


def test_exit_code_4_when_all_frames_fail(monkeypatch, capsys):
    from scfde.harness import ReceiverTrial

    def always_fails(cfg, P, snr_db, trial_index):
        return {name: ReceiverTrial(failed=True) for name in cfg.receivers}

    monkeypatch.setattr(harness, "run_trial", always_fails)
    rc = main(["sweep", *FAST])
    assert rc == 4


def test_cli_roundtrip_matches_library(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", *FAST, "--out", str(out1)]) == 0
    assert main(["sweep", *FAST, "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
