import argparse

import pytest

from visform import cli


def test_config_round_trip():
    text = """
[experiment]
name = scaling-nonlocal
domain = straight-dumbbell
kernel = power:s=0.25,p=2
p = 2
R = 8,16
h = 0.5
seed = 3
outdir = out
method = witness
"""
    cfg = cli.ExperimentConfig(
        "scaling-nonlocal", R=(8.0, 16.0, 32.0), seed=3)
    normalized = cli.config_to_text(cfg)
    assert cli.config_to_text(cli.parse_config(normalized)) == normalized
    # a radius that {:g} would round is echoed exactly
    cfg.R = (8.123456789, 16.0, 32.0)
    normalized = cli.config_to_text(cfg)
    assert "R = 8.123456789,16,32\n" in normalized
    assert cli.parse_config(normalized).R == cfg.R


def test_parse_config_rejects_bad_keys():
    with pytest.raises(ValueError):
        cli.parse_config("[experiment]\nname = counterexample\nbogus = 1\n")
    with pytest.raises(ValueError):
        cli.parse_config("[experiment]\ndomain = box:1,1\n")
    with pytest.raises(ValueError):
        cli.parse_config("[other]\nname = walk\n")
    with pytest.raises(ValueError, match="ture"):
        cli.parse_config("[experiment]\nname = whitney-audit\n"
                         "path_audit = ture\n")
    assert cli.parse_config("[experiment]\nname = whitney-audit\n"
                            "path_audit = on\n").path_audit is True
    with pytest.raises(ValueError, match="unknown config key 'quick'"):
        cli.parse_config("[experiment]\nname = counterexample\n"
                         "quick = True\n")


def test_validate_hypothesis_guards():
    cfg = cli.ExperimentConfig("scaling-nonlocal",
                               kernel="power:s=0.75,p=2", p=2.0,
                               R=(8.0, 16.0, 32.0))
    cfg.validate()          # p = 2 < d/s = 2.67
    bad = cli.ExperimentConfig("scaling-nonlocal",
                               kernel="power:s=0.9,p=2.5", p=2.5,
                               R=(8.0, 16.0, 32.0))
    with pytest.raises(ValueError, match="1 <= p < d/s"):
        bad.validate()
    mismatch = cli.ExperimentConfig("scaling-nonlocal",
                                    kernel="power:s=0.25,p=2", p=1.5,
                                    R=(8.0, 16.0, 32.0))
    with pytest.raises(ValueError, match="must match"):
        mismatch.validate()


def test_malformed_kernel_exits_one(tmp_path):
    code = cli.main(["scaling-nonlocal", "--kernel", "power:s=oops",
                     "--outdir", str(tmp_path)])
    assert code == 1


def test_unknown_domain_exits_one(tmp_path):
    code = cli.main(["walk", "--domain", "moebius", "--outdir", str(tmp_path)])
    assert code == 1


def test_counterexample_quick_run(tmp_path):
    code = cli.main(["counterexample", "--n", "4,8",
                     "--outdir", str(tmp_path)])
    assert code == 0
    out = tmp_path / "counterexample"
    assert (out / "samples.csv").exists()
    assert (out / "plot.gp").exists()
    summary = (out / "summary.txt").read_text()
    assert "strictly_decreasing=pass" in summary
    assert "verdict=pass" in summary


@pytest.mark.parametrize("args", [["--n", "4,8,16,32"],
                                  ["--n", "4,5,8"]])
def test_counterexample_law_checks_pass(tmp_path, args):
    # every n list checks the 1/log n law; at n = 5 cell centres lie on the
    # strip's edge x1 + x2 = 1/n, and must stay out of the strip
    code = cli.main(["counterexample", *args, "--outdir", str(tmp_path)])
    summary = (tmp_path / "counterexample" / "summary.txt").read_text()
    assert code == 0, summary
    for key in ("strictly_decreasing", "numerator_self_similar",
                "denominator_log_slope", "verdict"):
        assert f"{key}=pass" in summary


def test_counterexample_rejects_unordered_n(tmp_path):
    code = cli.main(["counterexample", "--n", "8,4",
                     "--outdir", str(tmp_path)])
    assert code == 1


def test_run_from_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("[experiment]\nname = counterexample\n"
                       "n_list = 4,8\n"
                       f"outdir = {tmp_path}\n")
    assert cli.main(["run", "--config", str(cfgfile)]) == 0
    assert cli.main(["run", "--config", str(cfgfile),
                     "--set", "n_list=4"]) == 0


def test_check_domain_cli(tmp_path):
    code = cli.main(["check-domain", "--domain", "curved-dumbbell",
                     "--R", "8,16", "--samples", "4000",
                     "--outdir", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "check-domain" / "summary.txt").read_text()
    assert "dumbbell_structure_pass=True" in summary
    assert "gamma_tilde=absent" in summary


def test_experiment_byte_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        cfg = cli.ExperimentConfig("counterexample", n_list=(4, 8),
                                   outdir=str(tmp_path / sub), seed=0)
        assert cli.run(cfg) == 0
        outs.append((tmp_path / sub / "counterexample" / "samples.csv")
                    .read_bytes())
    assert outs[0] == outs[1]


def test_scaling_verdict_failure_exits_two(tmp_path, monkeypatch):
    # negative control: force a wrong predicted exponent into the table
    from visform import spectral

    def wrong_prediction(domain, kernel, p, d=2):
        return 7.0, False

    monkeypatch.setattr(spectral, "predicted_exponent", wrong_prediction)
    code = cli.main(["scaling-local", "--domain", "straight-dumbbell",
                     "--p", "1", "--R", "4,8,16",
                     "--outdir", str(tmp_path)])
    assert code == 2
    summary = (tmp_path / "scaling-local" / "summary.txt").read_text()
    assert "verdict=fail" in summary


def test_whitney_audit_cli(tmp_path):
    code = cli.main(["whitney-audit", "--domain", "box:1,1",
                     "--max-level", "5", "--pairs", "5",
                     "--outdir", str(tmp_path)])
    assert code == 0
    out = tmp_path / "whitney-audit"
    assert (out / "cubes.csv").exists()
    assert (out / "chains.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "chains_found=5/5" in summary


def test_walk_cli_small(tmp_path):
    code = cli.main(["walk", "--domain", "straight-dumbbell",
                     "--kernel", "power:s=0.25,p=2", "--R", "6",
                     "--paths", "50", "--max-steps", "50000",
                     "--outdir", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "walk" / "samples.csv").read_text()
    assert text.startswith("path,steps,censored")
    summary = (tmp_path / "walk" / "summary.txt").read_text()
    assert "mean_steps=" in summary


def test_comparability_cli(tmp_path):
    code = cli.main(["comparability", "--h", "0.125", "--n-random", "20",
                     "--outdir", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "comparability" / "summary.txt").read_text()
    assert "verdict=pass" in summary


def test_whitney_audit_path_audit_flag(tmp_path):
    code = cli.main(["whitney-audit", "--domain", "box:1,1",
                     "--max-level", "5", "--pairs", "3", "--path-audit",
                     "--outdir", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "whitney-audit" / "summary.txt").read_text()
    assert "path_audit=pass" in summary


def test_run_bad_override_exits_one(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("[experiment]\nname = counterexample\n"
                       "n_list = 4\n")
    assert cli.main(["run", "--config", str(cfgfile),
                     "--set", "nonsense"]) == 1
    assert cli.main(["run", "--config", str(missing := tmp_path / "nope.cfg")]) == 1


def test_run_unknown_override_key_exits_one(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("[experiment]\nname = counterexample\n"
                       "n_list = 4\n"
                       f"outdir = {tmp_path}\n")
    assert cli.main(["run", "--config", str(cfgfile),
                     "--set", "smaples=5"]) == 1
    assert "'smaples'" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(cfgfile),
                     "--set", "path_audit=ture"]) == 1
    assert "'ture'" in capsys.readouterr().err
    assert not (tmp_path / "counterexample").exists()


@pytest.mark.parametrize("argv", [
    ["whitney-audit", "--epsilon", "0", "--max-level", "4"],
    ["whitney-audit", "--epsilon", "-1", "--max-level", "4"],
    ["whitney-audit", "--pairs", "0", "--max-level", "4"],
    ["whitney-audit", "--max-level", "-1"],
    ["comparability", "--n-random", "0"],
    ["walk", "--domain", "annulus:0.3,1", "--R", "4"],
    ["walk", "--paths", "0", "--R", "4"],
    ["walk", "--max-steps", "0", "--R", "4"],
    ["check-domain", "--samples", "0"],
    ["check-domain", "--R", "0,8"],
    ["run", "name = walk\nR = 4,64\n"],
    ["run", "name = scaling-nonlocal\nmethod = eigne\n"],
    # refused by validate, before the run directory is made
    ["scaling-local", "--method", "eigen"],
    ["scaling-nonlocal", "--kernel", "truncated:rho=1"],
    ["scaling-nonlocal", "--domain", "box:1,1"],
    ["scaling-nonlocal", "--R", "32,16,8"],
    ["scaling-nonlocal", "--h", "2"],
    ["check-domain", "--domain", "annulus:0.3,1"],
    ["comparability", "--domain", "straight-dumbbell"],
    ["whitney-audit", "--domain", "straight-dumbbell", "--clip-R", "0"],
    ["whitney-audit", "--domain", "straight-dumbbell", "--clip-R", "-1"],
    ["counterexample", "--factor", "4"],
    ["counterexample", "--n", "1,4,8"],
    ["counterexample", "--factor", "9", "--n", "3,5,7"],
    # malformed flag values fail like malformed config values
    ["walk", "--paths", "x"],
    ["scaling-nonlocal", "--method", "eigne"],
    ["counterexample", "--n", "4,x"],
    ["reproduce-all", "--seed", "x"],
])
def test_out_of_range_values_exit_one(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "run":
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"[experiment]\n{argv[1]}outdir = {out}\n")
        argv = ["run", "--config", str(cfgfile)]
    else:
        argv = [*argv, "--outdir", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()



@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_config_file_takes_subcommand_defaults(monkeypatch, name):
    ran = []
    monkeypatch.setattr(cli, "run", lambda cfg: ran.append(cfg) or 0)
    assert cli.main([name]) == 0
    from_file = cli.parse_config(f"[experiment]\nname = {name}\n")
    assert cli.config_to_text(from_file) == cli.config_to_text(ran[0])


def test_cli_surface():
    common = {"--outdir", "--seed"}
    scaling = {"--domain", "--p", "--R", "--method", "--h"}
    expected = {
        "counterexample": {"--n", "--factor"} | common,
        "scaling-nonlocal": scaling | {"--kernel"} | common,
        "scaling-local": scaling | common,
        "comparability": {"--domain", "--kernel", "--h", "--n-random"}
        | common,
        "whitney-audit": {"--domain", "--epsilon", "--max-level", "--pairs",
                          "--clip-R", "--path-audit"} | common,
        "walk": {"--domain", "--kernel", "--R", "--paths", "--max-steps",
                 "--h"} | common,
        "check-domain": {"--domain", "--R", "--samples"} | common,
        "reproduce-all": {"--quick"} | common,
        "run": {"--config", "--set"},
    }
    sub, = [action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)]
    got = {name: {flag for action in sp._actions
                  for flag in action.option_strings} - {"-h", "--help"}
           for name, sp in sub.choices.items()}
    assert got == expected
