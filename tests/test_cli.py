import json
import math
import tracemalloc

import numpy as np
import pytest

from fermichain import car, cli, states
from fermichain.cli import UsageError, main, resolve_config
from fermichain.potentials import build_model, total_hamiltonian
from fermichain.reporting import KEY_ORDER
from fermichain.states import gibbs_state, kms_residual


def run(argv):
    return main(argv)


def read_records(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_passing_run_exits_zero(capsys):
    assert run(["validate", "--length", "4"]) == 0
    out = capsys.readouterr()
    lines = [json.loads(l) for l in out.out.splitlines() if l.strip()]
    assert lines and all(rec["pass"] for rec in lines)
    assert "checks passed" in out.err


def test_failing_check_exits_one(capsys):
    # the raw number model is deliberately left unstandardized; its
    # standardization residual is mu * tau(n) = 0.25 and the check must fail
    assert run(["validate", "--model", "raw-number", "--length", "3"]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()
             if l.strip()]
    standard = [rec for rec in lines if rec["check"] == "standard"]
    assert standard and not standard[0]["pass"]
    assert abs(standard[0]["value"] - 0.25) < 1e-12


def test_nan_check_value_fails(monkeypatch, capsys):
    # a density with a NaN entry has a NaN Gibbs defect: the check must
    # fail, not read 0.0
    lattice, beta = 4, 1.0
    h = total_hamiltonian(build_model("hopping", lattice))
    state = gibbs_state(h, beta)
    state.density[1, 2] = np.nan
    assert math.isnan(kms_residual(state, h, beta))
    monkeypatch.setattr(cli, "gibbs_state", lambda *args, **kwargs: state)
    assert run(["gibbs", "--length", str(lattice)]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()
             if l.strip()]
    kms = [rec for rec in lines if rec["check"] == "kms_residual"]
    assert kms and math.isnan(kms[0]["value"]) and not kms[0]["pass"]


@pytest.mark.parametrize("length, beta", [("6", "100"), ("6", "150"),
                                          ("8", "5")])
def test_gibbs_passes_at_low_temperature(length, beta, capsys):
    # the Gibbs defect carries no exponential weight, so an exact Gibbs
    # state passes at any temperature
    assert run(["gibbs", "--length", length, "--beta", beta]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()
             if l.strip()]
    assert [rec["check"] for rec in lines] == ["kms_residual", "evenness"]


def test_unknown_verb_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["perturb", "--length", "4"],                      # verb needs a region
    ["lts", "--length", "4", "--region", "1,x"],       # malformed site list
    ["lts", "--length", "4", "--region", "9"],         # site off the chain
    ["validate", "--length", "13"],                    # chain too long
    [],                                                # no command anywhere
    ["validate", "--model", "bogus"],                  # unknown model
    ["validate", "--config", "/no/such/file.ini"],     # missing config
    ["lts", "--length", "3", "--region", "1", "--seed", "-1"],  # seed < 0
])
def test_usage_errors_exit_two(argv, capsys):
    assert run(argv) == 2
    assert "error" in capsys.readouterr().err


def test_duplicate_region_sites_exit_two(capsys):
    assert run(["perturb", "--length", "4", "--region", "1,1"]) == 2
    captured = capsys.readouterr()
    assert "[1] given more than once" in captured.err
    assert captured.out == ""


def test_wrong_model_parameters_exit_two(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = validate\nlength = 4\n"
                      "[model]\nw = 1.0\n")
    assert run(["--config", str(config)]) == 2
    assert "does not accept parameters" in capsys.readouterr().err


def test_bad_config_key_exits_two(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = validate\ncolour = blue\n")
    assert run(["--config", str(config)]) == 2
    assert "colour" in capsys.readouterr().err


@pytest.mark.parametrize("key, text", [("length", "four"), ("beta", "hot"),
                                       ("seed", "1.5"), ("samples", "many"),
                                       ("region", "1,x"), ("seed", "-1")])
def test_bad_config_value_exits_two(key, text, tmp_path, capsys):
    values = {"command": "lts", "length": "3", "region": "1", key: text}
    config = tmp_path / "run.ini"
    config.write_text("[run]\n" + "".join(f"{k} = {v}\n"
                                          for k, v in values.items()))
    assert run(["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""


@pytest.mark.parametrize("text", [
    "[run]\ncommand = validate\nlength = 3\nlength = 4\n",   # repeated key
    "command = validate\nlength = 3\n",                       # no section
    "[run]\ncommand = validate\nout = 50%.jsonl\n",           # bad interpolation
])
def test_malformed_config_file_exits_two_and_names_it(text, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert run(["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert str(config) in captured.err and "malformed" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_nonnumeric_model_parameter_exits_two(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = validate\n[model]\nt = fast\n")
    assert run(["--config", str(config)]) == 2


@pytest.mark.parametrize("key, text", [("t", "nan"), ("mu", "inf"),
                                       ("mu", "-inf")])
def test_nonfinite_model_parameter_exits_two(key, text, tmp_path, capsys):
    # refused before the verb runs, as a non-finite beta is, rather than
    # ending in a LinAlgError record
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = gibbs\nlength = 3\n"
                      f"[model]\n{key} = {text}\n")
    assert run(["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert f"error: {key} must be finite, got {text}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_reports_use_the_fixed_key_order(tmp_path):
    out = tmp_path / "report.jsonl"
    assert run(["prop4", "--length", "5", "--region", "2,3",
                "--out", str(out)]) == 0
    records = read_records(out)
    assert records
    for rec in records:
        assert tuple(rec.keys()) == KEY_ORDER
    names = [rec["check"] for rec in records]
    assert "violate" in names and "gap_identity" in names


def test_identical_runs_are_byte_identical(tmp_path):
    argv = ["lts", "--length", "4", "--region", "1", "--samples", "25",
            "--seed", "3"]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(argv + ["--out", str(first)]) == 0
    assert run(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes()


def test_different_seeds_change_the_lts_report(tmp_path):
    base = ["lts", "--length", "4", "--region", "1", "--samples", "25"]
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(base + ["--seed", "1", "--out", str(first)]) == 0
    assert run(base + ["--seed", "2", "--out", str(second)]) == 0
    assert first.read_bytes() != second.read_bytes()


def test_out_flag_redirects_the_report(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert run(["gibbs", "--length", "4", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""                 # nothing on stdout
    assert out.exists() and read_records(out)


def test_flags_override_config_values(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = gibbs\nlength = 4\nbeta = 0.7\n"
                      "seed = 5\n")
    out = tmp_path / "report.jsonl"
    assert run(["--config", str(config), "--beta", "1.3",
                "--out", str(out)]) == 0
    records = read_records(out)
    assert all(rec["beta"] == 1.3 for rec in records)   # flag wins
    assert all(rec["seed"] == 5 for rec in records)     # file value kept


def test_config_file_can_carry_the_whole_run(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = perturb\nlength = 5\nregion = 2\n"
                      "[model]\nt = 0.8\nmu = 0.3\n")
    out = tmp_path / "report.jsonl"
    assert run(["--config", str(config), "--out", str(out)]) == 0
    names = {rec["check"] for rec in read_records(out)}
    assert names == {"decoupled_even", "product_property", "entropy_bound"}


# ---------------------------------------------------------------------------
# breakdown handling
# ---------------------------------------------------------------------------


def test_computation_breakdown_yields_a_diagnostic_record(monkeypatch,
                                                          tmp_path, capsys):
    def broken(cfg):
        raise RuntimeError("synthetic breakdown")

    monkeypatch.setitem(cli.DISPATCH, "gibbs", broken)
    out = tmp_path / "report.jsonl"
    assert run(["gibbs", "--length", "3", "--out", str(out)]) == 1
    records = read_records(out)
    assert len(records) == 1
    assert records[0]["check"] == "error" and not records[0]["pass"]
    assert "synthetic breakdown" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["perturb", "entropy", "prop4"])
def test_low_temperature_runs_report_their_checks(verb, tmp_path):
    # at beta = 50 the smallest Gibbs eigenvalues are about 1e-17 of the
    # largest; the closed-form logs keep every relative entropy finite, so
    # the checks are reported instead of an error record, and they pass:
    # prop4's noneven state does not shrink with the smallest eigenvalue
    out = tmp_path / "report.jsonl"
    status = run([verb, "--length", "4", "--region", "1", "--beta", "50",
                  "--out", str(out)])
    records = read_records(out)
    assert records and all(r["check"] != "error" for r in records)
    assert status == 0 and all(r["pass"] for r in records)


def test_a_violated_entropy_bound_is_a_failed_check(monkeypatch, tmp_path):
    # with H(I) read as zero the bound 2 |beta| ||H(I)|| is 0, below both
    # relative entropies: perturb reports entropy_bound as failed beside
    # its other checks, not an error record.  The states module is patched
    # too (where it has the name), so no guard there can raise first.
    real = cli.local_hamiltonian

    def zero(potential, region):
        return 0.0 * real(potential, region)

    monkeypatch.setattr(cli, "local_hamiltonian", zero)
    monkeypatch.setattr(states, "local_hamiltonian", zero, raising=False)
    out = tmp_path / "report.jsonl"
    assert run(["perturb", "--length", "4", "--region", "1,2",
                "--out", str(out)]) == 1
    by_name = {rec["check"]: rec for rec in read_records(out)}
    assert list(by_name) == ["decoupled_even", "product_property",
                             "entropy_bound"]
    assert by_name["decoupled_even"]["pass"]
    assert by_name["product_property"]["pass"]
    assert not by_name["entropy_bound"]["pass"]
    assert by_name["entropy_bound"]["value"] < -1e-8


def test_lts_passes_at_beta_50_on_one_site(tmp_path):
    # the slice's smallest weights fall below 1e-13 at beta = 50; the bound
    # takes the log of the Gibbs state's closed form, not of the slice
    out = tmp_path / "report.jsonl"
    assert run(["lts", "--length", "4", "--region", "1", "--beta", "50",
                "--samples", "20", "--out", str(out)]) == 0
    by_name = {r["check"]: r for r in read_records(out)}
    assert list(by_name) == ["feasible_residual", "margin_samples",
                             "margin_maximizer"]
    assert all(r["pass"] for r in by_name.values())
    assert abs(by_name["margin_maximizer"]["value"]) <= 1e-13


@pytest.mark.parametrize("length, region, beta", [(8, "2,3", "100"),
                                                  (4, "1", "200")])
def test_lts_bound_alone_passes_where_the_weights_underflow(length, region,
                                                            beta, tmp_path):
    # the Gibbs state's smallest weight underflows to 0.0; with no
    # competitor to draw, nothing asks for it, and the bound passes
    out = tmp_path / "report.jsonl"
    assert run(["lts", "--length", str(length), "--region", region,
                "--beta", beta, "--samples", "0", "--out", str(out)]) == 0
    records = read_records(out)
    assert [r["check"] for r in records] == ["feasible_residual",
                                             "margin_maximizer"]
    assert all(r["pass"] for r in records)


def test_lts_samples_where_the_weights_underflow_name_the_cause(tmp_path,
                                                                capsys):
    # no competitor can be scaled to a weight of 0.0: none is drawn, the
    # report is that of --samples 0, and one stderr line says why
    argv = ["lts", "--length", "4", "--region", "1", "--beta", "200"]
    drawn, alone = tmp_path / "drawn.jsonl", tmp_path / "alone.jsonl"
    assert run([*argv, "--samples", "2", "--out", str(drawn)]) == 0
    err = capsys.readouterr().err
    assert run([*argv, "--samples", "0", "--out", str(alone)]) == 0
    assert "underflows" not in capsys.readouterr().err
    assert drawn.read_bytes() == alone.read_bytes()
    notes = [line for line in err.splitlines() if "underflows" in line]
    assert notes == ["fermichain: lts: the smallest eigenvalue of the Gibbs "
                     "base underflows to 0.0 at beta = 200: no competitor is "
                     "drawn, and the bound alone is the verdict"]


@pytest.mark.parametrize("model", ["hopping", "tv", "raw-number"])
@pytest.mark.parametrize("beta", ["50", "100", "200"])
def test_lts_passes_at_low_temperature(model, beta, tmp_path, capsys):
    # with competitors where the smallest weight leaves room to scale one,
    # and the bound alone where it underflows
    out = tmp_path / "report.jsonl"
    for length in range(2, 7):
        for region in ("0", "1", "0,1"):
            argv = ["lts", "--length", str(length), "--model", model,
                    "--beta", beta, "--region", region, "--samples", "20",
                    "--out", str(out)]
            assert run(argv) == 0, argv
            underflows = "underflows to 0.0" in capsys.readouterr().err
            by_name = {r["check"]: r for r in read_records(out)}
            assert by_name["margin_maximizer"]["pass"], argv
            assert ("margin_samples" not in by_name) == underflows, argv


def test_an_error_record_names_the_region_of_the_check_records(monkeypatch,
                                                               tmp_path):
    # the label is decided once per run, before the verb runs: sites given
    # out of order are reported sorted by an error record too, as the
    # check records of the same probe are
    argv = ["lts", "--length", "5", "--region", "2,1", "--samples", "5"]
    refused, passed = tmp_path / "refused.jsonl", tmp_path / "passed.jsonl"
    assert run(argv + ["--out", str(passed)]) == 0

    def broken(cfg):
        raise ValueError("synthetic breakdown")

    monkeypatch.setitem(cli.DISPATCH, "lts", broken)
    assert run(argv + ["--out", str(refused)]) == 1
    assert [r["check"] for r in read_records(refused)] == ["error"]
    labels = {r["region"] for r in read_records(refused) + read_records(passed)}
    assert labels == {"1,2"}


def test_memory_error_yields_a_diagnostic_record(monkeypatch, tmp_path,
                                                 capsys):
    def exhausted(cfg):
        raise MemoryError("synthetic allocation failure")

    monkeypatch.setitem(cli.DISPATCH, "gibbs", exhausted)
    out = tmp_path / "report.jsonl"
    assert run(["gibbs", "--length", "3", "--out", str(out)]) == 1
    records = read_records(out)
    assert len(records) == 1
    assert tuple(records[0].keys()) == KEY_ORDER
    assert records[0]["check"] == "error" and not records[0]["pass"]
    # gibbs reports on the whole chain
    assert records[0]["region"] == "0,1,2"
    err = capsys.readouterr().err
    assert ("fermichain: error: MemoryError: synthetic allocation failure"
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", ["validate", "gibbs", "remark2"])
def test_a_region_for_a_verb_that_takes_none_exits_two(verb, tmp_path,
                                                       capsys):
    # validate and gibbs report on the whole chain and remark2 on site 0, so
    # a region from a flag or a config file is refused before the run
    config = tmp_path / "run.ini"
    config.write_text(f"[run]\ncommand = {verb}\nlength = 3\nregion = 1\n")
    for argv in ([verb, "--length", "3", "--region", "1"],
                 ["--config", str(config)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "takes no region" in captured.err and captured.out == ""


@pytest.mark.parametrize("verb", [v for v in cli.COMMANDS if v != "lts"])
def test_samples_for_a_verb_other_than_lts_exits_two(verb, tmp_path, capsys):
    # only lts draws competitors, so a sample count from a flag or a config
    # file is refused before the run, as a region is where none is taken
    region = ["--region", "1"] if verb in cli._PROBES else []
    config = tmp_path / "run.ini"
    config.write_text(f"[run]\ncommand = {verb}\nlength = 3\nsamples = 5\n"
                      + ("region = 1\n" if region else ""))
    for argv in ([verb, "--length", "3", *region, "--samples", "5"],
                 ["--config", str(config)]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert "takes no samples" in captured.err and captured.out == ""


def test_empty_record_list_counts_as_success(monkeypatch, capsys):
    monkeypatch.setitem(cli.DISPATCH, "gibbs", lambda cfg: [])
    assert run(["gibbs", "--length", "3"]) == 0
    assert "0/0 checks passed" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_path_exits_two_before_the_run(where, tmp_path,
                                                      monkeypatch, capsys):
    def must_not_run(cfg):
        raise AssertionError("the verb ran before the output path was checked")

    monkeypatch.setitem(cli.DISPATCH, "validate", must_not_run)
    out = tmp_path / "absent" / "r.jsonl" if where == "missing directory" \
        else tmp_path
    assert run(["validate", "--length", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fermichain: error: ")
    assert captured.err.count("\n") == 1
    assert str(out.parent if where == "missing directory" else out) \
        in captured.err


def test_dispatch_usage_error_exits_two(monkeypatch, capsys):
    def needs_more(cfg):
        raise UsageError("this verb wants something else")

    monkeypatch.setitem(cli.DISPATCH, "gibbs", needs_more)
    assert run(["gibbs", "--length", "3"]) == 2
    assert "wants something else" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# low temperature
# ---------------------------------------------------------------------------

PROBE_VERBS = ("perturb", "entropy", "lts", "prop4", "ssb-probe")


@pytest.mark.parametrize("model", ["hopping", "tv", "raw-number"])
@pytest.mark.parametrize("beta", ["20", "50", "100", "200"])
def test_every_verb_runs_at_low_temperature(model, beta, tmp_path, capsys):
    # every run passes but validate on the raw number model, which fails
    # standardness by design; where the smallest Gibbs weight underflows,
    # lts draws no competitor and passes on the bound alone
    out = tmp_path / "report.jsonl"
    for verb in cli.COMMANDS:
        for region in (["0", "2,3"] if verb in PROBE_VERBS else [None]):
            argv = [verb, "--length", "6", "--model", model, "--beta", beta,
                    "--out", str(out)]
            if region is not None:
                argv += ["--region", region]
            if verb == "lts":
                argv += ["--samples", "5"]
            status = run(argv)
            err = capsys.readouterr().err
            failed = [r["check"] for r in read_records(out) if not r["pass"]]
            if verb == "validate" and model == "raw-number":
                assert status == 1 and failed == ["standard"], argv
            else:
                assert status == 0 and not failed, (argv, err)


# ---------------------------------------------------------------------------
# the remaining verbs, smoke level
# ---------------------------------------------------------------------------


def test_remark2_verb_reports_the_unit_expectation(tmp_path):
    out = tmp_path / "report.jsonl"
    assert run(["remark2", "--length", "4", "--out", str(out)]) == 0
    by_name = {rec["check"]: rec for rec in read_records(out)}
    assert abs(by_name["odd_expectation"]["value"] - 1.0) < 1e-10
    assert by_name["vector_asymmetry"]["pass"]


def test_remark2_runs_on_one_site(tmp_path):
    # outside site 0 the chain is empty: the restriction there is the 1 x 1
    # density, whose grading is the identity
    out = tmp_path / "report.jsonl"
    assert run(["remark2", "--length", "1", "--out", str(out)]) == 0
    records = read_records(out)
    assert [r["check"] for r in records] == ["restriction_residual",
                                             "odd_expectation",
                                             "vector_asymmetry"]
    assert all(r["pass"] for r in records)


def test_ssb_probe_verb_covers_all_probes(tmp_path):
    out = tmp_path / "report.jsonl"
    assert run(["ssb-probe", "--length", "5", "--region", "2",
                "--out", str(out)]) == 0
    names = [rec["check"] for rec in read_records(out)]
    assert names == ["grading_asymmetry", "odd_correlation_real",
                     "cluster_decay", "odd_scan"]


def test_ssb_probe_on_the_whole_chain_skips_the_outside_probes(tmp_path):
    # with nothing outside the region there is no disjoint partner for the
    # odd elements, so only the asymmetry is measured
    out = tmp_path / "report.jsonl"
    assert run(["ssb-probe", "--length", "3", "--region", "0,1,2",
                "--out", str(out)]) == 0
    assert [rec["check"] for rec in read_records(out)] == ["grading_asymmetry"]


def test_entropy_verb_passes(tmp_path):
    out = tmp_path / "report.jsonl"
    assert run(["entropy", "--length", "5", "--region", "2",
                "--out", str(out)]) == 0
    names = {rec["check"] for rec in read_records(out)}
    assert names == {"relative_entropy", "conditional_entropy", "monotonicity"}


def test_gibbs_holds_a_few_dense_matrices():
    # the state, H, its eigenvectors and the check's change of basis: a few
    # N x N complex arrays at a time
    lattice = 6
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = cli.run_gibbs(cli.RunConfig("gibbs",
                                              lattice_size=lattice))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [r.check for r in records] == ["kms_residual", "evenness"]
    assert all(r.passed for r in records)
    assert peak <= 8 * car.dim(lattice) ** 2 * 16


def test_resolve_config_handles_region_from_file(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\ncommand = lts\nregion = 1, 2\nlength = 5\n")
    parser = cli.build_parser()
    cfg = resolve_config(parser.parse_args(["--config", str(config)]))
    assert cfg.region_sites == (1, 2)
    assert cfg.command == "lts"


def run_python(args, address_space=None):
    """``python *args`` in a child that imports the package from where this
    process did, under an address-space cap when one is given."""
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          preexec_fn=None if address_space is None else cap)


def run_module(argv, address_space=None):
    """``python -m fermichain *argv`` in a child (see :func:`run_python`)."""
    return run_python(["-m", "fermichain", *argv], address_space)


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "report.jsonl"
    proc = run_module(["validate", "--length", "3", "--out", str(out)])
    assert proc.returncode == 0
    assert read_records(out)


def test_validate_at_twelve_sites_fits_in_one_gib(tmp_path):
    # the terms live on their supports, so checking the potential never
    # forms a 2**12 x 2**12 matrix (256 MiB each)
    out = tmp_path / "report.jsonl"
    proc = run_module(["validate", "--length", "12", "--out", str(out)],
                      address_space=1 << 30)
    assert proc.returncode == 0, proc.stderr
    records = read_records(out)
    assert [r["check"] for r in records] == ["support", "self_adjoint",
                                              "even", "standard"]
    assert all(r["pass"] for r in records)


# Runs every verb at L = 4 in one child and prints the exit statuses and
# whether scipy was imported; with "block" as the first argument scipy is
# made unimportable before the package is.
ALL_VERBS_WITHOUT_SCIPY = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from fermichain import cli
statuses = {}
for verb in cli.COMMANDS:
    argv = [verb, "--length", "4", "--out", f"{sys.argv[2]}/{verb}.jsonl"]
    if verb in ("perturb", "entropy", "lts", "prop4", "ssb-probe"):
        argv += ["--region", "1,2"]
    if verb == "lts":
        argv += ["--samples", "20"]
    statuses[verb] = cli.main(argv)
imported = sys.modules.get("scipy") is not None
print(json.dumps({"statuses": statuses, "scipy": imported}))
"""


def test_every_verb_runs_with_scipy_unimportable(tmp_path):
    reports = {}
    for mode in ("block", "allow"):
        out = tmp_path / mode
        out.mkdir()
        proc = run_python(["-c", ALL_VERBS_WITHOUT_SCIPY, mode, str(out)])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["statuses"] == {verb: 0 for verb in cli.COMMANDS}, \
            proc.stderr
        assert not result["scipy"]
        reports[mode] = {verb: (out / f"{verb}.jsonl").read_bytes()
                         for verb in cli.COMMANDS}
    assert reports["block"] == reports["allow"]
    assert all(reports["block"].values())
