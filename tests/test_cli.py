import inspect
import json

import pytest

from conftest import SCHEMES
from smoothsieve import cli, gf, graded, linalg, mpoly, sieve, variety, zeta
from smoothsieve.cli import UsageError, parse_args, render, run


def s(schemes_dir, name):
    return str(schemes_dir / name)


def test_parse_args_predict(schemes_dir):
    cfg = parse_args(["predict", "--scheme", s(schemes_dir, "nodal_cubic.scm"),
                      "--q", "2"])
    assert cfg.subcommand == "predict"
    assert cfg.q == 2


def test_parse_args_estimate_range(schemes_dir):
    cfg = parse_args(["estimate", "--scheme", s(schemes_dir, "p2.scm"),
                      "-d", "3..5", "--budget", "exhaustive", "--exact"])
    assert cfg.degrees == (3, 4, 5)
    assert cfg.budget == ("exhaustive",)
    assert cfg.exact is True


def test_parse_args_bad_budget(schemes_dir):
    with pytest.raises(UsageError) as info:
        parse_args(["estimate", "--scheme", s(schemes_dir, "p2.scm"),
                    "-d", "3", "--budget", "sample:banana"])
    assert "banana" in str(info.value)


def test_parse_args_bad_degree(schemes_dir):
    with pytest.raises(UsageError):
        parse_args(["estimate", "--scheme", s(schemes_dir, "p2.scm"),
                    "-d", "5..3"])


def test_parse_args_leaves_nothing_for_the_next_parse(schemes_dir):
    # one parser serves every call, so no flag of a parse may reach the next
    scheme = s(schemes_dir, "p2.scm")
    first = parse_args(["singdist", "estimate", "--scheme", scheme, "-d", "2",
                        "--exact", "--q", "3"])
    assert (first.exact, first.q, first.mode) == (True, 3, "estimate")
    second = parse_args(["estimate", "--scheme", scheme, "-d", "2"])
    assert second == cli.RunConfig("estimate", scheme, degrees=(2,))
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("extra,message", [
    (["-d", "3", "--samples", "-3"],
     "--samples -3: sample size must be a positive integer"),
    (["-d", "3", "--samples", "0"],
     "--samples 0: sample size must be a positive integer"),
    (["-d", "3..5", "--samples", "10"],
     "--degree '3..5': lowdeg --samples needs a single degree D"),
    (["--samples", "10"], "lowdeg --samples needs --degree")])
def test_lowdeg_bad_samples_refused_before_loading(schemes_dir, capsys,
                                                   monkeypatch, extra,
                                                   message):
    loaded = []
    monkeypatch.setattr(cli.variety, "load_problem",
                        lambda *args: loaded.append(args))
    argv = ["lowdeg", "--scheme", s(schemes_dir, "p2.scm"), "--r", "2"]
    assert cli.main(argv + extra) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert loaded == []


@pytest.mark.parametrize("command", [["estimate"], ["singdist", "estimate"]])
@pytest.mark.parametrize("bound", ["0", "-2"])
def test_sing_bound_below_one_refused_before_loading(schemes_dir, capsys,
                                                     monkeypatch, command,
                                                     bound):
    loaded = []
    monkeypatch.setattr(cli.variety, "load_problem",
                        lambda *args: loaded.append(args))
    argv = command + ["--scheme", s(schemes_dir, "p2.scm"), "-d", "3",
                      "--budget", "exhaustive", "--bounded", "--sing-bound",
                      bound]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        f"usage error: --sing-bound {bound}: the bound must be a positive "
        f"integer\n")
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["predict", "--scheme", "nodal_cubic.scm", "--max-degree", "0"],
    ["predict", "--scheme", "nodal_cubic.scm", "--max-degree", "-1"],
    ["points", "--scheme", "nodal_cubic.scm", "--max-degree", "-3"]])
def test_max_degree_below_one_refused_before_loading(schemes_dir, capsys,
                                                     monkeypatch, argv):
    # a bound of 0 saw no point at all and reported the density 1
    loaded = []
    monkeypatch.setattr(cli.variety, "load_problem",
                        lambda *args: loaded.append(args))
    argv[2] = s(schemes_dir, argv[2])
    assert cli.main(argv) == 1
    assert capsys.readouterr() == (
        "", f"usage error: --max-degree {argv[-1]}: the bound must be a "
            f"positive integer\n")
    assert loaded == []


@pytest.mark.parametrize("argv,message", [
    (["zeta", "--scheme", "p2.scm", "--s", "3", "--ell", "-1"],
     "--ell -1: ell must be a nonnegative integer"),
    (["singdist", "predict", "--scheme", "p2.scm", "--q", "2", "--ell-max",
      "-1"], "--ell-max -1: ell must be a nonnegative integer"),
    (["embed", "--scheme", "nodal_cubic.scm", "--d-min", "5", "--d-max", "3"],
     "--d-min 5 exceeds --d-max 3: no degree to try"),
    (["embed", "--scheme", "nodal_cubic.scm", "--d-min", "-4", "--d-max",
      "1"], "--d-min -4: the degree must be a positive integer"),
    # no point has degree below 0: the prediction read 1
    (["lowdeg", "--scheme", "p2.scm", "--r", "-2"],
     "--r -2: the bound must be a positive integer"),
    # no curve lies on a smooth scheme of dimension 0: the report read
    # "obstructed"
    (["embed", "--scheme", "nodal_cubic.scm", "--target-dim", "0"],
     "--target-dim 0: the dimension must be a positive integer"),
    (["embed", "--scheme", "nodal_cubic.scm", "--target-dim", "-1"],
     "--target-dim -1: the dimension must be a positive integer"),
    # no point has degree below 1 either: the prediction read 1 as well
    (["lowdeg", "--scheme", "p2.scm", "--r", "1"],
     "--r 1: no closed point has degree below 1, so the product would be "
     "empty")])
def test_out_of_range_integers_refused_before_loading(schemes_dir, capsys,
                                                      monkeypatch, argv,
                                                      message):
    loaded = []
    monkeypatch.setattr(cli.variety, "load_problem",
                        lambda *args: loaded.append(args))
    at = argv.index("--scheme") + 1
    argv[at] = s(schemes_dir, argv[at])
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")
    assert loaded == []


def test_parse_args_missing_required():
    with pytest.raises(UsageError):
        parse_args(["predict"])


def test_run_predict_nodal(schemes_dir):
    cfg = parse_args(["predict", "--scheme", s(schemes_dir, "nodal_cubic.scm")])
    code, report = run(cfg)
    assert code == 0
    assert report["schema"] == 1
    assert report["result"]["value"] == "15/128"
    parts = {(f["part"], f["s"]): f["zeta"] for f in report["result"]["factors"]}
    assert parts == {("X-V", 4): "128/45", ("V_1", 2): "3/2", ("V_2", 1): "2"}


def test_run_singdist_predict_p2(schemes_dir):
    cfg = parse_args(["singdist", "predict", "--scheme",
                      s(schemes_dir, "p2.scm"), "--ell-max", "1"])
    code, report = run(cfg)
    assert code == 0
    entries = report["result"]["entries"]
    assert entries["0"]["value"] == "21/64"
    assert entries["1"]["value"] == "21/64"


def test_run_predict_degenerate(schemes_dir):
    cfg = parse_args(["predict", "--scheme",
                      s(schemes_dir, "nonreduced_line.scm")])
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["value"] == "0"
    hc = report["result"]["hypothesis_check"]
    assert hc["status"] == "violated" and hc["e"] == 2


def test_run_embed_obstruction_exit_2(schemes_dir):
    cfg = parse_args(["embed", "--scheme",
                      s(schemes_dir, "obstructed_axes.scm"),
                      "--target-dim", "2"])
    code, report = run(cfg)
    assert code == 2
    wit = report["result"]["witness"]
    assert wit["embedding_dimension"] == 3
    assert wit["representative"] == ["0", "0", "0", "1"]


def test_run_embed_success(schemes_dir):
    cfg = parse_args(["embed", "--scheme", s(schemes_dir, "nodal_cubic.scm"),
                      "--target-dim", "2", "--d-max", "8"])
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["status"] == "success"
    assert report["result"]["chain"]


def test_run_points(schemes_dir):
    cfg = parse_args(["points", "--scheme", s(schemes_dir, "nodal_cubic.scm"),
                      "--max-degree", "2"])
    code, report = run(cfg)
    assert code == 0
    pts = report["result"]["points"]
    assert {(p["degree"], p["e"]) for p in pts} == {(1, 1), (1, 2), (2, 1)}


def test_run_zeta(schemes_dir):
    cfg = parse_args(["zeta", "--scheme", s(schemes_dir, "p2.scm"),
                      "--s", "3", "--s", "4"])
    code, report = run(cfg)
    assert code == 0
    vals = {v["s"]: v["exact"] for v in report["result"]["values"]}
    assert vals[3] == "64/21"


def test_run_lowdeg(schemes_dir):
    cfg = parse_args(["lowdeg", "--scheme", s(schemes_dir, "p2.scm"),
                      "--r", "2"])
    code, report = run(cfg)
    assert code == 0
    assert report["result"]["predicted"] == "823543/2097152"


def test_sampled_invocations_identical_bytes(schemes_dir):
    args = ["estimate", "--scheme", s(schemes_dir, "p2.scm"), "-d", "3",
            "--budget", "sample:300", "--seed", "11"]
    outs = []
    for _ in range(2):
        code, report = run(parse_args(args))
        outs.append((code, json.dumps(report, indent=2)))
    assert outs[0] == outs[1]


def test_identical_invocations_identical_bytes(schemes_dir):
    args = ["singdist", "estimate", "--scheme", s(schemes_dir, "p1.scm"),
            "-d", "2..3", "--budget", "exhaustive", "--seed", "5"]
    blobs = set()
    for _ in range(2):
        blobs.add(json.dumps(run(parse_args(args))[1], indent=2))
    assert len(blobs) == 1


def test_csv_output(schemes_dir):
    cfg = parse_args(["estimate", "--scheme", s(schemes_dir, "p1.scm"),
                      "-d", "2", "--out", "csv"])
    code, report = run(cfg)
    text = render(report, "csv")
    lines = text.splitlines()
    assert lines[0] == "d,metric,value"
    assert any(line.startswith("2,") for line in lines[1:])


def test_main_exit_codes(schemes_dir, capsys):
    assert cli.main(["predict", "--scheme",
                     s(schemes_dir, "nodal_cubic.scm")]) == 0
    capsys.readouterr()
    assert cli.main(["predict", "--scheme", "/nonexistent.scm"]) == 1
    capsys.readouterr()
    assert cli.main(["estimate", "--scheme", s(schemes_dir, "p2.scm"),
                     "-d", "3", "--budget", "sample:banana"]) == 1
    err = capsys.readouterr().err
    assert "banana" in err
    assert cli.main(["embed", "--scheme", s(schemes_dir, "obstructed_axes.scm"),
                     "--target-dim", "2"]) == 2
    capsys.readouterr()


def test_main_renders_json(schemes_dir, capsys):
    assert cli.main(["singdist", "predict", "--scheme",
                     s(schemes_dir, "p2.scm"), "--ell-max", "1"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["result"]["entries"]["1"]["value"] == "21/64"


@pytest.mark.parametrize("text,argv,kind", [
    ("q = 2\nP 2 : x y z\nX:\n  x + y^2\n", [], "HomogeneityError"),
    ("q = 2\nP 2 : x y z\nZ:\n  x*u\n", [], "ParseError"),
    ("q = 2\nP 2 : x y z\nX:\n  x^a\n", [], "ParseError"),
    ("q = 6\nP 2 : x y z\n", [], "SchemeFileError"),
    ("q = two\nP 2 : x y z\n", [], "SchemeFileError"),
    ("q = 2\nP 2 : x x z\n", [], "SchemeFileError"),
    ("q = 2\nP -1 :\n", [], "SchemeFileError"),
    ("q = 2\nP 2 : x y z\nX:\n  x\ndim X = a\n", [], "SchemeFileError"),
    ("q = 9 [x^2 + 2]\nP 2 : x y z\n", [], "ReducibleModulusError"),
    ("q = 4^2\nP 2 : x y z\n", [], "NonPrimeError"),
    ("q = 2\nP 2 : x y z\nX:\n  x\n", [], "MissingProfile"),
    (None, [], "FileNotFoundError"),
    ("q = 2\nP 2 : x y z\n", ["estimate", "-d", "6"],
     "EnumerationCapExceeded"),
    ("q = 2\nP 2 : x y z\nX:\nX.remove:\n  x\n",
     ["estimate", "-d", "2", "--exact"], "UnsupportedPresentation"),
    ("q = 2\nP 2 : x y z\nX:\n  (x+y)^2\n", [], "ParseError"),
    ("q = 2\nP 2 : x y z\nX:\n  (x+y)*z\n", [], "ParseError"),
    ("q = 4\nP 2 : x y z\nX:\n  (x+y)^2\n", [], "ParseError"),
    ("q = 4\nP 2 : x y z\nX:\n  (x+y)*z\n", [], "ParseError"),
    # exact values past Python's 4,300-digit limit on printing an integer
    ((SCHEMES / "nodal_cubic.scm").read_text(), ["lowdeg", "--r", "5"],
     "ValueTooLarge"),
    ((SCHEMES / "cuspidal_cubic.scm").read_text(),
     ["lowdeg", "--q", "3", "--r", "4"], "ValueTooLarge"),
    # moduli and field literals, read by the grammar of the equations
    ("q = 9 [x^2 + y]\nP 2 : x y z\n", [], "SchemeFileError"),
    ("q = 9 [x^a + 1]\nP 2 : x y z\n", [], "SchemeFileError"),
    ("q = 4\nP 2 : x y z\nX:\n  (g^)*x\n", [], "ParseError"),
    ("q = 4\nP 2 : x y z\nX:\n  ((g))*x\n", [], "ParseError"),
    # 2^66 forms pass this cap but not the int64 candidate indices
    ((SCHEMES / "p2.scm").read_text(),
     ["estimate", "--q", "2", "-d", "10", "--budget", "exhaustive",
      "--sing-bound", "1", "--bounded",
      "--cap", "100000000000000000000000"], "EnumerationCapExceeded")])
def test_bad_input_fails_closed(tmp_path, capsys, text, argv, kind):
    # one `error [Type]` line on stderr, nothing on stdout, exit code 1
    path = tmp_path / "bad.scm"
    if text is not None:
        path.write_text(text)
    command = argv[:1] or ["predict"]
    assert cli.main(command + ["--scheme", str(path)] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error [{kind}]: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_library_errors_share_one_base():
    # every exception class of the library but the two the command line
    # reports on their own derives from gf.SmoothsieveError, which main
    # catches once
    own = {cli.UsageError, sieve.NoSmoothHypersurfaceFound}
    found = [cls for module in (gf, graded, linalg, mpoly, sieve, variety,
                                zeta, cli)
             for _, cls in inspect.getmembers(module, inspect.isclass)
             if issubclass(cls, BaseException)
             and cls.__module__ == module.__name__]
    assert own <= set(found) and len(found) > len(own) + 10
    assert [cls for cls in found if cls not in own
            and not issubclass(cls, gf.SmoothsieveError)] == []
    assert issubclass(gf.SmoothsieveError, ValueError)
