import json
import math
import re
import shutil
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rzspec import cli, landau, perron
from rzspec import zeta as ze


def run(args):
    return cli.main(args)


class TestZerosCommand:
    def test_anchor_ordinates(self, tmp_path):
        out = tmp_path / "a"
        assert run(["zeros", "--t-max", "25", "--out", str(out)]) == 0
        lines = (out / "zeros.csv").read_text().splitlines()
        assert lines[0] == "index,t,z_prime,zeta_prime_re,zeta_prime_im"
        ts = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(ts) == 2
        assert ts[0] == pytest.approx(14.134725141734694, abs=1e-6)
        assert ts[1] == pytest.approx(21.022039638771555, abs=1e-6)
        assert (out / "zeros.svg").is_file()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["zeros", "--t-max", "21", "--out", str(a)])
        run(["zeros", "--t-max", "21", "--out", str(b)])
        assert (a / "zeros.csv").read_bytes() == (b / "zeros.csv").read_bytes()
        assert (a / "zeros.svg").read_bytes() == (b / "zeros.svg").read_bytes()

    def test_cache_appends_without_mutation(self, tmp_path):
        out = tmp_path / "a"
        cache = tmp_path / "cache.json"
        run(["zeros", "--t-max", "22", "--out", str(out), "--cache", str(cache)])
        first = json.loads(cache.read_text())
        run(["zeros", "--t-max", "33", "--out", str(out), "--cache", str(cache)])
        second = json.loads(cache.read_text())
        assert len(second["zeros"]) > len(first["zeros"])
        assert second["zeros"][: len(first["zeros"])] == first["zeros"]

    def test_each_height_is_counted_once(self, tmp_path, monkeypatch):
        # a build from empty counts the zeros at its height; an append at the cache's height, on
        # load, and at the new one
        count, heights = ze.exact_zero_count, []
        monkeypatch.setattr(ze, "exact_zero_count", lambda t: heights.append(t) or count(t))
        args = ["--out", str(tmp_path / "out"), "--cache", str(tmp_path / "cache.json")]
        assert run(["zeros", "--t-max", "60"] + args) == 0
        assert heights == [60.0]
        assert run(["zeros", "--t-max", "100"] + args) == 0
        assert heights == [60.0, 60.0, 100.0]

    def test_cache_dir_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RZ_CACHE_DIR", str(tmp_path / "cachedir"))
        out = tmp_path / "o"
        run(["zeros", "--t-max", "15", "--out", str(out)])
        assert (tmp_path / "cachedir" / "zeros_cache.json").is_file()


class TestInterferometerCommand:
    def test_layout_json(self, tmp_path):
        run(["interferometer", "--n-max", "10", "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "interferometer.json").read_text())
        ns = [m["n"] for m in doc["mirrors"]]
        assert ns == [2, 3, 5, 6, 7, 10]
        assert doc["mirrors"][0]["position"] == pytest.approx(0.5 * math.log(2.0))

    def test_character_modulus(self, tmp_path):
        run(["interferometer", "--n-max", "10", "--character-modulus", "4",
             "--out", str(tmp_path)])
        doc = json.loads((tmp_path / "interferometer.json").read_text())
        assert all(m["n"] % 2 == 1 for m in doc["mirrors"])


class TestSweepCommands:
    def test_xih_csv_columns(self, tmp_path):
        run(["xih", "--t-max", "5", "--out", str(tmp_path)])
        header = (tmp_path / "xih.csv").read_text().splitlines()[0]
        assert header == "t,xi_h,xi_polya_star,xi_riemann"

    def test_perron_csv_columns(self, tmp_path):
        run(["perron", "--t-min", "20", "--n-max", "12", "--n-zeros", "20",
             "--out", str(tmp_path)])
        header = (tmp_path / "perron.csv").read_text().splitlines()[0]
        assert header == ("n_or_x,direct_re,direct_im,perron_re,perron_im,"
                          "abs_direct,abs_perron")

    def test_polya_kernels(self, tmp_path):
        run(["polya", "--out", str(tmp_path)])
        lines = (tmp_path / "polya.csv").read_text().splitlines()
        assert lines[0] == "beta,phi_riemann,phi_polya_star,phi_dirac_h"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        mid = min(rows, key=lambda r: abs(r[0]))
        assert mid[3] == pytest.approx(2.0 * math.exp(-2.0 * math.pi), rel=1e-9)
        # the grid is mirrored about its middle row and the kernels are even: the
        # rows at -beta and beta write the same kernel values
        fields = [ln.split(",") for ln in lines[1:]]
        assert all(fields[k] == ["-" + fields[-1 - k][0]] + fields[-1 - k][1:] for k in range(150))


def read_csv(path):
    lines = path.read_text().splitlines()
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def assert_close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= rel * np.maximum(np.abs(want), 1e-300))


class TestResidueCommands:
    """The vectorised CSV columns equal the scalar library calls."""

    def test_mertens_columns(self, tmp_path):
        cache = tmp_path / "cache.json"
        assert run(["mertens", "--n-max", "40", "--n-zeros", "20", "--n-trivial", "10",
                    "--out", str(tmp_path), "--cache", str(cache)]) == 0
        rows = read_csv(tmp_path / "mertens.csv")
        rcfg = perron.ResidueExpansionConfig(ze.ingest_zeros(cache), 20, 10)
        xs = rows[:, 0]
        assert xs.tolist() == [k + 0.5 for k in range(2, 40)]
        assert rows[:, 1].tolist() == [perron.mertens(x) for x in xs]
        assert_close(rows[:, 2], [perron.mertens_residue(x, rcfg) for x in xs])

    @pytest.mark.parametrize("height, at_zero", [("20", False), ("14.1347", True)])
    def test_perron_columns(self, tmp_path, height, at_zero):
        cache = tmp_path / "cache.json"
        assert run(["perron", "--t-min", height, "--n-max", "30", "--n-zeros", "10",
                    "--out", str(tmp_path), "--cache", str(cache)]) == 0
        rows = read_csv(tmp_path / "perron.csv")
        db = ze.ingest_zeros(cache)
        e_val = cli._snap_to_ordinate(float(height), db)
        rcfg = perron.ResidueExpansionConfig(db, 10, 20)
        ns = rows[:, 0].astype(int)
        assert ns.tolist() == list(range(2, 31))
        direct = [perron.m_z_direct(n, e_val, primed=True) for n in ns]
        resid = [perron.m_z_perron(n, e_val, rcfg) for n in ns]
        assert_close(rows[:, 1] + 1j * rows[:, 2], direct)
        assert_close(rows[:, 3] + 1j * rows[:, 4], resid)
        assert ("(at-zero mode)" in (tmp_path / "perron.svg").read_text()) is at_zero

    def test_perron_without_zeros(self, tmp_path):
        # with no zero in it the residue series is its head 1/zeta(z) on every row; the
        # direct columns are those of a run with zeros
        rows = {}
        for name, n_zeros, n_trivial in (("empty", "0", "0"), ("zeros", "10", "20")):
            assert run(["perron", "--n-zeros", n_zeros, "--n-trivial", n_trivial, "--n-max", "20",
                        "--out", str(tmp_path / name), "--cache", str(tmp_path / "cache.json")]) == 0
            rows[name] = [ln.split(",") for ln in (tmp_path / name / "perron.csv").read_text().splitlines()]
        head = 1.0 / ze.zeta(complex(0.5, 20.0))
        assert [r[0] for r in rows["empty"][1:]] == [str(n) for n in range(2, 21)]
        for empty, full in zip(rows["empty"][1:], rows["zeros"][1:], strict=True):
            assert empty[:3] + empty[5:6] == full[:3] + full[5:6]
            assert empty[3:5] + empty[6:] == ["%.17g" % v for v in (
                head.real, head.imag, np.hypot(head.real, head.imag))]


class TestErrorsAndConfig:
    def test_error_json_on_overdraft(self, tmp_path, capsys):
        code = run(["perron", "--n-zeros", "5000", "--out", str(tmp_path)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RZError"

    @pytest.mark.parametrize("command", ["mertens", "perron"])
    def test_published_table_serves_beyond_scan_budget(self, tmp_path, data_dir, command):
        # 1000 zeros reach t ~ 1419, past the computed-scan budget; a cache
        # that already holds them is used as is and left untouched
        cache = tmp_path / "zeros_1000.txt"
        shutil.copyfile(data_dir / "zeros_1000.txt", cache)
        before = cache.read_bytes()
        assert run([command, "--n-zeros", "1000", "--n-max", "20", "--cache", str(cache),
                    "--out", str(tmp_path / "out")]) == 0
        assert cache.read_bytes() == before

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"t_max": 16.0, "out": str(tmp_path / "cfg_out")}))
        run(["zeros", "--config", str(cfgfile)])
        lines = (tmp_path / "cfg_out" / "zeros.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one zero below 16
        # flag beats config
        run(["zeros", "--config", str(cfgfile), "--t-max", "22"])
        lines = (tmp_path / "cfg_out" / "zeros.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_unknown_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        assert run(["zeros", "--t-max", "15", "--config", str(cfgfile)]) == 1
        assert "bogus" in capsys.readouterr().err


    @pytest.mark.parametrize("doc", [{"n_max": [1]}, {"t_max": "16"}, {"n_zeros": 1.5},
                                     {"n_trivial": True}, {"out": 3}, {"epsilon": None},
                                     [["n_max", 1]], {"t_max": math.nan},
                                     {"l_over_ell": -math.inf}, {"epsilon": 10 ** 400}])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, doc):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["zeros", "--t-max", "15", "--config", str(cfgfile),
                    "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RZError"
        assert not out.exists()


class TestOptionTable:
    """Flags, config keys, defaults and the README's flag table come from one option list."""

    # a value of each option type inside every option's range; 16 and 3 are integral floats
    VALUES = {float: 16, int: 7, str: "elsewhere"}
    SAMPLES = {"vartheta": 3}  # the boundary phase lies in [0, 2 pi)

    @pytest.mark.parametrize("key", list(cli._OPTIONS))
    def test_flag_and_config_key_resolve_the_same(self, tmp_path, monkeypatch, key):
        monkeypatch.delenv("RZ_CACHE_DIR", raising=False)
        value = self.SAMPLES.get(key, self.VALUES[cli._OPTIONS[key][0]])
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: value}))
        by_flag = cli.resolve_config(["zeros", "--" + key.replace("_", "-"), str(value)])
        by_file = cli.resolve_config(["zeros", "--config", str(cfgfile)])
        assert by_flag == by_file
        assert type(getattr(by_flag, key)) is type(getattr(by_file, key))
        assert by_flag != cli.resolve_config(["zeros"])

    def test_defaults_are_the_table(self, tmp_path, monkeypatch):
        # each command's defaults, with neither a flag nor a config key, and with a null key
        # wherever null is accepted: for t_max, vartheta, n_max, character_modulus and cache
        monkeypatch.delenv("RZ_CACHE_DIR", raising=False)
        nullable = [k for k, (_, default, _, _) in cli._OPTIONS.items() if cli._per(None, default) is None]
        assert nullable == ["t_max", "vartheta", "n_max", "character_modulus", "cache"]
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({k: None for k in nullable}))
        for command in cli._COMMANDS:
            want = {k: cli._per(command, default) for k, (_, default, _, _) in cli._OPTIONS.items()}
            want.update(out=Path("."), cache=Path(".") / "zeros_cache.json")
            for argv in ([command], [command, "--config", str(cfgfile)]):
                cfg = cli.resolve_config(argv)
                assert {k: getattr(cfg, k) for k in cli._OPTIONS} == want
                assert {k: type(getattr(cfg, k)) for k in ("t_max", "n_max", "vartheta")} == {
                    k: type(want[k]) for k in ("t_max", "n_max", "vartheta")}

    def test_each_default_is_in_its_commands_range(self):
        for command in cli._COMMANDS:
            defaults = {k: cli._per(command, d) for k, (_, d, _, _) in cli._OPTIONS.items()}
            cli._check_config({k: v for k, v in defaults.items() if v is not None}, command)

    def test_readme_states_the_per_command_defaults_and_ranges(self):
        # the README's default and accepted-values cells of --t-max, --n-max and --vartheta
        # name each command's default and range as the table gives them
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        rows = {flag: cells for flag, *cells in re.findall(
            r"^\| `--([a-z-]+)` \| (.*?) \| (.*?) \|$", readme, flags=re.MULTILINE)}

        def bounds(text):  # ">= 3" or "1000 to 1000000"
            lo, _, hi = text.removeprefix(">= ").partition(" to ")
            return int(lo), int(hi) if hi else math.inf

        for flag in ("t-max", "n-max", "vartheta"):
            typ, default, rng, _ = cli._OPTIONS[flag.replace("-", "_")]
            cell, accepted = rows[flag]
            listed = {c: typ(v) for c, v in re.findall(r"`([a-z]+)` (\d+)", cell)}
            assert listed == {c: cli._per(c, default) for c in cli._COMMANDS
                              if cli._per(c, default) is not None}
            ranges = {c: bounds(b) for c, b in re.findall(r"`([a-z]+)` (>= \d+|\d+ to \d+)", accepted)}
            if "[0, 2π)" in accepted:  # one range for every command
                ranges = {c: (0, math.nextafter(2 * math.pi, 0)) for c in cli._COMMANDS}
            assert ranges == {c: cli._per(c, rng) for c in cli._COMMANDS if cli._per(c, rng) is not None}

    @pytest.mark.parametrize("key", ["n_max", "character_modulus", "l_over_ell"])
    def test_size_options_have_finite_ranges(self, key):
        # every command that takes the option bounds it by a budget of the library doing the work
        _, default, rng, _ = cli._OPTIONS[key]
        for command in cli._COMMANDS:
            if isinstance(default, dict) and default.get(command) is None:
                continue  # the command does not read the option
            lo, hi = cli._per(command, rng)
            assert math.isfinite(lo) and math.isfinite(hi), (key, command)

    def test_readme_lists_the_flags_in_order(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        listed = re.findall(r"^\| `(--[a-z-]+)` \|", readme, flags=re.MULTILINE)
        parsed = [a.option_strings[0] for a in cli.build_parser()._actions
                  if a.option_strings and a.dest != "help"]
        assert listed == parsed


class TestTForCount:
    def test_equals_the_scalar_bisection(self):
        # Newton on theta finds the Gram point g_(n+1) within 1e-12 of 60
        # one-point bisection steps on n_average, so it asks for the same
        # 0.05-lattice table height, and within 1e-12 of mpmath's
        def scalar(n):
            lo, hi = 10.0, ze.T_BUDGET
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if ze.theta_rs(mid) / math.pi + 1.0 < n + 2:
                    lo = mid
                else:
                    hi = mid
            return hi

        def lattice(t):  # the table height extend_database builds for t
            return math.ceil((t - 1e-9) / ze.ZERO_GRID_STEP)
        for n in range(1, 266):
            got, want = cli._t_for_count(n), scalar(n)
            assert lattice(got) == lattice(want) and abs(got - want) <= 1e-12
            assert abs(got - float(mp.grampoint(n + 1))) <= 1e-12

    def test_past_the_budget_raises(self):
        with pytest.raises(cli.RZError):
            cli._t_for_count(268)


class TestSweepSizes:
    @pytest.mark.parametrize("args", [["perron", "--n-max", "1"], ["perron", "--n-max", "2"],
                                      ["mertens", "--n-max", "3"], ["landau", "--n-max", "0"],
                                      ["mirror", "--n-max", "500"]])
    def test_too_short_sweep_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        out.mkdir()  # a range refusal comes before --out is created
        assert run(args + ["--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RZError"
        assert list(out.iterdir()) == []


class TestHeightRanges:
    @pytest.mark.parametrize("args", [["zeros", "--t-min", "50", "--t-max", "10"],
                                      ["zeros", "--t-max", "0.01"],
                                      ["xih", "--t-min", "10", "--t-max", "10"]])
    def test_empty_height_range_writes_nothing(self, tmp_path, capsys, args):
        # a sweep without the two points of a plot is refused before the cache or a CSV
        out = tmp_path / "out"
        assert run(args + ["--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RZError"
        assert list(out.iterdir()) == []

    def test_zeros_past_the_budget_refused(self, tmp_path, capsys):
        # an empty cache cannot cover t = 600: no table silently cut at the scan budget
        out, cache = tmp_path / "out", tmp_path / "cache.json"
        assert run(["zeros", "--t-max", "600", "--out", str(out), "--cache", str(cache)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RZError"
        assert list(out.iterdir()) == [] and not cache.exists()

    def test_zeros_past_the_budget_from_a_covering_cache(self, tmp_path, data_dir):
        # the published table covers t = 600 and serves it as it is
        out, cache = tmp_path / "out", tmp_path / "zeros_1000.txt"
        shutil.copyfile(data_dir / "zeros_1000.txt", cache)
        assert run(["zeros", "--t-max", "600", "--out", str(out), "--cache", str(cache)]) == 0
        ts = np.loadtxt(out / "zeros.csv", delimiter=",", skiprows=1)[:, 1]
        table = ze.ingest_zeros(cache).ordinates()
        assert np.array_equal(ts, table[table <= 600.0])
        assert cache.read_bytes() == (data_dir / "zeros_1000.txt").read_bytes()

    def test_zeros_fills_only_the_rows_it_writes(self, tmp_path, data_dir, monkeypatch):
        # Z' and zeta'(rho) are filled for the 341 rows of zeros.csv, not for the 1000 records
        # of the cache; filling every record first (the second run) gives the same bytes
        cache, dbs = tmp_path / "zeros_1000.txt", []
        shutil.copyfile(data_dir / "zeros_1000.txt", cache)
        ensure = cli._ensure_zeros

        def ensure_and_keep(*args, **kwargs):
            dbs.append(ensure(*args, **kwargs))
            if len(dbs) == 2:
                dbs[-1].ensure_derivatives()
            return dbs[-1]

        monkeypatch.setattr(cli, "_ensure_zeros", ensure_and_keep)
        for name in ("a", "b"):
            assert run(["zeros", "--t-max", "600", "--out", str(tmp_path / name), "--cache", str(cache)]) == 0
        above = [r for r in dbs[0].records if r.t > 600.0]
        assert len(above) == 659 and all(r.z_prime is None for r in above)
        assert (tmp_path / "a" / "zeros.csv").read_bytes() == (tmp_path / "b" / "zeros.csv").read_bytes()
        assert len((tmp_path / "a" / "zeros.csv").read_text().splitlines()) == 342


class TestMalformedCache:
    @pytest.mark.parametrize("doc", [
        {"zeros": [{"index": 1, "t": "14.13"}], "t_max_verified": 15.0},
        {"zeros": [{"index": 1, "t": 14.134725141734694, "z_prime": "x"}], "t_max_verified": 15.0},
        {"zeros": [], "t_max_verified": "abc"},
        {"zeros": [{"index": True, "t": 14.134725141734694}], "t_max_verified": 15.0},
        {"zeros": [{"index": 1.0, "t": 14.134725141734694}], "t_max_verified": 15.0},
        {"zeros": [{"index": 1, "t": 14.134725141734694, "zeta_prime_re": 0.8, "zeta_prime_im": None}],
         "t_max_verified": 15.0},
        {"zeros": [{"index": 1, "t": 14.134725141734694, "zeta_prime_im": [0.8]}], "t_max_verified": 15.0},
        {"zeros": [], "t_max_verified": math.inf},
        {"zeros": [], "t_max_verified": 10 ** 400},
        {"zeros": [{"index": 1, "t": math.nan}], "t_max_verified": 15.0}],
        ids=["t-str", "z_prime-str", "t_max-str", "index-bool", "index-float", "zeta_prime-half-null",
             "zeta_prime-list", "t_max-inf", "t_max-huge-int", "t-nan"])
    def test_field_of_wrong_type_is_a_format_error(self, tmp_path, capsys, doc):
        # each field type is checked on load: a FormatError, not a traceback, and nothing written
        cache, out = tmp_path / "cache.json", tmp_path / "out"
        cache.write_text(json.dumps(doc))
        before = cache.read_bytes()
        assert run(["zeros", "--t-max", "20", "--cache", str(cache), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"
        assert list(out.iterdir()) == [] and cache.read_bytes() == before

    def test_records_numbered_out_of_order_are_refused(self, tmp_path, capsys):
        # a record's index must be its place in the table, or extending it would number rows 7, 2
        cache, out = tmp_path / "cache.json", tmp_path / "out"
        cache.write_text(json.dumps({"zeros": [{"index": 7, "t": 14.134725141734694}],
                                     "t_max_verified": 15.0}))
        before = cache.read_bytes()
        assert run(["zeros", "--t-max", "22", "--cache", str(cache), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ConsistencyError"
        assert not (out / "zeros.csv").exists() and cache.read_bytes() == before


class TestNonFiniteAndOverBudget:
    @pytest.mark.parametrize("args, error", [
        (["landau", "--t-max", "nan"], "RZError"),
        (["mirror", "--epsilon", "nan", "--n-max", "100"], "RZError"),
        (["zeros", "--t-max", "inf"], "RZError"),
        (["xih", "--t-min=-inf"], "RZError"),
        (["mirror", "--vartheta", "nan"], "RZError"),
        (["landau", "--t-max", "1e9", "--n-max", "2"], "ToleranceNotMet"),
        (["mirror", "--epsilon", "-0.5", "--n-max", "1000"], "RZError"),
        (["mirror", "--n-max", "2000000"], "RZError"),
        (["perron", "--n-trivial", "81"], "RZError"),
        (["mertens", "--n-trivial", "81"], "RZError"),
        (["interferometer", "--vartheta", "7"], "RZError"),
        (["mirror", "--vartheta", "9", "--n-max", "1000"], "RZError"),
        (["mirror", "--vartheta", "-0.5", "--n-max", "1000"], "RZError"),
        (["interferometer", "--n-max", "1"], "RZError"),
        (["landau", "--n-max", "1001"], "RZError"),
        (["perron", "--n-max", "1000001"], "RZError"),
        (["mertens", "--n-max", "1000001"], "RZError"),
        (["interferometer", "--n-max", "100001"], "RZError"),
        (["interferometer", "--character-modulus", "1009"], "RZError"),
        (["landau", "--l-over-ell", "1e300"], "RZError"),
        (["landau", "--l-over-ell", "1e-300"], "RZError"),
        (["mirror", "--t-min", "20", "--n-max", "1000"], "NotAZero"),
        (["mirror", "--t-min", "600", "--n-max", "1000"], "NotAZero"),
        (["mirror", "--t-min", "601.602", "--n-max", "1000"], "RZError")])
    def test_refused_before_any_write(self, tmp_path, capsys, args, error):
        # no traceback, no cache and no partial artifact set
        out = tmp_path / "out"
        out.mkdir()
        assert run(args + ["--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert list(out.iterdir()) == []

    def test_mirror_past_the_scan_budget_from_the_published_table(self, tmp_path, data_dir):
        # the zero at 601.602 lies past the computed-scan budget: the published
        # table serves the tuned phase as a cache, and is left as it was
        cache = tmp_path / "zeros_1000.txt"
        shutil.copyfile(data_dir / "zeros_1000.txt", cache)
        out = tmp_path / "out"
        assert run(["mirror", "--t-min", "601.602", "--n-max", "1000", "--cache", str(cache),
                    "--out", str(out)]) == 0
        assert cache.read_bytes() == (data_dir / "zeros_1000.txt").read_bytes()
        assert json.loads((out / "mirror_diagnostic.json").read_text())["E"] == pytest.approx(601.602, abs=1e-3)

    def test_mirror_past_the_zeta_height_budget(self, tmp_path, capsys):
        # E = 1e9 is past the Euler-Maclaurin budget: a JSON error in seconds, no artifact
        out = tmp_path / "out"
        assert run(["mirror", "--t-min", "1e9", "--n-max", "1000", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ToleranceNotMet"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("epsilon, n_max", [("20", "1000000"), ("1e300", "1000")])
    def test_mirror_overflow_refused(self, tmp_path, capsys, epsilon, n_max):
        # e^(2 eps |M_z|) past the floats: no diagnostic holding Infinity or NaN and no SVG; the
        # zero cache, valid data written before the diagnostic runs, lies outside the directory
        out = tmp_path / "out"
        out.mkdir()
        assert run(["mirror", "--epsilon", epsilon, "--n-max", n_max,
                    "--cache", str(tmp_path / "cache.json"), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ToleranceNotMet"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["mertens", "perron"])
    @pytest.mark.parametrize("flag", ["--n-zeros", "--n-trivial"])
    def test_negative_zero_count_refused(self, tmp_path, capsys, zero_db, command, flag):
        # a negative count would slice records[:-5] off the cached table;
        # it is refused before the cache is read or extended
        cache, out = tmp_path / "cache.json", tmp_path / "out"
        ze.persist_zeros(ze.ZeroDatabase(zero_db.records[:13], t_max_verified=60.0), cache)
        out.mkdir()
        before = cache.read_bytes()
        assert run([command, flag, "-5", "--n-max", "20", "--cache", str(cache), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "RZError"
        assert list(out.iterdir()) == [] and cache.read_bytes() == before


def fmt_per_value(v) -> str:
    """The per-value CSV rule: an int as an int, anything else as a %.17g float."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


class TestWriters:
    INTS = [0, 7, -3, np.int64(-12), 2 ** 62, -(2 ** 63)]
    FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 2.5e-310,
              np.float64(0.1), 1.0 / 3.0, -1.7976931348623157e308, np.float32(0.1)]
    STRS = ["0.5", "x", "-0", "1e-300", ""]

    def columns(self):
        # 6 x 12 x 5 = 360 rows of every int, float and str value together
        n_i, n_f, n_s = len(self.INTS), len(self.FLOATS), len(self.STRS)
        rows = n_i * n_f * n_s
        ints = np.array(self.INTS, dtype=np.int64)[np.arange(rows) % n_i]
        floats = np.array(self.FLOATS)[np.arange(rows) // n_i % n_f]
        strs = [self.STRS[k // (n_i * n_f)] for k in range(rows)]
        return [ints, floats, strs, floats[::-1]]

    def test_csv_rows_match_per_value_formatting(self, tmp_path, monkeypatch):
        # the lines are written block by block: of the 360 rows the last
        # block holds a full block, a short one or all of them
        cols = self.columns()
        want = ["a,b,c,d"] + [",".join(fmt_per_value(v) if not isinstance(v, str) else v
                                       for v in row) for row in zip(*(list(c) for c in cols))]
        assert ",0.10000000149011612," in want[-1]  # np.float32(0.1) upcast
        for block in (1, 7, 258, cli._CSV_BLOCK):
            monkeypatch.setattr(cli, "_CSV_BLOCK", block)
            cli._write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], cols)
            assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"

    def test_csv_without_rows_is_the_header(self, tmp_path):
        for cols in ([np.array([], dtype=int), np.array([])], [[], []], []):
            cli._write_csv(tmp_path / "t.csv", ["a", "b"], cols)
            assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    def test_csv_str_values_are_written_as_they_are(self, tmp_path):
        cols = [["0.5", "x", "0.5"], ["1", "7", "1e-300"], ["0.25", "3", "-0"]]
        cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], cols)
        assert (tmp_path / "t.csv").read_text() == "a,b,c\n0.5,1,0.25\nx,7,3\n0.5,1e-300,-0\n"

    @pytest.mark.parametrize("column", [
        [1, 2.5], [0.5, "x"], ["x", 1], (1, 2), np.array([1, 2.5], dtype=object),
        np.array(["x", "y"]), np.array([True, False]), np.array([1j, 2])])
    def test_csv_column_of_no_single_format_raises(self, tmp_path, column):
        # a float in an integer column is refused, not truncated by %d
        with pytest.raises(TypeError):
            cli._write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(2), column])

    def test_csv_columns_of_unequal_lengths_raise(self, tmp_path):
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(3), np.zeros(2)])


class TestCanonicalFields:
    """Every field of every CSV the CLI writes is its parsed value formatted
    by the per-value rule, so the bytes do not depend on the writer's code."""

    @pytest.mark.parametrize("args, files", [
        (["zeros", "--t-max", "60"], ["zeros.csv"]),
        (["xih", "--t-max", "5"], ["xih.csv"]),
        (["polya"], ["polya.csv"]),
        (["landau", "--n-max", "41"], ["landau_levels.csv", "landau_psi.csv"]),
        (["perron", "--t-min", "20", "--n-max", "30", "--n-zeros", "10"], ["perron.csv"]),
        (["perron", "--t-min", "14.1347", "--n-max", "30", "--n-zeros", "10"], ["perron.csv"]),
        (["mertens", "--n-max", "40", "--n-zeros", "20"], ["mertens.csv"]),
    ], ids=["zeros", "xih", "polya", "landau", "perron", "perron-at-zero", "mertens"])
    def test_fields_are_per_value_formatting(self, tmp_path, args, files):
        assert run(args + ["--out", str(tmp_path), "--cache", str(tmp_path / "cache.json")]) == 0
        for name in files:
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) > 2
            for line in lines[1:]:
                for field in line.split(","):
                    value = int(field) if field.lstrip("-").isdigit() else float(field)
                    assert fmt_per_value(value) == field, (name, line)


class TestLandauCommand:
    def test_psi_csv_carries_bound_and_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["landau", "--n-max", "40", "--out", str(out)]) == 0
        psi = (a / "landau_psi.csv").read_bytes()
        assert psi == (b / "landau_psi.csv").read_bytes()
        assert psi.decode().splitlines()[0] == "x,y,abs_psi,abs_psi_bound"
        rows = read_csv(a / "landau_psi.csv")
        xs = np.linspace(-10.0, 10.0, 40)
        amp, bound = landau.psi_abs_grid(10.0, xs, xs, landau.LandauGeometry(1.0, 100.0))
        assert rows[:, 2].tolist() == amp.ravel().tolist()
        assert rows[:, 3].tolist() == bound.ravel().tolist()

    def test_psi_csv_bytes_are_per_value_formatting(self, tmp_path):
        # coordinates formatted once and rows with one % give the bytes of
        # formatting every value of the psi_abs_grid arrays on its own
        assert run(["landau", "--n-max", "40", "--out", str(tmp_path)]) == 0
        xs = np.linspace(-10.0, 10.0, 40)
        amp, bound = landau.psi_abs_grid(10.0, xs, xs, landau.LandauGeometry(1.0, 100.0))
        want = ["x,y,abs_psi,abs_psi_bound"] + [
            ",".join(fmt_per_value(v) for v in (xs[i], xs[j], amp[i, j], bound[i, j]))
            for i in range(xs.size) for j in range(xs.size)]
        assert (tmp_path / "landau_psi.csv").read_bytes() == ("\n".join(want) + "\n").encode()

    def test_levels_past_the_phase_turning_point(self, tmp_path):
        # at L / l = 10 the phase turns back near E = 100; the smooth count at
        # E = 200 reads 9.89, and all 23 levels are written
        assert run(["landau", "--l-over-ell", "10", "--t-max", "200", "--n-max", "9",
                    "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "landau_levels.csv")
        assert rows[:, 0].tolist() == list(range(1, 24))
        g = landau.LandauGeometry(1.0, 10.0)
        assert rows[:, 1].tolist() == landau.landau_levels(200.0, g)


class TestAtZeroSnap:
    def test_perron_snaps_to_cached_zero(self, tmp_path):
        run(["perron", "--t-min", "14.1347", "--n-max", "12", "--n-zeros", "10",
             "--out", str(tmp_path)])
        svg = (tmp_path / "perron.svg").read_text()
        assert "at-zero mode" in svg
