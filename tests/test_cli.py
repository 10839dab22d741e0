import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import coxtop
from coxtop.chambers import ChamberSystem, parse_chamber_system
from coxtop.cli import main
from coxtop.decomposition import BuildingDecomposition
from coxtop.intlinalg import AbGroup, TorsionObstruction

TRIANGLE = "gens a b c\na b 3\nb c 3\na c 3\n"
FREE3 = "gens s t u\ns t inf\nt u inf\ns u inf\n"
A2 = "gens s t\ns t 3\n"
A3 = "gens a b c\na b 3\nb c 3\n"
B3 = "gens a b c\na b 4\nb c 3\n"
# the triangle group free product with one more involution: nerve = circle + point
MIXED = "gens a b c d\na b 3\nb c 3\na c 3\na d inf\nb d inf\nc d inf\n"
A2A1 = "gens s t u\ns t 3\n"
TRIANGLE236 = "gens a b c\nb c 3\na c 6\n"
E8 = "gens a b c d e f g h\na b 3\nb c 3\nc d 3\nd e 3\ne f 3\nf g 3\nc h 3\n"
MATRICES = {"a2": A2, "a3": A3, "b3": B3, "triangle333": TRIANGLE, "freeprod3": FREE3,
            "mixed": MIXED, "a2a1": A2A1, "triangle236": TRIANGLE236, "e8": E8}


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle333.cox"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def free3_file(tmp_path):
    p = tmp_path / "freeprod3.cox"
    p.write_text(FREE3)
    return str(p)


@pytest.fixture
def a2_file(tmp_path):
    p = tmp_path / "a2.cox"
    p.write_text(A2)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def renumbered_fano_x_fano(capsys, a2_file, tmp_path):
    """A chamber file of fano x fano with its chambers renumbered and its
    panel blocks shuffled by ``random.Random(20)``."""
    path = tmp_path / "fanoxfano.bld"
    assert main(["realize", a2_file, "--building", "fanoxfano", "--out", str(path)]) == 0
    capsys.readouterr()
    system = parse_chamber_system(path.read_text())
    rng = random.Random(20)
    perm = rng.sample(range(system.size), system.size)
    panels = {
        s: tuple(frozenset(perm[c] for c in b) for b in rng.sample(blocks, len(blocks)))
        for s, blocks in system.panels.items()
    }
    path.write_text(ChamberSystem(system.matrix, panels, system.size).to_text())
    return path


class TestBasicVerbs:
    def test_vcd_triangle(self, capsys, triangle_file):
        code, out = run(capsys, ["vcd", triangle_file])
        assert code == 0 and out.strip() == "2"

    def test_vcd_free_product(self, capsys, free3_file):
        code, out = run(capsys, ["vcd", free3_file])
        assert code == 0 and out.strip() == "1"

    def test_spherical_subsets(self, capsys, triangle_file):
        code, out = run(capsys, ["spherical-subsets", triangle_file, "--json"])
        assert code == 0
        assert len(json.loads(out)) == 7

    def test_growth(self, capsys, free3_file):
        code, out = run(capsys, ["growth", free3_file, "--T", "s", "--N", "5"])
        assert code == 0
        assert out.strip() == "[0, 1, 2, 4, 8, 16]"

    def test_duality(self, capsys, triangle_file):
        code, out = run(capsys, ["duality", triangle_file, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_duality"] and payload["dimension"] == 2

    def test_metric_flag(self, capsys, triangle_file):
        code, out = run(capsys, ["metric-flag", triangle_file])
        assert code == 0 and out.strip() == "true"

    def test_nerve_and_davis(self, capsys, free3_file):
        code, out = run(capsys, ["nerve", free3_file, "--json"])
        assert code == 0 and len(json.loads(out)) == 3
        code, out = run(capsys, ["davis-chamber", free3_file, "--json"])
        assert code == 0
        assert json.loads(out)["f_vector"] == [4, 3]

    def test_coxeter_complex(self, capsys, a2_file):
        code, out = run(capsys, ["coxeter-complex", a2_file, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["f_vector"] == [6, 6]
        assert payload["cohomology"]["0"]["free_rank"] == 1
        assert payload["cohomology"]["1"]["free_rank"] == 1

    def test_hc_report(self, capsys, free3_file):
        code, out = run(capsys, ["hc", free3_file, "--json", "--N", "4"])
        assert code == 0
        payload = json.loads(out)
        (row,) = payload["degrees"]
        assert row["degree"] == 1 and row["total"]["free_rank"] == "omega"

    def test_hc_series_on_the_237_triangle_group(self, capsys, tmp_path):
        # labels >= 7 have no ball enumeration; the series come from
        # Steinberg's formula and the I2(7) Poincare polynomial
        p = tmp_path / "t237.cox"
        p.write_text("gens a b c\na b 7\nb c 3\n")
        code, out = run(capsys, ["hc", str(p), "--N", "12", "--json"])
        assert code == 0
        series = {
            tuple(c["series"]["T"]): c["series"]["coefficients"]
            for c in json.loads(out)["contributions"]
        }
        assert set(series) == {(), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c")}
        assert series[()] == [1] + [0] * 12
        assert series[("a", "b")][:8] == [0] * 7 + [1]
        for s in "abc":
            assert series[(s,)][1] == 1
        # 3 * 2 words of length 2, one of them a commuting pair a c = c a
        assert sum(coefficients[2] for coefficients in series.values()) == 5

    @pytest.mark.parametrize(
        "text, longest",
        [(A2, 3), (A3, 6), (B3, 9), ("gens a b c\na b 5\nb c 3\n", 15)],
        ids=["a2", "a3", "b3", "h3"],
    )
    def test_hc_series_on_a_finite_type(self, capsys, tmp_path, text, longest):
        # up to the longest length a series counts every w with In(w) = T,
        # which is the multiplicity of T in the thin building
        p = tmp_path / "finite.cox"
        p.write_text(text)
        code, out = run(capsys, ["hc", str(p), "--N", str(longest), "--json"])
        assert code == 0
        for c in json.loads(out)["contributions"]:
            assert sum(c["series"]["coefficients"]) == c["multiplicity"], c["T"]

    def test_hc_on_thin_e8(self, capsys, tmp_path):
        # 256 types: the local groups come off the nerve (a simplex) and
        # the multiplicities off Solomon's closed form, so no element of
        # the 696,729,600 is enumerated and no Davis chamber is built
        p = tmp_path / "e8.cox"
        p.write_text("gens a b c d e f g h\na b 3\nb c 3\nc d 3\nd e 3\ne f 3\nf g 3\nc h 3\n")
        start = time.perf_counter()
        code, out = run(capsys, ["hc", str(p), "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out)
        assert payload["w_finite"] and len(payload["contributions"]) == 256
        assert sum(c["multiplicity"] for c in payload["contributions"]) == 696729600
        (row,) = payload["degrees"]
        assert row["degree"] == 0 and row["total"]["free_rank"] == 1
        assert elapsed < 30.0

    def test_growth_at_a_large_radius(self, capsys, free3_file):
        start = time.perf_counter()
        code, out = run(capsys, ["growth", free3_file, "--T", "s", "--N", "40", "--json"])
        elapsed = time.perf_counter() - start
        assert code == 0
        coefficients = json.loads(out)["coefficients"]
        assert len(coefficients) == 41 and coefficients[-1] == 2**39
        assert elapsed < 1.0


class TestBuildingVerbs:
    def test_verify_decomposition_fano(self, capsys, a2_file):
        code, out = run(
            capsys,
            ["verify-decomposition", a2_file, "--building", "fano", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and abs(payload["determinant"]) == 1

    def test_decompose_digon(self, capsys, a2_file):
        code, out = run(
            capsys, ["decompose", a2_file, "--building", "digon(3,3)", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        ranks = {tuple(r["T"]): r["summand_rank"] for r in payload["types"]}
        assert ranks[()] == 4 and ranks[("s", "t")] == 1

    def test_verify_building(self, capsys):
        code, out = run(capsys, ["verify-building", "--building", "fano", "--json"])
        assert code == 0 and json.loads(out)["passed"]

    def test_product_building(self, capsys):
        code, out = run(
            capsys, ["verify-building", "--building", "fanoxa1", "--json"]
        )
        assert code == 0 and json.loads(out)["passed"]

    def test_sigma_check_thin(self, capsys, a2_file):
        code, out = run(capsys, ["sigma-check", a2_file, "--json"])
        assert code == 0 and json.loads(out)["ok"]

    def test_filtration(self, capsys, a2_file):
        code, out = run(capsys, ["filtration", a2_file, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["filtration"]["matches"]

    def test_chamber_file_roundtrip(self, capsys, a2_file, tmp_path):
        out_path = tmp_path / "fano.bld"
        code, _ = run(
            capsys,
            [
                "realize",
                a2_file,
                "--building",
                "fano",
                "--model",
                "delta",
                "--out",
                str(out_path),
            ],
        )
        assert code == 0
        code, out = run(
            capsys,
            [
                "verify-decomposition",
                a2_file,
                "--chamber-file",
                str(out_path),
                "--json",
            ],
        )
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("name", ["panel", "chambers"])
    def test_generator_named_like_a_body_line_roundtrips(self, capsys, tmp_path, name):
        # the matrix line "panel x 3" or "chambers x 3" is read as a
        # matrix line, not as a panel or chambers line
        cox = tmp_path / "m.cox"
        cox.write_text(f"gens {name} x\n{name} x 3\n")
        bld = tmp_path / "f.bld"
        assert main(["realize", str(cox), "--building", "thin", "--out", str(bld)]) == 0
        capsys.readouterr()
        code, out = run(capsys, ["verify-building", "--chamber-file", str(bld), "--json"])
        assert code == 0 and json.loads(out)["passed"]

    def test_hc_takes_the_spec_type(self, capsys, a2_file, tmp_path):
        # a1xa1 is of type u u1 whatever the matrix file says, as for the
        # other building verbs
        uu1 = tmp_path / "uu1.cox"
        uu1.write_text("gens u u1\n")
        code, out = run(capsys, ["hc", a2_file, "--building", "a1xa1", "--json"])
        assert code == 0
        assert run(capsys, ["hc", str(uu1), "--building", "a1xa1", "--json"]) == (0, out)
        assert json.loads(out)["gens"] == ["u", "u1"]

    def test_realize_fano_delta(self, capsys, a2_file):
        code, out = run(
            capsys,
            ["realize", a2_file, "--building", "fano", "--model", "delta", "--json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["f_vector"] == [14, 21]
        assert payload["cohomology"]["1"]["free_rank"] == 8


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["vcd", "/nonexistent/x.cox"]) == 1

    def test_broken_axiom_exits_2(self, capsys, tmp_path):
        # a panel of size one violates the building axioms: exit code 2
        bad = tmp_path / "bad.bld"
        bad.write_text(
            "gens s\nchambers 3\npanel s: {0,1} {2}\n"
        )
        code = main(["verify-building", "--chamber-file", str(bad), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2 and not out["passed"]

    def test_python_m_coxtop_exit_codes(self, a2_file, tmp_path):
        # the package runs as a module: 0 on a good file, 1 on a missing
        # one, 2 on a failed verification
        bad = tmp_path / "bad.bld"
        bad.write_text("gens s\nchambers 3\npanel s: {0,1} {2}\n")
        src = str(Path(coxtop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for argv, code in [
            (["vcd", a2_file], 0),
            (["vcd", str(tmp_path / "missing.cox")], 1),
            (["verify-building", "--chamber-file", str(bad)], 2),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "coxtop", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == code, (argv, proc.stderr)
            assert bool(proc.stdout) == (code != 1), argv

    def test_bad_matrix(self, capsys, tmp_path):
        p = tmp_path / "bad.cox"
        p.write_text("gens a b\na b 1\n")
        assert main(["vcd", str(p)]) == 1

    def test_bad_building_spec(self, capsys, a2_file):
        assert main(["decompose", a2_file, "--building", "whatever"]) == 1

    def test_growth_needs_args(self, capsys, free3_file):
        assert main(["growth", free3_file]) == 1

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify-decomposition", "--building", "fano", "--T", "x"], "--T"),
            (["sigma-check", "--building", "fano", "--T", "x"], "--T"),
            (["sigma-check", "--building", "fano", "--T", "s", "--U", "x"], "--U"),
            (["cohomology", "--T", "s", "x"], "--T"),
            (["growth", "--T", "x", "--N", "3"], "--T"),
        ],
        ids=["verify-decomposition", "sigma-check-T", "sigma-check-U", "cohomology", "growth"],
    )
    def test_unknown_generator(self, capsys, a2_file, argv, option):
        code = main([argv[0], a2_file, "--json", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"{option}: unknown generator 'x'" in captured.err

    def test_sigma_check_mirror_set_needs_a_base_type(self, capsys, a2_file):
        code = main(["sigma-check", a2_file, "--building", "fano", "--U", "s", "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--U needs --T" in captured.err

    def test_negative_growth_radius(self, capsys, free3_file):
        code = main(["growth", free3_file, "--T", "s", "--N", "-3", "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "radius" in captured.err

    def test_second_panel_line_for_a_generator(self, capsys, tmp_path):
        # the second s line alone would make a valid 2 x 2 digon
        bad = tmp_path / "twice.bld"
        bad.write_text(
            "gens s t\nchambers 4\n"
            "panel s: {0,1,2,3}\npanel t: {0,1} {2,3}\npanel s: {0,2} {1,3}\n"
        )
        code = main(["verify-building", "--chamber-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "line 5" in captured.err and "'s'" in captured.err

    def test_second_chambers_line(self, capsys, tmp_path):
        # the second line alone would make a valid thin A1
        bad = tmp_path / "twice.bld"
        bad.write_text("gens s\nchambers 6\nchambers 2\npanel s: {0,1}\n")
        code = main(["verify-building", "--chamber-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "line 3" in captured.err and "chambers" in captured.err

    @pytest.mark.parametrize("verb", ["verify-building", "realize"])
    def test_empty_panel_block(self, capsys, a2_file, tmp_path, verb):
        bad = tmp_path / "empty.bld"
        bad.write_text(
            "gens s t\ns t 3\nchambers 4\npanel s: {0,1} {2,3} {}\npanel t: {0,3} {1,2}\n"
        )
        code = main([verb, a2_file, "--chamber-file", str(bad)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: empty panel block for generator 's'\n"

    def test_realize_out_to_unwritable_path(self, capsys, a2_file, tmp_path):
        out = tmp_path / "missing" / "fano.bld"
        code = main(["realize", a2_file, "--building", "fano", "--out", str(out), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_panel_block_names_chamber_out_of_range(self, capsys, tmp_path):
        bad = tmp_path / "stray.bld"
        bad.write_text("gens s t\nchambers 4\npanel s: {0,1} {2,3,7}\npanel t: {0,2} {1,3}\n")
        code = main(["verify-building", "--chamber-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: panel block for generator 's' names chamber 7, out of range [0, 4)\n"
        )

    @pytest.mark.parametrize(
        "text, line",
        [
            ("gens s\nchambers x\npanel s: {0,1}\n", "line 2"),
            ("gens s\nchambers\npanel s: {0,1}\n", "line 2"),
            ("gens s\nchambers 2\n\npanel s: {0,a}\n", "line 4"),
            ("gens s\nchambers 0\npanel s:\n", "line 2"),
            ("gens s\nchambers -1\npanel s:\n", "line 2"),
            # a matrix line is numbered as in the file, past comments and blanks
            ("# c\ngens s t\n\ns t x\nchambers 2\npanel s: {0,1}\npanel t: {0,1}\n", "line 4"),
        ],
    )
    def test_non_integer_in_chamber_file(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.bld"
        bad.write_text(text)
        code = main(["verify-building", "--chamber-file", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert line in err and "invalid literal" not in err

    @pytest.mark.parametrize(
        "verb", ["decompose", "verify-decomposition", "sigma-check", "filtration", "realize"]
    )
    def test_chamber_file_that_is_not_a_building(self, capsys, a2_file, tmp_path, verb):
        # a 6-cycle declared with m = 2: its rank-2 residue is a hexagon,
        # not a generalized digon, and verify-building rejects it
        bad = tmp_path / "hexagon.bld"
        bad.write_text(
            "gens s t\nchambers 6\n"
            "panel s: {0,1} {2,3} {4,5}\npanel t: {1,2} {3,4} {5,0}\n"
        )
        code = main([verb, a2_file, "--chamber-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "not a building" in captured.err
        assert "girth 6, diameter 3" in captured.err

    @pytest.mark.parametrize(
        "verb", ["decompose", "verify-decomposition", "sigma-check", "filtration", "hc", "realize"]
    )
    def test_chamber_file_of_another_type(self, capsys, a2_file, tmp_path, verb):
        # the Fano building is of type A2; the matrix given is A3
        fano = tmp_path / "fano.bld"
        assert main(["realize", a2_file, "--building", "fano", "--out", str(fano)]) == 0
        a3 = tmp_path / "a3.cox"
        a3.write_text("gens s t u\ns t 3\nt u 3\n")
        capsys.readouterr()
        code = main([verb, str(a3), "--chamber-file", str(fano), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "type does not match" in captured.err
        assert "chamber system generators s t, matrix generators s t u" in captured.err

    def test_hc_names_the_generators_of_a_product(self, capsys, a2_file, tmp_path):
        # a repeated factor's generators take its position as a suffix, so
        # a chamber file of fano x fano is checked against a matrix over
        # s t s1 t1; a --building spec brings its own type
        fanos = tmp_path / "fanoxfano.bld"
        assert main(["realize", a2_file, "--building", "fanoxfano", "--out", str(fanos)]) == 0
        capsys.readouterr()
        wrong = tmp_path / "a2a2.cox"
        wrong.write_text("gens s t u v\ns t 3\nu v 3\n")
        code = main(["hc", str(wrong), "--chamber-file", str(fanos), "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "chamber system generators s t s1 t1, matrix generators s t u v" in captured.err
        right = tmp_path / "a2a2_suffixed.cox"
        right.write_text("gens s t s1 t1\ns t 3\ns1 t1 3\n")
        assert main(["hc", str(right), "--chamber-file", str(fanos), "--json"]) == 0
        from_file = capsys.readouterr().out
        assert json.loads(from_file)["gens"] == ["s", "t", "s1", "t1"]
        spec = ["hc", str(wrong), "--building", "fanoxfano", "--json"]
        assert run(capsys, spec) == (0, from_file)

    @pytest.mark.parametrize(
        "matrix, chambers, failure",
        [
            # a 6-cycle declared with m = 2
            (
                "gens s t\n",
                "gens s t\nchambers 6\n"
                "panel s: {0,1} {2,3} {4,5}\npanel t: {1,2} {3,4} {5,0}\n",
                "girth 6, diameter 3",
            ),
            # nine chambers of type A2 x A1 whose D^empty is Z/2
            (
                "gens s t u\ns t 3\n",
                "gens s t u\ns t 3\nchambers 9\n"
                "panel s: {0,5} {4,6,7} {2,3} {1,8}\n"
                "panel t: {1,4} {2,6} {3,5,7} {0,8}\n"
                "panel u: {0,7} {2,6} {5,8} {1,3,4}\n",
                "W-distance: ambiguous distance between 0 and 3",
            ),
        ],
        ids=["hexagon", "torsion"],
    )
    def test_hc_refuses_chamber_file_that_is_not_a_building(
        self, capsys, tmp_path, matrix, chambers, failure
    ):
        cox = tmp_path / "type.cox"
        cox.write_text(matrix)
        bad = tmp_path / "system.bld"
        bad.write_text(chambers)
        code = main(["hc", str(cox), "--chamber-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "not a building" in captured.err and failure in captured.err

    @pytest.mark.parametrize("model", ["delta", "K"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_realize_refuses_chamber_file_that_is_not_a_building(
        self, capsys, tmp_path, model, json_flag
    ):
        # the plain report and --json agree: both refuse the file, where
        # the plain one used to print H^1 = Z and --json to fail on the
        # cell count of the glued complex
        cox = tmp_path / "dinf.cox"
        cox.write_text("gens s t\ns t inf\n")
        bad = tmp_path / "dinf.bld"
        bad.write_text("gens s t\ns t inf\nchambers 2\npanel s: {0,1}\npanel t: {0,1}\n")
        argv = ["realize", str(cox), "--chamber-file", str(bad), "--model", model, *json_flag]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "chamber file is not a building" in captured.err

    @pytest.mark.parametrize("verb", ["verify-building", "hc", "decompose"])
    def test_finite_chamber_file_of_infinite_type_is_not_a_building(
        self, capsys, tmp_path, verb
    ):
        # an apartment of a building of type s t inf has infinitely many
        # chambers, so these two chambers are no building of that type
        cox = tmp_path / "dinf.cox"
        cox.write_text("gens s t\ns t inf\n")
        bad = tmp_path / "dinf.bld"
        bad.write_text("gens s t\ns t inf\nchambers 2\npanel s: {0,1}\npanel t: {0,1}\n")
        matrix = [] if verb == "verify-building" else [str(cox)]
        code = main([verb, *matrix, "--chamber-file", str(bad), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        if verb == "verify-building":
            out = json.loads(captured.out)
            assert not out["distance_ok"] and not out["passed"]
            assert out["distance_note"].startswith("type is infinite")
        else:
            assert captured.out == ""
            assert "not a building" in captured.err
            assert "W-distance: type is infinite" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["vcd"],
            ["hc", "{a2}", "--N", "x"],
            ["nerve", "{a2}", "--T", "x", "--N", "5", "--out", "{out}"],
            ["vcd", "{a2}", "--T", "s"],
            ["hc", "{a2}", "--out", "{out}"],
            ["realize", "{a2}", "--N", "3"],
            ["growth", "{a2}", "--T", "s", "--N", "3", "--U", "s"],
        ],
        ids=["missing-matrix", "non-integer-N", "nerve-options", "vcd-T", "hc-out",
             "realize-N", "growth-U"],
    )
    def test_usage_errors_exit_1(self, capsys, a2_file, tmp_path, argv):
        # 2 is kept for failed verifications; an option a verb does not
        # use is refused, not ignored
        out = tmp_path / "out.bld"
        with pytest.raises(SystemExit) as exc:
            main([arg.format(a2=a2_file, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert "usage:" in captured.err and not out.exists()

    @pytest.mark.parametrize("spec", [["--building", "fano"], ["--chamber-file", "{fano}"]])
    def test_hc_series_needs_the_thin_type(self, capsys, a2_file, tmp_path, spec):
        fano = tmp_path / "fano.bld"
        assert main(["realize", a2_file, "--building", "fano", "--out", str(fano)]) == 0
        capsys.readouterr()
        extra = [arg.format(fano=fano) for arg in spec]
        code = main(["hc", a2_file, *extra, "--N", "3", "--json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "--N" in captured.err

    def test_torsion_obstruction_is_a_failed_verification(self, capsys, a2_file, monkeypatch):
        assert not issubclass(TorsionObstruction, ValueError)

        def obstructed(self, T):
            raise TorsionObstruction("quotient has invariant factors [2]", AbGroup(0, (2,)))

        monkeypatch.setattr(BuildingDecomposition, "splitting_rank", obstructed)
        code = main(["hc", a2_file, "--building", "fano", "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "invariant factors [2]" in captured.err


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, triangle_file, a2_file, free3_file):
        invocations = [
            ["spherical-subsets", triangle_file, "--json"],
            ["nerve", triangle_file, "--json"],
            ["davis-chamber", free3_file, "--json"],
            ["cohomology", triangle_file, "--model", "K", "--json"],
            ["coxeter-complex", a2_file, "--json"],
            ["decompose", a2_file, "--building", "fano", "--json"],
            ["verify-decomposition", a2_file, "--building", "digon(3,3)", "--json"],
            ["sigma-check", a2_file, "--json"],
            ["hc", free3_file, "--json", "--N", "3"],
            ["vcd", triangle_file, "--json"],
            ["duality", free3_file, "--json"],
            ["growth", free3_file, "--T", "s", "--N", "4", "--json"],
            ["filtration", a2_file, "--json"],
            ["verify-building", "--building", "fano", "--json"],
            ["metric-flag", triangle_file, "--json"],
            ["realize", a2_file, "--building", "fano", "--model", "delta", "--json"],
        ]
        for argv in invocations:
            code1, out1 = run(capsys, argv)
            code2, out2 = run(capsys, argv)
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv

    def test_byte_identical_across_hash_seeds(self, tmp_path):
        # set iteration order changes with PYTHONHASHSEED; stdout must not
        inputs = {"a2.cox": A2, "freeprod3.cox": FREE3}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        suite = [
            ["verify-building", "--building", "fanoxa1", "--json"],
            ["verify-decomposition", "a2.cox", "--building", "fano", "--json"],
            ["decompose", "a2.cox", "--building", "digon(3,3)", "--json"],
            ["realize", "a2.cox", "--building", "fano", "--model", "K", "--json"],
            ["sigma-check", "a2.cox", "--json"],
            ["hc", "freeprod3.cox", "--json", "--N", "4"],
        ]
        script = (
            "import sys\nfrom coxtop.cli import main\n"
            f"for argv in {suite!r}:\n"
            "    print(main(argv), flush=True)\n"
        )
        src = str(Path(coxtop.__file__).resolve().parents[1])
        outputs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run(
                [sys.executable, "-c", script],
                cwd=tmp_path, env=env, capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert next(iter(outputs)).count(b"\n") == 2 * len(suite)

    @pytest.mark.parametrize(
        "verb, spec, T, digest",
        [
            pytest.param(
                "verify-decomposition", "fano", [],
                "ad4ac895ff83b5ea410981d8088da5e211198221f57eca354706b5a6a15af145",
                id="fano-T0-ad4ac895ff83b5ea410981d8088da5e211198221f57eca354706b5a6a15af145",
            ),
            pytest.param(
                "verify-decomposition", "fano", ["s"],
                "c1d786979a4d5e83f089e465b993072ff438c1476f624876497ed500c6964e3a",
                id="fano-T1-c1d786979a4d5e83f089e465b993072ff438c1476f624876497ed500c6964e3a",
            ),
            pytest.param(
                "verify-decomposition", "fanoxa1", [],
                "53ca74a0fae334ebe6503b2e420f76721f8fdf43c27c43a8ab50505a4e6dabae",
                id="fanoxa1-T2-53ca74a0fae334ebe6503b2e420f76721f8fdf43c27c43a8ab50505a4e6dabae",
            ),
        ]
        + [
            pytest.param(verb, spec, None, digest, id=f"{verb}-{spec}")
            for verb, spec, digest in [
                ("decompose", "fano",
                 "956a06f1049ee77e91594909cd51040f24b2a38057c0864ee97d2a12299ef0d5"),
                ("decompose", "fanoxa1",
                 "7c78ce44c09d29ea3028e620230f91bc525297e4fd03067b25c386bab72f85b0"),
                ("decompose", "digon(3,3)",
                 "a07d4bb65ec7bb0187711e0b91daebe6ba2a9c749fc440f0f50b6a923fcf9a4b"),
                ("sigma-check", "fano",
                 "fe51122ba164fff363970210cddcdace32ee21ad1b55b3618c32c8da1e83587e"),
                ("sigma-check", "fanoxa1",
                 "67311fb4afee7d4eb2cf20de83f5a0462bebd2e07f9cf0b991a003a7d09d8b30"),
                ("sigma-check", "digon(3,3)",
                 "4b95c41b313b2cae8fe35362054fac2b93da2e614765c40beafc265e64852108"),
                ("filtration", "fano",
                 "62ba430d1bb76fbc8da825fa14c4c343d7a42180d0742cb5d34752ecebf56bbc"),
                ("filtration", "fanoxa1",
                 "87ed28c2599321416c90439a69ce79478652c726cb6cd8e94770dd713dbf9b8a"),
                ("filtration", "digon(3,3)",
                 "f6bf6071fda3012979aed4b9200404da7b6e056ae2bedfde2113a51225abe62f"),
            ]
        ],
    )
    def test_summand_choice_is_pinned(self, capsys, a2_file, verb, spec, T, digest):
        # the witness matrix shows the chosen hat(A)^V; the digests were
        # recorded from the code that lifted each summand to Z^Phi and
        # built A^{>T} from every strict superset, and the decompose,
        # sigma-check and filtration reports from the code that wrote
        # every module lattice in Z^Phi and factored each A^{>T} anew
        argv = [verb, a2_file, "--building", spec, "--json"]
        code, out = run(capsys, argv if T is None else argv + ["--T", *T])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_building_on_a_renumbered_product_is_pinned(self, capsys, a2_file, tmp_path):
        # renumbering moves every residue's least chamber, which orders the
        # rank-2 residue checks; the digest was recorded from the code that
        # grouped each residue's chambers off its partition map
        path = renumbered_fano_x_fano(capsys, a2_file, tmp_path)
        code, out = run(capsys, ["verify-building", "--chamber-file", str(path), "--json"])
        assert code == 0 and json.loads(out)["passed"]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "54aa43126d70c2fbf6a542a9fb57275e0c2a0715f07e51aa889eb645a332401a"
        )

    @pytest.mark.parametrize(
        "verb, digest",
        [
            ("sigma-check", "ca6efaeffd0edb960f4b72fecf8e9da7a82b586157d0be8d6be282c3e6110fc8"),
            ("filtration", "01b36ee53d87c49a6efa4549f25d5b4364ca759c57ec4f604a02cf41f46e789a"),
            ("decompose", "1326f3f424330ec157f0d12c37dc5b8ba254f72a62468c527c8b2c20a0696f29"),
            ("verify-decomposition",
             "5d14d86295b278ff8bb16cbf606773271c9cad657c853cd24e4342957e0d3f92"),
        ],
    )
    def test_lattice_verbs_on_a_renumbered_product_are_pinned(
        self, capsys, a2_file, tmp_path, verb, digest
    ):
        # the lattice kernels do the most work on a renumbered chamber
        # file; recorded from the code that read ranks and quotients off
        # the back-reduced Hermite basis and expanded the witness
        # determinant with no peel
        path = renumbered_fano_x_fano(capsys, a2_file, tmp_path)
        matrix = tmp_path / "a2a2.cox"
        matrix.write_text("gens s t s1 t1\ns t 3\ns1 t1 3\n")
        code, out = run(capsys, [verb, str(matrix), "--chamber-file", str(path), "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_no_verb_reaches_the_hermite_form(self, capsys, a2_file, monkeypatch):
        # every lattice reader takes an echelon basis; column_hermite is
        # kept as the reference for the unique Hermite form only
        def refused(gens):
            raise AssertionError("a verb reached column_hermite")

        for name in list(sys.modules):
            if name.startswith("coxtop") and hasattr(sys.modules[name], "column_hermite"):
                monkeypatch.setattr(sys.modules[name], "column_hermite", refused)
        for verb in ("sigma-check", "filtration", "decompose", "verify-decomposition", "hc"):
            code, _ = run(capsys, [verb, a2_file, "--building", "fanoxfano", "--json"])
            assert code == 0, verb

    def test_nerve_text_is_seed_independent(self, triangle_file):
        # the plain-text face list must not follow set iteration order
        src = str(Path(coxtop.__file__).resolve().parents[1])
        outputs = set()
        for seed in (1, 2):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
            proc = subprocess.run(
                [sys.executable, "-m", "coxtop.cli", "nerve", triangle_file],
                env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        assert next(iter(outputs)).decode().splitlines()[:3] == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "verb, matrix, extra, digest",
        [
            pytest.param("realize", "a2", ["--building", "fano", "--model", "delta"],
                         "0718d3023d41465a3ae5534ae85bba5548eb8312952c43c0e3fb8889ef3b55c7",
                         id="realize-a2-fano-delta"),
            pytest.param("realize", "a2", ["--building", "fanoxa1", "--model", "delta"],
                         "f4bb20bc35ab3e3b4159e91ebf06db0a4c182be2378e5754e2ed7dc3ca51af60",
                         id="realize-a2-fanoxa1-delta"),
            pytest.param("realize", "a2", ["--building", "digon(3,3)", "--model", "delta"],
                         "e9b2a8223c4d2268f6a65106d6ed63f90cdd0008e9ac1846a4067101b8fe4486",
                         id="realize-a2-digon(3,3)-delta"),
            pytest.param("realize", "a2", ["--model", "delta"],
                         "ba361325cabd04c3112a1b2b613674c2d31fae50f6c934a996a31bb2952565bf",
                         id="realize-a2-delta"),
            pytest.param("realize", "a3", ["--model", "delta"],
                         "157daff0c738ad9ce5de97fed8c3645f328431d3853a274240132f98ffafd7e7",
                         id="realize-a3-delta"),
            pytest.param("realize", "b3", ["--model", "delta"],
                         "5f0f2d586a95e5c4de279a0a62b1ec9d08c01048111d20b9c109e66491cec9e6",
                         id="realize-b3-delta"),
            pytest.param("realize", "a2", ["--building", "fano", "--model", "K"],
                         "d8d85e93d5750100eb23732cbc0a51f4a3af007ea0bc3b537aecbdcf0b379a35",
                         id="realize-a2-fano-K"),
            pytest.param("realize", "a2", ["--building", "fanoxa1", "--model", "K"],
                         "7b1c4716c663f858bf9cf186830e711c565355e9ee2e2fae3df5739d291435f6",
                         id="realize-a2-fanoxa1-K"),
            pytest.param("realize", "a2", ["--building", "digon(3,3)", "--model", "K"],
                         "8ba580e07985d6b05a78c619b71c2a8ed310bd497503559ed76d432c9fa7c091",
                         id="realize-a2-digon(3,3)-K"),
            pytest.param("realize", "a2", ["--model", "K"],
                         "7012c09dfb7572766ac9918d154cc41d0e92a8c7c61cca829f96fe84e1adeecb",
                         id="realize-a2-K"),
            pytest.param("realize", "a3", ["--model", "K"],
                         "7c725891d4452b08857dc8d39cabf8d88632550c996c332d967687a9a47cea99",
                         id="realize-a3-K"),
            pytest.param("realize", "b3", ["--model", "K"],
                         "a480e3eb1d77ec65d2229481def3a6a24935ed2b6488afc8556d052d0130dcc4",
                         id="realize-b3-K"),
            pytest.param("davis-chamber", "a2", [],
                         "d6583332159918be4620e4ad568b94550dbbb1fc3d09f82acf38d9a2100118c8",
                         id="davis-chamber-a2"),
            pytest.param("nerve", "a2", [],
                         "e02852cde9422e4d45c1f8b09165fea40f4df1957034f6430ba165d86c0d5c41",
                         id="nerve-a2"),
            pytest.param("coxeter-complex", "a2", [],
                         "3f95b0e0211f8b6fa348278948a0d33c18c541a6d7e738ad6a43b7bab9c65ec9",
                         id="coxeter-complex-a2"),
            pytest.param("cohomology", "a2", ["--model", "delta"],
                         "1afe9729e445acb3e82ba5989f4353016b206f7148b782402bb6b03d477cafd1",
                         id="cohomology-a2-delta"),
            pytest.param("cohomology", "a2", ["--model", "K"],
                         "f0bb9d1d3e6a1f896f55da59d2948a0281c7d05ca558ea0232f804ff2ef4809e",
                         id="cohomology-a2-K"),
            pytest.param("davis-chamber", "a3", [],
                         "5dd2ecbf030f9516139c2486e71e968984bd5edf7c163e69d406e85f4f8d0b86",
                         id="davis-chamber-a3"),
            pytest.param("nerve", "a3", [],
                         "52ae6d87425de914f65d7135a20fc088dc515ff1aa9184b619fa7940974bd3c7",
                         id="nerve-a3"),
            pytest.param("coxeter-complex", "a3", [],
                         "cf1c27795f18a1ad6dcf9901c64103fbeef5e18106c0a6b62d1c5ea5cf76ea69",
                         id="coxeter-complex-a3"),
            pytest.param("cohomology", "a3", ["--model", "delta"],
                         "22876da71e073fbff280880a1fb6c5c8cd1a289b28a6bee4a60352368b7e1349",
                         id="cohomology-a3-delta"),
            pytest.param("cohomology", "a3", ["--model", "K"],
                         "46ec379da674f9e4d6e46c8f61457ce89323d5e0832ce5e90de10a9a23c9d5eb",
                         id="cohomology-a3-K"),
            pytest.param("davis-chamber", "b3", [],
                         "5dd2ecbf030f9516139c2486e71e968984bd5edf7c163e69d406e85f4f8d0b86",
                         id="davis-chamber-b3"),
            pytest.param("nerve", "b3", [],
                         "52ae6d87425de914f65d7135a20fc088dc515ff1aa9184b619fa7940974bd3c7",
                         id="nerve-b3"),
            pytest.param("coxeter-complex", "b3", [],
                         "4ab29e59d647f55b309f628d1918d831416f062648ed5bbb88fa9439c9834c5f",
                         id="coxeter-complex-b3"),
            pytest.param("cohomology", "b3", ["--model", "delta"],
                         "22876da71e073fbff280880a1fb6c5c8cd1a289b28a6bee4a60352368b7e1349",
                         id="cohomology-b3-delta"),
            pytest.param("cohomology", "b3", ["--model", "K"],
                         "46ec379da674f9e4d6e46c8f61457ce89323d5e0832ce5e90de10a9a23c9d5eb",
                         id="cohomology-b3-K"),
            pytest.param("davis-chamber", "triangle333", [],
                         "8bfc042e278e22f7ad00c87d49e25bcc8b829be387fa752ecc577b1a7eb7f251",
                         id="davis-chamber-triangle333"),
            pytest.param("nerve", "triangle333", [],
                         "8828a3d67b72241b550b5d3dc474139cf99574cfa8c2f65494c7301691f2596c",
                         id="nerve-triangle333"),
            pytest.param("cohomology", "triangle333", ["--model", "delta"],
                         "7c8189dedef1c523e7441a508c251ecd462775e031af83b14e1d9221f95ab69b",
                         id="cohomology-triangle333-delta"),
            pytest.param("cohomology", "triangle333", ["--model", "K"],
                         "7c8189dedef1c523e7441a508c251ecd462775e031af83b14e1d9221f95ab69b",
                         id="cohomology-triangle333-K"),
            pytest.param("davis-chamber", "freeprod3", [],
                         "53f5046681260b17acba77ad6d609449b5027ac42c2dbb2b0c59cea75c644b25",
                         id="davis-chamber-freeprod3"),
            pytest.param("nerve", "freeprod3", [],
                         "92e7be7dbe727f09d143d651e0eabd8b52adf9cd77bb516dbf20903d7d1ac82d",
                         id="nerve-freeprod3"),
            pytest.param("cohomology", "freeprod3", ["--model", "delta"],
                         "b8d2fdcfbd62a1e73304db70ace09b2f9f11fe0a3386fe412589f230f461d0d5",
                         id="cohomology-freeprod3-delta"),
            pytest.param("cohomology", "freeprod3", ["--model", "K"],
                         "c27b7c518203cd1c689dd350817bf5cede566b607ca61d13788ebc7cb501ba55",
                         id="cohomology-freeprod3-K"),
        ],
    )
    def test_complex_json_is_pinned(self, capsys, tmp_path, verb, matrix, extra, digest):
        # recorded from the code that kept every vertex as its label and
        # sorted faces through vertex_key: cell order, signs and the
        # JSON face lists must not move when the labels are numbered
        path = tmp_path / f"{matrix}.cox"
        path.write_text(MATRICES[matrix])
        code, out = run(capsys, [verb, str(path), *extra, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "verb, matrix, extra, digest",
        [
            pytest.param(verb, matrix, extra, digest, id="-".join([verb, matrix, *extra]))
            for verb, matrix, extra, digest in [
                ("duality", "freeprod3", [],
                 "149621a60a6f1e0c48559172b5b6aba3f57933992290faa5f9133286ac0bde57"),
                ("duality", "triangle333", [],
                 "4ac32f87173cfe90fb23e75a3c8fc7f2ea9f0c794fd482c8f3dcdad78127f13c"),
                ("duality", "mixed", [],
                 "2e0b2912dfcd940776e626f13ba273f8d2b4061f5c6009e04a2adb8b04cc0f27"),
                ("vcd", "freeprod3", [],
                 "29a97344e50fc4ff4e06a3bfdb1fba236fe0ac072559f475df623dd0340ce0e8"),
                ("vcd", "triangle333", [],
                 "28891c28b510338a55f20f7414d13e2e0f5a3a823d7fea487c4dc5d9415360d8"),
                ("vcd", "mixed", [],
                 "a3b87a53f17d2b0d9ead9abe79c367505acd5254252f4e5acff2f08dc7984b99"),
                ("hc", "a2", ["--building", "fano"],
                 "e16673b4239fd57e7445daeaa5bff424e091588d8e4d603dbce5f9e1dbfe8f1d"),
                ("hc", "a2a1", ["--building", "fanoxa1"],
                 "1d787b84290b6c9d4f292412f0b67e9d83e1cd37639dc3eb096b6f3778af281d"),
                ("cohomology", "mixed", ["--model", "delta"],
                 "6eed9c6a87d8f8f2f30bb3cdd6cf62f7eaf73a6de4fc6e427e12ecbf2fe86b8b"),
                ("realize", "a2", ["--building", "plane(3)", "--model", "delta"],
                 "12bd89054e0718233741ceb82fbd936c14fd8a77b2e4be76cc067ea8f67ffc4d"),
                ("hc", "freeprod3", ["--N", "8"],
                 "f203cb4c4447395349d3f58b43316f4dec13a77deb4e9321fc17a43a5a1dfb7a"),
                ("hc", "triangle333", ["--N", "12"],
                 "ea2313a224f395d62b1b818c2960e2bec6cf536377e8bf78b7ba492b0b810fba"),
                ("hc", "triangle236", ["--N", "12"],
                 "42425e14c3d9901af727d0c2acbbf7e86e82261abe8b368c4bbd7dd71b7bbcee"),
                ("hc", "e8", ["--N", "4"],
                 "c829e0a4cdafb2ba42552c897534acede932e9a75be8cbb70700d30c1d04f614"),
                ("growth", "freeprod3", ["--T", "s", "--N", "8"],
                 "5773a6e7a80ac3769021739309c63ff8e63e9dd3a16c1c32d3e2a43558252c41"),
                ("growth", "triangle333", ["--T", "a", "b", "--N", "12"],
                 "6354f981257190a5f879ed040f73fcee3a71e4ab4140e4a6dcc267c306f28af6"),
                ("growth", "triangle236", ["--T", "a", "c", "--N", "12"],
                 "92d5601d21115c7911e568ecbfc4d383a7b2e6394be3df9d9216e0523abc94a0"),
                ("growth", "e8", ["--T", "a", "c", "--N", "6"],
                 "7063db722135f41a1f3b6cb7eb83c8bdcf10beae173cd42358081508179081ec"),
            ]
        ],
    )
    def test_formula_sides_json_is_pinned(self, capsys, tmp_path, verb, matrix, extra, digest):
        # recorded from the code that read the duality groups off the
        # reduced cohomology of each K^{S-T}, wrote the coefficient and
        # realization complexes with two block builders and assembled the
        # cross-check with its own entry class; the hc --N and growth
        # entries from the code that rebuilt the spherical poset and every
        # Steinberg term once per type
        path = tmp_path / f"{matrix}.cox"
        path.write_text(MATRICES[matrix])
        code, out = run(capsys, [verb, str(path), *extra, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("matrix", sorted(MATRICES))
    def test_cohomology_over_k_builds_no_davis_chamber(self, capsys, tmp_path, monkeypatch,
                                                       matrix):
        # K's nerve is the nerve of the matrix, so the verb needs no chamber
        import coxtop.cli
        import coxtop.complexes

        path = tmp_path / f"{matrix}.cox"
        path.write_text(MATRICES[matrix])
        argv = ["cohomology", str(path), "--model", "K", "--json"]
        expected = run(capsys, argv)

        def refused(*args):
            raise AssertionError("the Davis chamber was built")

        monkeypatch.setattr(coxtop.complexes, "flag_complex", refused)
        monkeypatch.setattr(coxtop.complexes, "davis_chamber", refused)
        monkeypatch.setattr(coxtop.cli, "davis_chamber_of", refused)
        assert run(capsys, argv) == expected
