import json

from polartrees.cli import _build_parser, main

PATH_22 = ", ".join(f"x{i}*x{i + 1}" for i in range(1, 23))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([*argv, "--format", "machine"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPolarize:
    def test_running_example(self, capsys):
        code, report = run_json(capsys, "polarize", "x1^2, x1*x2, x2^3")
        assert code == 0
        assert report["results"]["generators"] == [
            "x[1,1]*x[1,2]",
            "x[1,1]*x[2,1]",
            "x[2,1]*x[2,2]*x[2,3]",
        ]
        assert report["results"]["sequence"] == [
            "x[1,1] - x[1,2]",
            "x[2,1] - x[2,2]",
            "x[2,1] - x[2,3]",
        ]

    def test_depolarize_round_trip(self, capsys):
        code, report = run_json(
            capsys, "depolarize", "x[1,1]*x[1,2], x[1,1]*x[2,1], x[2,1]*x[2,2]*x[2,3]"
        )
        assert code == 0
        assert report["results"]["generators"] == ["x1^2", "x1*x2", "x2^3"]


class TestDecomposeAndAss:
    def test_decompose(self, capsys):
        code, report = run_json(capsys, "decompose", "x1^2, x1*x2, x2^3")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["results"]["components"] == ["(x1, x2^3)", "(x1^2, x2)"]
        assert report["results"]["polar_primes"] == [
            "(x[1,1], x[2,1])",
            "(x[1,1], x[2,2])",
            "(x[1,1], x[2,3])",
            "(x[1,2], x[2,1])",
        ]

    def test_ass_reports_witnesses(self, capsys):
        code, report = run_json(capsys, "ass", "x1^2, x1*x2")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["results"]["primes"] == ["(x1)", "(x1, x2)"]
        witnesses = report["results"]["witnesses"]
        assert set(witnesses) == {"(x1)", "(x1, x2)"}

    def test_height_and_beta(self, capsys):
        code, report = run_json(capsys, "height", "x1^3, x1^2*x2*x3, x3^2, x2^3*x3")
        assert code == 0 and report["results"]["height"] == 2
        code, report = run_json(capsys, "beta", "x1^3, x1^2*x2*x3, x3^2, x2^3*x3")
        assert code == 0 and report["results"]["beta"] == 2


class TestLocalizeAndDual:
    def test_localize(self, capsys):
        code, report = run_json(
            capsys, "localize", "x1^3, x1^2*x2", "--prime", "x1"
        )
        assert code == 0
        assert report["results"]["generators"] == ["x1^2"]

    def test_localize_unit(self, capsys):
        code, report = run_json(
            capsys, "localize", "x1*x2, x2*x3", "--prime", "x1"
        )
        assert code == 0
        assert report["results"]["unit_ideal"] is True

    def test_localize_needs_prime(self, capsys):
        code = main(["localize", "x1^2"])
        assert code == 2

    def test_dual(self, capsys):
        code, report = run_json(capsys, "dual", "x*y")
        assert code == 0
        assert report["results"]["generators"] == ["x", "y"]

    def test_dual_generators_are_the_covers_on_the_23_vertex_path(self, capsys):
        code, covers = run_json(capsys, "covers", PATH_22)
        assert code == 0
        code, dual = run_json(capsys, "dual", PATH_22)
        assert code == 0
        products = {
            c.strip("{}").replace(",", "*") for c in covers["results"]["covers"]
        }
        assert len(products) == 616
        assert set(dual["results"]["generators"]) == products


class TestComplexCommands:
    def test_complex_info(self, capsys):
        code, report = run_json(capsys, "complex-info", "xyz, yu, uvw")
        assert code == 0
        results = report["results"]
        assert results["alpha"] == 2
        assert results["beta"] == 2
        assert results["unmixed"] is True
        assert results["connected"] is True

    def test_covers(self, capsys):
        code, report = run_json(capsys, "covers", "xyz, yu, uvw")
        assert code == 0
        assert report["results"]["covers"] == [
            "{x,u}",
            "{y,u}",
            "{y,v}",
            "{y,w}",
            "{z,u}",
        ]

    def test_is_tree_negative_with_witness(self, capsys):
        code, report = run_json(capsys, "is-tree", "xy, yz, zx")
        assert code == 0
        assert report["results"]["is_tree"] is False
        assert report["witness"] == ["{x,y}", "{x,z}", "{y,z}"]

    def test_is_tree_positive(self, capsys):
        code, report = run_json(capsys, "is-tree", "xyz, yu, uvw")
        assert code == 0
        assert report["results"]["is_tree"] is True
        assert report["witness"] is None

    def test_leaves(self, capsys):
        code, report = run_json(capsys, "leaves", "xyz, yzu, zuv")
        assert code == 0
        rows = {row["facet"]: row for row in report["results"]["facets"]}
        assert rows["{x,y,z}"]["is_leaf"] is True
        assert rows["{x,y,z}"]["joints"] == ["{y,z,u}"]
        assert rows["{y,z,u}"]["is_leaf"] is False


class TestStructureCommands:
    def test_filtration(self, capsys):
        code, report = run_json(capsys, "filtration", "x1^2, x1*x2")
        assert code == 0
        assert report["results"]["chain"] == ["x1^2, x1*x2", "x1"]
        assert report["results"]["height"] == 1
        assert report["results"]["max_height"] == 2

    def test_check_konig_pass(self, capsys):
        code, report = run_json(
            capsys, "check-konig", "x1^3, x1^2*x2*x3, x3^2, x2^3*x3"
        )
        assert code == 0
        assert report["verdict"] == "pass"

    def test_check_konig_inapplicable_exits_zero(self, capsys):
        code, report = run_json(capsys, "check-konig", "xy, yz, zx")
        assert code == 0
        assert report["verdict"] == "inapplicable"
        assert report["results"]["height"] == 2
        assert report["results"]["beta"] == 1

    def test_check_joint_removal(self, capsys):
        code, report = run_json(
            capsys, "check-joint-removal", "x1^3, x1^2*x2*x3, x3^2, x2^3*x3"
        )
        assert code == 0
        assert report["verdict"] == "pass"
        dropped = {d["generator"] for d in report["results"]["drops"]}
        assert dropped == {"x1^2*x2*x3", "x2^3*x3"}

    def test_check_localization_with_prime(self, capsys):
        code, report = run_json(
            capsys, "check-localization", "x1^3, x1^2*x2", "--prime", "x1"
        )
        assert code == 0
        assert report["verdict"] == "pass"
        (entry,) = report["results"]["checks"]
        assert entry["substitution_commutes"] is False

    def test_check_localization_sweeps_minimal_primes(self, capsys):
        code, report = run_json(
            capsys, "check-localization", "x1^3, x1^2*x2*x3, x3^2, x2^3*x3",
            "--seed", "7",
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert len(report["results"]["checks"]) >= 2

    def test_cm_verdicts(self, capsys):
        code, report = run_json(capsys, "cm-verdict", "x1^2, x1*x2, x2^3")
        assert code == 0 and report["results"]["verdict"] == "cohen-macaulay"
        code, report = run_json(capsys, "cm-verdict", "x1^2, x1*x2")
        assert code == 0 and report["results"]["verdict"] == "not-cohen-macaulay"
        code, report = run_json(capsys, "cm-verdict", "xy, yz, zx")
        assert code == 0 and report["results"]["verdict"] == "inapplicable"

    def test_scm_verdict(self, capsys):
        code, report = run_json(capsys, "scm-verdict", "x1^2, x1*x2")
        assert code == 0
        assert report["results"]["verdict"] == "sequentially-cohen-macaulay"
        code, report = run_json(capsys, "scm-verdict", "xy, yz, zx")
        assert code == 0
        assert report["results"]["verdict"] == "unknown"

    def test_scm_verdict_honours_max_facets(self, capsys):
        code, report = run_json(capsys, "scm-verdict", PATH_22, "--max-facets", "25")
        assert code == 0
        assert report["results"]["verdict"] == "sequentially-cohen-macaulay"

    def test_scm_verdict_over_the_default_cap_names_it(self, capsys):
        assert main(["scm-verdict", PATH_22]) == 2
        assert "22 facets exceed the cap of 20" in capsys.readouterr().err

    def test_check_konig_over_the_cap_exits_before_decomposing(self, capsys):
        path_21 = ", ".join(f"x{i}*x{i + 1}" for i in range(1, 22))
        assert main(["check-konig", path_21]) == 2
        assert "21 facets exceed the cap of 20" in capsys.readouterr().err

    def test_check_appendix(self, capsys):
        code, report = run_json(capsys, "check-appendix", "x1^2, x1*x2")
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["results"]["chain"] == ["x1^2, x1*x2", "x1"]
        assert all(step["passed"] for step in report["results"]["steps"])

    def test_check_appendix_over_the_cap_exits_before_decomposing(self, capsys):
        path_21 = ", ".join(f"x{i}*x{i + 1}" for i in range(1, 22))
        assert main(["check-appendix", path_21]) == 2
        assert "21 facets exceed the cap of 20" in capsys.readouterr().err

    def test_check_appendix_on_a_16_edge_path(self, capsys):
        # a box sweep would visit 2^17 points for each colon-witness call
        path_16 = ", ".join(f"x{i}*x{i + 1}" for i in range(1, 17))
        code, report = run_json(capsys, "check-appendix", path_16)
        assert code == 0
        assert report["verdict"] == "pass"
        assert len(report["results"]["steps"]) == 4


class TestInterface:
    def test_parse_error_exits_two(self, capsys):
        assert main(["height", "x^0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate", "x"]) == 2

    def test_vars_flag_fixes_the_ring(self, capsys):
        code, report = run_json(capsys, "height", "y", "--vars", "x,y")
        assert code == 0 and report["results"]["height"] == 1

    def test_machine_keys_are_sorted(self, capsys):
        code = main(["height", "x1^2", "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 0
        assert list(json.loads(out)) == sorted(json.loads(out))

    def test_human_and_machine_agree(self, capsys):
        main(["covers", "xyz, yu, uvw", "--format", "machine"])
        machine = json.loads(capsys.readouterr().out)
        main(["covers", "xyz, yu, uvw"])
        human = capsys.readouterr().out
        for cover in machine["results"]["covers"]:
            assert cover in human
        assert str(machine["results"]["alpha"]) in human

    def test_cached_parser_keeps_no_arguments_between_calls(self, capsys):
        assert _build_parser() is _build_parser()
        code, report = run_json(capsys, "localize", "x1^2, x1*x2", "--prime", "x1")
        assert code == 0 and report["inputs"]["prime"] == "(x1)"
        code, report = run_json(capsys, "decompose", "x1^2, x1*x2")
        assert code == 0 and report["inputs"] == {"ideal": "x1^2, x1*x2"}
        args = _build_parser().parse_args(["decompose", "x1"])
        assert not {"prime", "seed", "max_facets"} & vars(args).keys()
        assert args.format == "human"
        args = _build_parser().parse_args(["check-localization", "x1"])
        assert (args.prime, args.seed, args.max_facets) == (None, None, 20)
        # a leaked --prime would shrink this sweep to a single prime
        code, report = run_json(
            capsys, "check-localization", "x1^3, x1^2*x2*x3, x3^2, x2^3*x3"
        )
        assert code == 0 and len(report["results"]["checks"]) >= 2

    def test_flags_a_command_ignores_are_usage_errors(self, capsys):
        assert main(["height", "x1", "--seed", "3"]) == 2
        assert main(["decompose", "x1", "--max-facets", "5"]) == 2
        assert main(["dual", "x1*x2", "--prime", "x1"]) == 2

    def test_max_degree_budget(self, capsys):
        assert main(["height", "x^9", "--max-degree", "4"]) == 2

    def test_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("x1^2, x1*x2"))
        code = main(["height", "-", "--format", "machine"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["results"]["height"] == 1

    def test_vars_header_in_text(self, capsys):
        code, = [main(["covers", "vars: x,y,z; x*y", "--format", "machine"])]
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["covers"] == ["{x}", "{y}"]

    def test_non_squarefree_complex_input_is_a_usage_error(self, capsys):
        for command in ("dual", "complex-info", "is-tree", "covers", "leaves"):
            assert main([command, "x^2, x*y"]) == 2
            assert "error" in capsys.readouterr().err
